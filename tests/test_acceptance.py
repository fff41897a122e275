"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import cmath
import json
import math
import time
from functools import lru_cache

import numpy as np
import pytest

from maxmod import (
    Polynomial,
    TraceConfig,
    ambiguity_radius,
    circle_argmax,
    classify,
    direct_mod2,
    expand,
    floor_radius,
    is_exceptional,
    normalize,
    parse_poly,
    predict_J,
    reciprocal,
    trace,
)
from maxmod.cli import main as cli_main
from maxmod.util import circ_dist, reduce_angle

EPS = np.finfo(float).eps


def report(num: int, desc: str) -> None:
    print(f"[acceptance] criterion {num:02d}: PASS  {desc}")


def polar(rho, phi):
    return rho * cmath.exp(1j * phi)


@lru_cache(maxsize=None)
def fig1_traces():
    t0 = time.perf_counter()
    res_a = trace(parse_poly("1,0,1,1i"), TraceConfig(r_min=1e-3, r_max=0.3, n_radii=200))
    t_a = time.perf_counter() - t0
    t0 = time.perf_counter()
    res_b = trace(parse_poly("1,0,1,0.001+1i"), TraceConfig(r_min=1e-3, r_max=0.05, n_radii=200))
    t_b = time.perf_counter() - t0
    return res_a, t_a, res_b, t_b


def _random_nonexceptional(rng):
    """Degrees 3-8, k in {1,2,3}; reject any residual below 1e-6 and any
    sample whose count/tangent window would be numerically intractable."""
    while True:
        k = int(rng.choice([1, 2, 3]))
        deg = int(rng.integers(max(3, k + 1), 9))
        exps = {k, deg}
        for e2 in range(k + 1, deg):
            if rng.random() < 0.5:
                exps.add(e2)
        coeffs = [0j] * (deg + 1)
        coeffs[0] = 1.0 + 0j
        for e2 in sorted(exps):
            coeffs[e2] = polar(rng.uniform(0.5, 2.0), rng.uniform(-math.pi, math.pi))
        p = Polynomial(tuple(coeffs))
        c = classify(p)
        if c.exceptional:
            continue
        if any(float(w.split("residual=")[1]) < 1e-6 for w in c.warnings):
            continue
        h = normalize(p)
        r_min = max(2e-4, 1.5 * floor_radius(h), 3.0 * ambiguity_radius(h))
        if r_min > 0.01:
            continue
        return p, c, r_min


@lru_cache(maxsize=None)
def random_count_suite():
    rng = np.random.default_rng(20260809)
    t0 = time.perf_counter()
    runs = []
    for _ in range(50):
        p, c, r_min = _random_nonexceptional(rng)
        res = trace(p, TraceConfig(r_min=r_min, r_max=0.3, n_radii=200))
        runs.append((p, c, res))
    return runs, time.perf_counter() - t0


def test_criterion_01_figure_reproduction():
    res_a, t_a, res_b, t_b = fig1_traces()
    assert res_a.n_components == 2
    by_curve = [
        {round(math.log(s.r), 9): s.theta for s in res_a.curve_samples(cid)}
        for cid in res_a.component_ids
    ]
    shared = sorted(set(by_curve[0]) & set(by_curve[1]))
    assert len(shared) == 200
    worst = max(
        circ_dist(by_curve[0][key], math.pi - by_curve[1][key]) for key in shared
    )
    assert worst <= 1e-9
    assert res_b.n_components == 1
    assert t_a <= 10.0 and t_b <= 10.0
    report(
        1,
        f"two mirror components (dev {worst:.1e}) vs one after perturbation; "
        f"{t_a:.1f}s / {t_b:.1f}s",
    )


def test_criterion_02_count_equals_inner_degree():
    runs, elapsed = random_count_suite()
    assert len(runs) == 50
    for p, c, res in runs:
        assert res.n_components == c.mu, f"{p.coeffs}: {res.n_components} != mu={c.mu}"
    assert elapsed <= 120.0
    report(2, f"50 random non-exceptional inputs, components == inner degree; {elapsed:.0f}s")


def test_criterion_03_cubic_criterion_cross_validation():
    rng = np.random.default_rng(1706)
    n_on = 0
    for i in range(200):
        rho_a, phi_a = rng.uniform(0.5, 2.0), rng.uniform(-math.pi, math.pi)
        rho_b = rng.uniform(0.5, 2.0)
        if i % 2:
            phi_b = 1.5 * phi_a + math.pi / 2 + int(rng.integers(0, 2)) * math.pi
            n_on += 1
        else:
            phi_b = rng.uniform(-math.pi, math.pi)
        a, b = polar(rho_a, phi_a), polar(rho_b, phi_b)
        h = normalize(Polynomial((1, 0, a, b)))
        flag, _ = is_exceptional(h)
        b_prime = b * a**-1.5
        closed_form = abs(b_prime.real) <= 1e-9 * abs(b_prime)
        assert flag == closed_form, (a, b, flag, closed_form)
    assert n_on == 100
    report(3, "resonance test matches Re(b a^{-3/2}) = 0 on 200 cubics (100 on-locus)")


def test_criterion_04_expansion_oracle_equivalence():
    rng = np.random.default_rng(41)
    worst = 0.0
    for _ in range(10_000):
        deg = int(rng.integers(1, 11))
        cs = rng.uniform(-2, 2, deg + 1) + 1j * rng.uniform(-2, 2, deg + 1)
        if cs[-1] == 0:
            cs[-1] = 1.0
        p = Polynomial(tuple(cs))
        e = expand(p)
        r = float(rng.uniform(0, 1))
        th = float(rng.uniform(-math.pi, math.pi))
        m1 = e.mod2(r, th)
        m2 = direct_mod2(p, r, th)
        err = abs(m1 - m2) / max(1.0, m1)
        worst = max(worst, err)
        assert err <= 1e-12
    report(4, f"1e4 random triples, worst relative deviation {worst:.2e}")


def test_criterion_05_derivative_correctness():
    # two-term inputs: the exact leading-term formula is the whole derivative
    for a, k in ((2j, 3), (1.5, 1), (-0.7 + 0.2j, 4), (0.3 - 1.1j, 2)):
        coeffs = [1.0 + 0j] + [0j] * (k - 1) + [a]
        e = expand(Polynomial(tuple(coeffs)))
        for r, th in ((0.3, 0.7), (0.9, -2.0), (0.05, 3.1), (1.0, 0.0)):
            want = -2 * abs(a) * k * r**k * math.sin(k * th + cmath.phase(a))
            assert abs(e.d1d2(r, th)[0][0] - want) <= 1e-14 * max(1.0, abs(want))

    rng = np.random.default_rng(31)
    slopes_checked = 0
    for _ in range(100):
        deg = int(rng.integers(2, 11))
        cs = rng.uniform(-1, 1, deg + 1) + 1j * rng.uniform(-1, 1, deg + 1)
        if cs[-1] == 0:
            cs[-1] = 1.0
        e = expand(Polynomial(tuple(cs)))
        r = float(rng.uniform(0.2, 1.0))
        th = float(rng.uniform(-math.pi, math.pi))
        exact = e.d1d2(r, th)[0][0]
        amp_r = e.cross_amps * r**e.cross_pows
        c3 = float(np.sum(amp_r * e.cross_freqs**3)) / 6.0
        mass = e.base(r) + float(np.sum(amp_r))

        def err(h):
            return abs((e.mod2(r, th + h) - e.mod2(r, th - h)) / (2 * h) - exact)

        def noise(h):
            return 64 * EPS * mass / (2 * h)

        e4 = err(1e-4)
        assert e4 <= c3 * 1e-8 + noise(1e-4)
        c_rich = max(e4 / 1e-8, 1.0)  # Richardson estimate of the h^2 constant
        for h in (1e-5, 1e-6):
            assert err(h) <= 2 * c_rich * h * h + noise(h)
        if c3 * 1e-8 > 30 * noise(1e-4) and e4 > 0:
            slopes_checked += 1
            slope = math.log(err(1e-3) / e4) / math.log(10.0)
            assert 1.5 < slope < 2.5, slope
    assert slopes_checked >= 50
    report(5, f"exact two-term identity + O(h^2) decay on 100 polys ({slopes_checked} slopes)")


def test_criterion_06_reflection_identity_grid():
    rng = np.random.default_rng(67)
    worst = 0.0
    r_grid = np.linspace(0.01, 1.0, 100)
    t_grid = np.linspace(-math.pi, math.pi, 100, endpoint=False)
    for _ in range(20):
        b = polar(rng.uniform(0.5, 2.0), rng.uniform(-math.pi, math.pi))
        e = expand(Polynomial((1, 0, 1, b)))
        phi = cmath.phase(b)
        for r in r_grid:
            lhs = e.mod2(float(r), t_grid) - e.mod2(float(r), math.pi - t_grid)
            rhs = 4 * r**3 * abs(b) * math.cos(phi) * (np.cos(3 * t_grid) + r * r * np.cos(t_grid))
            worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    assert worst <= 1e-12
    report(6, f"cubic reflection formula on 20 x 100 x 100 grid, worst {worst:.2e}")


def test_criterion_07_tangency():
    res_a, _, res_b, _ = fig1_traces()
    runs, _ = random_count_suite()
    all_results = [res_a, res_b] + [res for _, _, res in runs]
    n_curves = 0
    worst_omega = 0.0
    for res in all_results:
        for t in res.tangents:
            if t.curve_id not in res.component_ids:
                continue
            n_curves += 1
            assert t.on_ray or t.alpha_hat >= 0.45, (t.curve_id, t.alpha_hat)
            assert t.omega_error <= 1e-9, (t.curve_id, t.omega_error)
            worst_omega = max(worst_omega, t.omega_error)
    assert n_curves >= 52
    report(7, f"{n_curves} curves: alpha >= 0.45, worst |omega_hat - omega_j| {worst_omega:.1e}")


def test_criterion_08_rotation_symmetry():
    p = parse_poly("1,0,0,0,1,0,1")
    res = trace(p, TraceConfig(r_min=1e-2, r_max=0.3, n_radii=120))
    assert res.n_components == 2
    assert res.mu == 2
    worst = max(pair.max_dev for pair in res.symmetry)
    assert worst <= 1e-9
    pj = predict_J(normalize(p))
    k_over_mu = 4 // 2
    assert len({j % k_over_mu for j in pj.j_set}) == 1
    report(8, f"pi-rotation pairs curves within {worst:.1e}; survivor set is one residue class")


def test_criterion_09_reciprocal_duality():
    p = parse_poly("1i,1,0,1")
    q = normalize(reciprocal(p)).tail
    assert q.coeffs == (1, 0, 1, 1j)
    ep, eq = expand(p), expand(q)
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(20):
        r = float(rng.uniform(3.0, 10.0))
        angles_p = sorted(reduce_angle(t) for t, _ in circle_argmax(ep, r))
        angles_q = sorted(reduce_angle(-t) for t, _ in circle_argmax(eq, 1.0 / r))
        assert len(angles_p) == len(angles_q)
        worst = max(
            worst, max(circ_dist(x, y) for x, y in zip(angles_p, angles_q))
        )
    assert worst <= 1e-8
    report(9, f"maximizers of p at r match reflected maximizers of reciprocal at 1/r ({worst:.1e})")


def test_criterion_10_conjecture_hunt(tmp_path, capsys):
    out = tmp_path / "findings.jsonl"
    code = cli_main(
        ["hunt", "--family", "cubic", "--samples", "100", "--seed", "20260809",
         "--out", str(out), "--quiet"]
    )
    capsys.readouterr()
    assert code == 0
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert len(records) == 100
    magic_on_locus = [r for r in records if r["on_locus"] and r["magic"] == "MAGIC"]
    assert len(magic_on_locus) == 50
    for rec in magic_on_locus:
        assert rec["n_components"] == 2 == 2 * rec["mu"], rec
        assert rec["conjecture_holds"] is True, rec
    # failures would stay on disk for inspection; check the file is complete
    assert out.exists() and len(out.read_text().splitlines()) == 100
    report(10, "50 on-locus magic cubics all traced to 2 = 2*mu components")
