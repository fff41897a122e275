import cmath
import math
import re
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import maxmod
from maxmod import (
    ConfigError,
    FloorViolationError,
    MonomialAllPlaneError,
    Polynomial,
    TraceConfig,
    ambiguity_radius,
    brute_force_mset,
    circle_argmax,
    classify,
    direct_mod2,
    expand,
    floor_radius,
    normalize,
    parse_poly,
    reciprocal,
    trace,
    trace_at_infinity,
    write_csv,
)
from maxmod.cli import _sample_member, main
from maxmod.modulus import ModulusExpansion, on_axis
from maxmod.roots import ON_CIRCLE, _derivative_roots, _solve_coef, critical_points
from maxmod.svg import render_svg
from maxmod.tracer import (
    NEWTON_MAX_ITER,
    CurveSample,
    _fit_tangent,
    _link,
    _scan_circles,
    radius_schedule,
)
from maxmod.util import circ_dist, reduce_angle


def curve_samples(res, curve_id: int) -> list:
    return [s for s in res.samples if s.curve_id == curve_id]


def cluster_count(angles: np.ndarray, grid: int) -> int:
    if angles.size <= 1:
        return angles.size
    idx = np.sort(np.round((angles + math.pi) / (2 * math.pi / grid)).astype(int))
    gaps = np.diff(np.concatenate([idx, [idx[0] + grid]]))
    return int(np.sum(gaps > 1))


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            TraceConfig(r_min=0.5, r_max=0.1)
        with pytest.raises(ValueError):
            TraceConfig(n_radii=1)
        with pytest.raises(ValueError):
            TraceConfig(n_radii=maxmod.tracer.MAX_RADII + 1)
        with pytest.raises(ValueError):
            TraceConfig(grid=32)
        with pytest.raises(ValueError):
            TraceConfig(grid=131072)

    def test_config_error_is_a_value_error(self):
        with pytest.raises(ConfigError) as info:
            TraceConfig(r_min=0.0)
        assert isinstance(info.value, ValueError)
        assert (info.value.code, info.value.exit_code) == ("Config", 2)

    def test_schedule_geometric(self):
        cfg = TraceConfig(r_min=1e-3, r_max=0.3, n_radii=50)
        rs = radius_schedule(cfg)
        assert rs[0] == pytest.approx(0.3) and rs[-1] == pytest.approx(1e-3)
        ratios = rs[1:] / rs[:-1]
        assert np.allclose(ratios, ratios[0])


class TestCircleArgmax:
    @pytest.mark.parametrize("a,k", [(1.0, 2), (2j, 3), (-1.5, 1), (0.5 - 0.5j, 5)])
    def test_two_term_exact_rays(self, a, k):
        coeffs = [1.0 + 0j] + [0j] * (k - 1) + [a]
        p = Polynomial(tuple(coeffs))
        e = expand(p)
        h = normalize(p)
        from maxmod import omega_angles

        omega = omega_angles(h)
        for r in (0.05, 0.2):
            pts = circle_argmax(e, r)
            assert len(pts) == k
            got = sorted(t for t, _ in pts)
            want = sorted(float(w) for w in omega)
            for g, w in zip(got, want):
                assert circ_dist(g, w) < 1e-12

    def test_magic_cubic_two_symmetric(self):
        e = expand(parse_poly("1,0,1,1i"))
        pts = circle_argmax(e, 0.1)
        assert len(pts) == 2
        (t1, m1), (t2, m2) = sorted(pts)
        assert circ_dist(t1, math.pi - t2) < 1e-12
        assert abs(m1 - m2) <= 1e-14 * m1

    def test_real_cubic_single_max(self):
        e = expand(parse_poly("1,0,1,1"))
        pts = circle_argmax(e, 0.1)
        assert len(pts) == 1
        assert abs(pts[0][0]) < 0.2

    def test_brute_force_oracle_agreement(self):
        polys = ("1,0,1,1i", "1,0,1,0.001+1i", "1,0,1,1", "1,0,0,0,1,0,1", "1,1")
        grid = 1 << 16
        for text in polys:
            p = parse_poly(text)
            e = expand(p)
            for r in (0.05, 0.1, 0.25):
                refined = circle_argmax(e, r)
                bf = brute_force_mset(p, r, grid)
                assert cluster_count(bf, grid) == len(refined)
                for t, _ in refined:
                    assert min(circ_dist(t, b) for b in bf) <= 2 * math.pi / grid

    def test_brute_force_single_cluster(self):
        bf = brute_force_mset(parse_poly("1,1"), 0.5, 4096)
        assert cluster_count(bf, 4096) == 1
        assert np.all(np.abs(bf) < 0.01)


# 1 + z^2 + z^24: one pair of maxima near 0, 24 crowded ones near |z| = 1
CROWDED = ",".join(["1", "0", "1"] + ["0"] * 21 + ["1"])
DEGREE_8 = "1,1,1i,1,-1,1i,0.5,1,2"
# real coefficients; at degree 32 the coefficients of the half-angle
# polynomial span about 4^32, far beyond 1 / eps
REAL_POLYS = (
    "1,1,0,-1,0.5",
    "1,0,1,1",
    "1,-2,0,0,0,0.5,3",
    "1,0,1,0,0,0.5," + "0," * 23 + "-0.7,0,0,1",
)

# a real quartic whose two mirror pairs of maxima meet at theta = 0 and pi
MIRROR_FOLD = "1,0,0.06992531489516031,0,-1.7647331544330163"
# input 1 of the benchmark's random_count pool: every circle of its trace at
# r_min = 2e-4 is certified
RANDOM_COUNT_1 = Polynomial(
    (1, -1.2144337858137724 + 0.47857789056023176j, 0, 0, 0, -0.02720722689166045 - 0.7449552617790021j)
)


class TestBatchedScan:
    @pytest.mark.parametrize(
        "text,cfg",
        [
            ("1,0,1,1i", TraceConfig()),
            (DEGREE_8, TraceConfig()),
            (DEGREE_8, TraceConfig(r_max=0.9)),
            (CROWDED, TraceConfig(r_min=0.05, r_max=0.95, n_radii=40)),
        ],
        ids=["fig1-cubic", "degree-8", "degree-8-rmax-0.9", "crowded"],
    )
    def test_trace_matches_single_radius_scans(self, text, cfg):
        # one batched scan of all radii gives the co-maximal points that a
        # scan of each radius alone gives.  A C_n row formed in a batch can
        # differ in its last bits from one formed alone, and the trace of an
        # input with a reflection axis runs on its quotient, so the angles
        # agree to the Newton tolerance and the moduli to a few ulps, not bit
        # for bit
        p = parse_poly(text)
        e = expand(p)
        res = trace(p, cfg)
        eps = np.finfo(float).eps
        for r in res.radii:
            got = [(s.theta, s.mod) for s in res.samples if s.r == r]
            alone = circle_argmax(e, r)
            assert len(got) == len(alone), r
            want_theta = np.array([t for t, _ in alone])
            for theta, mod in got:
                j = np.argmin(circ_dist(theta, want_theta))
                assert circ_dist(theta, want_theta[j]) <= 1e-12, (r, theta)
                assert abs(mod - math.sqrt(alone[j][1])) <= 4 * eps * mod, (r, mod)

    def test_d1d2_calls_do_not_grow_with_radii(self, monkeypatch):
        calls = []
        d1d2 = ModulusExpansion.d1d2

        def counted(self, r, theta, **kw):
            calls.append(np.size(theta))
            return d1d2(self, r, theta, **kw)

        monkeypatch.setattr(ModulusExpansion, "d1d2", counted)
        counts = {}
        for n in (20, 200):
            calls.clear()
            trace(parse_poly("1,0,1,1i"), TraceConfig(n_radii=n))
            counts[n] = len(calls)
        assert 0 < counts[200] <= counts[20] <= NEWTON_MAX_ITER + 5

    def test_fourier_rows_once_per_radius(self, monkeypatch):
        # the scan forms C_n once per radius for the root solve and every
        # evaluation at a point, which reads its circle's row; the root solve
        # reads nothing else of the expansion
        rows = {"fourier": 0, "eigen": 0}
        fourier = ModulusExpansion.fourier

        def counted(self, r):
            rows["fourier"] += np.size(r)
            return fourier(self, r)

        monkeypatch.setattr(ModulusExpansion, "fourier", counted)
        companion_roots = maxmod.roots._companion_roots

        def solved(coef):
            rows["eigen"] += coef.shape[0]
            return companion_roots(coef)

        monkeypatch.setattr(maxmod.roots, "_companion_roots", solved)
        trace(parse_poly(DEGREE_8), TraceConfig(n_radii=200))
        assert rows["fourier"] == 200
        assert 0 < rows["eigen"] <= 50

    def test_eigen_solves_only_anchor_circles(self, monkeypatch):
        # only circles that the certificate leaves open reach the eigenvalue
        # solve; certified circles are solved in their windows.  The magic
        # cubic is traced on its reflection axis, where the solved polynomial
        # S(u) is quadratic: there every circle is eigen-solved, as a 2 x 2
        # companion matrix, without a certificate.  Every circle of
        # random_count's input 1 is certified, so it makes no eigvals call
        solved = []  # (matrices, order) per call
        eigvals = np.linalg.eigvals

        def counted(a):
            solved.append(a.shape[:2])
            return eigvals(a)

        monkeypatch.setattr(np.linalg, "eigvals", counted)
        trace(parse_poly("1,0,1,1i"), TraceConfig(n_radii=200))
        assert solved == [(200, 2)]
        solved.clear()
        res = trace(RANDOM_COUNT_1, TraceConfig(r_min=2e-4, r_max=0.3, n_radii=200))
        assert solved == [] and res.n_components == 1
        trace(parse_poly(DEGREE_8), TraceConfig(n_radii=200))
        assert 0 < sum(rows for rows, _ in solved) <= 50

    def test_uncertified_followers_fall_back(self, monkeypatch):
        # near |z| = 0.9 several orders of the degree-8 input compete: the
        # certificate leaves some circles open, and their eigenvalue solve
        # keeps the trace whole, while the certified circles nearer 0 take
        # the window solve
        open_rows, windowed = [], []
        certified = maxmod.roots._certified
        window_roots = maxmod.roots._window_roots

        def counted(mag):
            ok = certified(mag)
            open_rows.append(int(np.count_nonzero(~ok)))
            return ok

        def counted_window(nc, *args):
            windowed.append(nc.shape[0])
            return window_roots(nc, *args)

        monkeypatch.setattr(maxmod.roots, "_certified", counted)
        monkeypatch.setattr(maxmod.roots, "_window_roots", counted_window)
        res = trace(parse_poly(DEGREE_8), TraceConfig(r_max=0.9))
        assert sum(open_rows) >= 1 and sum(windowed) >= 1
        assert {s.curve_id for s in res.samples} == {0}
        assert res.component_ids == (0,) and not res.events


def full_solve(e: ModulusExpansion, radii: np.ndarray) -> list[np.ndarray]:
    """Test oracle: each circle's critical angles, sorted, from numpy's
    companion solve of the full half-angle polynomial R(t) of degree 2d,
    circle by circle, with the tracer's rules for dropped orders but no
    quotient."""
    eps = np.finfo(float).eps
    cn = e.fourier(radii)
    nc = np.arange(1, cn.shape[1] + 1) * cn
    out = []
    for row in nc:
        d = int(np.flatnonzero(np.abs(row) > eps * np.abs(row).max())[-1]) + 1
        coef = _solve_coef(row[None, :d], d, False)[0]
        j = 2 * d
        while j > 0 and any(abs(coef[j]) < eps ** (j - k) * abs(coef[k]) for k in range(j)):
            j -= 1
        t = np.polynomial.polynomial.polyroots(coef[: j + 1]) if j else np.empty(0)
        w = (1 + 1j * t) / (1 - 1j * t)
        theta = np.angle(w[np.abs(np.abs(w) - 1) < ON_CIRCLE])
        out.append(np.sort(np.concatenate([theta, np.full(2 * d - j, -math.pi)])))
    return out


def symmetric_poly(rng, deg: int) -> Polynomial:
    """A random polynomial of degree ``deg`` whose coefficients have a
    random reflection axis, rounded to floats; about 30% of the middle
    coefficients are 0, and the whole is turned by a random phase."""
    psi = rng.uniform(-math.pi, math.pi)
    s = rng.normal(size=deg + 1)
    s[1:-1] *= rng.random(deg - 1) > 0.3
    s[0] = 1.0
    a0 = rng.uniform(0.5, 2.0) * cmath.exp(1j * rng.uniform(-math.pi, math.pi))
    c = a0 * s * np.exp(-1j * np.arange(deg + 1) * psi)
    return Polynomial(tuple(complex(x) for x in c))


def mirror(theta: np.ndarray) -> np.ndarray:
    """The angles -theta, sorted, with -pi as pi."""
    m = -np.asarray(theta)
    return np.sort(np.where(m == -math.pi, math.pi, m))


class TestQuotient:
    @pytest.mark.parametrize(
        "case",
        ["real", "symmetric-quartic", "symmetric-quintic", "linear"],
    )
    def test_quotient_matches_full_solve(self, case):
        # the roots t = +-sqrt(u) of S(u), with t = 0 and t = inf, are the
        # critical points that a companion solve of the full R(t) gives on the
        # same circles, and the scan's polished maxima are those of R's roots
        # after Newton steps on the exact derivative; circles with two
        # critical points within 1e-3, near a fold, are skipped.  Above
        # r = 0.75 the coefficients of S and R of the degree-32 input span up
        # to 1e18, and the unpolished roots agree to only 1e-7 (5.1e-8
        # measured at r = 0.9); only the maxima are polished
        rng = np.random.default_rng(20261020)
        if case == "real":
            polys = [parse_poly(text) for text in REAL_POLYS]
        elif case == "linear":
            polys = [parse_poly(text) for text in ("1,0.5", "1,-3", "1,1+1i", "2i,0.3-0.1i")]
        else:
            deg = 4 if case == "symmetric-quartic" else 5
            polys = [symmetric_poly(rng, deg) for _ in range(8)]
        checked = 0
        for p in polys:
            e = expand(p)
            psi, quotient = on_axis(e)
            assert not quotient.c.imag.any(), p
            lo = max(1e-2, 2 * floor_radius(normalize(p)))
            radii = np.geomspace(0.9, lo, 60)
            ridx, theta = critical_points(quotient.fourier(radii), radii)
            theta = reduce_angle(theta + psi)
            n_max, maxima, _, _, _ = _scan_circles(quotient, radii)
            maxima = reduce_angle(maxima + psi)
            mr = np.repeat(np.arange(radii.size), n_max)
            for i, want in enumerate(full_solve(e, radii)):
                got = np.sort(theta[ridx == i])
                if min(close_gap(got), close_gap(want)) <= 1e-3:
                    continue
                assert got.size == want.size, (p, radii[i])
                tol = 1e-9 if radii[i] <= 0.75 else 1e-7
                assert circ_dist(got[:, None], want).min(axis=1).max() <= tol, (p, radii[i])
                r = np.full(want.size, radii[i])
                for _ in range(4):
                    f, d2 = e.d1d2(r, want)
                    want = want - f / d2
                want = want[e.d1d2(r, want)[1] < 0.0]
                got = maxima[mr == i]
                assert got.size == want.size, (p, radii[i])
                assert circ_dist(got[:, None], want).min(axis=1).max() <= 1e-12, (p, radii[i])
                checked += 1
        assert checked >= 0.9 * 60 * len(polys)

    def test_axis_maxima_within_their_conditioning(self):
        # on_axis changes each c_l by up to 8 (l + 1) eps relative.  A
        # maximum is fixed in floats only to about eps d1_bound / |d2|, the
        # rounding of d/dtheta over the curvature there; next to a pitchfork
        # on the axis |d2| is small.  On this seeded symmetric quartic, at
        # r = 0.2915, two co-maximal maxima 0.0063 rad apart have
        # d2 = -1.45e-5 and that bound is 5.3e-11: the trace is 8.7e-12 from
        # the exact maximizers, the full solve without the quotient 2.9e-12.
        # Every other sample is within 1e-12
        mp = pytest.importorskip("mpmath")
        coeffs = (
            -1.3594339861938087 + 1.2590402188828085j,
            1.6180143744748101 - 0.241273402018569j,
            1.5932789161103047 + 0.7716544679266436j,
            0.5108229365537796 + 0.8906782207967866j,
            -0.05382095967737926 + 0.6857184298464637j,
        )
        p = Polynomial(coeffs)
        e = expand(p)
        assert on_axis(e)[0] != 0.0
        res = trace(p, TraceConfig(r_max=0.3))
        c = [mp.mpc(z.real, z.imag) for z in coeffs]
        dc = [k * c[k] for k in range(1, len(c))]

        def d1(r, t):  # -(1/2) d/dtheta |p(r e^{i t})|^2
            z = mp.mpf(r) * mp.expj(t)
            return mp.im(mp.conj(mp.polyval(c[::-1], z)) * z * mp.polyval(dc[::-1], z))

        eps = np.finfo(float).eps
        off_by = []
        with mp.workdps(30):
            for s in res.samples:
                want = float(mp.findroot(lambda t: d1(s.r, t), mp.mpf(s.theta)))
                d2 = e.d1d2(np.array([s.r]), np.array([s.theta]))[1][0]
                err = abs(s.theta - want)
                assert err <= 1e-12 + eps * e.d1_bound(s.r) / abs(d2), (s.r, s.theta, err)
                off_by.append(err)
        assert max(off_by) <= 1e-11
        assert sum(err > 1e-12 for err in off_by) == 2

    @pytest.mark.parametrize("text", REAL_POLYS + (MIRROR_FOLD, "1,0.3,-0.5,0.1,0.3,0.2"))
    def test_real_inputs_give_exact_mirror_pairs(self, text):
        # |p|^2 of a real polynomial is even in theta; the quotient returns
        # each critical point with its exact negative, and the maxima and
        # co-maximal samples of the trace keep the pairs bit for bit
        p = parse_poly(text)
        e = expand(p)
        cfg = TraceConfig(r_min=max(1e-3, 2 * floor_radius(normalize(p))), r_max=0.6)
        radii = radius_schedule(cfg)
        ridx, theta = critical_points(e.fourier(radii), radii)
        n_max, maxima, _, _, _ = _scan_circles(e, radii)
        for i, scan in enumerate(np.split(maxima, np.cumsum(n_max)[:-1])):
            crit = np.where(theta[ridx == i] == -math.pi, math.pi, theta[ridx == i])
            assert np.array_equal(np.sort(crit), mirror(crit))
            assert np.array_equal(np.sort(scan), mirror(scan))
        res = trace(p, cfg)
        for r in res.radii:
            got = np.array([s.theta for s in res.samples if s.r == r])
            assert np.array_equal(np.sort(got), mirror(got)), r

    def test_axis_found_and_snapped(self):
        # a polynomial whose coefficients have a reflection axis, rounded to
        # floats, is turned onto it: its c_j become real within the bound,
        # and |p|^2 turned back by psi is the same function
        rng = np.random.default_rng(7)
        eps = np.finfo(float).eps
        for deg in (1, 2, 3, 5, 12):
            p = symmetric_poly(rng, deg)
            e = expand(p)
            psi, q = on_axis(e)
            assert psi != 0.0 and not q.c.imag.any()
            ls = np.arange(deg + 1)
            want = e.c * np.exp(1j * ls * psi)
            assert np.all(np.abs(q.c.real - want.real) <= 8 * eps * (ls + 1) * np.abs(e.c))
            th = np.linspace(-math.pi, math.pi, 17)
            for r in (0.1, 0.7):
                scale = e.d1_bound(r)
                assert np.allclose(q.osc(r, th), e.osc(r, th + psi), rtol=0, atol=1e-13 * scale)
                assert np.allclose(q.osc_terms(r, th), e.osc_terms(r, th + psi), atol=1e-13 * scale)

    def test_oracle_follows_the_snapped_coefficients(self):
        # the oracle's terms are derived from the c_j of the expansion, so
        # after the snap its phases are exact multiples of pi and its cross
        # sum agrees with the Fourier path of the same c_j
        rng = np.random.default_rng(8)
        th = np.linspace(-math.pi, math.pi, 64, endpoint=False)
        for deg in (1, 2, 3, 5, 12):
            psi, q = on_axis(expand(symmetric_poly(rng, deg)))
            assert psi != 0.0
            assert set(np.abs(q.cross_phas).tolist()) <= {0.0, math.pi}
            for r in (0.1, 0.7):
                fast = q.osc(r, th)
                spread = fast.max() - fast.min()
                assert np.max(np.abs(q.osc_terms(r, th) - fast)) <= 1e-13 * spread

    @pytest.mark.parametrize(
        "text,turn",
        [
            ("1,0,1,1i", 1e-12),
            ("1,0,1,0.001+1i", 0.0),
            ("1,1,1e-200i", 0.0),
            ("1,1i,0.3,0,0,1", 0.0),
        ],
    )
    def test_no_axis_no_snap(self, text, turn):
        # the magic cubic with its top coefficient turned 1e-12 off the axis,
        # fig1's second cubic and inputs without an axis keep their c_j and
        # the full solve
        p = parse_poly(text)
        p = Polynomial(p.coeffs[:-1] + (p.coeffs[-1] * cmath.exp(1j * turn),))
        e = expand(p)
        psi, q = on_axis(e)
        assert psi == 0.0 and q is e

    def test_hunt_cubics_are_traced_on_the_axis(self):
        # every magic-locus cubic of the hunt has a reflection axis, as does
        # fig1's magic cubic
        rng = np.random.default_rng(20260809)
        assert on_axis(expand(parse_poly("1,0,1,1i")))[0] != 0.0
        for _ in range(200):
            p, _ = _sample_member("cubic", rng, on_locus=True)
            assert not on_axis(expand(p))[1].c.imag.any(), p


def oracle_maxima(e: ModulusExpansion, r: float, grid: int) -> np.ndarray:
    """Circular local maxima of the cross-term sum on a uniform grid."""
    th = -math.pi + 2 * math.pi * np.arange(grid) / grid
    x = e.osc_terms(r, th)
    return th[(x > np.roll(x, 1)) & (x >= np.roll(x, -1))]


def close_gap(theta: np.ndarray) -> float:
    """Least circular distance between two of the angles ``theta``."""
    if theta.size < 2:
        return math.inf
    th = np.sort(theta)
    return float(np.diff(np.concatenate([th, [th[0] + 2 * math.pi]])).min())


RANDOM_COUNT_4 = Polynomial(
    (
        1,
        -1.092693775576423 - 1.3780324357666591j,
        0,
        0,
        1.4421459689263467 + 1.363964931950492j,
        -0.5246771324099359 + 0.3368640744741806j,
    )
)
RANDOM_COUNT_9 = Polynomial((1, 0, 1.7648238028165952 + 0.5995024216046244j, 0, -0.4668918131041815 + 0.643990882248286j))


class TestMpmathOracle:
    @pytest.mark.parametrize(
        "p,cfg",
        [
            (parse_poly("1,0,1,1i"), TraceConfig(r_min=1e-3, r_max=0.3, n_radii=200)),
            (parse_poly("1,0,1,0.001+1i"), TraceConfig(r_min=1e-3, r_max=0.05, n_radii=200)),
            (RANDOM_COUNT_1, TraceConfig(r_min=2e-4, r_max=0.3, n_radii=200)),
            (RANDOM_COUNT_4, TraceConfig(r_min=2e-4, r_max=0.3, n_radii=200)),
            (RANDOM_COUNT_9, TraceConfig(r_min=2e-4, r_max=0.3, n_radii=200)),
        ],
        ids=["fig1-magic", "fig1-perturbed", "random-count-1", "random-count-4", "random-count-9"],
    )
    def test_maximizers_match_mpmath(self, p, cfg):
        # every traced maximizer of fig1's pair and of three random_count
        # inputs is within 5e-16, plus half an ulp for the last rounding of
        # the angle, of a 50-digit polish of d/dtheta |p|^2 = 0.  The half ulp
        # covers the magic cubic, traced on its axis and turned back by psi:
        # its worst is 5.85e-16 at theta = -3.139.  The other random_count
        # inputs but input 2 are off by more, up to 3.4e-15 on input 6, yet
        # within 30 eps d1_bound / |d2|, the rounding of d/dtheta over the
        # curvature
        mp = pytest.importorskip("mpmath")
        res = trace(p, cfg)
        c = [mp.mpc(z.real, z.imag) for z in p.coeffs]
        dc = [k * c[k] for k in range(1, len(c))]
        with mp.workdps(50):

            def d1(r, t):  # -(1/2) d/dtheta |p(r e^{i t})|^2
                z = r * mp.expj(t)
                return mp.im(mp.conj(mp.polyval(c[::-1], z)) * z * mp.polyval(dc[::-1], z))

            for s in res.samples:
                r = mp.mpf(s.r)
                want = mp.findroot(lambda t: d1(r, t), mp.mpf(s.theta))
                err = abs(float(mp.mpf(s.theta) - want))
                assert err <= 5e-16 + 0.5 * np.spacing(abs(s.theta)), (s.r, s.theta, err)


class TestCriticalPoints:
    def test_maxima_match_dense_oracle(self):
        # random polynomials of degree 2-12 on circles in [1e-2, 0.9], real
        # polynomials (theta = pi is the root t = inf) and one with its
        # maximum near theta = pi (a large root t): the root solve finds
        # exactly the local maxima of a 2^16-point scan, each within one grid
        # step, and maxima alternate with minima
        grid = 1 << 16
        step = 2 * math.pi / grid
        rng = np.random.default_rng(20261018)
        cases = []
        for _ in range(24):
            deg = int(rng.integers(2, 13))
            c = rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)
            c[1:-1] *= rng.random(deg - 1) > 0.3
            c[0] = 1.0
            p = Polynomial(tuple(complex(x) for x in c))
            lo = max(1e-2, 2 * floor_radius(normalize(p)))
            cases.append((p, np.exp(rng.uniform(math.log(lo), math.log(0.9), 3))))
        for text in REAL_POLYS + ("1,-1,0,0.3i",):
            cases.append((parse_poly(text), np.array([0.02, 0.1, 0.3, 0.8])))
        checked = 0
        for p, radii in cases:
            e = expand(p)
            n_max, thetas, _, _, _ = _scan_circles(e, radii)
            scans = np.split(thetas, np.cumsum(n_max)[:-1])
            ridx, theta = critical_points(e.fourier(radii), radii)
            _, d2 = e.d1d2(radii[ridx], theta)
            for i, (r, scan) in enumerate(zip(radii, scans)):
                is_max = d2[ridx == i] < 0
                assert np.all(is_max != np.roll(is_max, 1)), (p, r)
                bf = oracle_maxima(e, r, grid)
                gaps = np.diff(np.concatenate([bf, [bf[0] + 2 * math.pi]]))
                if bf.size > 1 and gaps.min() <= 4 * step:
                    continue
                assert scan.size == bf.size, (p, r)
                for t in scan:
                    assert circ_dist(t, bf).min() <= step, (p, r, t)
                checked += 1
        assert checked >= 75

    def test_followers_match_circles_solved_alone(self):
        # every circle of a schedule, the first and those that follow it,
        # gives the critical points that the circle solved alone gives:
        # whether a circle takes the window or the eigenvalue solve depends
        # on its own row only; circles with two critical points within 1e-3,
        # near a fold, are skipped
        rng = np.random.default_rng(20261018)
        checked = 0
        for case in range(24):
            deg = int(rng.integers(2, 17))
            c = rng.normal(size=deg + 1) + (case % 3 != 0) * 1j * rng.normal(size=deg + 1)
            c[1:-1] *= rng.random(deg - 1) > 0.3
            c[0] = 1.0
            p = Polynomial(tuple(complex(x) for x in c))
            lo = max(1e-2, 2 * floor_radius(normalize(p)))
            radii = np.geomspace(0.9, lo, 100)
            e = expand(p)
            ridx, theta = critical_points(e.fourier(radii), radii)
            for i in range(radii.size):
                got = theta[ridx == i]
                one = radii[i : i + 1]
                _, alone = critical_points(e.fourier(one), one)
                if min(close_gap(got), close_gap(alone)) <= 1e-3:
                    continue
                assert got.size == alone.size, (p, radii[i])
                assert circ_dist(got[:, None], alone).min(axis=1).max() <= 1e-9, (p, radii[i])
                checked += 1
        assert checked >= 1500

    @pytest.mark.parametrize("d", [1, 2, 5, 12, 24])
    def test_half_angle_coefficients(self, d):
        # R(t) = sum_n Im(nc_n (1+it)^{d+n} (1-it)^{d-n}), expanded term by
        # term with numpy's polynomial products, against the table product
        rng = np.random.default_rng(d)
        nc = rng.normal(size=(3, d)) + 1j * rng.normal(size=(3, d))
        P = np.polynomial.polynomial
        want = np.zeros((3, 2 * d + 1))
        scale = np.zeros((3, 2 * d + 1))
        for n in range(1, d + 1):
            poly = P.polymul(P.polypow([1, 1j], d + n), P.polypow([1, -1j], d - n))
            want += (nc[:, n - 1, None] * poly).imag
            scale += np.abs(nc[:, n - 1, None]) * np.abs(poly)
        got = _solve_coef(nc, d, False)
        assert np.all(np.abs(got - want) <= 8 * d * np.finfo(float).eps * scale)

    @pytest.mark.parametrize("text", REAL_POLYS)
    def test_real_coefficients_have_theta_pi(self, text):
        # |p|^2 of a real polynomial is even about theta = pi, so the top
        # coefficient of the half-angle polynomial is exactly 0 and every
        # circle gets theta = pi itself (as -pi) from the dropped order
        e = expand(parse_poly(text))
        radii = radius_schedule(TraceConfig(r_min=1e-2, r_max=0.9, n_radii=60))
        ridx, theta = critical_points(e.fourier(radii), radii)
        assert np.all(np.bincount(ridx[theta == -math.pi], minlength=radii.size) == 1)

    @pytest.mark.parametrize(
        "text,cfg",
        [
            ("1,0,1,0,0,0.5", TraceConfig(r_min=5e-5, n_radii=120)),
            (DEGREE_8, TraceConfig(r_max=0.9)),
            (CROWDED, TraceConfig(r_min=0.05, r_max=0.95, n_radii=40)),
        ],
        ids=["event-trace", "degree-8-rmax-0.9", "crowded"],
    )
    def test_on_circle_margin(self, text, cfg):
        # roots on the unit circle come back far inside ON_CIRCLE, and every
        # other root stays far outside it, even across folds
        e = expand(parse_poly(text))
        radii = radius_schedule(cfg)
        roots = _derivative_roots(e.fourier(radii), radii)
        dist = np.concatenate([np.abs(np.abs(w) - 1.0).ravel() for _, w in roots])
        on = dist < ON_CIRCLE
        assert on.any() and np.all(dist[on] <= 1e-10)
        assert np.all(dist[~on] >= 1e-3)

    @pytest.mark.parametrize("text", ["1,1,1e-200i", "1,1,1e-316i"])
    def test_root_near_infinity(self, text):
        # the z^2 term moves the minimum of |1 + z| off theta = pi by about
        # its coefficient, to a half-angle root t near 1e200 or 1e316, which
        # neither the companion matrix nor w = (1+it)/(1-it) holds in floats;
        # the root solve puts it at theta = pi
        e = expand(parse_poly(text))
        radii = np.array([0.3, 0.1])
        ridx, theta = critical_points(e.fourier(radii), radii)
        for i in range(radii.size):
            got = np.sort(np.abs(theta[ridx == i]))
            assert np.allclose(got, [0.0, math.pi], rtol=0, atol=1e-15)

    def test_circle_without_maximum_fails_cleanly(self, monkeypatch):
        # a circle whose critical points hold no maximum is a refinement
        # failure, not an IndexError
        e = expand(parse_poly("1,0,1,1i"))
        radii = np.array([0.2, 0.1])
        ridx, theta = critical_points(e.fourier(radii), radii)
        _, d2 = e.d1d2(radii[ridx], theta)
        keep = (ridx == 0) | (d2 >= 0)
        monkeypatch.setattr(
            maxmod.roots, "critical_points", lambda cn, radii: (ridx[keep], theta[keep])
        )
        with pytest.raises(maxmod.RefinementFailureError) as exc:
            _scan_circles(e, radii)
        assert exc.value.r == 0.1


class TestTrace:
    def test_two_term_components_on_rays(self):
        res = trace(parse_poly("1,0,1"), TraceConfig(r_min=1e-3, r_max=0.3, n_radii=60))
        assert res.n_components == 2
        assert res.stable_radius == pytest.approx(0.3)
        for t in res.tangents:
            assert t.on_ray
            assert t.omega_error < 1e-12
        for s in res.samples:
            assert min(circ_dist(s.theta, 0.0), circ_dist(s.theta, math.pi)) < 1e-12

    @pytest.mark.parametrize(
        "text,r_min",
        [
            ("1,0,1,1i", 1e-3),  # traced on its reflection axis
            ("1,0,1,0,0.3+0.2i", 1e-3),  # mu = 2
            ("1,0,1,0,0,0.5", 5e-5),  # a birth below the ambiguity radius
            ("1,1i,0.3,0,0,1", 1e-3),
        ],
    )
    def test_samples_by_curve_then_descending_radius(self, text, r_min):
        # write_csv and render_svg take the samples in this order
        res = trace(parse_poly(text), TraceConfig(r_min=r_min, r_max=0.3, n_radii=60))
        keys = [(s.curve_id, -s.r) for s in res.samples]
        assert keys == sorted(keys) and len(set(keys)) == len(keys)

    def test_sample_invariants(self):
        p = parse_poly("1,0,1,1i")
        cfg = TraceConfig(r_min=1e-3, r_max=0.3, n_radii=60)
        res = trace(p, cfg)
        e = expand(p)
        for s in res.samples:
            (d1,), (d2,) = e.d1d2(s.r, s.theta)
            assert abs(d1) <= maxmod.tracer.NEWTON_TOL * max(e.d1_bound(s.r), 1e-300)
            assert d2 <= maxmod.tracer.NEWTON_TOL * e.d2_bound(s.r)
            assert abs(s.mod**2 - e.mod2(s.r, s.theta)) <= 1e-12 * max(1.0, s.mod**2)

    def test_one_sample_per_radius_per_curve(self):
        res = trace(parse_poly("1,0,1,1i"), TraceConfig(r_min=1e-3, r_max=0.3, n_radii=60))
        for cid in res.component_ids:
            rs = [s.r for s in curve_samples(res, cid)]
            assert len(rs) == len(set(rs)) == 60

    def test_count_consistency_non_exceptional(self):
        for text in ("1,0,1,1", "1,0,1,0.001+1i", "1,2,0,0,1i"):
            c = classify(parse_poly(text))
            assert not c.exceptional
            res = trace(parse_poly(text), TraceConfig(r_min=1e-3, r_max=0.2, n_radii=60))
            assert res.n_components == c.mu

    def test_sector_confinement(self):
        p = parse_poly("1,0,1,1i")
        res = trace(p, TraceConfig(r_min=1e-3, r_max=0.3, n_radii=80))
        k = 2
        by_id = {t.curve_id: t for t in res.tangents}
        for s in res.samples:
            if s.r <= 0.15:
                assert circ_dist(s.theta, by_id[s.curve_id].matched_omega) < math.pi / k

    def test_rotation_symmetry_even_poly(self):
        res = trace(parse_poly("1,0,0,0,1,0,1"), TraceConfig(r_min=1e-2, r_max=0.3, n_radii=80))
        assert res.n_components == 2 and res.mu == 2
        assert res.symmetry
        for pair in res.symmetry:
            assert pair.max_dev <= 1e-9
            assert pair.curve_a != pair.curve_b

    def test_floor_violation(self):
        with pytest.raises(FloorViolationError) as exc:
            trace(parse_poly("1,0,1,1i"), TraceConfig(r_min=1e-9, r_max=0.3))
        assert exc.value.required > 1e-9
        # the reported floor is admissible
        trace(
            parse_poly("1,0,1,1i"),
            TraceConfig(r_min=2 * exc.value.required, r_max=0.05, n_radii=20),
        )

    def test_monomial_rejected(self):
        with pytest.raises(MonomialAllPlaneError):
            trace(parse_poly("0,0,3"))

    def test_phantom_birth_detection(self):
        # weak odd separator: below the ambiguity radius the losing sector
        # re-enters co-maximality and a curve is born mid-schedule
        p = parse_poly("1,0,1,0,0,0.5")
        amb = ambiguity_radius(normalize(p))
        assert 1e-4 < amb < 1e-2
        cfg = TraceConfig(r_min=5e-5, r_max=0.3, n_radii=120)
        res = trace(p, cfg)
        assert any(e.kind == "birth" and e.legitimate is False for e in res.events)
        # tracing only above the ambiguity radius is clean
        res2 = trace(p, TraceConfig(r_min=3 * amb, r_max=0.3, n_radii=60))
        assert res2.n_components == 1 and not res2.events

    @pytest.mark.parametrize("shift", [-1000, -64, 64, 900])
    def test_power_of_two_scaling_is_exact(self, shift):
        # the trace of 2^shift p is the trace of p, with every modulus scaled
        # by exactly 2^shift, even where |p|^2 leaves the float range
        p = parse_poly("1,0,1,0,0,0.5")
        q = Polynomial(
            tuple(complex(math.ldexp(c.real, shift), math.ldexp(c.imag, shift)) for c in p.coeffs)
        )
        cfg = TraceConfig(r_min=5e-5, r_max=0.3, n_radii=120)
        a, b = trace(p, cfg), trace(q, cfg)
        assert [(s.r, s.theta, math.ldexp(s.mod, shift), s.curve_id) for s in a.samples] == [
            (s.r, s.theta, s.mod, s.curve_id) for s in b.samples
        ]
        assert (a.n_components, a.events, a.tangents) == (b.n_components, b.events, b.tangents)

    @pytest.mark.parametrize("m", [1, 2])
    def test_monomial_factor_moves_nothing(self, m):
        # z^m p has the maximum modulus set of p, and the scan runs on the
        # normalized tail: curves, events and their legitimacy are those of
        # p bit for bit, and every modulus is multiplied by r^m.  Judged on
        # |z^m p|^2, whose deficits shrink by a further r^{2m}, the two
        # deaths at r = 0.73 read as not legitimate
        p = parse_poly("1,-0.46371007639487644,0,0.4168358932402857,0.6057947718694515")
        cfg = TraceConfig(r_min=1e-3, r_max=0.9, n_radii=99)
        a, b = trace(p, cfg), trace(Polynomial((0j,) * m + p.coeffs), cfg)
        assert (a.component_ids, a.events) == (b.component_ids, b.events)
        assert sum(ev.legitimate is True for ev in a.events) == 2
        assert [(s.r, s.theta, s.curve_id) for s in a.samples] == [
            (s.r, s.theta, s.curve_id) for s in b.samples
        ]
        for s, t in zip(a.samples, b.samples):
            assert t.mod == pytest.approx(s.r**m * s.mod, rel=4 * np.finfo(float).eps)

    def test_trace_mu_two(self):
        res = trace(parse_poly("1,0,0,0,1,0,1"), TraceConfig(r_min=1e-2, r_max=0.3, n_radii=40))
        assert res.n_components == 2

    @pytest.mark.parametrize("text", ["1,1e200,1e200", "1,1e308,1e308"])
    def test_floor_radius_without_overflow(self, text):
        # the squared coefficient mass overflows, the floor itself does not
        h = normalize(parse_poly(text))
        assert h.k == 1
        mass_over_a = 1.0 / abs(h.a) + 2.0  # (1 + 2|a|) / |a|
        want = 1e6 * np.finfo(float).eps * mass_over_a**2 * abs(h.a) / 2.0
        assert floor_radius(h) == pytest.approx(want, rel=1e-12)

    def test_floor_radius_formula(self):
        h = normalize(parse_poly("1,0,1,1i"))
        eps = np.finfo(float).eps
        want = math.sqrt(1e6 * eps * 9.0 / 2.0)
        assert floor_radius(h) == pytest.approx(want, rel=1e-12)


def fake_scan(monkeypatch, circles, oscs=None):
    """Make trace() see the given maxima, one list of angles per radius from
    r_max down, instead of scanning its circles.  ``oscs`` gives their
    values (all 1 by default); the largest of each circle are co-maximal."""
    n_max = np.array([len(c) for c in circles])
    theta = np.array([t for c in circles for t in c], dtype=float)
    oscs = oscs or [[1.0] * len(c) for c in circles]
    osc = np.array([x for c in oscs for x in c], dtype=float)
    comax = np.concatenate([np.array(c) == max(c) for c in oscs])
    scan = (n_max, theta, osc, osc + 1.0, comax)
    monkeypatch.setattr(maxmod.tracer, "_scan_circles", lambda e, radii: scan)
    return TraceConfig(r_min=1e-2, r_max=0.3, n_radii=len(circles))


class TestLink:
    def test_rotations_match_one_roll_per_rotation(self):
        # steps of equal count pick the rotation of least total displacement,
        # as a sum over np.roll per rotation does, on random circles
        rng = np.random.default_rng(9)
        for m in range(1, 13):
            n_max = np.full(40, m)
            theta = np.sort(rng.uniform(-math.pi, math.pi, (40, m)), axis=1)
            theta[rng.random(theta.shape) < 0.05] = math.pi
            theta = np.sort(theta, axis=1)
            prev = _link(n_max, theta.ravel())
            for k in range(1, 40):
                a, b = theta[k - 1], theta[k]
                cost = [circ_dist(a, np.roll(b, -s)).sum() for s in range(m)]
                s = int(np.argmin(cost))
                want = (k - 1) * m + np.arange(m)
                assert prev[k * m + (np.arange(m) + s) % m].tolist() == want.tolist()

    def test_crossing_pi_keeps_curve_id(self, monkeypatch):
        # the maximum near -pi steps past -pi to +3.13, which moves it to the
        # end of its circle's counterclockwise order, and back again
        circles = [[-3.12, 0.0], [0.01, 3.13], [-3.13, 0.02], [0.03, 3.12]]
        theta = np.array([t for c in circles for t in c])
        assert _link(np.array([2, 2, 2, 2]), theta).tolist() == [-1, -1, 1, 0, 3, 2, 5, 4]
        res = trace(parse_poly("1,0,1"), fake_scan(monkeypatch, circles))
        assert not res.events and res.component_ids == (0, 1)
        near_pi = {s.curve_id for s in res.samples if abs(s.theta) > 3}
        assert near_pi == {0} and len(curve_samples(res, 0)) == 4

    def test_fold_three_to_two(self, monkeypatch):
        # the middle maximum of three has no partner on the next circle: the
        # outer two keep their curve ids and the middle curve dies there
        n_max = np.array([3, 2, 2])
        theta = np.array([-2.0, 0.0, 2.0, -1.98, 2.02, -1.96, 2.04])
        assert _link(n_max, theta).tolist() == [-1, -1, -1, 0, 2, 3, 4]
        circles = [[-2.0, 0.0, 2.0], [-1.98, 2.02], [-1.96, 2.04]]
        cfg = fake_scan(monkeypatch, circles)
        res = trace(parse_poly("1,0,1"), cfg)
        assert res.component_ids == (0, 2)
        assert [s.theta for s in curve_samples(res, 2)] == [2.0, 2.02, 2.04]
        radii = radius_schedule(cfg)
        assert res.events == (maxmod.tracer.TraceEvent("death", float(radii[1]), 1, None),)

    def test_event_order_at_a_fold(self, monkeypatch):
        # on one circle the curve of an ended trajectory dies before a curve
        # is born
        circles = [[-2.0, 0.0, 2.0], [-1.98, 2.02]]
        cfg = fake_scan(monkeypatch, circles, [[1.0, 1.0, 0.5], [1.0, 1.0]])
        res = trace(parse_poly("1,0,1"), cfg)
        r = float(radius_schedule(cfg)[1])
        TraceEvent = maxmod.tracer.TraceEvent
        assert res.events == (TraceEvent("death", r, 1, None), TraceEvent("birth", r, 2, False))

    def test_ended_trajectories_die_in_trajectory_order(self, monkeypatch):
        # the maximum at 0.0 is born on the second circle, after the one at
        # 1.0; both end on the third, and their curves die in that order
        circles = [[-2.0, 1.0], [-1.98, 0.0, 1.02], [-1.96]]
        cfg = fake_scan(monkeypatch, circles)
        res = trace(parse_poly("1,0,1"), cfg)
        r1, r2 = radius_schedule(cfg)[1:].tolist()
        TraceEvent = maxmod.tracer.TraceEvent
        assert res.events == (
            TraceEvent("birth", r1, 2, False),
            TraceEvent("death", r2, 1, None),
            TraceEvent("death", r2, 2, None),
        )

    @pytest.mark.parametrize("last,legitimate", [(0.1, False), (0.6, True)])
    def test_death_legitimacy_window(self, monkeypatch, last, legitimate):
        # a death is legitimate when the deficits of its trajectory over the
        # 6 radii from the death on do not fall back; the 7th does not count
        deficits = [0.1, 0.2, 0.3, 0.4, 0.5, last, 0.05]
        oscs = [[1.0, 1.0]] + [[1.0, 1.0 - d] for d in deficits]
        cfg = fake_scan(monkeypatch, [[0.0, 3.0]] * len(oscs), oscs)
        res = trace(parse_poly("1,0,1"), cfg)
        r = float(radius_schedule(cfg)[1])
        assert res.events == (maxmod.tracer.TraceEvent("death", r, 1, legitimate),)

    def test_fold_two_to_three(self):
        # a maximum born between two others leaves their links alone
        n_max = np.array([2, 3])
        theta = np.array([-2.0, 2.0, -1.98, 0.0, 2.02])
        assert _link(n_max, theta).tolist() == [-1, -1, 0, -1, 1]

    def test_mirror_tie_continues_the_first_member(self):
        # mirror maxima -x and x that meet on the axis tie exactly in
        # displacement; the one at -x, first in counterclockwise order from
        # -pi, continues, and the one at x ends or is born
        assert _link(np.array([2, 1]), np.array([-0.1, 0.1, 0.0])).tolist() == [-1, -1, 0]
        assert _link(np.array([1, 2]), np.array([0.0, -0.1, 0.1])).tolist() == [-1, 0, -1]
        theta = np.array([-3.0, 0.0, 3.0, math.pi, 0.0])
        assert _link(np.array([3, 2]), theta).tolist() == [-1, -1, -1, 0, 1]

    def test_mirror_tie_at_a_pitchfork(self):
        # the two mirror pairs of this real quartic meet at theta = 0 and pi
        # on one circle: the maxima at -x continue as curves 0 and 1, and the
        # curves 2 and 3 at x, their exact mirror images, die
        res = trace(parse_poly(MIRROR_FOLD), TraceConfig(r_max=0.3))
        assert res.component_ids == (0, 1)
        assert [(ev.kind, ev.curve_id) for ev in res.events] == [("death", 2), ("death", 3)]
        assert res.events[0].r == res.events[1].r
        for kept, ended in ((1, 2), (0, 3)):
            mirrored = {s.r: -s.theta for s in curve_samples(res, kept)}
            assert all(mirrored[s.r] == s.theta > 0 for s in curve_samples(res, ended))
            assert len(curve_samples(res, kept)) == 200

    def test_mirror_tie_turned_off_the_real_axis(self):
        # the same quartic turned by 0.7 rad is traced on its axis psi = 0.7,
        # where the mirror maxima tie exactly again: its curves are those of
        # the real quartic turned by 0.7, and the turned images of the same
        # two curves die
        p = parse_poly(MIRROR_FOLD)
        q = Polynomial(tuple(c * cmath.exp(-0.7j * l) for l, c in enumerate(p.coeffs)))
        assert on_axis(expand(q))[0] == pytest.approx(0.7, abs=1e-15)
        cfg = TraceConfig(r_max=0.3)
        a, b = trace(p, cfg), trace(q, cfg)
        assert len(b.events) == 2 and b.events[0].r == a.events[0].r
        died = [ev.curve_id for ev in b.events]
        for ids_a, ids_b in ((a.component_ids, b.component_ids), ((2, 3), died)):
            turned = ((s.r, reduce_angle(s.theta + 0.7)) for s in a.samples if s.curve_id in ids_a)
            want = sorted(turned)
            got = sorted((s.r, s.theta) for s in b.samples if s.curve_id in ids_b)
            assert [r for r, _ in got] == [r for r, _ in want]
            assert max(circ_dist(x, y) for (_, x), (_, y) in zip(got, want)) <= 1e-12

    def test_mirror_tie_of_a_symmetric_quintic(self):
        # a quintic with the reflection axis psi = 0.483, rounded to floats:
        # linked in the axis frame, the mirror maxima meeting on the axis near
        # r = 0.785 tie exactly, and the one at psi - x goes on (linked after
        # turning back by psi, the one at psi + x went on)
        p = Polynomial(
            (
                complex(-0.1927881065181064, -0.9527691610883715),
                0j,
                complex(-0.557193793171743, -0.238472551209384),
                complex(1.0725103538135958, -0.08487763869388705),
                0j,
                complex(-0.3277147424095459, 0.5656897223253656),
            )
        )
        psi = on_axis(expand(p))[0]
        r_min = max(1e-3, 2 * floor_radius(normalize(p)))
        res = trace(p, TraceConfig(r_min=r_min, r_max=0.9))
        (death,) = res.events
        assert death.kind == "death" and res.component_ids == (1 - death.curve_id,)
        ended = curve_samples(res, death.curve_id)[-1]
        (kept,) = [s for s in res.samples if s.r == ended.r and s.curve_id != death.curve_id]
        x = reduce_angle(ended.theta - psi)
        assert 0 < x < math.pi
        assert circ_dist(kept.theta - psi, -x) <= 1e-12

    def test_crowded_curve_ids(self):
        # the count of maxima drops 24 -> 12 -> 2 across two steps; the two
        # co-maximal curves, at theta = pi and theta = 0, are never cut
        res = trace(parse_poly(CROWDED), TraceConfig(r_min=0.05, r_max=0.95, n_radii=40))
        assert not res.events and res.component_ids == (0, 1)
        assert [len(curve_samples(res, c)) for c in (0, 1)] == [40, 40]
        assert all(abs(s.theta) == math.pi for s in curve_samples(res, 0))
        assert all(abs(s.theta) < 0.5 for s in curve_samples(res, 1))

    @pytest.mark.parametrize("n_radii", [200, 8])
    def test_continuous_curve_is_not_split(self, n_radii):
        # one branch whose maximum moves 0.0054 -> -0.0052 -> -0.0164 rad over
        # three radii near 0.87 (200 radii) while the count of maxima stays
        # 6: one curve, no death/birth pair, on a coarse schedule too
        res = trace(parse_poly(DEGREE_8), TraceConfig(r_max=0.9, n_radii=n_radii))
        assert {s.curve_id for s in res.samples} == {0}
        assert res.component_ids == (0,) and not res.events


def theory_alpha(text: str, omega_j: float) -> int | None:
    """Approach exponent n* - k, where n* is the first tail exponent whose
    term moves the curve off its ray: sin(n omega_j + arg b_n) != 0."""
    h = normalize(parse_poly(text))
    for n, b in enumerate(h.tail.coeffs):
        if n > h.k and b != 0 and abs(math.sin(n * omega_j + cmath.phase(b))) > 1e-9:
            return n - h.k
    return None


class TestFitTangent:
    @pytest.mark.parametrize("alpha", [1, 2, 3, 4])
    def test_known_curves(self, alpha):
        rs = np.geomspace(0.3, 1e-3, 200)
        rng = np.random.default_rng(alpha)
        for _ in range(10):
            omega = rng.uniform(-math.pi, math.pi)
            c = rng.uniform(0.5, 2.0, 4) * rng.choice([-1.0, 1.0], 4)
            thetas = omega + sum(cn * rs ** (alpha + i) for i, cn in enumerate(c))
            omega_hat, alpha_hat, on_ray = _fit_tangent(rs, thetas)
            assert not on_ray
            assert circ_dist(omega_hat, omega) <= 1e-9
            assert abs(alpha_hat - alpha) <= 0.05

    @pytest.mark.parametrize("r_min,r_max", [(0.0299, 0.03), (0.29, 0.3)])
    def test_narrow_window_fits_the_degree_it_resolves(self, r_min, r_max):
        # 50 radii within 0.3% of each other resolve only 5 powers of r: the
        # fit takes degree 4 in place of a rank-deficient degree 6, without a
        # RankWarning (an error under this suite's filterwarnings), and its
        # tangent stays near the candidate angles (the rank-deficient fit
        # reported omega_hat = -3.0995, 4.2e-2 off omega_1)
        res = trace(parse_poly("1,0,1,1i"), TraceConfig(r_min=r_min, r_max=r_max, n_radii=50))
        assert res.n_components == 2
        for t in res.tangents:
            assert t.omega_error <= 1e-3

    def test_constant_is_on_ray(self):
        rs = np.geomspace(0.3, 1e-3, 200)
        omega_hat, alpha_hat, on_ray = _fit_tangent(rs, np.full(rs.size, 0.7))
        assert on_ray and alpha_hat is None
        assert omega_hat == pytest.approx(0.7, abs=1e-15)

    @pytest.mark.parametrize(
        "text,alpha",
        [
            ("1,0,1,1i", 1),
            ("1,1i,0.3,0,0,1", 4),
            ("1,0,1,0,0,1i", 3),
            ("1,0,0,1,0,0,0,1i", 4),
            ("1,1,0,0,1i", 3),
        ],
    )
    def test_traced_alpha_matches_theory(self, text, alpha):
        h = normalize(parse_poly(text))
        r_min = max(1e-3, 1.5 * floor_radius(h), 3.0 * ambiguity_radius(h))
        res = trace(parse_poly(text), TraceConfig(r_min=r_min, r_max=0.3, n_radii=200))
        fits = [t for t in res.tangents if t.curve_id in res.component_ids]
        assert fits
        for t in fits:
            assert theory_alpha(text, t.matched_omega) == alpha
            assert abs(t.alpha_hat - alpha) <= 0.05, (t.curve_id, t.alpha_hat)

    def test_trace_imports_only_numpy(self):
        # the tangent fit is one numpy least-squares solve: a trace in a fresh
        # interpreter loads no third-party package besides numpy
        code = (
            "import sys\n"
            "before = set(sys.modules)\n"
            "from maxmod import TraceConfig, parse_poly, trace\n"
            "trace(parse_poly('1,0,1,1i'), TraceConfig(n_radii=20))\n"
            "new = {m.split('.')[0] for m in set(sys.modules) - before}\n"
            "extra = new - set(sys.stdlib_module_names) - {'maxmod', 'numpy'}\n"
            "assert not extra, sorted(extra)\n"
        )
        src = str(Path(maxmod.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        subprocess.run([sys.executable, "-c", code], check=True, env=env)


class TestAtInfinity:
    def test_self_reciprocal_binomial(self):
        cfg = TraceConfig(r_min=1e-2, r_max=0.2, n_radii=30)
        res0 = trace(parse_poly("1,1"), cfg)
        res1 = trace_at_infinity(parse_poly("1,1"), cfg)
        assert res1.inverted
        t0 = sorted((s.r, s.theta) for s in res0.samples)
        t1 = sorted((s.r, s.theta) for s in res1.samples)
        assert t0 == t1

    def test_cubic_reciprocal_structure(self):
        # i + z + z^3 reverses to 1 + z^2 + i z^3: two curves near infinity
        cfg = TraceConfig(r_min=1e-3, r_max=0.2, n_radii=60)
        res = trace_at_infinity(parse_poly("1i,1,0,1"), cfg)
        assert res.inverted and res.n_components == 2

    @pytest.mark.parametrize("text", ["2,0,0,4", "1,0.3,-0.2i,0.5,2"])
    def test_mod_is_that_of_the_reciprocal(self, text):
        # an inverted sample w stands for 1/w and carries |w^n p(1/w)|, the
        # modulus of the traced reciprocal, not that of its normalized tail
        q = reciprocal(parse_poly(text))
        res = trace_at_infinity(parse_poly(text), TraceConfig(r_min=1e-3, r_max=0.3, n_radii=20))
        for s in res.samples:
            assert s.mod == pytest.approx(math.sqrt(direct_mod2(q, s.r, s.theta)), rel=1e-13)

    def test_involution_revisits(self):
        p = parse_poly("1,0,1,1i")
        cfg = TraceConfig(r_min=1e-3, r_max=0.2, n_radii=40)
        direct = trace(p, cfg)
        back = trace_at_infinity(reciprocal(p), cfg)
        t0 = sorted((s.r, s.theta) for s in direct.samples)
        t1 = sorted((s.r, s.theta) for s in back.samples)
        assert t0 == t1


class TestCsv:
    def test_format_and_sorting(self, tmp_path):
        cfg = TraceConfig(r_min=1e-3, r_max=0.3, n_radii=25)
        res = trace(parse_poly("1,0,1,1i"), cfg)
        path = tmp_path / "out.csv"
        write_csv(res, str(path))
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "r,theta,re,im,mod,curve_id"
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == res.n_components * cfg.n_radii
        keys = [(int(row[5]), -float(row[0])) for row in rows]
        assert keys == sorted(keys)
        r, th, re_, im, mod, _ = rows[0]
        assert float(re_) == pytest.approx(float(r) * math.cos(float(th)), rel=1e-15)
        assert float(im) == pytest.approx(float(r) * math.sin(float(th)), rel=1e-15)
        assert float(mod) > 0


def row_by_row_csv(res) -> str:
    """The CSV as built from ``res.samples`` one row at a time."""
    lines = ["r,theta,re,im,mod,curve_id\n"]
    for s in res.samples:
        re_, im = s.r * math.cos(s.theta), s.r * math.sin(s.theta)
        lines.append(f"{s.r:.17g},{s.theta:.17g},{re_:.17g},{im:.17g},{s.mod:.17g},{s.curve_id}\n")
    return "".join(lines)


def row_by_row_paths(res) -> list[str]:
    """The ``d`` attribute of each SVG path, built from ``res.samples``."""
    points: dict[int, list[str]] = {cid: [] for cid in res.component_ids}
    for s in res.samples:
        if s.curve_id in points:
            x, y = s.r * math.cos(s.theta), -s.r * math.sin(s.theta)
            points[s.curve_id].append(f"{x:.6g} {y:.6g}")
    return ["M " + " L ".join(pts) for pts in points.values()]


class TestSampleColumns:
    # the fig-1 pair, a trace whose moduli are inf, and a trace at infinity
    CASES = [
        ("1,0,1,1i", TraceConfig(r_min=1e-3, r_max=0.3, n_radii=200), False),
        ("1,0,1,0.001+1i", TraceConfig(r_min=1e-3, r_max=0.05, n_radii=200), False),
        ("1e308,1e308,1e308", TraceConfig(r_max=0.9), False),
        ("1,0,1,1i", TraceConfig(), True),
    ]

    @pytest.mark.parametrize(
        "text,cfg,at_infinity", CASES, ids=["fig1a", "fig1b", "inf-mod", "infinity"]
    )
    def test_writers_match_the_samples(self, tmp_path, text, cfg, at_infinity):
        p = parse_poly(text)
        res = trace_at_infinity(p, cfg) if at_infinity else trace(p, cfg)
        columns = (res.sample_r, res.sample_theta, res.sample_mod, res.sample_curve)
        assert res.samples == tuple(map(CurveSample, *columns))
        assert res.samples is res.samples
        if text.startswith("1e308"):
            assert math.inf in res.sample_mod
        path = tmp_path / "out.csv"
        write_csv(res, str(path))
        assert path.read_text(encoding="utf-8") == row_by_row_csv(res)
        svg = render_svg(res, cfg.r_max)
        assert re.findall(r'<path d="([^"]*)"', svg) == row_by_row_paths(res)
        if at_infinity:
            direct = trace(reciprocal(p), cfg)
            assert res.inverted and not direct.inverted
            assert res.samples == direct.samples


class TestFixedWork:
    @staticmethod
    def count_samples(monkeypatch) -> list:
        built = []
        init = CurveSample.__init__

        def counted(self, *args):
            built.append(1)
            init(self, *args)

        monkeypatch.setattr(CurveSample, "__init__", counted)
        return built

    def test_no_sample_objects_unless_read(self, monkeypatch, tmp_path):
        built = self.count_samples(monkeypatch)
        traced = []

        def counted_trace(*args):
            traced.append(trace(*args))
            return traced[-1]

        monkeypatch.setattr(maxmod.cli, "trace", counted_trace)
        argv = ["hunt", "--family", "cubic", "--samples", "4", "--out", str(tmp_path / "h.jsonl")]
        assert main(argv + ["--quiet"]) == 0
        assert traced and not built
        res = trace(parse_poly("1,0,1,1i"), TraceConfig(n_radii=50))
        assert res.n_components == 2 and res.tangents and not built
        assert len(res.samples) == len(res.sample_r) == len(built) > 0
        res.samples  # read again: cached, nothing more is built
        assert len(built) == len(res.sample_r)

    def test_d1_bound_once_per_radius(self, monkeypatch):
        radii = []
        d1_bound = ModulusExpansion.d1_bound

        def counted(self, r):
            radii.append(np.size(r))
            return d1_bound(self, r)

        monkeypatch.setattr(ModulusExpansion, "d1_bound", counted)
        # four maxima on every circle, so one bound per maximum would be 4 n
        res = trace(parse_poly("1,0,0,0,1"), TraceConfig(r_min=1e-2, n_radii=30))
        assert res.n_components == 4
        assert 0 < sum(radii) <= 30


class TestTruncatedInput:
    def test_trace_refuses_truncations(self):
        from maxmod import TruncatedSeriesError

        p = Polynomial((1, 0, 1, 1j), truncated=True)
        with pytest.raises(TruncatedSeriesError):
            trace(p, TraceConfig(r_min=1e-2, r_max=0.2, n_radii=20))
