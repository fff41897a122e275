import cmath
import json
import math
import re
import os
import subprocess
import sys
from dataclasses import replace
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
    classify,
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
from maxmod.roots import WINDOW_MAX_ITER, critical_points
from maxmod.svg import render_svg
from maxmod.tracer import (
    FIT_DEGREE,
    CurveSample,
    _fit_tangent,
    _link,
    _polyfit,
    _rows,
    _scan,
    count_components,
    radius_schedule,
)
from maxmod.util import circ_dist, reduce_angle
from make_corpus import hunt_schedule
from oracles import (
    ON_CIRCLE,
    TermExpansion,
    brute_force_mset,
    circle_argmax,
    companion_angles,
    companion_roots,
    derivative_bounds,
    direct_mod2,
    half_angle_coef,
    history_radius,
    mass_check_every_radius,
    polyfit_tangent,
    term_expansion,
)


def scan_points(e: ModulusExpansion, radii: np.ndarray):
    """:func:`critical_points` of the circles of ``e`` at ``radii``."""
    return critical_points(e.fourier(radii), radii)


def turned(p: Polynomial, e: ModulusExpansion):
    """``(psi, q)``: the axis that :func:`on_axis` finds on the normal form
    of ``p``, and the expansion ``e`` of ``p`` with the coefficients of the
    turned tail, keeping the type and scale of ``e``."""
    psi, tail = on_axis(normalize(p).tail)
    t = expand(tail)
    return psi, replace(e, c=t.c, c_pairs=t.c_pairs)


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
        # grid takes n_radii's rule: an integer, then its range
        for grid in ("x", None, 4096.5):
            with pytest.raises(ConfigError, match="integer grid"):
                TraceConfig(grid=grid)
        # a bool is an int to Python, but no radius
        with pytest.raises(ConfigError, match="need a real r_min"):
            TraceConfig(r_min=True, r_max=2.0)

    @pytest.mark.parametrize("n_radii", [200.0, 2.5, "200", None])
    def test_n_radii_must_be_an_integer(self, n_radii):
        # a float reached numpy's geomspace before, which raised TypeError
        with pytest.raises(ConfigError, match="integer n_radii"):
            TraceConfig(n_radii=n_radii)

    @pytest.mark.parametrize(
        "radii", [{"r_min": "0.001"}, {"r_max": None}, {"r_min": 1j}, {"r_max": "0.3"}]
    )
    def test_radii_must_be_real(self, radii):
        # the comparison 0 < r_min < r_max raised a bare TypeError before;
        # numpy floats and ints still pass (test_schedule_is_geomspace_bit_for_bit)
        name = next(iter(radii))
        with pytest.raises(ConfigError, match=f"real {name}"):
            TraceConfig(**radii)

    def test_numpy_integer_n_radii(self):
        cfg = TraceConfig(n_radii=np.int64(20))
        assert radius_schedule(cfg).size == 20
        assert trace(parse_poly("1,0,1,1"), cfg).n_components == 1

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

    def test_schedule_is_geomspace_bit_for_bit(self):
        # the schedule is np.geomspace's, on 10000 random schedules over the
        # whole float range, from ratios within an ulp of 1 to 600 decades,
        # and on integral ends
        rng = np.random.default_rng(29)
        hi = 10.0 ** rng.uniform(-300, 300, 10_000)
        decades = 600.0 * rng.uniform(0, 1, hi.size) ** 4
        lo = np.minimum(np.maximum(hi * 10.0**-decades, 1e-307), np.nextafter(hi, 0.0))
        lo[:100] = np.nextafter(hi[:100], 0.0)
        n = rng.integers(2, 2000, hi.size)
        n[:10] = maxmod.tracer.MAX_RADII
        configs = [TraceConfig(r_min=a, r_max=b, n_radii=int(k)) for a, b, k in zip(lo, hi, n)]
        configs += [TraceConfig(r_min=1, r_max=1000, n_radii=7), TraceConfig(r_min=1e-3, r_max=1, n_radii=2)]
        for cfg in configs:
            want = np.geomspace(cfg.r_max, cfg.r_min, cfg.n_radii)
            assert np.array_equal(radius_schedule(cfg).view(np.uint64), want.view(np.uint64)), cfg


class TestAmbiguityRadius:
    """``ambiguity_radius`` computes the survivor gaps in its own loop; it
    equals, bit for bit, the radius read off the history of the survivor
    oracle ``predict_J``."""

    @staticmethod
    def assert_matches_history(forms, min_nonzero):
        got = [ambiguity_radius(h) for h in forms]
        assert got == [history_radius(h) for h in forms]
        assert sum(r > 0 for r in got) >= min_nonzero

    def test_weak_odd_separator(self):
        h = normalize(parse_poly("1,0,1,0,0,0.5"))
        assert ambiguity_radius(h) == history_radius(h) > 0

    def test_nothing_excluded(self):
        for text in ("1,0,0,2i", "1,0,1,1i", "1,1"):
            assert ambiguity_radius(normalize(parse_poly(text))) == 0.0

    def test_trace_corpus(self):
        corpus = json.loads(Path(__file__).with_name("corpus.json").read_text(encoding="utf-8"))
        forms = [normalize(Polynomial(tuple(complex(*z) for z in e["coeffs"]))) for e in corpus]
        self.assert_matches_history(forms, 70)

    @pytest.mark.parametrize("family, seed", [("cubic", 5), ("quartic", 99)])
    def test_hunt_members(self, family, seed):
        rng = np.random.default_rng(seed)
        members = [_sample_member(family, rng, on_locus=i % 2 == 1)[0] for i in range(2000)]
        self.assert_matches_history([normalize(p) for p in members], 900)

    def test_random_tails(self):
        # degree 2-12, about 40% of the coefficients zero
        rng = np.random.default_rng(7)
        forms = []
        for _ in range(2000):
            deg = int(rng.integers(2, 13))
            c = rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)
            c[rng.random(deg + 1) < 0.4] = 0
            c[0], c[deg] = 1, c[deg] or 1
            forms.append(normalize(Polynomial(tuple(complex(z) for z in c))))
        self.assert_matches_history(forms, 400)


class TestCircleArgmax:
    @pytest.mark.parametrize("a,k", [(1.0, 2), (2j, 3), (-1.5, 1), (0.5 - 0.5j, 5)])
    def test_two_term_exact_rays(self, a, k):
        coeffs = [1.0 + 0j] + [0j] * (k - 1) + [a]
        p = Polynomial(tuple(coeffs))
        e = expand(p)
        omega = normalize(p).omega
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

    def test_evaluation_passes_do_not_grow_with_radii(self, monkeypatch):
        # every evaluation at a point is one Horner pass over all circles:
        # each step of the polish of the magic cubic's points and the one
        # osc pass
        calls = []
        fourier_sum = maxmod._kernels.fourier_sum

        def counted(coef, theta, rows=None):
            calls.append(np.size(theta))
            return fourier_sum(coef, theta, rows)

        monkeypatch.setattr(maxmod._kernels, "fourier_sum", counted)
        counts = {}
        for n in (20, 200):
            calls.clear()
            trace(parse_poly("1,0,1,1i"), TraceConfig(n_radii=n))
            counts[n] = len(calls)
        assert 0 < counts[200] <= counts[20] <= WINDOW_MAX_ITER + 5

    def test_fourier_rows_once_per_radius(self, monkeypatch, root_solve):
        # the scan forms C_n once per radius for the root solve and every
        # evaluation at a point, which reads its circle's row; the root solve
        # reads nothing else of the expansion
        rows = {"fourier": 0}
        fourier = ModulusExpansion.fourier

        def counted(self, r):
            rows["fourier"] += np.size(r)
            return fourier(self, r)

        monkeypatch.setattr(ModulusExpansion, "fourier", counted)
        trace(parse_poly(DEGREE_8), TraceConfig(n_radii=200))
        assert rows["fourier"] == 200
        assert 0 < sum(map(len, root_solve["subdivided"])) <= 50

    def test_uncertified_followers_fall_back(self, root_solve):
        # near |z| = 0.9 several orders of the degree-8 input compete: the
        # certificate leaves some circles open, and their subdivision keeps
        # the trace whole, while the certified circles nearer 0 take the
        # window solve, with no evaluation before the Newton polish
        res = trace(parse_poly(DEGREE_8), TraceConfig(r_max=0.9))
        certified = np.concatenate(root_solve["certified"])
        assert np.count_nonzero(~certified) >= 1 and np.count_nonzero(certified) >= 1
        open_rows = [set(np.flatnonzero(~ok).tolist()) for ok in root_solve["certified"]]
        assert root_solve["subdivided"] == open_rows
        assert {s.curve_id for s in res.samples} == {0}
        assert res.component_ids == (0,) and not res.events


def full_solve(e: ModulusExpansion, radii: np.ndarray) -> list[np.ndarray]:
    """Test oracle: each circle's critical angles, sorted, from the companion
    solve of the full half-angle polynomial R(t) of degree 2d, circle by
    circle, without the quotient (:func:`oracles.companion_angles`)."""
    cn = e.fourier(radii)
    return [companion_angles(np.arange(1, cn.shape[1] + 1) * row) for row in cn]


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
        # the critical points solved on the quotient, each x in (0, pi) with
        # its mirror -x and the axis points 0 and -pi, are those that a
        # companion solve of the full R(t) gives on the same circles after
        # Newton steps on the exact derivative, within 1e-9, and the scan's
        # maxima are those polished roots of negative second derivative,
        # within 1e-12; circles with two critical points within 1e-3, near a
        # fold, are skipped.  Above r = 0.75 the coefficients of R of the
        # degree-32 input span up to 1e18, and its unpolished roots are off
        # by up to 1.6e-8 (r = 0.9); every critical point is polished
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
            e = term_expansion(p)
            psi, quotient = turned(p, e)
            assert not quotient.c.imag.any(), p
            lo = max(1e-2, 2 * floor_radius(normalize(p)))
            radii = np.geomspace(0.9, lo, 60)
            ridx, theta, _ = scan_points(quotient, radii)
            theta = reduce_angle(theta + psi)
            n_max, _, maxima, *_ = _scan(_rows(quotient, radii), radii, True)
            maxima = reduce_angle(maxima + psi)
            mr = np.repeat(np.arange(radii.size), n_max)
            for i, want in enumerate(full_solve(e, radii)):
                got = np.sort(theta[ridx == i])
                if min(close_gap(got), close_gap(want)) <= 1e-3:
                    continue
                assert got.size == want.size, (p, radii[i])
                r = np.full(want.size, radii[i])
                for _ in range(4):
                    f, d2 = e.d1d2(r, want)
                    want = want - f / d2
                assert circ_dist(got[:, None], want).min(axis=1).max() <= 1e-9, (p, radii[i])
                want = want[e.d1d2(r, want)[1] < 0.0]
                got = maxima[mr == i]
                assert got.size == want.size, (p, radii[i])
                assert circ_dist(got[:, None], want).min(axis=1).max() <= 1e-12, (p, radii[i])
                checked += 1
        assert checked >= 0.9 * 60 * len(polys)

    def test_axis_maxima_within_their_conditioning(self):
        # on_axis changes each c_l by up to 8 (l + 1) eps relative.  A
        # maximum is fixed in floats only to about eps B1 / |d2|, B1 the
        # bound of d/dtheta on its circle (oracles.derivative_bounds), the
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
        e = term_expansion(p)
        assert on_axis(normalize(p).tail)[0] != 0.0
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
                b1 = e.scale(s.r) * derivative_bounds(e, s.r)[0]
                assert err <= 1e-12 + eps * b1 / abs(d2), (s.r, s.theta, err)
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
        ridx, theta, _ = scan_points(e, radii)
        n_max, _, maxima, *_ = _scan(_rows(e, radii), radii, True)
        maxima = reduce_angle(maxima)  # the axis point pi as pi, as a trace folds it
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
            e = term_expansion(p)
            psi, q = turned(p, e)
            assert psi != 0.0 and not q.c.imag.any()
            ls = np.arange(deg + 1)
            want = e.c * np.exp(1j * ls * psi)
            assert np.all(np.abs(q.c.real - want.real) <= 8 * eps * (ls + 1) * np.abs(e.c))
            th = np.linspace(-math.pi, math.pi, 17)
            for r in (0.1, 0.7):
                scale = e.scale(r) * derivative_bounds(e, r)[0]
                assert np.allclose(q.osc(r, th), e.osc(r, th + psi), rtol=0, atol=1e-13 * scale)
                assert np.allclose(q.osc_terms(r, th), e.osc_terms(r, th + psi), atol=1e-13 * scale)

    def test_oracle_follows_the_snapped_coefficients(self):
        # the oracle's terms are derived from the c_j of the expansion, so
        # after the snap its phases are exact multiples of pi and its cross
        # sum agrees with the Fourier path of the same c_j
        rng = np.random.default_rng(8)
        th = np.linspace(-math.pi, math.pi, 64, endpoint=False)
        for deg in (1, 2, 3, 5, 12):
            p = symmetric_poly(rng, deg)
            psi, q = turned(p, term_expansion(p))
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
        tail = normalize(p).tail
        psi, q = on_axis(tail)
        assert psi == 0.0 and q is tail

    def test_hunt_cubics_are_traced_on_the_axis(self):
        # every magic-locus cubic of the hunt has a reflection axis, as does
        # fig1's magic cubic
        rng = np.random.default_rng(20260809)
        assert on_axis(normalize(parse_poly("1,0,1,1i")).tail)[0] != 0.0
        for _ in range(200):
            p, _ = _sample_member("cubic", rng, on_locus=True)
            assert not any(z.imag for z in on_axis(normalize(p).tail)[1].coeffs), p


def grid_peaks(e: TermExpansion, r: float, grid: int) -> np.ndarray:
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
RANDOM_COUNT_7 = Polynomial(
    (
        1,
        -0.5535380410466126 - 0.8460866359712435j,
        0.7218231302929948 - 1.8026243378987195j,
        0.06100465484004649 + 0.862460209832096j,
        0,
        -0.3049446789809854 - 1.596173788033229j,
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
        # within 30 eps B1 / |d2|, the rounding of d/dtheta over the
        # curvature (B1 as in test_axis_maxima_within_their_conditioning)
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
            e = term_expansion(p)
            n_max, _, thetas, *_ = _scan(_rows(e, radii), radii, not e.c.imag.any())
            scans = np.split(thetas, np.cumsum(n_max)[:-1])
            ridx, _, kind = scan_points(e, radii)
            for i, (r, scan) in enumerate(zip(radii, scans)):
                is_max = kind[ridx == i]
                assert np.all(is_max != np.roll(is_max, 1)), (p, r)
                bf = grid_peaks(e, r, grid)
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
        # whether a circle takes the window solve or the subdivision depends
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
            ridx, theta, _ = scan_points(e, radii)
            for i in range(radii.size):
                got = theta[ridx == i]
                one = radii[i : i + 1]
                _, alone, _ = scan_points(e, one)
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
        # of the companion oracle
        rng = np.random.default_rng(d)
        nc = rng.normal(size=(3, d)) + 1j * rng.normal(size=(3, d))
        P = np.polynomial.polynomial
        want = np.zeros((3, 2 * d + 1))
        scale = np.zeros((3, 2 * d + 1))
        for n in range(1, d + 1):
            poly = P.polymul(P.polypow([1, 1j], d + n), P.polypow([1, -1j], d - n))
            want += (nc[:, n - 1, None] * poly).imag
            scale += np.abs(nc[:, n - 1, None]) * np.abs(poly)
        got = half_angle_coef(nc, d)
        assert np.all(np.abs(got - want) <= 8 * d * np.finfo(float).eps * scale)

    @pytest.mark.parametrize("text", REAL_POLYS)
    def test_real_coefficients_have_theta_pi(self, text):
        # |p|^2 of a real polynomial is even about theta = pi, so the top
        # coefficient of the half-angle polynomial is exactly 0 and every
        # circle gets theta = pi itself (as -pi) from the dropped order
        e = expand(parse_poly(text))
        radii = radius_schedule(TraceConfig(r_min=1e-2, r_max=0.9, n_radii=60))
        ridx, theta, _ = scan_points(e, radii)
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
        # the companion oracle's roots on the unit circle come back far
        # inside its ON_CIRCLE, and every other root stays far outside it,
        # even across folds
        e = expand(parse_poly(text))
        radii = radius_schedule(cfg)
        cn = e.fourier(radii)
        n = np.arange(1, cn.shape[1] + 1)
        dist = np.concatenate([np.abs(np.abs(companion_roots(n * row)) - 1.0) for row in cn])
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
        ridx, theta, _ = scan_points(e, radii)
        for i in range(radii.size):
            got = np.sort(np.abs(theta[ridx == i]))
            assert np.allclose(got, [0.0, math.pi], rtol=0, atol=1e-15)

    def test_circle_without_maximum_fails_cleanly(self, monkeypatch):
        # a circle whose critical points hold no maximum is a refinement
        # failure, not an IndexError
        e = expand(parse_poly("1,0,1,1i"))
        radii = np.array([0.2, 0.1])
        ridx, theta, is_max = scan_points(e, radii)
        keep = (ridx == 0) | ~is_max
        monkeypatch.setattr(
            maxmod.roots,
            "critical_points",
            lambda cn, radii, mirror: (ridx[keep], theta[keep], is_max[keep]),
        )
        with pytest.raises(maxmod.RefinementFailureError) as exc:
            _scan(_rows(e, radii), radii, False)
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
        e = term_expansion(p)
        for s in res.samples:
            (d1,), (d2,) = e.d1d2(s.r, s.theta)
            b1, b2 = derivative_bounds(e, s.r)
            assert abs(d1) <= 1e-12 * max(b1, 1e-300)
            assert d2 <= 1e-12 * b2
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
    ridx = np.repeat(np.arange(n_max.size), n_max)
    theta = np.array([t for c in circles for t in c], dtype=float)
    oscs = oscs or [[1.0] * len(c) for c in circles]
    osc = np.array([x for c in oscs for x in c], dtype=float)
    deficit = np.array([max(c) - x for c in oscs for x in c], dtype=float)
    comax = deficit == 0
    scan = (n_max, ridx, theta, osc, comax)
    monkeypatch.setattr(maxmod.tracer, "_scan", lambda cn, radii, real: scan)
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
        assert on_axis(normalize(q).tail)[0] == pytest.approx(0.7, abs=1e-15)
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
        psi = on_axis(normalize(p).tail)[0]
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

    @pytest.mark.parametrize("r_min,alpha", [(0.1501, None), (0.15, 1)])
    def test_alpha_needs_a_factor_2_window(self, r_min, alpha):
        # theta = omega + r over a window from r_min to 0.3: its exponent is
        # reported only where the window spans a factor of 2 in r
        rs = np.geomspace(0.3, r_min, 50)
        omega_hat, alpha_hat, on_ray = _fit_tangent(rs, 0.5 + rs)
        assert not on_ray and omega_hat == pytest.approx(0.5, abs=1e-12)
        assert alpha_hat == (None if alpha is None else pytest.approx(alpha, abs=1e-6))

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


class TestPolyfit:
    # _polyfit is the arithmetic of np.polyfit(full=True) without its
    # wrapper: coefficients and rank agree bit for bit, so a numpy release
    # that changes polyfit's arithmetic fails here
    @staticmethod
    def assert_polyfit(x, y, deg) -> int:
        coef, rank = _polyfit(x, y, deg)
        want, _, want_rank, _, _ = np.polyfit(x, y, deg, full=True)
        assert rank == want_rank
        assert coef.dtype == want.dtype and coef.tobytes() == want.tobytes()
        return rank

    def test_random_windows(self):
        # windows of one decade of r, as _fit_tangent takes them
        rng = np.random.default_rng(28)
        for _ in range(200):
            r0 = 10.0 ** rng.uniform(-4.0, -0.5)
            x = np.sort(rng.uniform(r0, 10.0 * r0, int(rng.integers(8, 120))))
            y = rng.uniform(-math.pi, math.pi) + x * rng.normal(size=x.size)
            for deg in (1, FIT_DEGREE):
                self.assert_polyfit(x, y, deg)

    @pytest.mark.parametrize("r_min,r_max", [(0.0299, 0.03), (0.29, 0.3)])
    def test_narrow_rank_deficient_windows(self, r_min, r_max):
        # the windows of test_narrow_window_fits_the_degree_it_resolves: the
        # degree-6 fit is rank-deficient, and so is the fallback's rank
        res = trace(parse_poly("1,0,1,1i"), TraceConfig(r_min=r_min, r_max=r_max, n_radii=50))
        r, theta, curve = map(np.array, (res.sample_r, res.sample_theta, res.sample_curve))
        for cid in np.unique(curve):
            x, y = r[curve == cid][::-1], theta[curve == cid][::-1]
            rank = self.assert_polyfit(x, y, FIT_DEGREE)
            assert rank < FIT_DEGREE + 1
            self.assert_polyfit(x, y, max(rank - 1, 1))

    @pytest.mark.parametrize("alpha", [1, 2, 3])
    def test_log_log_line(self, alpha):
        rs = np.geomspace(1e-3, 1e-2, 60)
        self.assert_polyfit(np.log(rs), np.log(0.7 * rs**alpha * (1.0 + rs)), 1)

    def test_fit_matches_the_polyfit_oracle_on_the_corpus(self, monkeypatch):
        # every tangent fit of the committed corpus, bit for bit (repr tells
        # -0.0 from 0.0), against the fit on np.polyfit and np.unwrap
        fits = []

        def checked(rs, thetas):
            got = _fit_tangent(rs, thetas)
            fits.append((repr(got), repr(polyfit_tangent(rs, thetas))))
            return got

        monkeypatch.setattr(maxmod.tracer, "_fit_tangent", checked)
        corpus = json.loads(Path(__file__).with_name("corpus.json").read_text(encoding="utf-8"))
        for e in corpus:
            p = Polynomial(tuple(complex(re_, im) for re_, im in e["coeffs"]))
            try:
                trace(p, TraceConfig(*e["cfg"]))
            except maxmod.MaxmodError:
                pass
        assert len(fits) >= 400
        assert [got for got, _ in fits] == [want for _, want in fits]

    def test_unwraps_a_window_across_pi(self):
        # a curve crossing theta = pi: reduced angles jump by 2 pi, and the
        # fit unwraps them as the oracle does
        rs = np.geomspace(0.3, 1e-3, 200)
        thetas = reduce_angle(math.pi - 0.02 + 3.0 * rs)
        got = _fit_tangent(rs, thetas)
        assert repr(got) == repr(polyfit_tangent(rs, thetas))
        assert circ_dist(got[0], math.pi - 0.02) <= 1e-9

    def test_signed_zero_curve_on_the_ray(self):
        # the oracle's np.unwrap adds +0.0 to every angle after the first;
        # the fit skips it, and a curve of angles -0.0 still lies on the ray
        # theta = +0.0, as the mean of its window is
        rs = np.geomspace(0.3, 1e-3, 200)
        thetas = np.full(rs.size, -0.0)
        got = _fit_tangent(rs, thetas)
        assert repr(got) == repr(polyfit_tangent(rs, thetas)) == "(0.0, None, True)"


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
    # the fig-1 pair, a trace whose moduli are inf, a trace at infinity, a
    # mu = 2 trace of 4 curves, and random_count's third input, whose curve
    # 0 ends before the smallest circle and is no component; shape is
    # (mu, curves, components) where the case needs it
    CASES = [
        ("1,0,1,1i", TraceConfig(r_min=1e-3, r_max=0.3, n_radii=200), False, None),
        ("1,0,1,0.001+1i", TraceConfig(r_min=1e-3, r_max=0.05, n_radii=200), False, None),
        ("1e308,1e308,1e308", TraceConfig(r_max=0.9), False, None),
        ("1,0,1,1i", TraceConfig(), True, None),
        ("1,0,0,0,1,0,1i", TraceConfig(r_min=0.006), False, (2, 4, 4)),
        (
            "1,0,0,-0.13130494047210575+1.043230273018472i,0,"
            "-0.5088782240616221-0.4253850897981204i,0,0,1.6541005952855439-0.03564306074054223i",
            TraceConfig(r_min=0.001894807281767068),
            False,
            (1, 2, 1),
        ),
    ]

    @pytest.mark.parametrize(
        "text,cfg,at_infinity,shape",
        CASES,
        ids=["fig1a", "fig1b", "inf-mod", "infinity", "mu2", "non-component"],
    )
    def test_writers_match_the_samples(self, tmp_path, text, cfg, at_infinity, shape):
        p = parse_poly(text)
        res = trace_at_infinity(p, cfg) if at_infinity else trace(p, cfg)
        columns = (res.sample_r, res.sample_theta, res.sample_mod, res.sample_curve)
        assert res.samples == tuple(map(CurveSample, *columns))
        assert res.samples is res.samples
        if text.startswith("1e308"):
            assert math.inf in res.sample_mod
        path = tmp_path / "out.csv"
        write_csv(res, str(path))
        text_csv = path.read_text(encoding="utf-8")
        assert text_csv == row_by_row_csv(res)
        svg = render_svg(res, cfg.r_max)
        assert re.findall(r'<path d="([^"]*)"', svg) == row_by_row_paths(res)
        # every curve keeps its rows in the CSV; the SVG draws components only
        ids = [int(line.rsplit(",", 1)[1]) for line in text_csv.splitlines()[1:]]
        assert ids == list(res.sample_curve)
        assert svg.count("<path") == len(res.component_ids)
        if shape:
            assert (res.mu, len(set(res.sample_curve)), len(res.component_ids)) == shape
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
        traced, counted = [], []

        def counted_trace(*args):
            traced.append(args)
            return trace(*args)

        def counted_count(members):
            counted.append(count_components(members))
            return counted[-1]

        # hunt reads only each member's count: it counts its members in one
        # call and traces nothing
        monkeypatch.setattr(maxmod.cli, "trace", counted_trace)
        monkeypatch.setattr(maxmod.tracer, "trace", counted_trace)
        monkeypatch.setattr(maxmod.cli, "count_components", counted_count)
        argv = ["hunt", "--family", "cubic", "--samples", "4", "--out", str(tmp_path / "h.jsonl")]
        assert main(argv + ["--quiet"]) == 0
        assert len(counted) == 1 and counted[0] and not traced and not built
        res = trace(parse_poly("1,0,1,1i"), TraceConfig(n_radii=50))
        assert res.n_components == 2 and res.tangents and not built
        assert len(res.samples) == len(res.sample_r) == len(built) > 0
        res.samples  # read again: cached, nothing more is built
        assert len(built) == len(res.sample_r)

    def count_evaluations(self, monkeypatch, seen: dict) -> dict:
        """Add the radii of every ``fourier`` call (``fourier``) to the
        record ``seen`` of the ``root_solve`` fixture."""
        seen["fourier"] = []
        fourier = ModulusExpansion.fourier

        def counted_fourier(self, r):
            seen["fourier"].extend(np.atleast_1d(r).tolist())
            return fourier(self, r)

        monkeypatch.setattr(ModulusExpansion, "fourier", counted_fourier)
        return seen

    @pytest.mark.parametrize(
        "p,cfg",
        [
            (parse_poly("1,0,1,0.001+1i"), TraceConfig(r_min=1e-3, r_max=0.05, n_radii=200)),
            (RANDOM_COUNT_1, TraceConfig(r_min=2e-4, r_max=0.3, n_radii=200)),
        ],
        ids=["fig1-perturbed", "random-count-1"],
    )
    def test_certified_trace_evaluates_no_kind(self, monkeypatch, root_solve, p, cfg):
        # every circle of these traces is certified: each point's kind comes
        # from its window, no circle is isolated, and F is evaluated only
        # inside Newton
        seen = self.count_evaluations(monkeypatch, root_solve)
        res = trace(p, cfg)
        assert res.n_components == 1
        assert np.concatenate(seen["certified"]).tolist() == [True] * cfg.n_radii
        assert seen["subdivided"] == [set()] and seen["outside"] == 0

    @pytest.mark.parametrize(
        "p,cfg,isolated,components",
        [
            (RANDOM_COUNT_7, TraceConfig(r_min=2e-4, r_max=0.3, n_radii=200), 31, 1),
            (parse_poly("1,0,1,1i"), TraceConfig(n_radii=200), 0, 2),
        ],
        ids=["random-count-7", "fig1-magic"],
    )
    def test_one_newton_pass(self, monkeypatch, root_solve, p, cfg, isolated, components):
        # the windows of certified circles and the isolated zeros of the
        # others, maxima and minima, are polished by one Newton call, and the
        # trace forms C_n for its radii once and for nothing else.  31 circles
        # of random_count's input 7 are isolated; the magic cubic, traced on
        # its axis, is certified on every circle at any degree.  No
        # eigenvalue solve is left
        seen = self.count_evaluations(monkeypatch, root_solve)

        def eigvals(a):
            raise AssertionError("eigenvalue solve")

        monkeypatch.setattr(np.linalg, "eigvals", eigvals)
        res = trace(p, cfg)
        assert res.n_components == components
        assert len(seen["subdivided"]) == 1  # one Newton call
        assert seen["fourier"] == radius_schedule(cfg).tolist()
        assert len(seen["subdivided"][0]) == isolated


    def test_hunt_solves_once_and_evaluates_last_circles(self, monkeypatch, scan_pass, tmp_path):
        # the 4 exceptional members of an 8-sample cubic hunt, magic cubics
        # on their axes, share one row group and one root solve (4 solves,
        # one per member, before the counts were batched) of each member's
        # circle r_min alone; the solved circles are scanned once, and osc
        # is evaluated once, only at the critical points of those circles:
        # one Horner pass of the scan over the rows (scan_pass)
        solves, evaluated, counted, checked = [], [], [], []
        solve, count = maxmod.roots.critical_points, count_components
        scan = maxmod.tracer._scan

        def counted_solve(cn, radii, **kwargs):
            solves.append(solve(cn, radii, **kwargs))
            return solves[-1]

        def counted_pass(coef, theta, rows):
            evaluated.append(checked[-1][rows])
            return fourier_sum(coef, theta, rows)

        def counted_count(members):
            counted.extend(members)
            return count(members)

        def counted_scan(cn, radii, real):
            checked.append(radii)
            return scan(cn, radii, real)

        fourier_sum = scan_pass(counted_pass)
        monkeypatch.setattr(maxmod.roots, "critical_points", counted_solve)
        monkeypatch.setattr(maxmod.cli, "count_components", counted_count)
        monkeypatch.setattr(maxmod.tracer, "_scan", counted_scan)
        argv = ["hunt", "--family", "cubic", "--samples", "8", "--out", str(tmp_path / "h.jsonl")]
        assert main(argv + ["--quiet"]) == 0
        assert len(counted) == 4 and len(solves) == 1 and len(evaluated) == 1
        assert [r.size for r in checked] == [len(counted)] == [4]  # one circle per member
        ridx = solves[0][0]
        assert np.unique(ridx).tolist() == list(range(len(counted)))
        radii = np.concatenate(evaluated)
        assert radii.size == ridx.size
        assert set(radii.tolist()) == {r_min for _, r_min in counted}

    def test_hunt_forms_and_certifies_only_the_counted_circles(self, monkeypatch, tmp_path):
        # an 8-sample cubic hunt forms C_n rows only at its members' r_min,
        # and the certificate is read only inside the root solve: no
        # package code before it reads the certificate of any circle
        formed, read, counted, inside = [], [], [], []
        solve, certified = maxmod.roots.critical_points, maxmod.roots._certified
        fourier, count = ModulusExpansion.fourier, count_components

        def counted_solve(*args, **kwargs):
            inside.append(True)
            try:
                return solve(*args, **kwargs)
            finally:
                inside.pop()

        def counted_certified(*orders):
            read.append(bool(inside))
            return certified(*orders)

        def counted_fourier(self, r):
            # a count forms a row group's rows in one stacked call, with
            # radii of shape (members, 2)
            formed.extend(np.ravel(r).tolist())
            return fourier(self, r)

        def counted_count(members):
            counted.extend(members)
            return count(members)

        monkeypatch.setattr(maxmod.roots, "critical_points", counted_solve)
        monkeypatch.setattr(maxmod.roots, "_certified", counted_certified)
        monkeypatch.setattr(ModulusExpansion, "fourier", counted_fourier)
        monkeypatch.setattr(maxmod.cli, "count_components", counted_count)
        argv = ["hunt", "--family", "cubic", "--samples", "8", "--out", str(tmp_path / "h.jsonl")]
        assert main(argv + ["--quiet"]) == 0
        assert len(counted) == 4 and formed
        assert set(formed) == {float(r_min) for _, r_min in counted}
        assert read and all(read)

    def test_hunt_finishes_counts_per_row_group(self, monkeypatch, scan_pass, tmp_path):
        # a 2000-sample quartic hunt mixes real and complex rows of one
        # width in its chunks of COUNT_BATCH members: each chunk runs one
        # scan, with one root solve and one osc evaluation (the scan's Horner
        # pass over the rows, scan_pass), per row group in it, and every
        # count is its member's trace count
        calls = {"solve": 0, "scan": 0, "osc": 0}
        hunted, found = [], []
        solve, count = maxmod.roots.critical_points, count_components
        scan = maxmod.tracer._scan

        def counted(name, f):
            def wrapped(*args, **kwargs):
                calls[name] += 1
                return f(*args, **kwargs)

            return wrapped

        def recorded(members):
            counts = count(members)
            hunted.extend(members)
            found.extend(counts)
            return counts

        monkeypatch.setattr(maxmod.roots, "critical_points", counted("solve", solve))
        monkeypatch.setattr(maxmod.tracer, "_scan", counted("scan", scan))
        scan_pass(counted("osc", maxmod._kernels.fourier_sum))
        monkeypatch.setattr(maxmod.cli, "count_components", recorded)
        argv = ["hunt", "--family", "quartic", "--samples", "2000", "--seed", "99"]
        assert main(argv + ["--out", str(tmp_path / "q.jsonl"), "--quiet"]) == 0
        work = dict(calls)
        kinds, groups = set(), 0
        for at in range(0, len(hunted), maxmod.tracer.COUNT_BATCH):
            chunk = set()
            for p, r_min in hunted[at : at + maxmod.tracer.COUNT_BATCH]:
                e = maxmod.tracer._prepare(p, r_min)[2]  # width D, turned tail real
                chunk.add((e.c.size - 1, not e.c.imag.any()))
            kinds |= chunk
            groups += len(chunk)
        assert kinds == {(4, False), (4, True)} and groups > len(hunted) / maxmod.tracer.COUNT_BATCH
        assert work == {"solve": groups, "scan": groups, "osc": groups}
        assert found == [trace(p, hunt_schedule(r_min)).n_components for p, r_min in hunted]


class TestCountComponents:
    """``count_components`` is the component count of ``trace`` from the
    scan alone, and fails where ``trace`` fails."""

    def test_count_links_and_fits_nothing(self, monkeypatch):
        # test_corpus.py checks the count against every stored trace
        p, cfg = parse_poly("1,0,1,0,0,0.5"), TraceConfig(r_min=5e-5, r_max=0.3, n_radii=120)
        n = trace(p, cfg).n_components
        for name in ("_link", "_chain_heads", "_fit_tangent"):
            monkeypatch.setattr(maxmod.tracer, name, None)
        # nor does it read the candidate angles of the form
        unread = property(lambda h: pytest.fail("a count read the candidate angles"))
        monkeypatch.setattr(maxmod.HaymanForm, "omega", unread)
        assert count_components([(p, cfg.r_min)]) == [n] == [2]

    @pytest.mark.parametrize(
        "p,cfg",
        [
            (parse_poly("1,0,1,1i"), TraceConfig(r_min=1e-9, r_max=0.3)),
            (parse_poly("0,0,3"), TraceConfig()),
            (Polynomial((1, 0, 1, 1j), truncated=True), TraceConfig(r_min=1e-2, r_max=0.2, n_radii=20)),
        ],
        ids=["floor", "monomial", "truncated"],
    )
    def test_fails_as_trace_fails(self, p, cfg):
        with pytest.raises(maxmod.MaxmodError) as want:
            trace(p, cfg)
        with pytest.raises(maxmod.MaxmodError) as got:
            count_components([(p, cfg.r_min)])
        assert type(got.value) is type(want.value)
        assert str(got.value) == str(want.value)
        assert vars(got.value) == vars(want.value)

    @pytest.mark.parametrize("r_min", [math.nan, math.inf, 0.0, -1.0, 1e-3j, "1e-3", None, True])
    def test_r_min_breaking_the_config_rule_fails_as_config(self, r_min):
        # a count's r_min is checked by TraceConfig's rule before the member
        # is normalized: NaN and inf failed in the root solve before, 0 and
        # -1 at the floor check, a non-real r_min in the comparison with it
        with pytest.raises(ConfigError) as info:
            TraceConfig(r_min=r_min)
        want = "need a real r_min" if not isinstance(r_min, float) else "need 0 < r_min < inf"
        with pytest.raises(ConfigError, match=want):
            count_components([(parse_poly("1,0,1,1i"), r_min)])
        assert info.value.exit_code == 2
        # the first member that fails decides, in a chunk and alone
        members = [(parse_poly("0,0,3"), 1e-3), (parse_poly("1,0,1,1i"), r_min)]
        with pytest.raises(maxmod.MonomialAllPlaneError):
            count_components(members)
        with pytest.raises(ConfigError):
            count_components(members[::-1])

    def test_fails_at_r_min_where_the_mass_check_fails(self):
        # the scan's mass 1 + sum j^2 |c_j| r^j is no float on any circle:
        # the trace fails first at r_max, the count at r_min, the one
        # circle it forms
        p, cfg = parse_poly("1e-160,0,1,1"), TraceConfig(r_min=1e81, r_max=1e84, n_radii=8)
        with pytest.raises(maxmod.RefinementFailureError) as want:
            trace(p, cfg)
        with pytest.raises(maxmod.RefinementFailureError) as got:
            count_components([(p, cfg.r_min)])
        assert (want.value.r, want.value.theta_seed) == (cfg.r_max, 0.0)
        assert (got.value.r, got.value.theta_seed) == (cfg.r_min, 0.0)

    def test_counts_where_only_r_max_fails(self):
        # the mass of the magic cubic is no float at r = 1e60, the trace's
        # first circle, and a float at r_min = 1e-3: the trace fails at
        # r_max, and the count, which forms no circle above r_min, counts
        p, cfg = parse_poly("1,0,1,1i"), TraceConfig(r_max=1e60, n_radii=4)
        with pytest.raises(maxmod.RefinementFailureError) as want:
            trace(p, cfg)
        assert want.value.r == cfg.r_max
        assert count_components([(p, cfg.r_min)]) == [2]


    def test_fails_as_trace_fails_on_an_uncertified_circle(self, monkeypatch, root_solve):
        # random_count's input 7 has 31 circles that the certificate leaves
        # open, r_min not among them; its count solves r_min alone.  Where
        # one of the open circles is left without a maximum, the trace
        # raises at that radius and the count, which does not solve it,
        # still counts.  Where r_min is, both raise the same error there
        p, cfg = RANDOM_COUNT_7, TraceConfig(r_min=2e-4, r_max=0.3, n_radii=200)
        radii = radius_schedule(cfg)
        assert trace(p, cfg).n_components == 1
        (certified,) = root_solve["certified"]
        uncertified = np.flatnonzero(~certified)
        assert uncertified.size == 31 and certified[-1]
        solved, solve = [], maxmod.roots.critical_points

        def recorded(cn, radii, **kwargs):
            solved.append(radii)
            return solve(cn, radii, **kwargs)

        monkeypatch.setattr(maxmod.roots, "critical_points", recorded)
        assert count_components([(p, cfg.r_min)]) == [1]
        assert len(solved) == 1 and solved[0].tolist() == [radii[-1]]

        def no_maximum_at(r_bad):
            def solved_without(cn, radii, **kwargs):
                ridx, theta, is_max = solve(cn, radii, **kwargs)
                keep = (radii[ridx] != r_bad) | ~is_max
                return ridx[keep], theta[keep], is_max[keep]

            return solved_without

        r_bad = radii[uncertified[uncertified.size // 2]]
        monkeypatch.setattr(maxmod.roots, "critical_points", no_maximum_at(r_bad))
        with pytest.raises(maxmod.RefinementFailureError) as want:
            trace(p, cfg)
        assert want.value.r == r_bad
        assert count_components([(p, cfg.r_min)]) == [1]

        monkeypatch.setattr(maxmod.roots, "critical_points", no_maximum_at(radii[-1]))
        with pytest.raises(maxmod.MaxmodError) as want:
            trace(p, cfg)
        with pytest.raises(maxmod.MaxmodError) as got:
            count_components([(p, cfg.r_min)])
        assert type(got.value) is type(want.value) is maxmod.RefinementFailureError
        assert str(got.value) == str(want.value)
        assert vars(got.value) == vars(want.value)
        assert want.value.r == cfg.r_min

    def test_selection_keeps_the_complex_path(self, monkeypatch):
        # the rows of 1 + z + 1e-300i z^3 are complex at r = 0.3, but every
        # circle is certified and at r = 1e-9, the last, C_2 and C_3
        # underflow to 0: the one solved row is real.  It is solved on the
        # whole circle, as in the trace, not as mirror pairs on (0, pi): the
        # expansion is complex, so the count's solve and the trace's both
        # get mirror=False
        p, cfg = parse_poly("1,1,0,1e-300i"), TraceConfig(r_min=1e-9, r_max=0.3, n_radii=50)
        e, radii = maxmod.tracer._prepare(p, cfg.r_min)[2], radius_schedule(cfg)
        rows = _rows(e, radii)
        assert rows.imag.any() and not rows[-1].imag.any()
        assert maxmod.roots._certified(*maxmod.roots._orders(rows, radii)[2:]).all()
        ridx, theta, _ = critical_points(rows, radii)
        solved, solve = [], maxmod.roots.critical_points

        def recorded(cn, radii, **kwargs):
            solved.append((kwargs, solve(cn, radii, **kwargs)))
            return solved[-1][1]

        monkeypatch.setattr(maxmod.roots, "critical_points", recorded)
        assert count_components([(p, cfg.r_min)]) == [trace(p, cfg).n_components] == [1]
        (count_kwargs, counted), (trace_kwargs, _) = solved
        assert count_kwargs == trace_kwargs == {"mirror": False}
        assert counted[1].tolist() == theta[ridx == radii.size - 1].tolist() == [0.0, math.pi]

    def test_batch_matches_members_counted_alone(self, monkeypatch, tmp_path):
        # one call counts members of four row groups, each at its own r_min,
        # to the counts each gets alone and that its trace gets: the magic
        # cubic (real rows on its axis, D = 3), a complex and a real quartic
        # of a quartic hunt (D = 4), and random_count's inputs 7, which has
        # 31 subdivided circles, and 1 (complex, D = 5, stacked together).
        # Each group solves one row per member, its last circle: 1 of the
        # magic cubic's 160, 1 and 1 of the quartics', and 1 + 1 of
        # random_count's 320
        hunted, count = [], count_components

        def recorded(members):
            hunted.extend(members)
            return count(members)

        monkeypatch.setattr(maxmod.cli, "count_components", recorded)
        argv = ["hunt", "--family", "quartic", "--samples", "40", "--seed", "3"]
        assert main(argv + ["--out", str(tmp_path / "q.jsonl"), "--quiet"]) == 0
        quartics = {}
        for h, r_min in hunted:
            quartics.setdefault(on_axis(h.tail)[0] != 0.0, (h, hunt_schedule(r_min)))
        members = [
            (parse_poly("1,0,1,1i"), TraceConfig(r_min=1e-3, r_max=0.3, n_radii=160)),
            (RANDOM_COUNT_7, TraceConfig(r_min=2e-4, r_max=0.3, n_radii=200)),
            quartics[False],
            quartics[True],
            (RANDOM_COUNT_1, TraceConfig(r_min=5e-4, r_max=0.3, n_radii=120)),
        ]
        groups = []
        solve = maxmod.roots.critical_points

        def grouped(cn, radii, **kwargs):
            groups.append((cn.shape[1], not cn.imag.any(), radii.size))
            return solve(cn, radii, **kwargs)

        monkeypatch.setattr(maxmod.roots, "critical_points", grouped)
        got = count_components([(p, cfg.r_min) for p, cfg in members])
        assert sorted(groups) == [(3, True, 1), (4, False, 1), (4, True, 1), (5, False, 2)]
        alone = [count_components([(p, cfg.r_min)])[0] for p, cfg in members]
        assert got == alone == [trace(p, cfg).n_components for p, cfg in members]
        assert got == [2, 1, 1, 1, 1]

    def test_count_reads_no_schedule_above_r_min(self):
        # the count takes r_min alone: on every corpus entry whose trace
        # succeeds, it is the component count of every trace ending at
        # r_min, for schedules from r_max down to r_min with few and many
        # radii, wherever that trace succeeds
        corpus = json.loads(Path(__file__).with_name("corpus.json").read_text(encoding="utf-8"))
        checked, failed = 0, []
        for entry in corpus:
            if entry["expect"]["error"] is not None:
                continue
            p = Polynomial(tuple(complex(re, im) for re, im in entry["coeffs"]))
            r_min, r_max, _ = entry["cfg"]
            (n,) = count_components([(p, r_min)])
            for top in (r_max, 0.05, 2 * r_min):
                for n_radii in (2, 37, 160):
                    try:
                        got = trace(p, TraceConfig(r_min, top, n_radii)).n_components
                    except maxmod.MaxmodError:
                        continue
                    checked += 1
                    if got != n:
                        failed.append((entry["name"], top, n_radii, got, n))
        assert not failed
        assert checked >= 3000

    @pytest.mark.parametrize("reverse", [False, True], ids=["solve-first", "floor-first"])
    def test_batch_fails_as_members_counted_alone(self, monkeypatch, reverse):
        # one member fails inside the batched root solve, where the circle
        # r = 0.1 is left without a maximum, the other at its floor check:
        # the call raises the error of the first failing member in order, as
        # counting them one at a time does
        solve = maxmod.roots.critical_points

        def no_maximum_at(cn, radii, **kwargs):
            ridx, theta, is_max = solve(cn, radii, **kwargs)
            keep = (radii[ridx] != 0.1) | ~is_max
            return ridx[keep], theta[keep], is_max[keep]

        monkeypatch.setattr(maxmod.roots, "critical_points", no_maximum_at)
        members = [(parse_poly("1,0,1,1i"), 0.1), (parse_poly("1,0,1,1i"), 1e-9)]
        members = members[::-1] if reverse else members
        with pytest.raises(maxmod.MaxmodError) as want:
            for member in members:
                count_components([member])
        with pytest.raises(maxmod.MaxmodError) as got:
            count_components(members)
        assert type(got.value) is type(want.value)
        assert str(got.value) == str(want.value)
        assert vars(got.value) == vars(want.value)
        first = maxmod.FloorViolationError if reverse else maxmod.RefinementFailureError
        assert type(got.value) is first


class TestMassCheck:
    """``_rows`` checks the mass ``1 + sum_j j^2 |c_j| r^j`` once, at the
    largest radius, where ``4 mass^2`` must be a float.  On a descending
    schedule that radius is the first one at which the check of every
    radius (``mass_check_every_radius``) finds ``4 mass^2`` no float."""

    @pytest.mark.parametrize(
        "poly,cfg",
        [
            ("1,1e200,1e200", TraceConfig()),
            ("1,1e308,1e308", TraceConfig()),
            ("1,0,1,1i", TraceConfig(r_max=1e60, n_radii=4)),  # test_radius_far_beyond_one_fails_cleanly
            ("1,0,1,1i", TraceConfig(r_max=1e308, n_radii=4)),
            ("1e-160,0,1,1", TraceConfig(r_min=1e81, r_max=1e84, n_radii=8)),
        ],
    )
    def test_raises_where_every_radius_checked_fails(self, poly, cfg):
        e = expand(normalize(parse_poly(poly)).tail)
        radii = radius_schedule(cfg)
        want = mass_check_every_radius(e, radii)
        assert want is not None
        with pytest.raises(maxmod.RefinementFailureError) as got:
            _rows(e, radii)
        assert (got.value.r, got.value.theta_seed) == (want, 0.0)

    def test_largest_radius_decides_within_the_margin(self):
        # 4 mass^2 is a float and 8 mass^2 is not at r = 1: the check at the
        # largest radius passes, as the check of every radius does, and the
        # rows come back; a radius out of order fails where it lies
        e = expand(Polynomial((1, 5.5e153)))
        radii = np.array([1.0, 0.5, 1e-3])
        assert mass_check_every_radius(e, radii) is None
        assert np.array_equal(_rows(e, radii), e.fourier(radii))
        radii = np.array([1e-3, 2.0, 1.0])
        with pytest.raises(maxmod.RefinementFailureError) as got:
            _rows(e, radii)
        assert got.value.r == mass_check_every_radius(e, radii) == 2.0

    def test_raises_at_the_largest_radius_in_any_order(self):
        # 4 mass^2 is no float at r = 2 nor at r = 3: whatever the order of
        # the radii, the check raises at the largest, not at the first
        # radius that fails
        e = expand(Polynomial((1, 5.5e153)))
        for radii in ([1e-3, 2.0, 3.0], [3.0, 2.0, 1e-3], [2.0, 1e-3, 3.0]):
            with pytest.raises(maxmod.RefinementFailureError) as got:
                _rows(e, np.array(radii))
            assert (got.value.r, got.value.theta_seed) == (3.0, 0.0)
        assert mass_check_every_radius(e, np.array([1e-3, 2.0, 3.0])) == 2.0


def stacked_members(rng, count: int) -> list:
    """``count`` seeded members ``(p, r_min)`` of degree 2-6, half of them
    real: half at a radius in [1e-3, 0.3] above the floor, half turned
    into ``p(z / s)``, with ``s^deg`` in [1e200, 1e300], at ``r_min = u s``,
    u in [20, 60], where ``r_min^(2 deg - 1)``, the highest power a row
    reads, leaves the float range.  Only members that count alone are
    kept."""
    out = []
    while len(out) < count:
        deg = int(rng.integers(2, 7))
        a = rng.normal(size=deg + 1) + (len(out) % 2) * 1j * rng.normal(size=deg + 1)
        a[0] = 1.0
        a[1:deg] *= rng.random(deg - 1) > 0.3
        r = 10.0 ** rng.uniform(-3, -0.5)
        if len(out) % 4 >= 2:
            s = 10.0 ** rng.uniform(200 / deg, 300 / deg)
            a = a / s ** np.arange(deg + 1)
            r = rng.uniform(20, 60) * s
        p = Polynomial(tuple(complex(x) for x in a))
        member = (p, max(r, 2.0 * floor_radius(normalize(p))))
        try:
            count_components([member])
        except maxmod.MaxmodError:
            continue
        out.append(member)
    return out


class TestStackedRows:
    """A count stacks the expansions of each row group and forms all their
    rows of ``r_min``, mass checks included, in one :func:`_rows` call."""

    def test_group_rows_are_each_members_rows(self, monkeypatch):
        # on seeded members of widths 2-6, real and complex, at radii whose
        # powers are floats and at radii whose powers are not, each row of a
        # stacked group is bit for bit the row its member forms alone,
        # _rows(e, np.full(2, r_min))[0], in chunks of the default size and
        # with every row group in one stack
        rows = maxmod.tracer._rows
        members = stacked_members(np.random.default_rng(20261022), 160)
        want = {}
        for p, r in members:
            e = maxmod.tracer._prepare(p, r)[2]
            want[e.c.tobytes(), r] = rows(e, np.full(2, r))[0].tobytes()
        for batch in (maxmod.tracer.COUNT_BATCH, len(members)):
            formed = []

            def recorded(e, radii):
                formed.append((e, radii, rows(e, radii)))
                return formed[-1][2]

            monkeypatch.setattr(maxmod.tracer, "_rows", recorded)
            monkeypatch.setattr(maxmod.tracer, "COUNT_BATCH", batch)
            count_components(members)
            checked = overflow = 0
            for stack, radii, out in formed:
                assert radii.shape == (stack.c.shape[0], 2) and out.shape[:2] == radii.shape
                for c, (r, again), row in zip(stack.c, radii.tolist(), out[:, 0]):
                    assert r == again and row.tobytes() == want[c.tobytes(), r]
                    with np.errstate(over="ignore"):
                        overflow += not np.isfinite(np.float64(r) ** (2 * c.size - 3))
                    checked += 1
            assert checked == len(members) and overflow >= 20
            assert max(radii.shape[0] for _, radii, _ in formed) >= 10

    def test_one_failing_mass_check_fails_its_member_at_r_min(self, monkeypatch):
        # the mass of 1e-160 + z^2 + z^3 is no float at r = 1e81 nor 1e82,
        # that of the magic cubic is at 1e-3: the four members share one row
        # group (D = 3, real on the axis), whose one stacked mass check
        # fails, at the first failing member's radius.  Counted again member
        # by member, the call raises that member's error at its r_min, as
        # counting it alone does
        bad, magic = parse_poly("1e-160,0,1,1"), parse_poly("1,0,1,1i")
        members = [(magic, 1e-3), (bad, 1e81), (magic, 2e-3), (bad, 1e82)]
        group = [maxmod.tracer._prepare(p, r)[2] for p, r in members]
        assert {(e.c.size, not e.c.imag.any()) for e in group} == {(4, True)}
        stack = ModulusExpansion(np.array([e.c for e in group]), np.array([e.c_pairs for e in group]))
        radii = np.array([r for _, r in members])[:, None].repeat(2, axis=1)
        with pytest.raises(maxmod.RefinementFailureError) as direct:
            _rows(stack, radii)
        assert (direct.value.r, direct.value.theta_seed) == (1e81, 0.0)

        stacks, rows = [], maxmod.tracer._rows

        def recorded(e, radii):
            stacks.append(radii[:, 0].tolist())
            return rows(e, radii)

        monkeypatch.setattr(maxmod.tracer, "_rows", recorded)
        with pytest.raises(maxmod.RefinementFailureError) as got:
            count_components(members)
        assert stacks == [[1e-3, 1e81, 2e-3, 1e82], [1e-3], [1e81]]
        with pytest.raises(maxmod.RefinementFailureError) as alone:
            count_components([(bad, 1e81)])
        assert (got.value.r, got.value.theta_seed) == (1e81, 0.0)
        assert str(got.value) == str(alone.value) and vars(got.value) == vars(alone.value)


class TestTruncatedInput:
    def test_trace_refuses_truncations(self):
        from maxmod import TruncatedSeriesError

        p = Polynomial((1, 0, 1, 1j), truncated=True)
        with pytest.raises(TruncatedSeriesError):
            trace(p, TraceConfig(r_min=1e-2, r_max=0.2, n_radii=20))
