import ast
import cmath
import math
from pathlib import Path

import numpy as np
import pytest

import maxmod
from maxmod import roots
from maxmod.util import EPS, circ_dist, reduce_angle
from oracles import companion_angles, term_expansion


def eigen_points(cn: np.ndarray):
    """``(radius_index, theta)`` as :func:`roots.critical_points` returns
    them, with every circle eigen-solved by the companion oracle."""
    n = np.arange(1, cn.shape[1] + 1)
    theta = [companion_angles(n * row) for row in cn]
    ridx = np.repeat(np.arange(cn.shape[0]), [t.size for t in theta])
    return ridx, np.concatenate(theta)


@pytest.mark.parametrize("a", [0.6, -1.7, 0.8 - 1.3j], ids=["positive", "negative", "complex"])
@pytest.mark.parametrize("k", range(1, 7))
def test_monomial_rows(root_solve, a, k):
    # q = a z^k has the one coefficient C_k = a r^k and the critical points
    # (j pi - arg a) / k, j = 0..2k-1, on every circle.  The rows have
    # x = y = 0, so every circle is certified and takes its windows, at
    # every k, and none is isolated: F is evaluated only inside Newton.  The
    # companion oracle's eigenvalue solve of the same rows finds the same
    # points.  The maxima are those of even j, on the axis points 0 and -pi
    # too, for either sign of a and either parity of k
    radii = np.geomspace(0.9, 1e-3, 40)
    cn = np.zeros((radii.size, k), dtype=complex)
    cn[:, k - 1] = a * radii**k
    want = reduce_angle((np.arange(2 * k) * math.pi - cmath.phase(a)) / k)

    def check(ridx, theta, is_max=None):
        assert np.array_equal(np.bincount(ridx, minlength=radii.size), np.full(radii.size, 2 * k))
        for i in range(radii.size):
            dist = circ_dist(theta[ridx == i][:, None], want)
            assert dist.min(axis=1).max() <= 1e-13 and dist.min(axis=0).max() <= 1e-13
            if is_max is not None:
                assert np.array_equal(is_max[ridx == i], np.argmin(dist, axis=1) % 2 == 0)

    check(*roots.critical_points(cn, radii))
    assert len(root_solve["certified"]) == 1 and root_solve["certified"][0].all()
    assert root_solve["subdivided"] == [set()] and root_solve["outside"] == 0
    check(*eigen_points(cn))


def random_rows(rng, count: int, deg: int, real: bool) -> np.ndarray:
    """``count`` rows of ``C_n``, n = 1..deg, each with a random number of
    orders and a random n*; the other orders are scaled so that the
    certificate's ``x^2 + y^2`` is uniform in [0, 0.9), or, for a third of
    the rows, below 0.9 by a relative 1e-9 to 1e-3, or, for a sixth, uniform
    in (0.9, 2).  About 30% of the other orders are 0."""
    cn = np.zeros((count, deg), dtype=complex)
    target = rng.uniform(0.0, 0.9, count)
    target[: count // 3] = 0.9 * (1.0 - 10.0 ** rng.uniform(-9, -3, count // 3))
    target[-(count // 6) :] = rng.uniform(0.9, 2.0, count // 6)
    for row in range(count):
        d = int(rng.integers(2, deg + 1))
        star = int(rng.integers(1, d + 1))
        c = rng.normal(size=d) + (0.0 if real else 1j) * rng.normal(size=d)
        c *= rng.random(d) > 0.3
        n = np.arange(1, d + 1)
        a = n * np.abs(c)
        a[star - 1] = 0.0
        x1, y1 = a.sum(), (n * a).sum() / star
        c *= math.sqrt(target[row] / (x1 * x1 + y1 * y1)) if x1 else 0.0
        lead = rng.choice([-1.0, 1.0]) if real else cmath.exp(1j * rng.uniform(-math.pi, math.pi))
        c[star - 1] = lead / star
        cn[row, :d] = c
    return cn


def certificate(cn: np.ndarray) -> np.ndarray:
    """``x^2 + y^2`` of the certificate, per row, from its definition."""
    n = np.arange(1, cn.shape[1] + 1)
    a = n * np.abs(cn)
    star = np.argmax(a, axis=1) + 1
    top = a.max(axis=1)
    x = (a.sum(axis=1) - top) / top
    y = ((a * n).sum(axis=1) - star * top) / (star * top)
    return x * x + y * y


@pytest.mark.parametrize("real", [False, True], ids=["complex", "real"])
@pytest.mark.parametrize("deg", [3, 5, 8])
def test_window_solve_matches_eigen_solve(root_solve, monkeypatch, deg, real):
    # on seeded random rows, a third of them within a relative 1e-3 below
    # the certificate's threshold and a sixth above it, the root solve
    # finds the critical points of the companion oracle's eigenvalue solve:
    # as many on every circle, within 1e-13.  The certified circles are
    # those of the certificate's definition, and only the others are
    # evaluated before the Newton polish, to be isolated.  Solved again with
    # every circle isolated by subdivision, the same rows give the same
    # kinds and the same points within 1e-15
    rng = np.random.default_rng(20261019 + deg + 100 * real)
    cn = random_rows(rng, 300, deg, real)
    radii = np.ones(cn.shape[0])
    ridx, theta, is_max = roots.critical_points(cn, radii)
    want_ridx, want = eigen_points(cn)
    assert np.array_equal(ridx, want_ridx)
    assert circ_dist(theta, want).max() <= 1e-13
    certified = certificate(cn) < 0.9
    assert len(root_solve["certified"]) == 1
    assert np.array_equal(root_solve["certified"][0], certified)
    assert root_solve["subdivided"] == [set(np.flatnonzero(~certified).tolist())]
    monkeypatch.setattr(roots, "_certified", lambda mag, total: np.zeros(mag.shape[0], dtype=bool))
    sub_ridx, sub, sub_max = roots.critical_points(cn, radii)
    assert root_solve["subdivided"][1] == set(range(cn.shape[0]))
    assert np.array_equal(sub_ridx, ridx) and np.array_equal(sub_max, is_max)
    assert circ_dist(sub, theta).max() <= 1e-15
    if real:
        # exact mirror pairs and the exact axis points 0 and -pi
        for got in (theta, sub):
            for i in range(cn.shape[0]):
                at = got[ridx == i]
                assert np.count_nonzero(at == 0.0) == 1 and np.count_nonzero(at == -math.pi) == 1
                at = np.where(at == -math.pi, math.pi, at)
                assert np.array_equal(np.sort(at), np.sort(np.where(at == math.pi, at, -at)))


@pytest.mark.parametrize("real", [False, True], ids=["complex", "real"])
@pytest.mark.parametrize("deg", [2, 5, 11, 24])
def test_certified_circle_cannot_fail(monkeypatch, deg, real):
    # what a count rests on when it solves no certified circle: on seeded
    # rows that the certificate covers, a third of them within a relative
    # 1e-9 to 1e-3 below its threshold, each scaled by a factor from 1e-150
    # to 1e150, the root solve never raises.  Every circle has 2 n* points,
    # n* + 1 of them in [0, pi] on real rows, among them 0 and -pi (for pi);
    # maxima and minima alternate, and each maximum lies in an even window
    # |phi - j pi| < pi/2 of phi = n* theta + arg C_{n*}, each minimum in
    # an odd one.  F is evaluated only inside Newton, which converges in
    # far fewer than its WINDOW_MAX_ITER steps (8 measured on these rows)
    steps = []
    slopes = roots._slopes

    def counted(coef, i, theta, sign):
        steps.append(theta.size)
        return slopes(coef, i, theta, sign)

    rng = np.random.default_rng(20261021 + deg + 100 * real)
    cn = random_rows(rng, 400, deg, real)
    cn *= 10.0 ** rng.uniform(-150, 150, cn.shape[0])[:, None]
    radii = np.arange(1.0, cn.shape[0] + 1)
    ok = roots.certified(cn, radii)
    assert np.array_equal(ok, certificate(cn) < 0.9) and np.count_nonzero(ok) >= 300
    cn, radii = cn[ok], radii[ok]
    monkeypatch.setattr(roots, "_slopes", counted)
    ridx, theta, is_max = roots.critical_points(cn, radii)
    assert 0 < len(steps) <= 16
    n = np.arange(1, cn.shape[1] + 1)
    star = np.argmax(n * np.abs(cn), axis=1) + 1
    assert np.array_equal(np.bincount(ridx, minlength=cn.shape[0]), 2 * star)
    lead = cn[np.arange(cn.shape[0]), star - 1]
    phi = star[ridx] * theta + np.angle(lead)[ridx]
    assert np.all(np.where(is_max, 1.0, -1.0) * np.cos(phi) > 0.0)
    for i in range(cn.shape[0]):
        kinds = is_max[ridx == i]
        assert np.all(kinds != np.roll(kinds, 1))
        if real:
            at = theta[ridx == i]
            assert 0.0 in at and -math.pi in at
            assert np.count_nonzero((at >= 0.0) | (at == -math.pi)) == star[i] + 1


def test_window_roots_match_mpmath():
    # the window roots are zeros of the rows' own F to within its rounding:
    # a 40-digit polish moves each by at most one ulp plus 4 D EPS sum a_n
    # / |F'|, the Horner pass's error over the slope (at most 11.8 EPS sum
    # a_n / |F'| measured on these degree-8 rows)
    mp = pytest.importorskip("mpmath")
    rng = np.random.default_rng(20261020)
    cn = random_rows(rng, 40, 8, False)
    ridx, theta, _ = roots.critical_points(cn, np.ones(cn.shape[0]))
    n = np.arange(1, cn.shape[1] + 1)
    with mp.workdps(40):
        for i, t in zip(ridx.tolist(), theta.tolist()):
            row = [mp.mpc(z.real, z.imag) for z in cn[i]]

            def f(x):
                return mp.im(mp.fsum((k + 1) * c * mp.expj((k + 1) * x) for k, c in enumerate(row)))

            err = abs(float(mp.findroot(f, mp.mpf(t)) - t))
            slope = abs(np.sum(n * n * cn[i] * np.exp(1j * n * t)).real)
            bound = np.spacing(abs(t)) + 4 * n.size * EPS * np.sum(n * np.abs(cn[i])) / slope
            assert err <= bound, (i, t, err)


@pytest.mark.parametrize("r_max", [0.3, 0.6, 0.9])
def test_kinds_and_polish_contract(r_max):
    # seeded polynomials of degree 2-16, a third real, on 100 circles: every
    # returned kind is the sign of d1d2's second derivative at the point,
    # maxima and minima alternate, and every point, maximum or minimum, of
    # windowed and isolated circles alike, meets the polish's stopping rule
    # |F / 2| <= WINDOW_TOL D EPS sum n |C_n|.  Circles with two critical
    # points within 1e-3, near a fold, are skipped
    rng = np.random.default_rng(20261021 + int(10 * r_max))
    checked = isolated = 0
    for case in range(18):
        deg = int(rng.integers(2, 17))
        c = rng.normal(size=deg + 1) + (case % 3 != 0) * 1j * rng.normal(size=deg + 1)
        c[1:-1] *= rng.random(deg - 1) > 0.3
        c[0] = 1.0
        p = maxmod.Polynomial(tuple(complex(x) for x in c))
        e = term_expansion(p)
        radii = np.geomspace(r_max, max(1e-3, 2 * maxmod.floor_radius(maxmod.normalize(p))), 100)
        cn = e.fourier(radii)
        ridx, theta, is_max = roots.critical_points(cn, radii)
        d1, d2 = e.d1d2(radii[ridx], theta)
        for i in range(radii.size):
            at = ridx == i
            if close_gap(theta[at]) <= 1e-3:
                continue
            assert np.array_equal(is_max[at], d2[at] < 0.0), (p, radii[i])
            assert np.all(is_max[at] != np.roll(is_max[at], 1)), (p, radii[i])
            checked += 1
        n = np.arange(1, cn.shape[1] + 1)
        total = (n * np.abs(cn)).sum(axis=1)
        tol = roots.WINDOW_TOL * n.size * EPS * total[ridx]
        assert np.all(np.abs(d1 / 2) <= tol), p
        isolated += np.count_nonzero(~roots._certified(n * np.abs(cn), total))
    assert checked >= 1700 and isolated >= 100


def test_fold_within_rounding_fails_at_its_radius(monkeypatch):
    # the real row C_1 = -1/2, C_2 = 1/8 has F = sin(theta) (1 - cos(theta)),
    # whose triple zero at the axis point 0 defeats every Taylor test: the
    # root solve raises a refinement failure naming that row's radius, not
    # the certified row's before it, within ISOLATE_DEPTH splits, and
    # guesses no kind
    passes = []
    slopes = roots._slopes

    def counted(coef, i, theta, sign):
        passes.append(theta.size)
        return slopes(coef, i, theta, sign)

    monkeypatch.setattr(roots, "_slopes", counted)
    cn = np.array([[1.0, 0.1], [-0.5, 0.125]], dtype=complex)
    with pytest.raises(maxmod.RefinementFailureError) as exc:
        roots.critical_points(cn, np.array([0.5, 0.37]))
    assert exc.value.r == 0.37
    assert 0 < len(passes) <= roots.ISOLATE_DEPTH + 1 and sum(passes) < 1e5


def close_gap(theta: np.ndarray) -> float:
    """Least circular distance between two of the angles ``theta``."""
    if theta.size < 2:
        return math.inf
    th = np.sort(theta)
    return float(np.diff(np.concatenate([th, [th[0] + 2 * math.pi]])).min())


def test_no_eigenvalue_solve():
    # every circle is windowed or isolated: no module of the package solves
    # an eigenvalue problem
    for path in Path(maxmod.__file__).parent.glob("*.py"):
        assert "eigvals" not in path.read_text(encoding="utf-8"), path.name


def test_imports_only_errors_and_util():
    # the root layer works on arrays: it reads no expansion, tracer or
    # polynomial type, and evaluates by the shared Horner kernel
    path = Path(maxmod.__file__).with_name("roots.py")
    used = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            if node.level:  # from .x import y, or from . import x
                used.update([node.module] if node.module else (a.name for a in node.names))
            elif node.module.split(".")[0] == "maxmod":
                used.add(node.module.partition(".")[2])
        elif isinstance(node, ast.Import):
            names = (a.name for a in node.names if a.name.startswith("maxmod"))
            used.update(name.partition(".")[2] for name in names)
    assert used <= {"_kernels", "errors", "util"}
