import ast
import cmath
import math
from pathlib import Path

import numpy as np
import pytest

import maxmod
from maxmod import roots
from maxmod.util import EPS, circ_dist, reduce_angle


def eigen_points(cn: np.ndarray, radii: np.ndarray):
    """``(radius_index, theta)`` as :func:`roots.critical_points` returns
    them, with every circle eigen-solved: the roots of
    :func:`roots._derivative_roots` within ``ON_CIRCLE`` of the unit circle."""
    ridx, theta = [], []
    for rows, w in roots._derivative_roots(cn, radii):
        row, col = np.nonzero(np.abs(np.abs(w) - 1.0) < roots.ON_CIRCLE)
        ridx.append(rows[row])
        theta.append(np.angle(w[row, col]))
    ridx, theta = np.concatenate(ridx), np.concatenate(theta)
    order = np.lexsort((theta, ridx))
    return ridx[order], theta[order]


def count_windowed(monkeypatch) -> list:
    """Record the number of circles of each call of the window solve."""
    windowed = []
    window_roots = roots._window_roots

    def counted(nc, *args):
        windowed.append(nc.shape[0])
        return window_roots(nc, *args)

    monkeypatch.setattr(roots, "_window_roots", counted)
    return windowed


@pytest.mark.parametrize("a", [0.6, -1.7, 0.8 - 1.3j], ids=["positive", "negative", "complex"])
@pytest.mark.parametrize("k", range(1, 7))
def test_monomial_rows(monkeypatch, a, k):
    # q = a z^k has the one coefficient C_k = a r^k and the critical points
    # (j pi - arg a) / k, j = 0..2k-1, on every circle.  A real a is solved
    # as S(u), a complex one as R(t), of degree k - 1 or 2k.  The rows have
    # x = y = 0, so every circle whose solved degree exceeds EIGEN_DEGREE
    # takes the window solve; the eigenvalue solve of the same rows finds
    # the same points
    windowed = count_windowed(monkeypatch)
    radii = np.geomspace(0.9, 1e-3, 40)
    cn = np.zeros((radii.size, k), dtype=complex)
    cn[:, k - 1] = a * radii**k
    want = reduce_angle((np.arange(2 * k) * math.pi - cmath.phase(a)) / k)

    def check(ridx, theta):
        assert np.array_equal(np.bincount(ridx, minlength=radii.size), np.full(radii.size, 2 * k))
        for i in range(radii.size):
            dist = circ_dist(theta[ridx == i][:, None], want)
            assert dist.min(axis=1).max() <= 1e-13 and dist.min(axis=0).max() <= 1e-13

    check(*roots.critical_points(cn, radii))
    m = 2 * k if isinstance(a, complex) else k - 1
    assert windowed == ([radii.size] if m > roots.EIGEN_DEGREE else [])
    check(*eigen_points(cn, radii))


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
def test_window_solve_matches_eigen_solve(monkeypatch, deg, real):
    # on seeded random rows, a third of them within a relative 1e-3 below
    # the certificate's threshold and a sixth above it, the root solve
    # finds the critical points of the eigenvalue solve: as many on every
    # circle, within 1e-13, and only certified circles are windowed.  On
    # degree-12 rows the two differ by up to 1.7e-13, and there the
    # eigenvalue solve is the one off: the window roots are within 1e-17 of
    # a 40-digit polish of the same rows
    windowed = count_windowed(monkeypatch)
    rng = np.random.default_rng(20261019 + deg + 100 * real)
    cn = random_rows(rng, 300, deg, real)
    radii = np.ones(cn.shape[0])
    ridx, theta = roots.critical_points(cn, radii)
    want_ridx, want = eigen_points(cn, radii)
    assert np.array_equal(ridx, want_ridx)
    assert circ_dist(theta, want).max() <= 1e-13
    # the certified circles whose solved degree exceeds EIGEN_DEGREE, and
    # only those, were windowed
    kept = deg - np.argmax((np.abs(cn) > 0)[:, ::-1], axis=1)
    solved = kept - 1 if real else 2 * kept
    assert sum(windowed) == np.count_nonzero((solved > roots.EIGEN_DEGREE) & (certificate(cn) < 0.9))
    if real:
        # exact mirror pairs and the exact axis points 0 and -pi
        for i in range(cn.shape[0]):
            got = theta[ridx == i]
            assert np.count_nonzero(got == 0.0) == 1 and np.count_nonzero(got == -math.pi) == 1
            got = np.where(got == -math.pi, math.pi, got)
            assert np.array_equal(np.sort(got), np.sort(np.where(got == math.pi, got, -got)))


def test_window_roots_match_mpmath():
    # the window roots are zeros of the rows' own F to within its rounding:
    # a 40-digit polish moves each by at most one ulp plus 4 D EPS sum a_n
    # / |F'|, the Horner pass's error over the slope (at most 11.8 EPS sum
    # a_n / |F'| measured on these degree-8 rows)
    mp = pytest.importorskip("mpmath")
    rng = np.random.default_rng(20261020)
    cn = random_rows(rng, 40, 8, False)
    ridx, theta = roots.critical_points(cn, np.ones(cn.shape[0]))
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
