import math

import numpy as np
import pytest

from maxmod import _kernels, expand, parse_poly
from oracles import osc_sum

EPS = np.finfo(float).eps


def random_terms(rng, n):
    ap = rng.uniform(0, 2, n)
    freqs = rng.integers(1, 12, n).astype(float)
    phas = rng.uniform(-math.pi, math.pi, n)
    return ap, freqs, phas


def test_numpy_kernel_matches_fsum():
    rng = np.random.default_rng(3)
    ap, freqs, phas = random_terms(rng, 40)
    thetas = rng.uniform(-math.pi, math.pi, 16)
    out = osc_sum(ap, freqs, phas, thetas)
    for i, th in enumerate(thetas):
        want = math.fsum(a * math.cos(f * th + p) for a, f, p in zip(ap, freqs, phas))
        assert abs(out[i] - want) <= 8 * np.finfo(float).eps * np.sum(ap)


def test_compensation_beats_plain_sum():
    # adversarial magnitudes: one huge term plus many tiny ones
    n = 64
    ap = np.array([1e9] + [1e-7] * (n - 1))
    freqs = np.zeros(n)
    phas = np.zeros(n)  # cos(0) = 1: exact total known
    thetas = np.array([0.25])
    out = osc_sum(ap, freqs, phas, thetas)
    want = 1e9 + (n - 1) * 1e-7
    assert out[0] == want


def test_radial_sums_match_direct_powers():
    # in the ordinary range the terms are amps * r**pows to the last ulp or so
    rng = np.random.default_rng(5)
    amps = rng.uniform(0, 3, 12)
    pows = rng.integers(0, 40, 12).astype(float)
    r = np.exp(rng.uniform(math.log(1e-3), math.log(2.0), 50))
    want = np.sum(amps * r[:, None] ** pows, axis=1)
    assert np.allclose(_kernels.radial_sum(amps, pows, r), want, rtol=4e-16, atol=0)
    want_sq = np.sum((amps * r[:, None] ** pows) ** 2, axis=1)
    assert np.allclose(_kernels.radial_sum_sq(amps, pows, r), want_sq, rtol=8e-16, atol=0)
    one = _kernels.radial_sum(amps, pows, 0.5)
    assert isinstance(one, float) and one == _kernels.radial_sum(amps, pows, np.array([0.5]))[0]


def test_radial_sums_without_intermediate_overflow():
    # r^j overflows and c^2 underflows, but every term is a float
    with np.errstate(all="raise"):
        assert _kernels.radial_sum(np.array([0.5, 1e-300]), np.array([0.0, 1.0]), 1e300) == 1.5
        assert _kernels.radial_sum(np.array([1e300]), np.array([2.0]), 1e-300) == 1e-300
        assert _kernels.radial_sum_sq(np.array([1e-300]), np.array([1.0]), 1e300) == 1.0
        assert _kernels.radial_sum(np.array([2.0]), np.array([3.0]), 0.0) == 0.0


def random_orders(rng, shape):
    """Complex coefficients of the order-major layout ``shape``, whose
    orders differ in scale by up to e^6."""
    scale = np.exp(rng.uniform(-3, 3, (shape[0],) + (1,) * (len(shape) - 1)))
    return (rng.normal(size=shape) + 1j * rng.normal(size=shape)) * scale


def test_fourier_sum_rows_gather_bit_for_bit():
    # one order gathered per Horner step gives the bits of the pass over a
    # block gathered for all orders at once
    rng = np.random.default_rng(7)
    for deg in (1, 3, 8):
        coef = random_orders(rng, (deg, 2, 9))
        rows = rng.integers(0, 9, 50)
        th = rng.uniform(-math.pi, math.pi, 50)
        got = _kernels.fourier_sum(coef, th, rows)
        assert got.shape == (2, 50)
        assert np.array_equal(got, _kernels.fourier_sum(coef[..., rows], th))


def test_fourier_sum_matches_per_angle_sum():
    # against sum_n coef[n-1] e^{i n theta} per angle in 200-bit arithmetic,
    # within a few ulps of the coefficients' total modulus
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(11)
    for deg in (1, 3, 8, 12):
        coef = random_orders(rng, (deg, 2, 5))
        rows = rng.integers(0, 5, 12)
        th = rng.uniform(-math.pi, math.pi, 12)
        got = _kernels.fourier_sum(coef, th, rows)
        for k in range(th.size):
            for m in range(2):
                col = coef[:, m, rows[k]]
                with mpmath.workprec(200):
                    w = [mpmath.expj(n * mpmath.mpf(th[k])) for n in range(1, deg + 1)]
                    want = complex(mpmath.fsum(mpmath.mpc(c) * z for c, z in zip(col.tolist(), w)))
                assert abs(got[m, k] - want) <= 4 * EPS * np.abs(col).sum(), (deg, k, m)


def test_fourier_sum_broadcast_keeps_osc_shapes():
    # without rows, (D, R, 1) against (G,) angles gives R rows of G angles,
    # row by row the bits of one row alone; osc keeps its shapes
    rng = np.random.default_rng(3)
    coef = random_orders(rng, (4, 6, 1))
    th = rng.uniform(-math.pi, math.pi, 10)
    grid = _kernels.fourier_sum(coef, th)
    assert grid.shape == (6, 10)
    for i in range(6):
        assert np.array_equal(grid[i], _kernels.fourier_sum(coef[:, i, 0], th))
    e = expand(parse_poly("1,0,1,1i,0.5"))
    radii = np.array([0.3, 0.1, 0.01])
    osc = e.osc(radii[:, None], th)
    assert osc.shape == (3, 10)
    for i, r in enumerate(radii):
        assert np.array_equal(osc[i], e.osc(float(r), th))
    assert isinstance(e.osc(0.1, 0.5), float)
    assert e.osc(0.1, th[:1]).shape == (1,)
