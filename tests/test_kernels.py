import math

import numpy as np

from maxmod import _kernels
from oracles import osc_sum


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
