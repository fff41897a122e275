import math

import numpy as np

from maxmod import _kernels


def random_terms(rng, n):
    ap = rng.uniform(0, 2, n)
    freqs = rng.integers(1, 12, n).astype(float)
    phas = rng.uniform(-math.pi, math.pi, n)
    return ap, freqs, phas


def test_numpy_kernel_matches_fsum():
    rng = np.random.default_rng(3)
    ap, freqs, phas = random_terms(rng, 40)
    thetas = rng.uniform(-math.pi, math.pi, 16)
    out = _kernels.osc_sum(ap, freqs, phas, thetas)
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
    out = _kernels.osc_sum(ap, freqs, phas, thetas)
    want = 1e9 + (n - 1) * 1e-7
    assert out[0] == want
