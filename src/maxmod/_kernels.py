"""Hot numeric kernels over theta grids, in NumPy.

``fourier_sum`` evaluates ``sum_{n=1}^{D} C_n e^{i n theta}`` by one Horner
pass in ``w = e^{i theta}``, O(deg) work per angle; with the Fourier
coefficients ``C_n`` of ``|1 + q|^2`` it gives the theta-dependent part of
the squared modulus and its theta-derivatives.  ``osc_sum`` is the
compensated cosine-term sum of the paper's expansion, O(deg^2) per angle;
it evaluates ``mod2`` and is the oracle the Fourier path is tested
against.  ``radial_sum`` and ``radial_sum_sq`` evaluate the theta-free sums
``sum_t a_t r^{p_t}`` and ``sum_t (a_t r^{p_t})^2`` for one radius or many.
"""

from __future__ import annotations

import numpy as np

__all__ = ["BACKEND", "osc_sum", "fourier_sum", "radial_sum", "radial_sum_sq"]

BACKEND = "numpy"
_SQRT_HALF = 0.5**0.5


def osc_sum(ap: np.ndarray, freqs: np.ndarray, phas: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    """Compensated sum of ``ap[t] * cos(freqs[t]*theta + phas[t])`` per theta."""
    s = np.zeros(thetas.shape[0])
    comp = np.zeros_like(s)
    for t in range(ap.shape[0]):
        x = ap[t] * np.cos(freqs[t] * thetas + phas[t])
        tot = s + x
        comp += np.where(np.abs(s) >= np.abs(x), (s - tot) + x, (x - tot) + s)
        s = tot
    return s + comp


def fourier_sum(coef: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    """``sum_{n=1}^{D} coef[..., n-1] w^n`` with ``w = e^{i theta}``, by Horner.

    The leading axes of ``coef`` broadcast against ``thetas``, so ``coef``
    of shape (R, 1, D) against (G,) gives R rows of G angles.
    """
    w = np.exp(1j * thetas)
    acc = coef[..., -1] * w
    for n in range(coef.shape[-1] - 2, -1, -1):
        acc += coef[..., n]
        acc *= w
    return acc


def _radial_terms(amps: np.ndarray, pows: np.ndarray, r) -> np.ndarray:
    """``amps[t] r^pows[t]`` for integral ``pows``, along a last axis added to
    ``r``.  The binary exponents of ``amps`` and ``r`` are summed apart from
    their mantissas, so a term that is a float is formed without overflow or
    underflow on the way, even where ``r^pows[t]`` alone is not a float.
    The mantissa of ``r`` is taken in ``[sqrt(1/2), sqrt(2))``, so its powers
    stay normal up to ``pows`` of about 2000."""
    ma, ea = np.frexp(amps)
    mr, er = np.frexp(np.asarray(r, dtype=float)[..., None])
    low = mr < _SQRT_HALF
    mr = np.where(low, 2.0 * mr, mr)  # exact
    return np.ldexp(ma * mr**pows, ea + (er - low) * pows.astype(int))


def radial_sum(amps: np.ndarray, pows: np.ndarray, r):
    """``sum_t amps[t] r^pows[t]``, terms as in :func:`_radial_terms`: a float
    for scalar ``r``, else one value per element of ``r``."""
    out = np.sum(_radial_terms(amps, pows, r), axis=-1)
    return float(out) if np.ndim(r) == 0 else out


def radial_sum_sq(amps: np.ndarray, pows: np.ndarray, r):
    """``sum_t (amps[t] r^pows[t])^2``, shaped as :func:`radial_sum`; the
    squares are taken last, so ``amps[t]^2`` may lie below the float range."""
    terms = _radial_terms(amps, pows, r)
    out = np.sum(terms * terms, axis=-1)
    return float(out) if np.ndim(r) == 0 else out
