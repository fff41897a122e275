"""Numeric kernels of the modulus evaluation, in NumPy.

``fourier_sum`` evaluates ``sum_{n=1}^{D} C_n e^{i n theta}`` by one Horner
pass in ``w = e^{i theta}``, O(deg) work per angle; with the Fourier
coefficients ``C_n`` of ``|1 + q|^2`` it gives the theta-dependent part of
the squared modulus and its theta-derivatives.  It is the package's one
Horner loop.  Its coefficients are laid out order-major, ``(D, ..., rows)``,
so each Horner step reads one order, ``coef[n - 1]``; where each angle reads
its own row, that order's values are gathered for the angles by ``take``,
one order per step, and no ``(..., angles, D)`` block is ever formed.
``radial_sum`` and ``radial_sum_sq`` evaluate the theta-free sums
``sum_t a_t r^{p_t}`` and ``sum_t (a_t r^{p_t})^2`` for one radius or many,
and ``power_terms`` the products ``a r^p 2^s`` they sum, one by one.  The
compensated cosine-term sum of the paper's expansion, which the Horner pass
is tested against, is a test oracle (``tests/oracles.py``).
"""

from __future__ import annotations

import numpy as np

__all__ = ["BACKEND", "fourier_sum", "power_terms", "radial_sum", "radial_sum_sq"]

BACKEND = "numpy"
_SQRT_HALF = 0.5**0.5


def fourier_sum(coef: np.ndarray, thetas: np.ndarray, rows=None) -> np.ndarray:
    """``sum_{n=1}^{D} coef[n-1] w^n`` with ``w = e^{i theta}``, by Horner.

    ``coef`` is order-major: ``coef[n-1]`` holds the order-n coefficients.
    Without ``rows``, each ``coef[n-1]`` broadcasts against ``thetas``, so
    ``coef`` of shape (D, R, 1) against (G,) gives R rows of G angles.  With
    ``rows``, one index per angle into the last axis of ``coef``, angle k
    reads ``coef[n-1, ..., rows[k]]``: ``coef`` of shape (D, 2, R) gives
    (2, G).  Each Horner step then gathers its one order for the angles
    (``take``), so no temporary is larger than the result.
    """
    w = np.exp(1j * thetas)
    orders = iter(coef[::-1])  # order D first
    if rows is not None:
        orders = (c.take(rows, axis=-1) for c in orders)
    acc = next(orders) * w
    for c in orders:
        acc += c
        acc *= w
    return acc


def power_terms(amps, pows, r, shift=0) -> np.ndarray:
    """``amps r^pows 2^shift`` elementwise for integral ``pows``.  The binary
    exponents are summed apart from the mantissas, so a result that is a
    float is formed without overflow or underflow on the way, even where
    ``r^pows`` alone is not a float.  The mantissa of ``r`` is taken in
    ``[sqrt(1/2), sqrt(2))``, so its powers stay normal up to ``pows`` of
    about 2000."""
    ma, ea = np.frexp(amps)
    mr, er = np.frexp(r)
    low = mr < _SQRT_HALF
    mr = np.where(low, 2.0 * mr, mr)  # exact
    return np.ldexp(ma * mr**pows, ea + (er - low) * np.asarray(pows, dtype=int) + shift)


def radial_sum(amps: np.ndarray, pows: np.ndarray, r):
    """``sum_t amps[t] r^pows[t]``, terms by :func:`power_terms`: a float for
    scalar ``r``, else one value per element of ``r``.  ``amps`` may be a
    stack, (B, T) against ``r`` of shape (B,): one sum per member."""
    out = np.sum(power_terms(amps, pows, np.asarray(r, dtype=float)[..., None]), axis=-1)
    return float(out) if np.ndim(r) == 0 else out


def radial_sum_sq(amps: np.ndarray, pows: np.ndarray, r):
    """``sum_t (amps[t] r^pows[t])^2``, shaped as :func:`radial_sum`; the
    squares are taken last, so ``amps[t]^2`` may lie below the float range."""
    terms = power_terms(amps, pows, np.asarray(r, dtype=float)[..., None])
    out = np.sum(terms * terms, axis=-1)
    return float(out) if np.ndim(r) == 0 else out
