"""Hot numeric kernels over theta grids, in NumPy.

``osc_horner`` and ``d1d2_horner`` evaluate the theta-dependent part of
``|1 + q(z)|^2`` and its theta-derivatives, for ``q = sum_{j>=1} c_j z^j``
and ``z = r e^{i theta}``, by one Horner pass: O(deg) work per angle.
``osc_sum`` is the compensated cosine-term sum of the paper's expansion,
O(deg^2) per angle; it evaluates ``mod2`` and is the oracle the Horner
kernels are tested against.  ``radial_sum`` and ``radial_sum_sq`` evaluate
the theta-free sums ``sum_t a_t r^{p_t}`` and ``sum_t (a_t r^{p_t})^2`` for
one radius or many.
"""

from __future__ import annotations

import numpy as np

__all__ = ["BACKEND", "osc_sum", "osc_horner", "d1d2_horner", "radial_sum", "radial_sum_sq"]

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


def _horner(rows: np.ndarray, z: np.ndarray) -> np.ndarray:
    """``sum_{j=1}^{D} rows[j-1] z^j`` for ``rows`` of shape (D, k), D >= 1.

    Each of the k columns is one polynomial; the result has shape
    ``(k,) + z.shape``, so a 2-D ``z`` (radii x angles) keeps every row.
    """
    if z.size == 1:
        # numpy rounds a broadcast complex scalar times a one-element array
        # unlike times a longer one; two copies keep a point's value
        # independent of how many points share the call
        return _horner(rows, np.repeat(z.reshape(-1), 2))[:, :1].reshape(rows.shape[1:] + z.shape)
    rows = rows.reshape(rows.shape + (1,) * z.ndim)
    acc = rows[-1] * z
    for c in rows[-2::-1]:
        acc += c
        acc *= z
    return acc


def _unit_scaled(r, thetas: np.ndarray) -> np.ndarray:
    """``r e^{i theta}``; ``r`` is made complex first because numpy casts a
    broadcast float operand element by element, about 20x slower.  The
    imaginary part of ``r`` is 0, so every product is the correctly rounded
    one either way."""
    return np.asarray(r, dtype=complex) * np.exp(1j * thetas)


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


def osc_horner(rows: np.ndarray, r, scale, thetas: np.ndarray) -> np.ndarray:
    """``scale * (2 Re q + (|q|^2 - sum_j |c_j|^2 r^{2j}))`` per theta.

    ``rows[j-1, 0]`` is ``c_j``.  This is ``scale * |1 + q|^2`` minus its
    theta-free part; nothing is compared against the constant 1, so the
    result keeps its relative accuracy as ``r -> 0``.  ``r`` and ``scale``
    are scalars or arrays that broadcast against ``thetas``, one radius per
    row or per angle.
    """
    c = rows[:, 0]
    q = _horner(rows[:, :1], _unit_scaled(r, thetas))[0]
    diag = radial_sum_sq(np.abs(c), np.arange(1.0, c.size + 1), r)
    return scale * (2.0 * q.real + ((q.real**2 + q.imag**2) - diag))


def d1d2_horner(rows: np.ndarray, r, scale, thetas: np.ndarray):
    """First and second theta-derivatives of ``scale * |1 + q|^2`` per theta.

    ``rows[j-1]`` holds ``c_j``, ``j c_j`` and ``j^2 c_j``, giving ``q``,
    ``s = sum j c_j z^j`` and ``t = sum j^2 c_j z^j`` in one pass; then
    ``d1 = -2 Im(conj(1+q) s)`` and ``d2 = 2 (|s|^2 - Re(conj(1+q) t))``.
    ``r`` and ``scale`` broadcast against ``thetas`` as in :func:`osc_horner`.
    """
    q, s, t = _horner(rows, _unit_scaled(r, thetas))
    conj_p = np.conj(q)
    conj_p += 1.0
    k = 2.0 * scale
    d1 = (conj_p * s).imag * -k
    d2 = ((s.real**2 + s.imag**2) - (conj_p * t).real) * k
    return d1, d2
