"""Hot numeric kernels over theta grids, in NumPy.

``osc_horner`` and ``d1d2_horner`` evaluate the theta-dependent part of
``|1 + q(z)|^2`` and its theta-derivatives, for ``q = sum_{j>=1} c_j z^j``
and ``z = r e^{i theta}``, by one Horner pass: O(deg) work per angle.
``osc_sum`` is the compensated cosine-term sum of the paper's expansion,
O(deg^2) per angle; it evaluates ``mod2`` and is the oracle the Horner
kernels are tested against.
"""

from __future__ import annotations

import numpy as np

__all__ = ["BACKEND", "osc_sum", "osc_horner", "d1d2_horner"]

BACKEND = "numpy"


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
    """``sum_{j=1}^{D} rows[j-1] z^j`` for ``rows`` of shape (D, k, 1), D >= 1."""
    acc = rows[-1] * z
    for c in rows[-2::-1]:
        acc += c
        acc *= z
    return acc


def osc_horner(rows: np.ndarray, r: float, scale: float, thetas: np.ndarray) -> np.ndarray:
    """``scale * (2 Re q + (|q|^2 - sum_j |c_j|^2 r^{2j}))`` per theta.

    ``rows[j-1, 0, 0]`` is ``c_j``.  This is ``scale * |1 + q|^2`` minus its
    theta-free part; nothing is compared against the constant 1, so the
    result keeps its relative accuracy as ``r -> 0``.
    """
    c = rows[:, 0, 0]
    q = _horner(rows[:, :1], r * np.exp(1j * thetas))[0]
    diag = float(np.sum((c.real**2 + c.imag**2) * r ** (2.0 * np.arange(1, c.size + 1))))
    return scale * (2.0 * q.real + ((q.real**2 + q.imag**2) - diag))


def d1d2_horner(rows: np.ndarray, r: float, scale: float, thetas: np.ndarray):
    """First and second theta-derivatives of ``scale * |1 + q|^2`` per theta.

    ``rows[j-1]`` holds ``c_j``, ``j c_j`` and ``j^2 c_j``, giving ``q``,
    ``s = sum j c_j z^j`` and ``t = sum j^2 c_j z^j`` in one pass; then
    ``d1 = -2 Im(conj(1+q) s)`` and ``d2 = 2 (|s|^2 - Re(conj(1+q) t))``.
    """
    q, s, t = _horner(rows, r * np.exp(1j * thetas))
    conj_p = np.conj(q)
    conj_p += 1.0
    k = 2.0 * scale
    d1 = (conj_p * s).imag * -k
    d2 = ((s.real**2 + s.imag**2) - (conj_p * t).real) * k
    return d1, d2
