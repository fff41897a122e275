"""Test oracles of the root solve, independent of ``maxmod.roots``.

``companion_angles`` finds a circle's critical points as the real roots of
a polynomial in the half angle, by a companion-matrix eigenvalue solve: the
method the tracer used before its critical points came from certified
windows and subdivision.  ``derivative_bounds`` bounds the theta-derivatives
of ``|p|^2`` on a circle, to scale tolerances.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from maxmod import _kernels

EPS = np.finfo(float).eps
# a root t of the half-angle polynomial, mapped to w = (1+it)/(1-it), is a
# critical point when |abs(w) - 1| < ON_CIRCLE; real roots land within a
# few ulps of the circle
ON_CIRCLE = 1e-6


@functools.cache
def half_angle_table(d: int) -> np.ndarray:
    """Row n-1, column k: the real factor ``(-1)^(k//2) e_nk`` that takes
    ``Im x`` (k even) or ``Re x`` (k odd) to the coefficient of ``t^k`` in
    ``Im(x (1+it)^{d+n} (1-it)^{d-n})``, where
    ``(1+it)^{d+n} (1-it)^{d-n} = sum_k i^k e_nk t^k``."""
    table = np.empty((d, 2 * d + 1))
    for n in range(1, d + 1):
        for k in range(2 * d + 1):
            e_nk = sum(
                math.comb(d + n, j) * math.comb(d - n, k - j) * (-1) ** (k - j)
                for j in range(max(0, k - d + n), min(k, d + n) + 1)
            )
            table[n - 1, k] = (-1) ** (k // 2) * e_nk
    table.setflags(write=False)
    return table


def half_angle_coef(nc: np.ndarray, d: int) -> np.ndarray:
    """Per row of ``nc`` (``n C_n``, n = 1..d), the coefficients of ``t^0 ..
    t^2d`` of ``R(t) = sum_n Im(nc_n (1+it)^{d+n} (1-it)^{d-n})``, which is
    ``-(1+t^2)^d / 2`` times ``d/dtheta |1 + q|^2`` at ``t = tan(theta/2)``."""
    table = half_angle_table(d)
    coef = np.empty((nc.shape[0], 2 * d + 1))
    coef[:, 0::2] = nc[:, :d].imag @ table[:, 0::2]
    coef[:, 1::2] = nc[:, :d].real @ table[:, 1::2]
    return coef


def companion_roots(nc_row: np.ndarray) -> np.ndarray:
    """All roots ``w = (1+it)/(1-it)`` of R for one circle's ``n C_n``, from
    the eigenvalues of R's companion matrix.  Top orders whose ``n |C_n|``
    is at most ``EPS`` times the largest are dropped, and so is a top order
    j of R whose coefficient is below ``EPS^(j-k)`` times that of a lower
    order k: by the Newton polygon a root then lies beyond ``1 / EPS``,
    where ``w = -1`` to rounding; each dropped order of R gives the root
    ``w = -1 - 0i``, at the angle -pi."""
    mag = np.abs(nc_row)
    d = int(np.flatnonzero(mag > EPS * mag.max())[-1]) + 1
    coef = half_angle_coef(nc_row[None, :d], d)[0]
    m = 2 * d
    while m > 0 and any(abs(coef[m]) < EPS ** (m - k) * abs(coef[k]) for k in range(m)):
        m -= 1
    comp = np.zeros((m, m))
    comp[0, :] = -coef[m - 1 :: -1] / coef[m]
    comp[np.arange(1, m), np.arange(m - 1)] = 1.0
    t = np.linalg.eigvals(comp).astype(complex) if m else np.empty(0, complex)
    # w = (1+it)/(1-it) in real arithmetic
    den = (1.0 + t.imag) ** 2 + t.real**2
    w = (1.0 - t.real**2 - t.imag**2) / den + 1j * (2.0 * t.real / den)
    return np.concatenate([w, np.full(2 * d - m, complex(-1.0, -0.0))])


def companion_angles(nc_row: np.ndarray) -> np.ndarray:
    """One circle's critical angles, sorted, from :func:`companion_roots`:
    the roots within ``ON_CIRCLE`` of the unit circle."""
    w = companion_roots(nc_row)
    return np.sort(np.angle(w[np.abs(np.abs(w) - 1.0) < ON_CIRCLE]))


def derivative_bounds(e, r):
    """Upper bounds of the first and second theta-derivatives of
    ``e.mod2`` over the circle of radius r: ``2 scale(r) sum n^k
    |c_{j+n} c_j| r^{2j+n}`` for k = 1 and 2, read from ``e.c_pairs``."""
    row, col = np.nonzero(e.c_pairs)  # row 2j+n, column n-1
    amps = np.abs(e.c_pairs[row, col])
    return tuple(
        2.0 * e.scale(r) * _kernels.radial_sum((col + 1.0) ** k * amps, row, r) for k in (1, 2)
    )
