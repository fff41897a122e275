"""Exact evaluation of |p(r e^{i theta})|^2 and its theta-derivatives.

Writing ``p = sum a_l z^l``, the squared modulus on a circle expands into a
finite trigonometric sum

    |p(r e^{i t})|^2 = sum_l |a_l|^2 r^{2l}
                     + sum_{j<l} 2|a_j||a_l| r^{j+l} cos((l-j) t + arg a_l - arg a_j).

The diagonal part is independent of theta; the cross part carries all the
angular structure.  This term sum is the paper's formula: :meth:`osc_terms`
evaluates the cross part (terms in ascending power of r, compensated
summation) and is the oracle for the fast path; :meth:`mod2` is
:meth:`base` plus :meth:`osc_terms`.

The tracer's hot evaluations, :meth:`osc` and :meth:`d1d2`, use the factored
form ``p = a_m z^m (1 + q)`` with ``q = sum_{j>=1} c_j z^j`` instead: one
Horner pass per angle, O(deg) rather than O(deg^2) cosines, and

    osc = |a_m|^2 r^{2m} (2 Re q + (|q|^2 - sum_j |c_j|^2 r^{2j})).

Comparing this cross part directly avoids the cancellation against the
constant 1 that would otherwise drown signals of order r^n near the origin.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import ZeroPolynomialError
from .poly import Polynomial
from .util import reduce_angle


@dataclass(frozen=True)
class ModulusExpansion:
    """Precomputed trigonometric expansion of ``|p(r e^{i theta})|^2``."""

    diag_pows: np.ndarray  # l per nonzero coefficient
    diag_amps: np.ndarray  # |a_l|, the diagonal term is (|a_l| r^l)^2
    cross_pows: np.ndarray  # j+l per unordered pair j < l
    cross_amps: np.ndarray  # 2|a_j||a_l|
    cross_freqs: np.ndarray  # l-j
    cross_phas: np.ndarray  # arg a_l - arg a_j
    m: int  # lowest exponent with a nonzero coefficient
    lead_abs2: float  # |a_m|^2
    q_rows: np.ndarray  # row j-1: c_j, j c_j, j^2 c_j for c_j = a_{m+j} / a_m

    @property
    def diagonal(self) -> list[tuple[float, float]]:
        """``(2l, |a_l|^2)`` per nonzero coefficient: the terms
        ``|a_l|^2 r^{2l}``."""
        return list(zip((2.0 * self.diag_pows).tolist(), (self.diag_amps**2).tolist()))

    @property
    def cross(self) -> list[tuple[float, float, float, float]]:
        return list(
            zip(
                self.cross_pows.tolist(),
                self.cross_amps.tolist(),
                self.cross_freqs.tolist(),
                self.cross_phas.tolist(),
            )
        )

    # -- evaluation -----------------------------------------------------

    def mod2(self, r: float, theta):
        """``|p(r e^{i theta})|^2``; theta may be a scalar or an array."""
        return self.base(r) + self.osc_terms(r, theta)

    def base(self, r):
        """Theta-independent diagonal part of :meth:`mod2`, per radius, as
        ``sum_l (|a_l| r^l)^2``: no ``|a_l|^2`` is formed alone, so a tiny
        coefficient still counts at a radius that makes its term a float."""
        return _kernels.radial_sum_sq(self.diag_amps, self.diag_pows, r)

    def scale(self, r):
        """``|a_m|^2 r^{2m}``, the factor of ``|1 + q|^2`` in :meth:`mod2`."""
        return self.lead_abs2 * r ** (2 * self.m)

    def osc(self, r, theta):
        """Theta-dependent cross part; ``mod2 = base + osc`` (Horner).

        ``r`` is a scalar or an array that broadcasts against ``theta``:
        shape (R, 1) against (G,) scans R circles on one grid, and equal
        shapes give one radius per angle.
        """
        th = np.atleast_1d(np.asarray(theta, dtype=float))
        out = _kernels.osc_horner(self.q_rows, r, self.scale(r), th)
        if np.ndim(theta) == 0 and np.ndim(r) == 0:
            return float(out[0])
        return out

    def osc_terms(self, r: float, theta):
        """:meth:`osc` as the paper's cross-term sum; the oracle, O(deg^2)."""
        th = np.atleast_1d(np.asarray(reduce_angle(theta), dtype=float))
        ap = self.cross_amps * r**self.cross_pows
        out = _kernels.osc_sum(ap, self.cross_freqs, self.cross_phas, th)
        if np.ndim(theta) == 0:
            return float(out[0])
        return out

    def d1d2(self, r, theta):
        """First and second theta-derivative arrays of :meth:`mod2` (Horner);
        ``r`` broadcasts against ``theta`` as in :meth:`osc`."""
        th = np.atleast_1d(np.asarray(theta, dtype=float))
        return _kernels.d1d2_horner(self.q_rows, r, self.scale(r), th)

    def dmod2_dtheta(self, r: float, theta):
        """Exact d/dtheta of :meth:`mod2`, from :meth:`d1d2`."""
        d1, _ = self.d1d2(r, theta)
        if np.ndim(theta) == 0:
            return float(d1[0])
        return d1

    def d2mod2_dtheta2(self, r: float, theta):
        """Exact second theta-derivative of :meth:`mod2`, from :meth:`d1d2`."""
        _, d2 = self.d1d2(r, theta)
        if np.ndim(theta) == 0:
            return float(d2[0])
        return d2

    # -- magnitude bounds used by the tracer -----------------------------

    def d1_bound(self, r):
        """Upper bound for |dmod2_dtheta| over a circle, per radius."""
        return _kernels.radial_sum(self.cross_amps * self.cross_freqs, self.cross_pows, r)

    def d2_bound(self, r):
        return _kernels.radial_sum(self.cross_amps * self.cross_freqs**2, self.cross_pows, r)


def expand(p: Polynomial) -> ModulusExpansion:
    """Build the trigonometric expansion of ``|p|^2`` from the coefficients.

    One diagonal term per nonzero coefficient and one cross term per
    unordered pair of distinct nonzero coefficients, plus the factored form
    ``a_m z^m (1 + q)`` that :meth:`ModulusExpansion.osc` evaluates.
    """
    if p.is_zero:
        raise ZeroPolynomialError("cannot expand the zero polynomial")
    exps = np.array(p.nonzero_exponents(), dtype=float)
    cs = np.array([p.coeffs[int(e)] for e in exps], dtype=complex)
    mags = np.abs(cs)
    args = np.angle(cs)

    diag_pows = exps
    diag_amps = mags

    jj, ll = np.triu_indices(len(exps), k=1)
    cross_pows = exps[jj] + exps[ll]
    cross_amps = 2.0 * mags[jj] * mags[ll]
    cross_freqs = exps[ll] - exps[jj]
    cross_phas = args[ll] - args[jj]

    order = np.lexsort((cross_freqs, cross_pows))
    cross_pows = cross_pows[order]
    cross_amps = cross_amps[order]
    cross_freqs = cross_freqs[order]
    cross_phas = cross_phas[order]

    arrays = (diag_pows, diag_amps, cross_pows, cross_amps, cross_freqs, cross_phas)
    m = int(exps[0])
    c = np.asarray(p.coeffs[m + 1 :] or (0j,), dtype=complex) / cs[0]  # a monomial has q = 0
    j = np.arange(1.0, c.size + 1)
    q_rows = np.stack([c, j * c, j * j * c], axis=1)
    for a in arrays + (q_rows,):
        a.setflags(write=False)
    return ModulusExpansion(*arrays, m=m, lead_abs2=float(mags[0] ** 2), q_rows=q_rows)


def direct_mod2(p: Polynomial, r: float, theta: float) -> float:
    """Oracle: Horner evaluation of ``p`` at ``r e^{i theta}``, then |.|^2."""
    z = r * cmath.exp(1j * theta)
    v = p(z)
    return v.real * v.real + v.imag * v.imag
