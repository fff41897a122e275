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

The tracer's hot evaluations group the same terms by frequency.  With
``p = a_m z^m (1 + q)``, ``c_0 = 1``, ``c_j = a_{m+j} / a_m`` and
``w = e^{i theta}``,

    |1 + q|^2 = C_0 + 2 Re sum_{n=1}^{D} C_n w^n,
    C_n(r) = sum_j c_{j+n} conj(c_j) r^{2j+n},

so :meth:`fourier` gives every ``C_n`` of a circle by one matrix product,
and :meth:`osc` and :meth:`d1d2` are one Horner pass in ``w``: O(deg) per
angle.  ``osc = 2 |a_m|^2 r^{2m} Re sum_n C_n w^n`` holds no constant
term, so nothing cancels against 1 and signals of order r^n near the
origin keep their relative accuracy.
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
    c: np.ndarray  # c_0 = 1, then c_j = a_{m+j} / a_m for j = 1..D
    c_pairs: np.ndarray  # (2D, D): c_{j+n} conj(c_j) at row 2j+n, column n-1

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

    def fourier(self, r):
        """``C_n(r)`` for n = 1..D along a last axis added to ``r``: the
        radius powers ``r^0 .. r^{2D-1}`` times :attr:`c_pairs`.  The powers
        are real, so the product is taken on the real and imaginary parts
        side by side (a float view of ``c_pairs``), about 5x faster than a
        complex one."""
        rp = np.asarray(r, dtype=float)[..., None] ** np.arange(self.c_pairs.shape[0])
        return (rp @ self.c_pairs.view(float)).view(complex)

    def osc(self, r, theta):
        """Theta-dependent cross part; ``mod2 = base + osc``.

        ``r`` is a scalar or an array that broadcasts against ``theta``:
        shape (R, 1) against (G,) evaluates R circles at G angles, and equal
        shapes give one radius per angle.
        """
        scalar = np.ndim(r) == 0 and np.ndim(theta) == 0
        r = np.atleast_1d(np.asarray(r, dtype=float))
        th = np.atleast_1d(np.asarray(theta, dtype=float))
        out = 2.0 * self.scale(r) * _kernels.fourier_sum(self.fourier(r), th).real
        return float(out[0]) if scalar else out

    def osc_terms(self, r: float, theta):
        """:meth:`osc` as the paper's cross-term sum; the oracle, O(deg^2)."""
        th = np.atleast_1d(np.asarray(reduce_angle(theta), dtype=float))
        ap = self.cross_amps * r**self.cross_pows
        out = _kernels.osc_sum(ap, self.cross_freqs, self.cross_phas, th)
        if np.ndim(theta) == 0:
            return float(out[0])
        return out

    def d1d2(self, r, theta):
        """First and second theta-derivative arrays of :meth:`mod2`,
        ``-2 scale Im sum_n n C_n w^n`` and ``-2 scale Re sum_n n^2 C_n w^n``
        by one Horner pass; ``r`` broadcasts against ``theta`` as in
        :meth:`osc`."""
        r = np.atleast_1d(np.asarray(r, dtype=float))
        th = np.atleast_1d(np.asarray(theta, dtype=float))
        cn = self.fourier(r)
        n = np.arange(1.0, cn.shape[-1] + 1)
        s1, s2 = _kernels.fourier_sum(np.stack([n * cn, n * n * cn]), th)
        k = -2.0 * self.scale(r)
        return k * s1.imag, k * s2.real

    # -- magnitude bounds used by the tracer -----------------------------

    def d1_bound(self, r):
        """Upper bound for the first theta-derivative of :meth:`mod2` over a
        circle, per radius."""
        return _kernels.radial_sum(self.cross_amps * self.cross_freqs, self.cross_pows, r)

    def d2_bound(self, r):
        return _kernels.radial_sum(self.cross_amps * self.cross_freqs**2, self.cross_pows, r)


def expand(p: Polynomial) -> ModulusExpansion:
    """Build the trigonometric expansion of ``|p|^2`` from the coefficients.

    One diagonal term per nonzero coefficient and one cross term per
    unordered pair of distinct nonzero coefficients, plus the coefficients
    ``c_j`` of the factored form ``a_m z^m (1 + q)`` and their products
    ``c_{j+n} conj(c_j)``, from which :meth:`ModulusExpansion.fourier`
    forms the ``C_n``.
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
    q = np.asarray(p.coeffs[m + 1 :] or (0j,), dtype=complex) / cs[0]  # a monomial has q = 0
    c = np.concatenate([[1.0 + 0j], q])
    deg = c.size - 1
    c_pairs = np.zeros((2 * deg, deg), dtype=complex)
    for n in range(1, deg + 1):
        j = np.arange(deg - n + 1)
        c_pairs[2 * j + n, n - 1] = c[j + n] * np.conj(c[j])
    for a in arrays + (c, c_pairs):
        a.setflags(write=False)
    return ModulusExpansion(*arrays, m=m, lead_abs2=float(mags[0] ** 2), c=c, c_pairs=c_pairs)


def direct_mod2(p: Polynomial, r: float, theta: float) -> float:
    """Oracle: Horner evaluation of ``p`` at ``r e^{i theta}``, then |.|^2."""
    z = r * cmath.exp(1j * theta)
    v = p(z)
    return v.real * v.real + v.imag * v.imag
