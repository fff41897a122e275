"""Exact evaluation of |p(r e^{i theta})|^2 and its theta-derivatives.

With ``p = a_m z^m (1 + q)``, ``c_0 = 1``, ``c_j = a_{m+j} / a_m`` and
``w = e^{i theta}``,

    |p|^2 = |a_m|^2 r^{2m} (C_0 + 2 Re sum_{n=1}^{D} C_n w^n),
    C_n(r) = sum_j c_{j+n} conj(c_j) r^{2j+n}.

An expansion holds only these Fourier data.  :meth:`fourier` gives every
``C_n`` of a circle by one matrix product, and :meth:`osc` and
:meth:`d1d2` are one Horner pass in ``w``: O(deg) per angle once the
``C_n`` of the angle's circle are formed.  ``osc`` holds no constant term,
so nothing cancels against 1 and signals of order r^n near the origin keep
their relative accuracy.  The tracer expands the normalized tail ``1 + q``,
whose scale ``|a_m|^2 r^{2m}`` is 1.

The paper's formula is the same sum term by term,

    |p|^2 = sum_l |a_l|^2 r^{2l}
          + sum_{j<l} 2|a_j||a_l| r^{j+l} cos((l-j) theta + arg a_l - arg a_j).

Its terms are derived from the ``c_j`` on demand and serve only as the
oracle: :meth:`osc_terms` sums the cross terms (in ascending power of r,
compensated), and :meth:`mod2` is :meth:`base` plus :meth:`osc_terms`.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace

import numpy as np

from . import _kernels
from .errors import ZeroPolynomialError
from .poly import Polynomial, lead_ratios
from .util import EPS, reduce_angle

# on_axis accepts a reflection axis psi when every |Im(c_l e^{i l psi})| is at
# most AXIS_ULPS (l + 1) EPS |c_l|
AXIS_ULPS = 8


@dataclass(frozen=True)
class ModulusExpansion:
    """Fourier data of ``|p(r e^{i theta})|^2`` for ``p = a_m z^m (1 + q)``."""

    m: int  # lowest exponent with a nonzero coefficient
    lead_abs2: float  # |a_m|^2
    c: np.ndarray  # c_0 = 1, then c_j = a_{m+j} / a_m for j = 1..D
    c_pairs: np.ndarray  # (2D, D): c_{j+n} conj(c_j) at row 2j+n, column n-1

    # -- the paper's terms, derived for the oracle -----------------------

    @property
    def diagonal(self) -> list[tuple[float, float]]:
        """``(2l, |a_l|^2)`` per nonzero coefficient, the terms ``|a_l|^2 r^{2l}``."""
        j = np.flatnonzero(self.c)
        amps = self.lead_abs2 * np.abs(self.c[j]) ** 2
        return list(zip((2.0 * (j + self.m)).tolist(), amps.tolist()))

    def _cross_terms(self) -> np.ndarray:
        """Rows ``(j + l, 2|a_j||a_l|, l - j, arg a_l - arg a_j)``, one column
        per pair j < l of nonzero coefficients, by power, then frequency."""
        j = np.flatnonzero(self.c)
        mag, arg = np.abs(self.c[j]), np.angle(self.c[j])
        lo, hi = np.triu_indices(j.size, k=1)
        amps = 2.0 * self.lead_abs2 * mag[lo] * mag[hi]
        terms = np.array([j[lo] + j[hi] + 2.0 * self.m, amps, j[hi] - j[lo], arg[hi] - arg[lo]])
        return terms[:, np.lexsort((terms[2], terms[0]))]

    cross_pows = property(lambda self: self._cross_terms()[0])  # j+l
    cross_amps = property(lambda self: self._cross_terms()[1])  # 2|a_j||a_l|
    cross_freqs = property(lambda self: self._cross_terms()[2])  # l-j
    cross_phas = property(lambda self: self._cross_terms()[3])  # arg a_l - arg a_j

    @property
    def cross(self) -> list[tuple[float, float, float, float]]:
        """``(j + l, 2|a_j||a_l|, l - j, arg a_l - arg a_j)`` per cross term."""
        return list(zip(*self._cross_terms().tolist()))

    # -- evaluation -----------------------------------------------------

    def mod2(self, r: float, theta):
        """``|p(r e^{i theta})|^2``; theta may be a scalar or an array."""
        return self.base(r) + self.osc_terms(r, theta)

    def base(self, r):
        """Theta-independent part of :meth:`mod2`, per radius, as
        ``scale(r) sum_j (|c_j| r^j)^2``: no ``|c_j|^2`` is formed alone, so a
        tiny coefficient counts at a radius that makes its term a float."""
        j = np.flatnonzero(self.c)
        return self.scale(r) * _kernels.radial_sum_sq(np.abs(self.c[j]), j, r)

    def scale(self, r):
        """``|a_m|^2 r^{2m}``, the factor of ``|1 + q|^2`` in :meth:`mod2`."""
        return self.lead_abs2 * r ** (2 * self.m)

    def fourier(self, r):
        """``C_n(r)`` for n = 1..D along a last axis added to ``r``: the
        radius powers ``r^0 .. r^{2D-1}`` times :attr:`c_pairs`.  The powers
        are real, so the product is taken on the real and imaginary parts
        side by side (a float view of ``c_pairs``), about 5x faster than a
        complex one."""
        pows = np.arange(self.c_pairs.shape[0])
        r = np.asarray(r, dtype=float)
        with np.errstate(over="ignore"):  # see _power_product
            rp = r[..., None] ** pows
        return _power_product(rp, r, pows, self.c_pairs)

    def osc(self, r, theta, cn=None):
        """Theta-dependent cross part; ``mod2 = base + osc``.

        ``r`` is a scalar or an array that broadcasts against ``theta``:
        shape (R, 1) against (G,) evaluates R circles at G angles, and equal
        shapes give one radius per angle.  ``cn``, if given, holds
        ``fourier(r)`` (one row per radius, already formed), so only the
        O(deg) Horner pass is left per angle.
        """
        scalar = np.ndim(r) == 0 and np.ndim(theta) == 0
        r = np.atleast_1d(np.asarray(r, dtype=float))
        th = np.atleast_1d(np.asarray(theta, dtype=float))
        if cn is None:
            cn = self.fourier(r)
        out = 2.0 * self.scale(r) * _kernels.fourier_sum(cn, th).real
        return float(out[0]) if scalar else out

    def osc_terms(self, r: float, theta):
        """:meth:`osc` as the paper's cross-term sum; the oracle, O(deg^2)."""
        th = np.atleast_1d(np.asarray(reduce_angle(theta), dtype=float))
        pows, amps, freqs, phas = self._cross_terms()
        out = _kernels.osc_sum(amps * r**pows, freqs, phas, th)
        if np.ndim(theta) == 0:
            return float(out[0])
        return out

    def d1d2(self, r, theta, cn=None):
        """First and second theta-derivative arrays of :meth:`mod2`,
        ``-2 scale Im sum_n n C_n w^n`` and ``-2 scale Re sum_n n^2 C_n w^n``
        by one Horner pass; ``r`` and ``cn`` are as in :meth:`osc`."""
        r = np.atleast_1d(np.asarray(r, dtype=float))
        th = np.atleast_1d(np.asarray(theta, dtype=float))
        if cn is None:
            cn = self.fourier(r)
        n = np.arange(1.0, cn.shape[-1] + 1)
        s1, s2 = _kernels.fourier_sum(np.stack([n * cn, n * n * cn]), th)
        k = -2.0 * self.scale(r)
        return k * s1.imag, k * s2.real

    # -- magnitude bounds used by the tracer -----------------------------

    def d1_bound(self, r):
        """Upper bound for the first theta-derivative of :meth:`mod2` over a
        circle, per radius: ``2 scale(r) sum_{n,j} n |c_{j+n} c_j| r^{2j+n}``."""
        return self._pair_bound(1, r)

    def d2_bound(self, r):
        """:meth:`d1_bound` with ``n^2`` for n: the second derivative's bound."""
        return self._pair_bound(2, r)

    def _pair_bound(self, k, r):
        row, col = np.nonzero(self.c_pairs)  # row 2j+n, column n-1
        amps = (col + 1.0) ** k * np.abs(self.c_pairs[row, col])
        return 2.0 * self.scale(r) * _kernels.radial_sum(amps, row, r)


def _power_product(rp, r, pows, c):
    """``rp @ c`` for ``rp[..., i] = r^pows[i]``, complex ``c``.

    At a radius where some ``r^pows[i]`` is not a float, the plain product
    would meet ``inf * 0`` or ``inf * tiny`` although every term
    ``r^pows[i] c[i, n]`` may be one.  That radius's row is formed term by
    term instead (``_kernels.power_terms``, which sums binary exponents
    apart from mantissas), so only a genuinely huge ``C_n`` is ``inf``;
    every other radius keeps the plain product and its bits.
    """
    ok = np.isfinite(rp).all(axis=-1)
    if ok.all():
        return (rp @ c.view(float)).view(complex)
    out = (np.where(ok[..., None], rp, 0.0) @ c.view(float)).view(complex)
    amps = c.view(float)  # (rows, 2 cols)
    with np.errstate(over="ignore", invalid="ignore"):  # inf or NaN is rejected
        terms = _kernels.power_terms(amps.ravel(), np.repeat(pows, amps.shape[1]), r[~ok][:, None])
        out[~ok] = terms.reshape((-1,) + amps.shape).sum(axis=-2).view(complex)
    return out


def expand(p: Polynomial) -> ModulusExpansion:
    """The Fourier data of ``|p|^2``: the coefficients ``c_j`` of the
    factored form ``a_m z^m (1 + q)`` (divided out by
    :func:`~maxmod.poly.lead_ratios`, as in
    :func:`~maxmod.poly.normalize`) and their products
    ``c_{j+n} conj(c_j)``, from which :meth:`ModulusExpansion.fourier` forms
    the ``C_n``.  ``|a_m|^2`` is ``inf`` where it is not a float.
    """
    if p.is_zero:
        raise ZeroPolynomialError("cannot expand the zero polynomial")
    m = p.nonzero_exponents()[0]
    # a monomial has q = 0
    c = np.array((1.0,) + lead_ratios(p.coeffs[m + 1 :] or (0j,), p.coeffs[m]), dtype=complex)
    c.setflags(write=False)
    with np.errstate(over="ignore"):
        lead_abs2 = float(np.abs(p.coeffs[m]) ** 2)
    return ModulusExpansion(m=m, lead_abs2=lead_abs2, c=c, c_pairs=_c_pairs(c))


def _c_pairs(c: np.ndarray) -> np.ndarray:
    """:attr:`ModulusExpansion.c_pairs` of the coefficients ``c``."""
    deg = c.size - 1
    c_pairs = np.zeros((2 * deg, deg), dtype=complex)
    with np.errstate(over="ignore"):  # an inf product fails the trace's mass check
        for n in range(1, deg + 1):
            j = np.arange(deg - n + 1)
            c_pairs[2 * j + n, n - 1] = c[j + n] * np.conj(c[j])
    c_pairs.setflags(write=False)
    return c_pairs


def on_axis(e: ModulusExpansion) -> tuple[float, ModulusExpansion]:
    """A reflection axis ``psi`` of ``|p|^2`` and the expansion of
    ``p(e^{i psi} z)``, whose ``c_j`` are exactly real; ``(0.0, e)`` when
    the ``c_j`` of ``e`` are real already or have no axis.

    ``|p(r e^{i theta})|^2`` is symmetric about ``theta = psi`` when every
    ``c_l e^{i l psi}`` is real.  The lowest tail order k fixes psi modulo
    ``pi / k``: the candidates are ``psi = (j pi - arg c_k) / k``,
    j = 0..k-1.  One is accepted when every ``|Im(c_l e^{i l psi})|`` is at
    most ``AXIS_ULPS (l + 1) EPS |c_l|``.  The rounding of ``arg c_k``, of
    ``j pi`` and of the division leaves a computed axis a few ``EPS`` off an
    exact one, l times that in ``l psi``, and forming ``l psi``,
    ``e^{i l psi}`` and the product adds about ``(l + 2) EPS``: on 20000
    rounded symmetric polynomials of degree 1-30 the largest ratio to
    ``(l + 1) EPS |c_l|`` was 3.4.  A polynomial whose phases are off the
    axis by 1e-12 (about 4500 ``EPS``) is rejected for every l below 560,
    and keeps its ``c_j``: snapping it would trace a different polynomial.
    The accepted ``c_j`` become ``Re(c_l e^{i l psi})``, a change within
    that bound.  Every evaluation, the oracle's terms included, reads the
    new ``c_j``, so nothing else turns.
    """
    if not e.c.imag.any():
        return 0.0, e
    c = e.c.tolist()
    tail = [l for l in range(1, len(c)) if c[l]]
    k = tail[0]
    for j in range(k):
        psi = (j * math.pi - cmath.phase(c[k])) / k
        rot = []
        for l in tail:  # most inputs fail at their second tail order
            z = c[l] * cmath.exp(1j * l * psi)
            if abs(z.imag) > AXIS_ULPS * EPS * (l + 1) * abs(c[l]):
                break
            rot.append(z.real)
        else:
            real = np.zeros(len(c), dtype=complex)
            real[0] = 1.0
            real[tail] = rot
            real.setflags(write=False)
            return psi, replace(e, c=real, c_pairs=_c_pairs(real))
    return 0.0, e


def direct_mod2(p: Polynomial, r: float, theta: float) -> float:
    """Oracle: Horner evaluation of ``p`` at ``r e^{i theta}``, then |.|^2."""
    z = r * cmath.exp(1j * theta)
    v = p(z)
    return v.real * v.real + v.imag * v.imag
