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

so :meth:`fourier` gives every ``C_n`` of a circle by one matrix product
(and :meth:`fourier_dr` their radius-derivatives), and :meth:`osc` and
:meth:`d1d2` are one Horner pass in ``w``: O(deg) per angle once the
``C_n`` of the angle's circle are formed.
``osc = 2 |a_m|^2 r^{2m} Re sum_n C_n w^n`` holds no constant term, so
nothing cancels against 1 and signals of order r^n near the origin keep
their relative accuracy.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace

import numpy as np

from . import _kernels
from .errors import ZeroPolynomialError
from .poly import Polynomial
from .util import reduce_angle

EPS = float(np.finfo(float).eps)
# on_axis accepts a reflection axis psi when every |Im(c_l e^{i l psi})| is at
# most AXIS_ULPS (l + 1) EPS |c_l|
AXIS_ULPS = 8


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
        pows = np.arange(self.c_pairs.shape[0])
        r = np.asarray(r, dtype=float)
        with np.errstate(over="ignore"):  # see _power_product
            rp = r[..., None] ** pows
        return _power_product(rp, r, pows, self.c_pairs)

    def fourier_dr(self, r):
        """``dC_n/dr``, shaped as :meth:`fourier`: the derivatives
        ``k r^{k-1}`` of the radius powers times :attr:`c_pairs`."""
        k = np.arange(1, self.c_pairs.shape[0])
        r = np.asarray(r, dtype=float)
        with np.errstate(over="ignore"):  # see _power_product
            drp = k * r[..., None] ** (k - 1)
        return _power_product(drp, r, k - 1, self.c_pairs[1:], k)

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
        ap = self.cross_amps * r**self.cross_pows
        out = _kernels.osc_sum(ap, self.cross_freqs, self.cross_phas, th)
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
        circle, per radius."""
        return _kernels.radial_sum(self.cross_amps * self.cross_freqs, self.cross_pows, r)

    def d2_bound(self, r):
        return _kernels.radial_sum(self.cross_amps * self.cross_freqs**2, self.cross_pows, r)


def _power_product(rp, r, pows, c, mult=1):
    """``rp @ c`` for ``rp[..., i] = mult_i r^pows[i]``, complex ``c``.

    At a radius where some ``r^pows[i]`` is not a float, the plain product
    would meet ``inf * 0`` or ``inf * tiny`` although every term
    ``r^pows[i] c[i, n]`` may be one.  That radius's row is formed term by
    term instead (``_kernels._radial_terms``, which sums binary exponents
    apart from mantissas), so only a genuinely huge ``C_n`` is ``inf``;
    every other radius keeps the plain product and its bits.
    """
    ok = np.isfinite(rp).all(axis=-1)
    if ok.all():
        return (rp @ c.view(float)).view(complex)
    out = (np.where(ok[..., None], rp, 0.0) @ c.view(float)).view(complex)
    amps = (np.reshape(mult, (-1, 1)) * c).view(float)  # (rows, 2 cols)
    with np.errstate(over="ignore", invalid="ignore"):  # inf or NaN is rejected
        terms = _kernels._radial_terms(amps.ravel(), np.repeat(pows, amps.shape[1]), r[~ok])
        out[~ok] = terms.reshape((-1,) + amps.shape).sum(axis=-2).view(complex)
    return out


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
    c_pairs = _c_pairs(c)
    for a in arrays + (c,):
        a.setflags(write=False)
    return ModulusExpansion(*arrays, m=m, lead_abs2=float(mags[0] ** 2), c=c, c_pairs=c_pairs)


def _c_pairs(c: np.ndarray) -> np.ndarray:
    """:attr:`ModulusExpansion.c_pairs` of the coefficients ``c``."""
    deg = c.size - 1
    c_pairs = np.zeros((2 * deg, deg), dtype=complex)
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
    that bound; the diagonal and cross magnitudes are unchanged, and the
    cross phases turn by ``(l - j) psi``.
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
            phas = e.cross_phas + e.cross_freqs * psi
            phas.setflags(write=False)
            return psi, replace(e, c=real, c_pairs=_c_pairs(real), cross_phas=phas)
    return 0.0, e


def direct_mod2(p: Polynomial, r: float, theta: float) -> float:
    """Oracle: Horner evaluation of ``p`` at ``r e^{i theta}``, then |.|^2."""
    z = r * cmath.exp(1j * theta)
    v = p(z)
    return v.real * v.real + v.imag * v.imag
