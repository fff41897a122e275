"""Exact evaluation of ``|1 + q(r e^{i theta})|^2``, the one evaluator of
the package.

With ``p = a_m z^m (1 + q)``, ``c_0 = 1``, ``c_j = a_{m+j} / a_m`` and
``w = e^{i theta}``,

    |1 + q|^2 = C_0 + 2 Re sum_{n=1}^{D} C_n w^n,
    C_n(r) = sum_j c_{j+n} conj(c_j) r^{2j+n}.

An expansion holds only these Fourier data.  :meth:`~ModulusExpansion.fourier`
gives every ``C_n`` of a circle by one matrix product, and
:meth:`~ModulusExpansion.osc` is one Horner pass in ``w`` over them: O(deg)
per angle once the ``C_n`` of the angle's circle are formed.  ``osc`` holds no
constant term, so nothing cancels against 1 and signals of order r^n near
the origin keep their relative accuracy.  The factor ``|a_m|^2 r^{2m}`` of
``|p|^2`` moves no maximizer, so the tracer compares values of
``|1 + q|^2`` alone.

The paper's formula is the same sum term by term,

    |p|^2 = sum_l |a_l|^2 r^{2l}
          + sum_{j<l} 2|a_j||a_l| r^{j+l} cos((l-j) theta + arg a_l - arg a_j).

It is not evaluated here: the term expansion, its compensated sum and
direct Horner evaluation of ``p`` are the test oracles of ``tests/oracles.py``.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import ZeroPolynomialError
from .poly import Polynomial, lead_ratios
from .util import EPS

# on_axis accepts a reflection axis psi when every |Im(c_l e^{i l psi})| is at
# most AXIS_ULPS (l + 1) EPS |c_l|
AXIS_ULPS = 8


@dataclass(frozen=True)
class ModulusExpansion:
    """Fourier data of ``|1 + q(r e^{i theta})|^2``.  The tracer reads it
    for its ``C_n`` rows (:meth:`fourier`) and its realness alone, and scans
    the rows without it.  The arrays may carry a leading stack axis of B
    expansions of one width, for :meth:`fourier` alone: a hunt's count forms
    the rows of a row group so."""

    c: np.ndarray  # c_0 = 1, then c_j = a_{m+j} / a_m for j = 1..D
    c_pairs: np.ndarray  # (2D, D): c_{j+n} conj(c_j) at row 2j+n, column n-1

    @property
    def cross_amps(self) -> np.ndarray:
        """``2|c_j||c_l|`` per pair j < l of nonzero ``c_j``.  Only
        ``perfbench/layers.py`` reads it, for its size; it goes with
        ROADMAP item 1."""
        mag = np.abs(self.c[np.flatnonzero(self.c)])
        lo, hi = np.triu_indices(mag.size, k=1)
        return 2.0 * mag[lo] * mag[hi]

    def base(self, r):
        """Theta-independent part of ``|1 + q|^2``, per radius, as
        ``sum_j (|c_j| r^j)^2``: no ``|c_j|^2`` is formed alone, so a tiny
        coefficient counts at a radius that makes its term a float."""
        j = np.flatnonzero(self.c)
        return _kernels.radial_sum_sq(np.abs(self.c[j]), j, r)

    def fourier(self, r):
        """``C_n(r)`` for n = 1..D along a last axis added to ``r``: the
        radius powers ``r^0 .. r^{2D-1}`` times :attr:`c_pairs`.  The powers
        are real, so the product is taken on the real and imaginary parts
        side by side (a float view of ``c_pairs``), about 5x faster than a
        complex one.  A stack of B expansions takes ``r`` of shape (B, R),
        the radii of each, and gives (B, R, D) by one stacked product: each
        member's R rows are one matrix product, as for a single expansion."""
        pows = np.arange(self.c_pairs.shape[-2])
        r = np.asarray(r, dtype=float)
        with np.errstate(over="ignore"):  # see _power_product
            rp = r[..., None] ** pows
        return _power_product(rp, r, pows, self.c_pairs)

    def osc(self, r, theta):
        """Theta-dependent part of ``|1 + q|^2``, ``2 Re sum_n C_n w^n``;
        ``|1 + q|^2 = base + osc``.

        ``r`` is a scalar or an array that broadcasts against ``theta``:
        shape (R, 1) against (G,) evaluates R circles at G angles, and equal
        shapes give one radius per angle.  A scan makes the same Horner pass
        over rows it has formed already, without the expansion
        (``maxmod.tracer._scan``).
        """
        scalar = np.ndim(r) == 0 and np.ndim(theta) == 0
        r = np.atleast_1d(np.asarray(r, dtype=float))
        th = np.atleast_1d(np.asarray(theta, dtype=float))
        out = 2.0 * _kernels.fourier_sum(np.moveaxis(self.fourier(r), -1, 0), th).real
        return float(out[0]) if scalar else out


def _power_product(rp, r, pows, c):
    """``rp @ c`` for ``rp[..., i] = r^pows[i]``, complex ``c``, which may
    be a stack (B, rows, cols) against ``r`` of shape (B, R).

    At a radius where some ``r^pows[i]`` is not a float, the plain product
    would meet ``inf * 0`` or ``inf * tiny`` although every term
    ``r^pows[i] c[i, n]`` may be one.  That radius's row is formed term by
    term instead (``_kernels.power_terms``, which sums binary exponents
    apart from mantissas) from its own member's ``c``, so only a genuinely
    huge ``C_n`` is ``inf``; every other radius keeps the plain product and
    its bits.
    """
    amps = c.view(float)  # (..., rows, 2 cols)
    ok = np.isfinite(rp).all(axis=-1)
    if ok.all():
        return (rp @ amps).view(complex)
    out = (np.where(ok[..., None], rp, 0.0) @ amps).view(complex)
    # each radius's own amps: the stack axes of c lead those of r
    amps = np.expand_dims(amps, tuple(range(amps.ndim - 2, r.ndim)))
    amps = np.broadcast_to(amps, r.shape + amps.shape[-2:])[~ok]
    with np.errstate(over="ignore", invalid="ignore"):  # inf or NaN is rejected
        terms = _kernels.power_terms(
            amps.reshape(amps.shape[0], -1), np.repeat(pows, amps.shape[-1]), r[~ok][:, None]
        )
        out[~ok] = terms.reshape(amps.shape).sum(axis=-2).view(complex)
    return out


def expand(p: Polynomial) -> ModulusExpansion:
    """The Fourier data of ``|1 + q|^2`` for ``p = a_m z^m (1 + q)``: the
    coefficients ``c_j`` of ``1 + q`` (divided out by
    :func:`~maxmod.poly.lead_ratios`, as in
    :func:`~maxmod.poly.normalize`) and their products
    ``c_{j+n} conj(c_j)``, from which :meth:`ModulusExpansion.fourier` forms
    the ``C_n``.
    """
    if p.is_zero:
        raise ZeroPolynomialError("cannot expand the zero polynomial")
    m = p.nonzero_exponents()[0]
    # a monomial has q = 0
    c = np.array((1.0,) + lead_ratios(p.coeffs[m + 1 :] or (0j,), p.coeffs[m]), dtype=complex)
    c.setflags(write=False)
    return ModulusExpansion(c=c, c_pairs=_c_pairs(c))


def _c_pairs(c: np.ndarray) -> np.ndarray:
    """:attr:`ModulusExpansion.c_pairs` of the coefficients ``c``, by one
    scatter of the products ``c_l conj(c_j)``, j < l, to row ``j + l`` and
    column ``l - j - 1`` (:func:`_pair_index`)."""
    deg = c.size - 1
    j, l, row, col = _pair_index(deg)
    c_pairs = np.zeros((2 * deg, deg), dtype=complex)
    with np.errstate(over="ignore"):  # an inf product fails the trace's mass check
        c_pairs[row, col] = c[l] * np.conj(c[j])
    c_pairs.setflags(write=False)
    return c_pairs


@functools.lru_cache(maxsize=32)
def _pair_index(deg: int):
    """The pairs ``j < l`` of ``0..deg`` and their places in ``c_pairs``:
    ``(j, l, j + l, l - j - 1)``, read-only, by degree alone."""
    j, l = np.triu_indices(deg + 1, k=1)
    index = (j, l, j + l, l - j - 1)
    for a in index:
        a.setflags(write=False)
    return index


def on_axis(tail: Polynomial) -> tuple[float, Polynomial]:
    """A reflection axis ``psi`` of ``|1 + q|^2`` for the normalized tail
    ``1 + q`` and the turned tail ``1 + q(e^{i psi} z)``, whose coefficients
    are exactly real; ``(0.0, tail)`` when the coefficients of ``tail`` are
    real already or have no axis.  Found on the tail's coefficients, before
    anything is expanded, so the turned tail is expanded once.

    ``|1 + q(r e^{i theta})|^2`` is symmetric about ``theta = psi`` when
    every ``c_l e^{i l psi}`` is real.  The lowest tail order k fixes psi
    modulo ``pi / k``: the candidates are ``psi = (j pi - arg c_k) / k``,
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
    c = tail.coeffs
    if not any(z.imag for z in c):
        return 0.0, tail
    nz = [l for l in range(1, len(c)) if c[l]]
    k = nz[0]
    for j in range(k):
        psi = (j * math.pi - cmath.phase(c[k])) / k
        turned = [0j] * len(c)
        turned[0] = c[0]
        for l in nz:  # most inputs fail at their second tail order
            z = c[l] * cmath.exp(1j * l * psi)
            if abs(z.imag) > AXIS_ULPS * EPS * (l + 1) * abs(c[l]):
                break
            turned[l] = complex(z.real)
        else:
            return psi, Polynomial(tuple(turned), truncated=tail.truncated)
    return 0.0, tail
