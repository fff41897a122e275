"""Test oracles of the modulus evaluation and of the root solve,
independent of the package's fast path.

The package evaluates ``|1 + q|^2`` only from its Fourier coefficients
``C_n`` (``maxmod.modulus``).  The oracles here keep their own arithmetic:

- :class:`TermExpansion` is the paper's term expansion of ``|p|^2``,
  ``sum_l |a_l|^2 r^{2l} + sum_{j<l} 2|a_j||a_l| r^{j+l}
  cos((l-j) theta + arg a_l - arg a_j)``, summed term by term with
  compensation (:func:`osc_sum`), and the scale ``|a_m|^2 r^{2m}`` of
  ``p = a_m z^m (1 + q)``, formed from ``p`` itself (:func:`term_expansion`);
- :func:`direct_mod2` evaluates ``p`` by Horner;
- :func:`brute_force_mset` scans a dense grid of the term sum for the
  maximizers of a circle;
- :func:`polyfit_tangent` is the tangent fit on ``np.polyfit`` and
  ``np.unwrap`` that ``maxmod.tracer._fit_tangent`` replaces by the same
  arithmetic, called directly;
- :func:`c_pairs_loop` and :func:`mass_check_every_radius` are the
  per-order loop of the products ``c_{j+n} conj(c_j)`` and the mass check
  of every radius, which the package forms by one scatter and one check at
  the largest radius;
- :func:`cubic_magic` is the paper's closed form ``Re(b a^{-3/2}) = 0`` of
  a magic cubic, which ``maxmod.classify`` reads off its resonance scan;
- :func:`predict_J` is the survivor recursion with its history, the oracle
  of the count ``mu`` that ``maxmod.classify`` reads off the normal form,
  and :func:`history_radius` derives ``maxmod.tracer.ambiguity_radius``
  from that history.

``companion_angles`` finds a circle's critical points as the real roots of
a polynomial in the half angle, by a companion-matrix eigenvalue solve: the
method the tracer used before its critical points came from certified
windows and subdivision.  ``derivative_bounds`` bounds the theta-derivatives
of ``|1 + q|^2`` on a circle, to scale tolerances, and :func:`circle_argmax`
is the one-radius form of the tracer's scan.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from maxmod import HaymanForm, Polynomial, _kernels, expand
from maxmod.classify import MAGIC, NOT_MAGIC
from maxmod.modulus import ModulusExpansion
from maxmod.tracer import EPS_T, FIT_DEGREE, TIE_TOL, _rows, _scan
from maxmod.util import TWO_PI, reduce_angle

EPS = np.finfo(float).eps
# a root t of the half-angle polynomial, mapped to w = (1+it)/(1-it), is a
# critical point when |abs(w) - 1| < ON_CIRCLE; real roots land within a
# few ulps of the circle
ON_CIRCLE = 1e-6
# cubic_magic's bound on |Re b'| / |b'|, in radians as classify's EPS_ARG
EPS_MAG = 1e-9


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
    ``|1 + q|^2`` over the circle of radius r: ``2 sum n^k
    |c_{j+n} c_j| r^{2j+n}`` for k = 1 and 2, read from ``e.c_pairs``."""
    row, col = np.nonzero(e.c_pairs)  # row 2j+n, column n-1
    amps = np.abs(e.c_pairs[row, col])
    return tuple(2.0 * _kernels.radial_sum((col + 1.0) ** k * amps, row, r) for k in (1, 2))


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


@dataclass(frozen=True)
class TermExpansion(ModulusExpansion):
    """The package's Fourier data of ``|1 + q|^2`` with the scale of ``p``:
    the paper's terms are derived from the ``c_j`` on demand, and
    :meth:`base`, :meth:`osc`, :meth:`mod2` and :meth:`d1d2` are those of
    ``|p|^2 = scale(r) |1 + q|^2``."""

    m: int = 0  # lowest exponent with a nonzero coefficient
    lead_abs2: float = 1.0  # |a_m|^2

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

    def mod2(self, r: float, theta):
        """``|p(r e^{i theta})|^2``; theta may be a scalar or an array."""
        return self.base(r) + self.osc_terms(r, theta)

    def scale(self, r):
        """``|a_m|^2 r^{2m}``, the factor of ``|1 + q|^2`` in :meth:`mod2`."""
        return self.lead_abs2 * r ** (2 * self.m)

    def base(self, r):
        """Theta-independent part of :meth:`mod2`, per radius."""
        return self.scale(r) * super().base(r)

    def osc(self, r, theta):
        """Theta-dependent part of :meth:`mod2`, by the package's Horner pass."""
        return self.scale(r) * super().osc(r, theta)

    def osc_terms(self, r: float, theta):
        """:meth:`osc` as the paper's cross-term sum; the oracle, O(deg^2)."""
        th = np.atleast_1d(np.asarray(reduce_angle(theta), dtype=float))
        pows, amps, freqs, phas = self._cross_terms()
        out = osc_sum(amps * r**pows, freqs, phas, th)
        if np.ndim(theta) == 0:
            return float(out[0])
        return out

    def d1d2(self, r, theta):
        """First and second theta-derivative arrays of :meth:`mod2`,
        ``-2 scale Im sum_n n C_n w^n`` and ``-2 scale Re sum_n n^2 C_n w^n``
        by one Horner pass; ``r`` is as in :meth:`osc`."""
        r = np.atleast_1d(np.asarray(r, dtype=float))
        th = np.atleast_1d(np.asarray(theta, dtype=float))
        cn = self.fourier(r)
        n = np.arange(1.0, cn.shape[-1] + 1)
        s1, s2 = _kernels.fourier_sum(np.moveaxis(np.stack([n * cn, n * n * cn]), -1, 0), th)
        k = -2.0 * self.scale(r)
        return k * s1.imag, k * s2.real


def term_expansion(p: Polynomial) -> TermExpansion:
    """The :class:`TermExpansion` of ``p``: the package's expansion, with
    ``m`` and ``|a_m|^2`` formed from ``p`` (``inf`` where not a float)."""
    e = expand(p)
    m = p.nonzero_exponents()[0]
    with np.errstate(over="ignore"):
        lead_abs2 = float(np.abs(p.coeffs[m]) ** 2)
    return TermExpansion(c=e.c, c_pairs=e.c_pairs, m=m, lead_abs2=lead_abs2)


def direct_mod2(p: Polynomial, r: float, theta: float) -> float:
    """Horner evaluation of ``p`` at ``r e^{i theta}``, then |.|^2."""
    z = r * cmath.exp(1j * theta)
    v = 0j
    for c in reversed(p.coeffs):
        v = v * z + c
    return v.real * v.real + v.imag * v.imag


def brute_force_mset(p: Polynomial, r: float, grid: int) -> np.ndarray:
    """Dense-scan maximizer angles, no refinement.

    Returns the grid angles whose value is within ``TIE_TOL * spread`` of
    the grid maximum.  Evaluates the expansion's cross-term sum, so it stays
    independent of the Fourier-coefficient path the tracer uses.
    """
    e = term_expansion(p)
    th_grid = -math.pi + TWO_PI * np.arange(grid) / grid
    x = e.osc_terms(r, th_grid)
    spread = x.max() - x.min()
    return th_grid[x >= x.max() - TIE_TOL * spread]


def circle_argmax(e: ModulusExpansion, r: float) -> list[tuple[float, float]]:
    """Newton-refined global maximizers of ``|1 + q|^2`` (of ``|p|^2`` for
    a :class:`TermExpansion`) on the circle |z| = r: the tracer's scan
    (``maxmod.tracer._scan``) of the one radius r.

    Returns ``(theta, mod2)`` pairs for every maximizer whose value lies
    within ``TIE_TOL * (max - min)`` of the refined global maximum.  The
    scan reads the rows alone, so ``mod2`` is ``e.base(r) + e.osc(r, theta)``
    at the maximizers: the same Horner pass over the same row, on the scale
    of ``e``.
    """
    radii = np.array([r], dtype=float)
    _, _, theta, _, comax = _scan(_rows(e, radii), radii, not e.c.imag.any())
    theta = theta[comax]
    mod2 = e.base(r) + e.osc(r, theta)
    return [(float(t), float(m)) for t, m in zip(reduce_angle(theta), mod2)]


def polyfit_tangent(rs: np.ndarray, thetas: np.ndarray):
    """``(omega_hat, alpha_hat | None, on_ray)`` of the samples of one curve,
    as ``maxmod.tracer._fit_tangent`` defines them, through ``np.polyfit``:
    the samples sorted by r and unwrapped, then fitted over the smallest
    decade of radii (at least 8 samples)."""
    order = np.argsort(rs)
    rs = np.asarray(rs, dtype=float)[order]
    th = np.unwrap(np.asarray(thetas, dtype=float)[order])
    window = rs <= 10.0 * rs[0]
    if window.sum() < 8:
        window = np.zeros_like(window)
        window[: min(8, rs.size)] = True
    r_w = rs[window]
    t_w = th[window]

    if t_w.max() - t_w.min() < 1e-12:
        return float(reduce_angle(np.mean(t_w))), None, True

    coef, _, rank, _, _ = np.polyfit(r_w, t_w, FIT_DEGREE, full=True)
    if rank < FIT_DEGREE + 1:
        coef = np.polyfit(r_w, t_w, max(rank - 1, 1), full=True)[0]
    coef = coef[::-1]
    omega_hat = float(coef[0])
    ee = t_w - omega_hat
    if r_w[-1] < 2.0 * r_w[0]:
        alpha_hat = None
    elif np.all(ee > 0) or np.all(ee < 0):
        alpha_hat = float(np.polyfit(np.log(r_w), np.log(np.abs(ee)), 1)[0])
    else:
        n = np.arange(1, coef.size)
        alpha_hat = float(n[np.argmax(np.abs(coef[1:]) * r_w[-1] ** n)])
    return float(reduce_angle(omega_hat)), alpha_hat, False


def c_pairs_loop(c: np.ndarray) -> np.ndarray:
    """``ModulusExpansion.c_pairs`` of the coefficients ``c`` by its
    definition, one order n at a time: ``c_{j+n} conj(c_j)`` at row
    ``2j + n``, column ``n - 1``."""
    deg = c.size - 1
    c_pairs = np.zeros((2 * deg, deg), dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(1, deg + 1):
            j = np.arange(deg - n + 1)
            c_pairs[2 * j + n, n - 1] = c[j + n] * np.conj(c[j])
    return c_pairs


def mass_check_every_radius(e: ModulusExpansion, radii: np.ndarray) -> float | None:
    """The first radius of ``radii`` at which ``4 mass^2``, ``mass = 1 +
    sum_j j^2 |c_j| r^j``, is no float, each radius checked on its own, or
    None: where ``maxmod.tracer._rows`` must raise."""
    j = np.arange(float(e.c.size))
    with np.errstate(over="ignore", invalid="ignore"):
        mass = 1.0 + _kernels.radial_sum(j * j * np.abs(e.c), j, radii)
        bad = ~np.isfinite(4.0 * mass * mass)
    return float(radii[np.argmax(bad)]) if bad.any() else None


def cubic_magic(h: HaymanForm) -> str:
    """Magic verdict of the paper's closed form for quadratics and cubics.

    Quadratics and cubics with k in {1, 3} are never magic.  A cubic with
    k = 2, i.e. ``1 + a z^2 + b z^3``, is magic iff ``Re(b a^{-3/2}) = 0``;
    either square-root branch gives the same verdict since the branches
    negate ``b a^{-3/2}``.  Only the phase matters, so ``a`` and ``b`` are
    divided by their moduli first and ``a^{-3/2}`` cannot overflow.  A tail
    of degree 4 or more raises ``ValueError``.
    """
    deg = h.tail.degree
    if deg == 2:
        return NOT_MAGIC
    if deg != 3:
        raise ValueError(f"tail degree {deg} is outside the quadratic/cubic family")
    if h.k in (1, 3):
        return NOT_MAGIC
    b = h.tail.coeffs[3]
    b_prime = b / abs(b) * (h.a / abs(h.a)) ** -1.5
    return MAGIC if abs(b_prime.real) <= EPS_MAG * abs(b_prime) else NOT_MAGIC


@dataclass(frozen=True)
class TermFilter:
    """Effect of one tail term ``b z^n`` on the survivor set."""

    n: int
    t_values: tuple[tuple[int, float], ...]  # (j, t_j) over the entering set
    retained: tuple[int, ...]


@dataclass(frozen=True)
class PredictedJ:
    j_set: tuple[int, ...]
    t_history: tuple[TermFilter, ...]


def predict_J(h: HaymanForm) -> PredictedJ:
    """Survivor recursion over all tail terms above degree k.

    Starts from the full candidate set {0,...,k-1} (exact for two-term
    inputs) and, for each term ``b z^n`` in ascending degree, keeps the
    candidates maximizing ``t_j = 2|b| cos(n omega_j + arg b)`` up to a tie
    tolerance.  Exact for non-exceptional inputs, where the result is one
    residue class mod k/mu with mu elements; a heuristic for exceptional
    ones.
    """
    k = h.k
    omega = h.omega
    j_set = list(range(k))
    history = []
    for n in h.tail.nonzero_exponents():
        if n <= k:
            continue
        b = h.tail.coeffs[n]
        arg_b = cmath.phase(b)
        # compare cosines: the positive factor 2|b| may overflow to inf
        cos = [math.cos(n * omega[j] + arg_b) for j in j_set]
        cos_max = max(cos)
        retained = [j for j, c in zip(j_set, cos) if c >= cos_max - EPS_T]
        two_abs_b = 2.0 * abs(b)
        history.append(
            TermFilter(
                n=n,
                t_values=tuple((j, two_abs_b * c) for j, c in zip(j_set, cos)),
                retained=tuple(retained),
            )
        )
        j_set = retained
    return PredictedJ(j_set=tuple(j_set), t_history=tuple(history))


def history_radius(h: HaymanForm) -> float:
    """``maxmod.tracer.ambiguity_radius`` read off :func:`predict_J`'s
    history: per term, each excluded candidate's gap to the largest retained
    ``t_j`` gives the radius ``(100 TIE_TOL 4|a| / gap)^(1/(n-k))``, and the
    largest such radius is returned, 0.0 where none is excluded."""
    thresh_coeff = 100.0 * TIE_TOL * 4.0 * abs(h.a)
    r_amb = 0.0
    alive: set[int] = set(range(h.k))
    for tf in predict_J(h).t_history:
        t = dict(tf.t_values)
        excluded = alive - set(tf.retained)
        if excluded:
            t_max = max(t[j] for j in tf.retained)
            for j in excluded:
                gap = t_max - t[j]
                if gap > 0:
                    r_amb = max(r_amb, (thresh_coeff / gap) ** (1.0 / (tf.n - h.k)))
        alive = set(tf.retained)
    return r_amb
