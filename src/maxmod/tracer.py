"""Numerical computation of the maximum modulus set on a punctured disc.

The global maximizers of ``theta -> |p(r e^{i theta})|^2`` are located on
every circle of a geometric radius schedule at once.  The paper's
trigonometric expansion, grouped by frequency, gives each circle's Fourier
coefficients ``C_n(r)`` of ``|p|^2`` (``ModulusExpansion.fourier``), from
which every evaluation of the trace is made.  They make the
theta-derivative of ``|p|^2`` a real trigonometric polynomial; in the
half-angle variable ``t = tan(theta / 2)`` it becomes one real polynomial
per circle, whose real roots are the circle's critical points.  A batched
eigenvalue solve of real companion matrices finds them on a few anchor
circles.  Every other circle is a predictor-corrector step off its nearest
anchor: one Euler step in r predicts its roots, and a few Aberth steps
correct them, which are kept only under a backward-error certificate and
are otherwise solved for like an anchor's.  Where that polynomial has
degree at most ``EIGEN_DEGREE``, every circle is an anchor.  One Newton
solve (bisection-guarded) on the exact theta-derivative then polishes the
maxima of all circles; like every evaluation at a point, it reads the
point's ``C_n`` from its circle's row, formed once per radius.
Between folds a circle's maxima move analytically in r and never cross, so
their cyclic order links the maxima of neighbouring circles into
trajectories, on flat arrays of all circles at once.  The co-maximal runs
along the trajectories are the curves, which are counted, fitted for
tangent direction and exponent, and checked for rotational symmetry.

A polynomial whose coefficients have a reflection axis psi (every
``c_l e^{i l psi}`` real, as for every real polynomial with psi = 0 and
every magic cubic) is traced on its symmetry quotient: the scan runs on
``p(e^{i psi} z)`` with its ``c_j`` made exactly real
(:func:`~maxmod.modulus.on_axis`).  Every ``C_n`` is then real and the
half-angle polynomial is odd, ``R(t) = t S(t^2)``; the root solve runs on
S, of half the degree in ``u = t^2``, and returns the critical points as
exact mirror pairs ``+-sqrt(u)`` plus the axis points ``t = 0`` and
``t = inf``.  The maxima are linked in that frame, where mirror maxima
meeting at a fold on the axis tie exactly and :func:`_match_cyclic`'s tie
rule decides which goes on, and are then turned back by psi and sorted by
angle again, so curve ids follow the same order as without the quotient.

The tangent fit rests on the implicit function theorem: for
``p = 1 + a z^k + ...`` the function ``r^-k d/dtheta |p|^2`` is
``-2k|a| sin(k theta + arg a) + O(r)``, whose zeros omega_j are simple, so
each maximizer branch is a power series ``theta(r) = omega_j + c_1 r + ...``.

All angular comparisons are made on the theta-dependent part of ``|p|^2``
(method ``osc`` of the expansion): the theta-free diagonal never influences
an argmax, and dropping it keeps co-maximality decisions accurate at the
``1e-12 * spread`` level even where the full value is dominated by 1.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .classify import omega_angles, predict_J
from .errors import (
    FloorViolationError,
    MonomialAllPlaneError,
    RefinementFailureError,
    TruncatedSeriesError,
)
from . import _kernels
from .modulus import ModulusExpansion, expand, on_axis
from .poly import HaymanForm, MonomialVerdict, Polynomial, normalize, reciprocal
from .util import TWO_PI, circ_dist, reduce_angle

EPS = float(np.finfo(float).eps)
FIT_DEGREE = 6  # degree of the polynomial theta(r) fitted by _fit_tangent
# Co-maximality: a maximizer ties with the best one when its value lies within
# TIE_TOL times the per-circle spread (max - min) of the squared modulus.
TIE_TOL = 1e-12
# Newton stops when |d/dtheta| is below NEWTON_TOL times an upper bound for
# the theta-derivative on the circle, or after NEWTON_MAX_ITER steps.
NEWTON_TOL = 1e-12
NEWTON_MAX_ITER = 60
# TraceConfig.grid lies in 64..MAX_GRID and n_radii in 2..MAX_RADII.
MAX_GRID = 1 << 16
MAX_RADII = 100_000
# A root t of the half-angle polynomial (see _derivative_roots), mapped to
# w = (1+it)/(1-it), is a critical point of its circle when
# |abs(w) - 1| < ON_CIRCLE.  Real roots land within a few ulps of the
# circle.  A max-min pair that has met at a fold and left the circle, with
# |d/dtheta| >= delta between the two, is a complex pair t, conj(t), which
# maps to w and 1/conj(w) with |abs(w) - 1| ~ sqrt(2 delta / |d^3/dtheta^3|);
# the bound accepts it only for delta below about 5e-13 |d^3/dtheta^3|, on a
# circle within roundoff of the fold.
ON_CIRCLE = 1e-6
# Only anchor circles get an eigenvalue solve (see _group_roots): in each
# group of circles with one half-angle degree, every ANCHOR_STEP-th circle and
# the last.  Every other circle starts from an Euler step off its nearest
# anchor's roots and takes at most ABERTH_MAX_ITER Aberth steps, in blocks of
# circles whose pairwise (circles x m x m) temporaries hold at most
# ABERTH_BLOCK elements.  A circle not certified by then is eigen-solved.
ANCHOR_STEP = 16
ABERTH_MAX_ITER = 3
ABERTH_BLOCK = 1 << 15
# A group whose polynomial has degree at most EIGEN_DEGREE is eigen-solved on
# every circle: up to degree 3 a batched solve of all its companion matrices
# costs less than the anchors' solve plus the Euler starts and Aberth passes
# of the followers, and at degree 4 both cost the same.
EIGEN_DEGREE = 3


@dataclass(frozen=True)
class TraceConfig:
    """Radius schedule of a trace run: ``n_radii`` radii, 2..``MAX_RADII``,
    from ``r_max`` down to ``r_min``.  ``grid`` has no effect on the trace:
    it is only checked to lie in 64..``MAX_GRID``."""

    r_min: float = 1e-3
    r_max: float = 0.3
    n_radii: int = 200
    grid: int = 4096

    def __post_init__(self):
        if not (0 < self.r_min < self.r_max < math.inf):
            raise ValueError("need 0 < r_min < r_max < inf")
        if not (2 <= self.n_radii <= MAX_RADII):
            raise ValueError(f"need 2 <= n_radii <= {MAX_RADII}")
        if not (64 <= self.grid <= MAX_GRID):
            raise ValueError(f"need 64 <= grid <= {MAX_GRID}")


@dataclass(frozen=True)
class CurveSample:
    r: float
    theta: float
    mod: float  # |p(r e^{i theta})|; inf only where |p| exceeds the float range
    curve_id: int


@dataclass(frozen=True)
class TangentFit:
    curve_id: int
    omega_hat: float
    alpha_hat: float | None  # None when the curve sits exactly on its ray
    on_ray: bool
    matched_j: int
    matched_omega: float
    omega_error: float


@dataclass(frozen=True)
class SymmetryPair:
    curve_a: int
    curve_b: int
    rotation_m: int  # rotation by 2 pi m / mu maps curve_a onto curve_b
    max_dev: float


@dataclass(frozen=True)
class TraceEvent:
    kind: str  # "birth" | "death"
    r: float
    curve_id: int
    legitimate: bool | None  # None = not enough data to judge


@dataclass(frozen=True)
class TraceResult:
    samples: tuple[CurveSample, ...]
    n_components: int
    component_ids: tuple[int, ...]
    tangents: tuple[TangentFit, ...]
    symmetry: tuple[SymmetryPair, ...]
    events: tuple[TraceEvent, ...]
    stable_radius: float
    radii: tuple[float, ...]
    omega: tuple[float, ...]
    mu: int
    inverted: bool = False  # samples refer to 1/z in the original plane

    def curve_samples(self, curve_id: int) -> list[CurveSample]:
        return [s for s in self.samples if s.curve_id == curve_id]


def radius_schedule(cfg: TraceConfig) -> np.ndarray:
    """Geometric schedule from r_max down to r_min, inclusive."""
    return np.geomspace(cfg.r_max, cfg.r_min, cfg.n_radii)


def floor_radius(h: HaymanForm) -> float:
    """Smallest radius at which the angular signal dominates roundoff.

    The theta-dependent signal scales like ``2|a| r^k`` while evaluation
    noise scales with the square of the coefficient mass, hence the floor
    ``2|a| r^k >= 1e6 * eps * (sum |a_l|)^2``.  The mass is scaled by its
    largest modulus so that no intermediate overflows; a floor beyond the
    float range is ``inf``.
    """
    mags = [abs(c) for c in h.tail.coeffs]
    big = max(mags)
    mass = sum(m / big for m in mags)
    return float((1e6 * EPS * mass * mass / 2.0 * (big / abs(h.a)) * big) ** (1.0 / h.k))


@functools.cache
def _half_angle_table(d: int) -> np.ndarray:
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


def _half_angle_coef(nc: np.ndarray, d: int) -> np.ndarray:
    """The real polynomials ``sum_{n=1}^{d} Im(nc[:, n-1] (1+it)^{d+n}
    (1-it)^{d-n})``, row i from the first d columns of ``nc[i]``: column k
    holds the coefficient of ``t^k``, k = 0..2d."""
    table = _half_angle_table(d)
    coef = np.empty((nc.shape[0], 2 * d + 1))
    coef[:, 0::2] = nc[:, :d].imag @ table[:, 0::2]
    coef[:, 1::2] = nc[:, :d].real @ table[:, 1::2]
    return coef


def _polyval(coef: np.ndarray, t: np.ndarray) -> np.ndarray:
    """The real polynomials ``coef[..., i, :]`` (column k: ``t^k``) at every
    entry of ``t[i]``, by Horner; shape ``coef.shape[:-1] + t.shape[1:]``."""
    out = np.zeros(coef.shape[:-1] + t.shape[1:], dtype=t.dtype)
    for k in range(coef.shape[-1] - 1, -1, -1):
        out *= t
        out += coef[..., k, None]
    return out


def _companion_roots(coef: np.ndarray) -> np.ndarray:
    """All roots of the real polynomials ``coef`` (row i: coefficients of
    ``t^0 .. t^m``, ``coef[i, m] != 0``), by one batched eigenvalue solve of
    their companion matrices; shape ``(rows, m)``."""
    m = coef.shape[1] - 1
    comp = np.zeros((coef.shape[0], m, m))
    comp[:, 0, :] = -coef[:, m - 1 :: -1] / coef[:, m, None]
    comp[:, np.arange(1, m), np.arange(m - 1)] = 1.0
    return np.linalg.eigvals(comp).astype(complex, copy=False)


def _aberth(coef: np.ndarray, t: np.ndarray):
    """Aberth-Ehrlich iteration on the real polynomials ``coef`` (as in
    :func:`_companion_roots`), row i started from the m approximations
    ``t[i]``; only rows not yet certified iterate again, at most
    ``ABERTH_MAX_ITER`` times.  From the Euler starts of
    :func:`_derivative_roots` a row is mostly certified after 1-2 steps; a
    row that is not after 3 is mostly one whose roots cannot be reached
    from its start (a max-min pair has left the circle), and is better
    eigen-solved at once than iterated on with its whole block.

    A row is certified when every root is finite and has the backward error
    ``|R(t_k)| <= 4 m EPS sum_j |R_j| |t_k|^j`` (by Horner on ``|t_k|``):
    ``t_k`` is then an exact root of R with each coefficient perturbed by at
    most ``4 m EPS`` relative.  A step-size test cannot stand in for this,
    since ill-conditioned roots stall at steps of 1e-12 to 1e-8.  The Aberth
    step is ``t_k -= N_k / (1 - N_k sum_{j != k} 1 / (t_k - t_j))``, with
    the Newton step ``N_k = R(t_k) / R'(t_k)``.

    Returns the roots, shape ``(rows, m)``, and the certified rows.
    """
    m = coef.shape[1] - 1
    acoef = np.abs(coef)
    tol = 4.0 * m * EPS
    diag = np.arange(m)
    t = t.astype(complex)
    ok = np.zeros(t.shape[0], dtype=bool)
    act = np.arange(t.shape[0])  # rows not yet certified
    # a root far out or a zero derivative overflows or divides by 0; such a
    # row fails the certificate and gets the eigenvalue solve instead
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for it in range(ABERTH_MAX_ITER + 1):
            z = t[act]
            c = coef[act, :, None]
            ac = acoef[act, :, None]
            # R, R' and the bound sum_j |R_j| |z|^j by one Horner pass
            p = np.repeat(c[:, m], m, axis=1).astype(complex)
            dp = np.zeros_like(p)
            az = np.abs(z)
            bound = np.repeat(ac[:, m], m, axis=1)
            for k in range(m - 1, -1, -1):
                dp *= z
                dp += p
                p *= z
                p += c[:, k]
                bound *= az
                bound += ac[:, k]
            conv = ((np.abs(p) <= tol * bound) & (bound < np.inf)).all(axis=1)
            ok[act[conv]] = True
            if it == ABERTH_MAX_ITER or conv.all():
                break
            act, z, p, dp = act[~conv], z[~conv], p[~conv], dp[~conv]
            # sum_{j != k} 1 / (z_k - z_j) in real arithmetic; the infinite
            # diagonal adds 0
            zr, zi = np.ascontiguousarray(z.real), np.ascontiguousarray(z.imag)
            dr = zr[:, :, None] - zr[:, None, :]
            di = zi[:, :, None] - zi[:, None, :]
            inv = dr * dr
            inv += di * di
            inv[:, diag, diag] = np.inf
            np.reciprocal(inv, out=inv)
            pull = np.einsum("bij,bij->bi", dr, inv) - 1j * np.einsum("bij,bij->bi", di, inv)
            newton = p / dp
            t[act] = z - newton / (1.0 - newton * pull)
    return t, ok


def _derivative_roots(e: ModulusExpansion, radii: np.ndarray, cn: np.ndarray):
    """Roots ``w`` of ``w^D d/dtheta |1 + q(r w)|^2`` for every circle; row
    i of ``cn`` holds the ``C_n`` of radius ``radii[i]``.

    With ``p = a_m z^m (1 + q)``, ``c_0 = 1``, ``c_j`` the coefficients of
    ``q`` and ``w = e^{i theta}``, the squared modulus is the trigonometric sum
    ``|1 + q|^2 = C_0 + sum_{n=1}^{D} (C_n w^n + conj(C_n) w^-n)`` with
    ``C_n(r) = sum_j c_{j+n} conj(c_j) r^{2j+n}`` (:meth:`ModulusExpansion.fourier`),
    so ``d/dtheta |1 + q|^2 = -2 sum_n n Im(C_n w^n)``.  Per circle, the top
    orders whose ``n |C_n|`` is at most ``EPS`` times the largest are
    dropped: they move no critical point and would overflow the companion
    matrix.  With the remaining degree d and the half-angle variable
    ``t = tan(theta / 2)``, ``w = (1+it)/(1-it)``, the derivative times
    ``-(1+t^2)^d / 2`` is the real polynomial of degree 2d

        ``R(t) = sum_{n=1}^{d} n Im(C_n (1+it)^{d+n} (1-it)^{d-n})``,

    whose real roots are the critical points; a complex pair ``t, conj(t)``
    maps to ``w, 1/conj(w)`` off the circle.  ``t = inf`` is ``theta = pi``:
    the top coefficient of R is ``sum_n n (-1)^n Im C_n``.  A top order j of
    R is dropped, and gives the root ``w = -1`` (as ``theta = -pi``), when
    its coefficient is below ``EPS^(j-k)`` times that of some lower order k:
    by the Newton polygon a root then lies beyond ``1 / EPS``, where
    ``w = -1`` to rounding, and the companion matrix could overflow.  The
    test is against each lower order, not against the largest coefficient,
    because the binomial factors make R's coefficients span about ``4^d``:
    ``EPS`` times the largest drops genuine top orders from about ``d = 28``
    on.

    Where the ``c_j`` are real, as for a real polynomial or one turned onto
    its reflection axis (:func:`~maxmod.modulus.on_axis`), every ``C_n`` is
    real and R is odd: ``R(t) = t S(t^2)``, ``S`` of degree ``d - 1`` in
    ``u = t^2`` holding R's odd coefficients.  Then S is solved in place of
    R, with the drop test at ``EPS^(2(j-k))`` (a root beyond ``1 / EPS`` in
    t is one beyond ``1 / EPS^2`` in u), and the roots are ``t = +-sqrt(u)``
    and the exact axis points ``t = 0`` (``w = 1``) and ``t = inf``
    (``w = -1``, from R's top order, exactly 0).  The mirror root
    ``-sqrt(u)`` is returned as ``conj(w)``: on the circle that is
    ``1/w = w(-t)``, with the exactly negated angle, and off it both fail
    the ``ON_CIRCLE`` test alike.

    Circles of equal d and equal remaining degree m of the solved
    polynomial form a group, in radius order (:func:`_group_roots`).
    Returns one ``(radius_indices, roots)`` pair per group, ``roots`` of
    shape ``(len(radius_indices), 2d)``.
    """
    deg = cn.shape[1]
    nc = np.arange(1, deg + 1) * cn  # column n-1: n C_n
    mag = np.abs(nc)
    top = mag.max(axis=1)
    flat = ~((0.0 < top) & (top < np.inf))  # also NaN
    if flat.any():
        raise RefinementFailureError(float(radii[np.argmax(flat)]), 0.0)
    kept = deg - np.argmax((mag > EPS * top[:, None])[:, ::-1], axis=1)
    odd = not e.c.imag.any()  # real c_j: R(t) = t S(t^2), solve S in u = t^2
    step = 2.0 if odd else 1.0

    out = []
    for d in sorted(set(kept.tolist())):
        rows = np.flatnonzero(kept == d)
        coef = _solve_coef(nc[rows], d, odd)  # column k: t^k, or u^k for S
        # top order j goes when |coef_j| < EPS^(step (j-k)) |coef_k| for some
        # k < j; order 0 always stays
        with np.errstate(divide="ignore"):  # an exact zero has height -inf
            height = np.log2(np.abs(coef)) - step * math.log2(EPS) * np.arange(coef.shape[1])
        stays = np.ones(coef.shape, dtype=bool)
        stays[:, 1:] = height[:, 1:] >= np.maximum.accumulate(height, axis=1)[:, :-1]
        kept_r = coef.shape[1] - 1 - np.argmax(stays[:, ::-1], axis=1)
        for m in sorted(set(kept_r.tolist())):
            sub = rows[kept_r == m]
            t = _group_roots(e, d, odd, coef[kept_r == m, : m + 1], radii[sub])
            # each root at t = inf (a dropped order; on the quotient also R's
            # top order) is w = -1 - 0i, at the angle -pi that sorts first on
            # its circle; curve ids follow that order
            w = np.full((sub.size, 2 * d), complex(-1.0, -0.0))
            if odd:
                w[:, :m] = _on_circle(np.sqrt(t))
                w[:, m : 2 * m] = np.conj(w[:, :m])
                w[:, 2 * m] = 1.0
            else:
                w[:, :m] = _on_circle(t)
            out.append((sub, w))
    return out


def _solve_coef(nc: np.ndarray, d: int, odd: bool) -> np.ndarray:
    """The polynomials :func:`_derivative_roots` solves for the rows ``nc``
    (``n C_n`` or ``n dC_n/dr``) of d orders: R as in
    :func:`_half_angle_coef`, or, where R is ``odd`` (every ``C_n`` real),
    S, whose column j holds R's coefficient of ``t^(2j+1)``."""
    if odd:
        return nc[:, :d].real @ _half_angle_table(d)[:, 1::2]
    return _half_angle_coef(nc, d)


def _on_circle(t: np.ndarray) -> np.ndarray:
    """``w = (1+it)/(1-it)`` in real arithmetic, the same bits in any batch;
    no root exceeds about 2 / EPS, so no square overflows."""
    a, b = t.real, t.imag
    den = (1.0 + b) ** 2 + a**2
    return ((1.0 - a**2 - b**2) / den) + 1j * (2.0 * a / den)


def _group_roots(
    e: ModulusExpansion, d: int, odd: bool, lead: np.ndarray, r: np.ndarray
) -> np.ndarray:
    """All roots of the polynomials ``lead`` (as in :func:`_companion_roots`,
    of degree m, from d orders ``C_n``; S where ``odd``) of one group of
    :func:`_derivative_roots`, row i at radius ``r[i]``, in radius order;
    shape ``(rows, m)``.

    Between folds a circle's critical points move analytically in r, so
    only the group's anchors, every ``ANCHOR_STEP``-th circle and the last,
    get a batched eigenvalue solve of real companion matrices
    (:func:`_companion_roots`).  Every other circle is a predictor-corrector
    step off its nearest anchor: the predictor is one Euler step of the
    anchor's roots along ``dt/dr = -R_r(t) / R'(t)`` (:func:`_euler_start`),
    and the corrector is the Aberth iteration of :func:`_aberth`.  A circle
    whose roots it cannot certify within ``ABERTH_MAX_ITER`` steps, for
    instance where a max-min pair has left the circle between the anchor and
    it, gets the eigenvalue solve too, so every root passed on is certified.
    Where m is at most ``EIGEN_DEGREE``, every circle is an anchor.
    """
    m = lead.shape[1] - 1
    if m == 0:
        return np.empty((lead.shape[0], 0), dtype=complex)
    if m <= EIGEN_DEGREE:
        return _companion_roots(lead)
    # anchors: every ANCHOR_STEP-th circle of the group and the last; each
    # other circle starts from its nearest anchor's roots, moved by one
    # Euler step along dt/dr = -R_r(t) / R'(t)
    anchor = np.zeros(lead.shape[0], dtype=bool)
    anchor[::ANCHOR_STEP] = True
    anchor[-1] = True
    at = np.flatnonzero(anchor)
    t = np.empty((lead.shape[0], m), dtype=complex)
    t[at] = _companion_roots(lead[at])
    follow = np.flatnonzero(~anchor)
    right = np.searchsorted(at, follow)  # at[right - 1] < follower < at[right]
    near = np.where(follow - at[right - 1] <= at[right] - follow, right - 1, right)
    start = _euler_start(e, d, odd, lead[at], t[at], r[at], near, r[follow])
    block = max(1, ABERTH_BLOCK // (m * m))
    for s in range(0, follow.size, block):
        i = follow[s : s + block]
        t[i], ok = _aberth(lead[i], start[s : s + block])
        if not ok.all():  # no uncertified root goes on
            t[i[~ok]] = _companion_roots(lead[i[~ok]])
    return t


def _euler_start(
    e: ModulusExpansion, d: int, odd: bool, lead_a, t_a, r_a, near, r
) -> np.ndarray:
    """Aberth starts of the followers of one group of :func:`_group_roots`:
    follower i takes the roots ``t_a[near[i]]`` of its anchor's polynomial
    ``lead_a[near[i]]`` (of degree m, from ``d`` orders ``C_n``) at radius
    ``r_a[near[i]]`` one Euler step along ``dt/dr = -R_r(t) / R'(t)`` to its
    radius ``r[i]``.  ``R_r`` is R (S where ``odd``) with every ``C_n`` replaced by
    ``dC_n/dr`` (:meth:`ModulusExpansion.fourier_dr`); it and ``R'`` are
    evaluated by Horner at the anchors' roots only.  A start that is not
    finite, as where a root near ``t = inf`` overflows, is the anchor's root.
    """
    m = lead_a.shape[1] - 1
    both = np.zeros((2,) + lead_a.shape)  # R_r and R' (of degree m - 1)
    both[0] = _solve_coef(np.arange(1, d + 1) * e.fourier_dr(r_a)[:, :d], d, odd)[:, : m + 1]
    both[1, :, :m] = lead_a[:, 1:] * np.arange(1, m + 1)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        r_r, r_t = _polyval(both, t_a)
        start = t_a[near] - (r - r_a[near])[:, None] * (r_r / r_t)[near]
    return np.where(np.isfinite(start), start, t_a[near])


def _critical_points(e: ModulusExpansion, radii: np.ndarray, cn: np.ndarray):
    """Every critical point of ``theta -> |p(r e^{i theta})|^2`` on every
    circle: the roots of :func:`_derivative_roots` (``cn`` as there) within
    ``ON_CIRCLE`` of the unit circle.

    Returns ``(radius_index, theta)``, sorted by radius index, then angle.
    """
    ridx, theta = [], []
    for rows, w in _derivative_roots(e, radii, cn):
        row, col = np.nonzero(np.abs(np.abs(w) - 1.0) < ON_CIRCLE)
        ridx.append(rows[row])
        theta.append(np.angle(w[row, col]))
    ridx = np.concatenate(ridx)
    theta = np.concatenate(theta)
    order = np.lexsort((theta, ridx))
    return ridx[order], theta[order]


def _refine_maxima(
    e: ModulusExpansion,
    r: np.ndarray,
    cn: np.ndarray,
    x0: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
):
    """Hybrid Newton/bisection on d/dtheta of the cross sum, one solve for
    all maxima; maximum i starts at ``x0[i]`` on the circle of radius
    ``r[i]``, whose ``C_n`` are ``cn[i]``, inside the bracket
    ``[lo[i], hi[i]]`` on whose left edge the derivative is nonnegative and
    on whose right edge it is nonpositive.
    Only unconverged maxima are evaluated again.  Returns the refined angles
    and the second derivative at each.
    """
    tol = NEWTON_TOL * np.maximum(e.d1_bound(r), 1e-300)
    lo = lo.copy()
    hi = hi.copy()
    x = x0.copy()
    d2_x = np.empty_like(x)
    act = np.arange(x.size)  # unconverged maxima
    for _ in range(NEWTON_MAX_ITER):
        xa = x[act]
        f, d2 = e.d1d2(r[act], xa, cn=cn[act])
        la = np.where(f > 0, xa, lo[act])
        ha = np.where(f <= 0, xa, hi[act])
        conv = (np.abs(f) <= tol[act]) | ((ha - la) <= 16 * EPS)
        newt = xa - f / np.where(d2 != 0.0, d2, 1.0)
        ok = (d2 < 0.0) & (newt > la) & (newt < ha) & np.isfinite(newt)
        x[act] = np.where(conv, xa, np.where(ok, newt, 0.5 * (la + ha)))
        lo[act] = la
        hi[act] = ha
        d2_x[act] = d2
        act = act[~conv]
        if act.size == 0:
            break
    else:
        raise RefinementFailureError(float(r[act[0]]), float(x0[act[0]]))
    return x, d2_x


def _scan_circles(e: ModulusExpansion, radii: np.ndarray):
    """All refined local maxima of every circle ``|z| = r`` for r in ``radii``.

    Each circle's ``C_n`` are formed once: the critical points of all
    circles come from them (:func:`_critical_points`), and every evaluation
    below reads a point's from its circle's row.  One ``d1d2`` call at the
    critical points and at the midpoints between circular neighbours sorts
    them into maxima (``d2 < 0``) and minima and checks the bracket of each
    maximum, whose ends are the midpoints to its two neighbours.  One
    vectorized Newton/bisection solve then polishes the maxima of all
    circles.  The spread of a circle is its largest ``osc`` at a maximum
    minus its smallest at a minimum.

    Returns flat arrays ``(n_max, theta, osc, mod2, comax)``: ``n_max[i]``
    maxima of circle i, followed by those of circle i + 1, each circle's in
    counterclockwise order from about -pi; ``comax`` marks the co-maximal
    ones.
    """
    # |p|^2 = |a_m|^2 r^{2m} |1 + q|^2, and the evaluations of |1 + q|^2 and
    # its theta-derivatives sum the n^2 |C_n| <= mass^2, with the mass
    # 1 + sum_j j^2 |c_j| r^j; all of it must stay a float
    with np.errstate(over="ignore", invalid="ignore"):  # inf or NaN is rejected
        j = np.arange(float(e.c.size))
        mass = 1.0 + _kernels.radial_sum(j * j * np.abs(e.c), j, radii)
        bad = ~np.isfinite(4.0 * mass * mass * np.maximum(e.scale(radii), 1.0))
    if bad.any():
        raise RefinementFailureError(float(radii[np.argmax(bad)]), 0.0)
    cn_rows = e.fourier(radii)
    ridx, theta = _critical_points(e, radii, cn_rows)
    counts = np.bincount(ridx, minlength=radii.size)
    if counts.min() < 2:  # a smooth periodic function has a maximum and a minimum
        raise RefinementFailureError(float(radii[np.argmin(counts)]), 0.0)
    first = np.cumsum(counts) - counts
    last = first + counts - 1
    nxt = np.arange(1, theta.size + 1)
    nxt[last] = first
    prv = np.arange(-1, theta.size - 1)
    prv[first] = last
    after = theta[nxt]
    after[last] += TWO_PI
    mid = 0.5 * (theta + after)  # midpoint to the next critical point
    mid_before = mid[prv]
    mid_before[first] -= TWO_PI
    r = radii[ridx]
    cn = cn_rows[ridx]
    f, d2 = e.d1d2(
        np.concatenate([r, r]), np.concatenate([theta, mid]), cn=np.concatenate([cn, cn])
    )
    f_mid = f[theta.size :]
    d2 = d2[: theta.size]
    is_max = d2 < 0.0
    n_max = np.bincount(ridx[is_max], minlength=radii.size)
    n_min = np.bincount(ridx[d2 >= 0.0], minlength=radii.size)  # NaN is neither
    bad = (n_max == 0) | (n_min == 0) | (n_max + n_min < counts)
    if bad.any():
        raise RefinementFailureError(float(radii[np.argmax(bad)]), 0.0)

    mx = np.flatnonzero(is_max)
    mn = np.flatnonzero(~is_max)  # every other point is a minimum now
    bad = (f_mid[prv[mx]] < 0) | (f_mid[mx] > 0)
    if bad.any():
        worst = mx[np.argmax(bad)]
        raise RefinementFailureError(float(r[worst]), float(theta[worst]))
    theta_mx, d2 = _refine_maxima(e, r[mx], cn[mx], theta[mx], mid_before[mx], mid[mx])
    ridx_mx = ridx[mx]

    # guard: a refined point must be a (weak) maximum
    d2_tol = NEWTON_TOL * np.maximum(e.d2_bound(radii), 1e-300)
    bad = d2 > d2_tol[ridx_mx]
    if bad.any():
        i = np.argmax(bad)
        raise RefinementFailureError(float(r[mx[i]]), float(theta_mx[i]))

    osc = e.osc(
        np.concatenate([r[mx], r[mn]]),
        np.concatenate([theta_mx, theta[mn]]),
        cn=np.concatenate([cn[mx], cn[mn]]),
    )
    osc, osc_mn = osc[: mx.size], osc[mx.size :]
    starts = np.cumsum(n_max) - n_max
    top = np.maximum.reduceat(osc, starts)
    spread = top - np.minimum.reduceat(osc_mn, np.cumsum(n_min) - n_min)
    tie_threshold = TIE_TOL * spread
    comax = osc >= top[ridx_mx] - tie_threshold[ridx_mx]
    mod2 = e.base(radii)[ridx_mx] + osc
    return n_max, reduce_angle(theta_mx), osc, mod2, comax


def circle_argmax(e: ModulusExpansion, r: float) -> list[tuple[float, float]]:
    """Newton-refined global maximizers of ``|p|^2`` on the circle |z| = r.

    Returns ``(theta, mod2)`` pairs for every maximizer whose value lies
    within ``TIE_TOL * (max - min)`` of the refined global maximum.
    """
    _, theta, _, mod2, comax = _scan_circles(e, np.array([r], dtype=float))
    return [(float(t), float(m)) for t, m in zip(theta[comax], mod2[comax])]


def brute_force_mset(p: Polynomial, r: float, grid: int) -> np.ndarray:
    """Oracle: dense-scan maximizer angles, no refinement.

    Returns the grid angles whose value is within ``TIE_TOL * spread`` of
    the grid maximum.  Evaluates the expansion's cross-term sum, so it stays
    independent of the Fourier-coefficient path the tracer uses.
    """
    e = expand(p)
    th_grid = -math.pi + TWO_PI * np.arange(grid) / grid
    x = e.osc_terms(r, th_grid)
    spread = x.max() - x.min()
    return th_grid[x >= x.max() - TIE_TOL * spread]


def ambiguity_radius(h: HaymanForm) -> float:
    """Radius below which excluded candidates fall inside the tie tolerance.

    The deficit of a candidate excluded by the term ``b z^n`` scales like
    ``gap * r^n`` while the tie threshold scales like ``TIE_TOL * 4|a| r^k``;
    counting components below the crossover would see phantom curves.  The
    threshold carries a safety factor of 100.  Returns 0.0 when no candidate
    is ever excluded.
    """
    pj = predict_J(h)
    thresh_coeff = 100.0 * TIE_TOL * 4.0 * abs(h.a)
    r_amb = 0.0
    alive: set[int] = set(range(h.k))
    for tf in pj.t_history:
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


def _fit_tangent(rs: np.ndarray, thetas: np.ndarray):
    """Fit theta(r) over the smallest decade of radii.

    ``r^-k d/dtheta |p|^2 = -2k|a| sin(k theta + arg a) + O(r)`` has simple
    zeros omega_j, so by the implicit function theorem every maximizer
    branch is real-analytic in r: ``theta = omega_j + c_1 r + c_2 r^2 + ...``.
    One linear least-squares fit of a polynomial of degree ``FIT_DEGREE`` in
    r therefore gives omega_hat as its intercept.  alpha_hat is the log-log
    slope of ``|theta - omega_hat|`` against r; where ``theta - omega_hat``
    changes sign inside the window it is the dominant power
    ``argmax_n |c_n| r_max^n``.

    Returns (omega_hat, alpha_hat | None, on_ray).
    """
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

    coef = np.polyfit(r_w, t_w, FIT_DEGREE)[::-1]  # c_0, c_1, ..., c_6
    omega_hat = float(coef[0])
    ee = t_w - omega_hat
    if np.all(ee > 0) or np.all(ee < 0):
        alpha_hat = float(np.polyfit(np.log(r_w), np.log(np.abs(ee)), 1)[0])
    else:
        n = np.arange(1, FIT_DEGREE + 1)
        alpha_hat = float(n[np.argmax(np.abs(coef[1:]) * r_w[-1] ** n)])
    return float(reduce_angle(omega_hat)), alpha_hat, False


def _match_cyclic(a: np.ndarray, b: np.ndarray):
    """Order-preserving matching of the maxima ``a`` of one circle with the
    maxima ``b`` of the next, both in counterclockwise order, that pairs
    every maximum of the shorter side and has the least total circular
    displacement.

    The shorter side's first maximum goes to some start j0 on the longer
    side, and the others follow in cyclic order at increasing steps t from
    j0.  One dynamic programme over the shorter side finds the best steps
    for all starts at once.  Returns index arrays ``(ia, ib)`` of the pairs.

    A tie in total displacement goes to the smallest start j0, then to the
    smallest steps.  Mirror maxima ``-x, x`` of a trace on its reflection
    axis that meet at a fold on the axis (``theta = 0`` or ``pi`` there)
    tie exactly: the quotient makes them exact negatives,
    :func:`~maxmod.util.circ_dist` is mirror-exact, and the two matchings
    add the same displacements in the same order, differing only in which
    of the two the maximum on the axis takes.  So the maximum at ``-x``,
    with x in (0, pi) and first in counterclockwise order from -pi, is
    linked, and the one at ``x`` ends or is born.
    """
    swap = a.size > b.size
    short, long_ = (b, a) if swap else (a, b)
    k, n = short.size, long_.size
    step = np.arange(n)
    pos = (step[:, None] + step) % n  # pos[j0, t]: t steps after the start j0
    cost = circ_dist(short[:, None], long_)[:, pos]
    best = np.full((k, n, n), np.inf)  # best[i, j0, t]: short[i] at pos[j0, t]
    best[0, :, 0] = cost[0, :, 0]
    for i in range(1, k):
        best[i, :, 1:] = cost[i, :, 1:] + np.minimum.accumulate(best[i - 1], axis=1)[:, :-1]
    j0, t = np.unravel_index(np.argmin(best[-1]), (n, n))
    steps = [t]
    for i in range(k - 1, 0, -1):
        t = np.argmin(best[i - 1, j0, :t])
        steps.append(t)
    matched = pos[j0, steps[::-1]]
    return (matched, np.arange(k)) if swap else (np.arange(k), matched)


def _link(n_max: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Link every maximum to one on the circle before it (the next larger
    radius) by cyclic order.

    Between folds the maxima of a circle move analytically in r and never
    cross, so their counterclockwise order carries them from one circle to
    the next.  Where both circles have M maxima, maximum i of the first
    links to maximum ``(i + s) mod M`` of the second, with the rotation s
    of least total circular displacement; all steps of equal M are solved
    at once.  Where the count changes, :func:`_match_cyclic` links
    ``min(M_prev, M_cur)`` pairs and the other maxima are born or die.
    ``n_max`` and ``theta`` are the flat arrays of :func:`_scan_circles`.

    Returns the flat index of the linked maximum on the circle before, or -1.
    """
    starts = np.cumsum(n_max) - n_max
    prev = np.full(theta.size, -1)
    steps = np.arange(1, n_max.size)
    same = n_max[1:] == n_max[:-1]
    for m in np.unique(n_max[1:][same]).tolist():
        at = steps[same & (n_max[1:] == m)]
        i = np.arange(m)
        a = theta[starts[at - 1, None] + i]
        b = theta[starts[at, None] + i]
        cost = np.stack(
            [circ_dist(a, np.roll(b, -s, axis=1)).sum(axis=1) for s in range(m)], axis=1
        )
        s = np.argmin(cost, axis=1)
        prev[starts[at, None] + (i + s[:, None]) % m] = starts[at - 1, None] + i
    for k in steps[~same].tolist():
        a0, b0 = starts[k - 1], starts[k]
        ia, ib = _match_cyclic(theta[a0 : a0 + n_max[k - 1]], theta[b0 : b0 + n_max[k]])
        prev[b0 + ib] = a0 + ia
    return prev


def _chain_heads(ptr: np.ndarray) -> np.ndarray:
    """Pointer jumping: the head of every chain, where ``ptr`` points one
    step back along the chain and a head points to itself."""
    while True:
        nxt = ptr[ptr]
        if np.array_equal(nxt, ptr):
            return ptr
        ptr = nxt


def trace(p: Polynomial, cfg: TraceConfig = TraceConfig()) -> TraceResult:
    """Trace the maximum modulus set of ``p`` over the radius schedule.

    Finds the co-maximal points of every radius in one batched scan (the
    points :func:`circle_argmax` gives radius by radius), links the maxima
    of neighbouring circles by cyclic order (:func:`_link`), largest radius
    first, and reports the co-maximal runs along each linked trajectory as
    curves: component count, tangent fits, rotational symmetry and
    birth/death events.  A mid-schedule birth or a non-monotone death is
    marked not legitimate.  A polynomial with a reflection axis is scanned
    and linked on its axis and turned back before the curves are formed.
    """
    if p.truncated:
        raise TruncatedSeriesError("tracing needs the full polynomial, not a truncation")
    h = normalize(p)
    if isinstance(h, MonomialVerdict):
        raise MonomialAllPlaneError("cannot trace a monomial: its maximum set is the plane")
    required = floor_radius(h)
    if cfg.r_min < required:
        raise FloorViolationError(cfg.r_min, required)

    # |p|^2 leaves the float range long before p does.  The trace is exactly
    # equivariant under p -> 2^s p, so expand 2^-shift p, whose largest
    # coefficient component lies in [0.5, 1) (the abs() of a complex can
    # overflow where its components do not); samples carry |p| rescaled.
    shift = math.frexp(max(max(abs(c.real), abs(c.imag)) for c in p.coeffs))[1]
    e = expand(
        Polynomial(
            tuple(complex(math.ldexp(c.real, -shift), math.ldexp(c.imag, -shift)) for c in p.coeffs)
        )
    )
    omega = omega_angles(h)
    radii = radius_schedule(cfg)
    psi, e = on_axis(e)  # trace p(e^{i psi} z), whose c_j are real, if p has an axis
    n_max, theta, osc, mod2, comax = _scan_circles(e, radii)

    # -- link maxima across radii (descending) into trajectories and curves --
    prev = _link(n_max, theta)
    flat = np.arange(theta.size)
    ridx = np.repeat(np.arange(radii.size), n_max)
    if psi:
        # back from the axis frame, where mirror maxima tie exactly in _link;
        # each circle's maxima are sorted by angle again and the links follow
        theta = reduce_angle(theta + psi)
        order = np.lexsort((theta, ridx))
        theta, osc, mod2, comax, prev = (x[order] for x in (theta, osc, mod2, comax, prev))
        moved = np.empty_like(order)
        moved[order] = flat
        prev = np.where(prev >= 0, moved[prev], -1)
    last = radii.size - 1
    linked = prev >= 0
    nxt = np.full(theta.size, -1)
    nxt[prev[linked]] = flat[linked]
    traj = _chain_heads(np.where(linked, prev, flat))  # first maximum of the trajectory
    # a curve is a run of co-maximal points along one trajectory; curve ids
    # count the runs' first points in (radius, angle) order
    was_comax = np.zeros_like(comax)
    was_comax[linked] = comax[prev[linked]]
    born = comax & ~was_comax
    curve = (np.cumsum(born) - 1)[_chain_heads(np.where(comax & was_comax, prev, flat))]

    # -- events: per radius, curves of ended trajectories die first (by
    # trajectory), then births and deaths in angle order --------------------
    deficit = np.maximum.reduceat(osc, np.cumsum(n_max) - n_max)[ridx] - osc
    raw = []  # (radius index, 0 | 1, order key, kind, curve id, legitimate)
    for j in np.flatnonzero(comax & (nxt < 0) & (ridx < last)).tolist():
        raw.append((int(ridx[j]) + 1, 0, int(traj[j]), "death", int(curve[j]), None))
    for k in np.flatnonzero(born & (ridx > 0)).tolist():
        raw.append((int(ridx[k]), 1, k, "birth", int(curve[k]), False))
    for k in np.flatnonzero(was_comax & ~comax).tolist():
        # a death is legitimate when the deficits of the trajectory over the
        # next 6 radii do not fall back
        defs = []
        j = k
        for _ in range(6):
            if j < 0:
                break
            if not comax[j]:
                defs.append(deficit[j])
            j = nxt[j]
        legitimate: bool | None = None
        if len(defs) >= 3:
            arr = np.asarray(defs)
            legitimate = bool(np.all(np.diff(arr) > -0.1 * float(np.max(np.abs(arr)))))
        raw.append((int(ridx[k]), 1, k, "death", int(curve[prev[k]]), legitimate))
    events = tuple(
        TraceEvent(kind=kind, r=float(radii[i]), curve_id=cid, legitimate=leg)
        for i, _, _, kind, cid, leg in sorted(raw)
    )

    # -- samples, by curve id, then descending radius ----------------------
    sel = np.flatnonzero(comax)
    sel = sel[np.argsort(curve[sel], kind="stable")]
    sample_curve = curve[sel]
    sample_r = radii[ridx[sel]]
    sample_theta = theta[sel]
    with np.errstate(over="ignore"):  # inf only where |p| is beyond the float range
        sample_mod = np.ldexp(np.sqrt(np.maximum(mod2[sel], 0.0)), shift)  # exact
    samples = tuple(
        map(
            CurveSample,
            sample_r.tolist(),
            sample_theta.tolist(),
            sample_mod.tolist(),
            sample_curve.tolist(),
        )
    )
    per_curve = np.bincount(sample_curve)
    first = np.cumsum(per_curve) - per_curve

    component_ids = tuple(np.flatnonzero(np.bincount(curve[comax & (ridx == last)])).tolist())
    n_components = len(component_ids)
    counts = np.bincount(ridx[comax], minlength=radii.size)
    off = np.flatnonzero(counts[:last] != n_components)
    stable_radius = float(radii[off[-1] + 1 if off.size else 0])
    mu = h.mu

    # -- tangent fits ------------------------------------------------------
    tangents = []
    for cid, (a, n) in enumerate(zip(first.tolist(), per_curve.tolist())):
        if n < 8:
            continue
        omega_hat, alpha_hat, on_ray = _fit_tangent(sample_r[a : a + n], sample_theta[a : a + n])
        devs = circ_dist(omega_hat, omega)
        j = int(np.argmin(devs))
        tangents.append(
            TangentFit(
                curve_id=cid,
                omega_hat=omega_hat,
                alpha_hat=alpha_hat,
                on_ray=on_ray,
                matched_j=j,
                matched_omega=float(omega[j]),
                omega_error=float(devs[j]),
            )
        )

    # -- rotational symmetry pairing --------------------------------------
    symmetry = []
    if mu > 1:
        curve_thetas = {
            cid: sample_theta[first[cid] : first[cid] + per_curve[cid]] for cid in component_ids
        }
        for m in range(1, mu):
            rot = TWO_PI * m / mu
            for ca in component_ids:
                best = None
                for cb in component_ids:
                    pa = curve_thetas[ca]
                    pb = curve_thetas[cb]
                    n = min(pa.size, pb.size)
                    dev = float(circ_dist(pa[-n:] + rot, pb[-n:]).max())
                    if best is None or dev < best[1]:
                        best = (cb, dev)
                symmetry.append(
                    SymmetryPair(curve_a=ca, curve_b=best[0], rotation_m=m, max_dev=best[1])
                )

    return TraceResult(
        samples=samples,
        n_components=n_components,
        component_ids=component_ids,
        tangents=tuple(tangents),
        symmetry=tuple(symmetry),
        events=events,
        stable_radius=stable_radius,
        radii=tuple(radii.tolist()),
        omega=tuple(omega.tolist()),
        mu=mu,
        inverted=False,
    )


def trace_at_infinity(p: Polynomial, cfg: TraceConfig = TraceConfig()) -> TraceResult:
    """Trace the structure of the maximum modulus set of ``p`` near infinity.

    Equals the near-origin trace of the normalized reciprocal polynomial
    ``z^n p(1/z)``; sample points correspond to ``1/z`` in the original
    plane (``inverted`` flag set).
    """
    q = normalize(reciprocal(p))
    if isinstance(q, MonomialVerdict):
        raise MonomialAllPlaneError("reciprocal polynomial is a monomial")
    result = trace(q.tail, cfg)
    return replace(result, inverted=True)


def write_csv(result: TraceResult, path: str) -> None:
    """One row per sample: ``r,theta,re,im,mod,curve_id`` (17 significant
    digits), sorted by (curve_id, descending r)."""
    rows = sorted(result.samples, key=lambda s: (s.curve_id, -s.r))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("r,theta,re,im,mod,curve_id\n")
        for s in rows:
            re_ = s.r * math.cos(s.theta)
            im = s.r * math.sin(s.theta)
            fh.write(
                f"{s.r:.17g},{s.theta:.17g},{re_:.17g},{im:.17g},{s.mod:.17g},{s.curve_id}\n"
            )
