"""Numerical computation of the maximum modulus set on a punctured disc.

The global maximizers of ``theta -> |p(r e^{i theta})|^2`` are located on
every circle of a geometric radius schedule at once.  The factor ``c z^m``
of ``p = c z^m (1 + q)`` moves no maximizer, so a trace expands only the
normalized tail: every comparison is one of ``|1 + q|^2``, the same for
``p`` and ``z^m p``, and only the sample moduli carry ``|c| r^m``.  The
paper's trigonometric expansion, grouped by frequency, gives each circle's
Fourier coefficients ``C_n(r)`` of ``|1 + q|^2``
(``ModulusExpansion.fourier``), from which every evaluation of the trace is
made.  :func:`maxmod.roots.critical_points` finds the critical points of
all circles from these rows alone.  One Newton solve (bisection-guarded) on
the exact theta-derivative then polishes the maxima of all circles; like
every evaluation at a point, it reads the point's ``C_n`` from its circle's
row, formed once per radius.
Between folds a circle's maxima move analytically in r and never cross, so
their cyclic order links the maxima of neighbouring circles into
trajectories, on flat arrays of all circles at once.  The co-maximal runs
along the trajectories are the curves, which are counted, fitted for
tangent direction and exponent, and checked for rotational symmetry.

A polynomial whose coefficients have a reflection axis psi (every
``c_l e^{i l psi}`` real, as for every real polynomial with psi = 0 and
every magic cubic) is traced on its symmetry quotient: the scan runs on
``p(e^{i psi} z)`` with its ``c_j`` made exactly real
(:func:`~maxmod.modulus.on_axis`), where the root solve halves its degree
and mirror maxima meeting at a fold on the axis tie exactly
(:func:`_match_cyclic`).  The maxima are then turned back by psi and sorted
by angle again, so curve ids follow the same order as without the quotient.

The tangent fit rests on the implicit function theorem: for
``p = 1 + a z^k + ...`` the function ``r^-k d/dtheta |p|^2`` is
``-2k|a| sin(k theta + arg a) + O(r)``, whose zeros omega_j are simple, so
each maximizer branch is a power series ``theta(r) = omega_j + c_1 r + ...``.

All angular comparisons are made on the theta-dependent part (method
``osc`` of the expansion): the theta-free diagonal never influences an
argmax, and dropping it keeps co-maximality decisions accurate at the
``1e-12 * spread`` level even where the full value is dominated by 1.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .classify import omega_angles, predict_J
from .errors import (
    ConfigError,
    FloorViolationError,
    MonomialAllPlaneError,
    RefinementFailureError,
    TruncatedSeriesError,
)
from . import _kernels, roots
from .modulus import ModulusExpansion, expand, on_axis
from .poly import HaymanForm, MonomialVerdict, Polynomial, frexp_complex, normalize, reciprocal
from .util import EPS, TWO_PI, circ_dist, reduce_angle

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
            raise ConfigError("need 0 < r_min < r_max < inf")
        if not (2 <= self.n_radii <= MAX_RADII):
            raise ConfigError(f"need 2 <= n_radii <= {MAX_RADII}")
        if not (64 <= self.grid <= MAX_GRID):
            raise ConfigError(f"need 64 <= grid <= {MAX_GRID}")


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
    # the samples as columns, by curve id, then descending r
    sample_r: tuple[float, ...]
    sample_theta: tuple[float, ...]
    sample_mod: tuple[float, ...]
    sample_curve: tuple[int, ...]
    n_components: int
    component_ids: tuple[int, ...]
    tangents: tuple[TangentFit, ...]
    symmetry: tuple[SymmetryPair, ...]
    events: tuple[TraceEvent, ...]
    stable_radius: float
    radii: tuple[float, ...]
    mu: int
    inverted: bool = False  # samples w stand for 1/w, with mod |w^n p(1/w)|

    @functools.cached_property
    def samples(self) -> tuple[CurveSample, ...]:
        """The sample columns as :class:`CurveSample` rows, in their order;
        built on first read, so a caller that reads only counts and tangents
        builds none."""
        return tuple(
            map(CurveSample, self.sample_r, self.sample_theta, self.sample_mod, self.sample_curve)
        )


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


def _refine_maxima(
    e: ModulusExpansion,
    r: np.ndarray,
    cn: np.ndarray,
    x0: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    tol: np.ndarray,
):
    """Hybrid Newton/bisection on d/dtheta of the cross sum, one solve for
    all maxima; maximum i starts at ``x0[i]`` on the circle of radius
    ``r[i]``, whose ``C_n`` are ``cn[i]``, inside the bracket
    ``[lo[i], hi[i]]`` on whose left edge the derivative is nonnegative and
    on whose right edge it is nonpositive.  It has converged where
    ``|d/dtheta| <= tol[i]`` or the bracket is a few ulps wide.
    Only unconverged maxima are evaluated again.  Returns the refined angles
    and the second derivative at each.
    """
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
    circles come from them (:func:`maxmod.roots.critical_points`), and
    every evaluation below reads a point's from its circle's row.  One ``d1d2`` call at the
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
    # the evaluations of |1 + q|^2 and its theta-derivatives sum the
    # n^2 |C_n| <= mass^2, mass = 1 + sum_j j^2 |c_j| r^j, times the scale
    # (1 on a trace's tail); all of it must stay a float
    with np.errstate(over="ignore", invalid="ignore"):  # inf or NaN is rejected
        j = np.arange(float(e.c.size))
        mass = 1.0 + _kernels.radial_sum(j * j * np.abs(e.c), j, radii)
        bad = ~np.isfinite(4.0 * mass * mass * np.maximum(e.scale(radii), 1.0))
    if bad.any():
        raise RefinementFailureError(float(radii[np.argmax(bad)]), 0.0)
    cn_rows = e.fourier(radii)
    ridx, theta = roots.critical_points(cn_rows, radii)
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
    ridx_mx = ridx[mx]
    d1_tol = NEWTON_TOL * np.maximum(e.d1_bound(radii), 1e-300)
    theta_mx, d2 = _refine_maxima(
        e, r[mx], cn[mx], theta[mx], mid_before[mx], mid[mx], d1_tol[ridx_mx]
    )

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

    # a window too narrow to resolve FIT_DEGREE + 1 powers of r gets the
    # highest degree it does resolve, not a rank-deficient fit
    coef, _, rank, _, _ = np.polyfit(r_w, t_w, FIT_DEGREE, full=True)
    if rank < FIT_DEGREE + 1:
        coef = np.polyfit(r_w, t_w, max(rank - 1, 1), full=True)[0]
    coef = coef[::-1]  # c_0, c_1, ...
    omega_hat = float(coef[0])
    ee = t_w - omega_hat
    if np.all(ee > 0) or np.all(ee < 0):
        alpha_hat = float(np.polyfit(np.log(r_w), np.log(np.abs(ee)), 1)[0])
    else:
        n = np.arange(1, coef.size)
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
        # cost[step, s]: the displacement of the rotation by s, all s at once
        cost = circ_dist(a[:, None, :], b[:, (i[:, None] + i) % m]).sum(axis=2)
        s = np.argmin(cost, axis=1)
        prev[starts[at, None] + (i + s[:, None]) % m] = starts[at - 1, None] + i
    for k in steps[~same].tolist():
        a0, b0 = starts[k - 1], starts[k]
        ia, ib = _match_cyclic(theta[a0 : a0 + n_max[k - 1]], theta[b0 : b0 + n_max[k]])
        prev[b0 + ib] = a0 + ia
    return prev


def _chain_heads(ptr: np.ndarray) -> np.ndarray:
    """Pointer jumping: the head of every chain, where ``ptr`` points one
    step back along the chain and a head points to itself.  After j jumps
    every pointer points 2^j steps back or to its head, and no chain is
    longer than ``ptr.size``, so ``ptr.size.bit_length()`` jumps reach
    every head."""
    for _ in range(ptr.size.bit_length()):
        ptr = ptr[ptr]
    return ptr


def trace(p: Polynomial, cfg: TraceConfig = TraceConfig()) -> TraceResult:
    """Trace the maximum modulus set of ``p`` over the radius schedule.

    Finds the co-maximal points of every radius in one batched scan (the
    points :func:`circle_argmax` gives radius by radius), links the maxima
    of neighbouring circles by cyclic order (:func:`_link`), largest radius
    first, and reports the co-maximal runs along each linked trajectory as
    curves: component count, tangent fits, rotational symmetry and
    birth/death events.  A mid-schedule birth or a non-monotone death is
    marked not legitimate.  The scan runs on the normalized tail
    ``1 + q`` of ``p = c z^m (1 + q)``; a polynomial with a reflection axis
    is scanned and linked on its axis and turned back before the curves are
    formed.
    """
    if p.truncated:
        raise TruncatedSeriesError("tracing needs the full polynomial, not a truncation")
    h = normalize(p)
    if isinstance(h, MonomialVerdict):
        raise MonomialAllPlaneError("cannot trace a monomial: its maximum set is the plane")
    required = floor_radius(h)
    if cfg.r_min < required:
        raise FloorViolationError(cfg.r_min, required)

    e = expand(h.tail)  # c z^m moves no maximizer; |1 + q|^2 is a float where |p|^2 may not be
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
    # |p| = |c| r^m |1 + q| with c = w 2^s, binary exponents summed apart
    w, s = frexp_complex(h.prefactor_scalar)
    amp = abs(w) * np.sqrt(np.maximum(mod2[sel], 0.0))
    with np.errstate(over="ignore"):  # inf only where |p| is beyond the float range
        sample_mod = _kernels.power_terms(amp, h.prefactor_power, sample_r, s)
    per_curve = np.bincount(sample_curve)
    first = np.cumsum(per_curve) - per_curve

    component_ids = tuple(np.flatnonzero(np.bincount(curve[comax & (ridx == last)])).tolist())
    n_components = len(component_ids)
    counts = np.bincount(ridx[comax], minlength=radii.size)
    off = np.flatnonzero(counts[:last] != n_components)
    stable_radius = float(radii[off[-1] + 1 if off.size else 0])

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
    if h.mu > 1:
        curve_thetas = {
            cid: sample_theta[first[cid] : first[cid] + per_curve[cid]] for cid in component_ids
        }
        for m in range(1, h.mu):
            rot = TWO_PI * m / h.mu
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
        sample_r=tuple(sample_r.tolist()),
        sample_theta=tuple(sample_theta.tolist()),
        sample_mod=tuple(sample_mod.tolist()),
        sample_curve=tuple(sample_curve.tolist()),
        n_components=n_components,
        component_ids=component_ids,
        tangents=tuple(tangents),
        symmetry=tuple(symmetry),
        events=events,
        stable_radius=stable_radius,
        radii=tuple(radii.tolist()),
        mu=h.mu,
    )


def trace_at_infinity(p: Polynomial, cfg: TraceConfig = TraceConfig()) -> TraceResult:
    """Trace the structure of the maximum modulus set of ``p`` near infinity.

    Equals the near-origin trace of the reciprocal polynomial
    ``z^n p(1/z)``; sample points correspond to ``1/z`` in the original
    plane (``inverted`` flag set), and their ``mod`` is ``|w^n p(1/w)|``.
    """
    return replace(trace(reciprocal(p), cfg), inverted=True)


def write_csv(result: TraceResult, path: str) -> None:
    """One row per sample: ``r,theta,re,im,mod,curve_id`` (17 significant
    digits), in the order of the sample columns: by curve id, then
    descending r."""
    columns = (result.sample_r, result.sample_theta, result.sample_mod, result.sample_curve)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("r,theta,re,im,mod,curve_id\n")
        fh.writelines(
            "%.17g,%.17g,%.17g,%.17g,%.17g,%d\n" % (r, t, r * math.cos(t), r * math.sin(t), m, cid)
            for r, t, m, cid in zip(*columns)
        )
