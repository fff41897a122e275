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
all circles from these rows alone, with their kinds: a circle that the
leading-order certificate covers is bracketed by its windows, every other
circle by subdivision, and every point of every circle is polished in one
Newton pass.  The scan then evaluates ``osc`` once per critical point,
reading the point's ``C_n`` from its circle's row, formed once per radius.
Between folds a circle's maxima move analytically in r and never cross, so
their cyclic order links the maxima of neighbouring circles into
trajectories, on flat arrays of all circles at once.  The co-maximal runs
along the trajectories are the curves, which are counted, fitted for
tangent direction and exponent, and checked for rotational symmetry.
Each maximum of a circle lies on its own trajectory, so the curves that
reach the smallest circle are as many as its co-maximal maxima.
:func:`count_components`, which ``hunt`` reads, counts them on that one
circle alone, with a trace's checks and arithmetic.

A trace and a count set each input up in a fixed number of array
operations, whatever its degree: the products ``c_{j+n} conj(c_j)`` of
the expansion are one scatter, and the check that the rows stay floats is
one check at the largest radius.

A polynomial whose coefficients have a reflection axis psi (every
``c_l e^{i l psi}`` real, as for every real polynomial with psi = 0 and
every magic cubic) is traced on its symmetry quotient: the scan runs on
``p(e^{i psi} z)`` with its ``c_j`` made exactly real
(:func:`~maxmod.modulus.on_axis`), where the root solve brackets only
``(0, pi)`` and returns exact mirror pairs, and mirror maxima meeting at a
fold on the axis tie exactly (:func:`_match_cyclic`).  The maxima are then
turned back by psi and sorted by angle again, so curve ids follow the same
order as without the quotient.

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

import bisect
import cmath
import math
import numbers
import operator
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    ConfigError,
    FloorViolationError,
    MaxmodError,
    RefinementFailureError,
    TruncatedSeriesError,
)
from . import _kernels, roots
from .modulus import ModulusExpansion, expand, on_axis
from .poly import HaymanForm, Polynomial, frexp_complex, normalize, reciprocal
from .util import EPS, TWO_PI, cached_attribute, circ_dist, reduce_angle

FIT_DEGREE = 6  # degree of the polynomial theta(r) fitted by _fit_tangent
# Co-maximality: a maximizer ties with the best one when its value lies within
# TIE_TOL times the per-circle spread (max - min) of the squared modulus.
TIE_TOL = 1e-12
# ambiguity_radius keeps a candidate whose survivor cosine lies within EPS_T
# of the largest
EPS_T = 1e-9
# TraceConfig.grid lies in 64..MAX_GRID and n_radii in 2..MAX_RADII.
MAX_GRID = 1 << 16
MAX_RADII = 100_000
# count_components stacks the rows of at most COUNT_BATCH members, one row
# each, for its root solves; a chunk that fails is counted again member by
# member, so the call raises the error of the first member that fails.  The
# chunks keep memory flat in the number of members: on the 31193 exceptional
# members of hunt --family quartic --samples 100000 --seed 1, one chunk of
# all raised peak RSS from 233 MB to 274 MB; chunks of 64 count them in
# 2.2 s, chunks of 8 in 4.0 s, both at 233 MB (2-core Xeon, numpy 2.4.6)
COUNT_BATCH = 64


def _check_radii(**radii) -> None:
    """``TraceConfig``'s rule for its radii, named in ascending order: real
    numbers with ``0 < r_min < r_max < inf``, or ``0 < r_min < inf`` alone."""
    for name, value in radii.items():
        if not isinstance(value, numbers.Real):  # a float or a numpy float too
            raise ConfigError(f"need a real {name}, got {value!r}")
    chain = (0, *radii.values(), math.inf)
    if not all(map(operator.lt, chain, chain[1:])):  # also NaN
        raise ConfigError(f"need 0 < {' < '.join(radii)} < inf")


@dataclass(frozen=True)
class TraceConfig:
    """Radius schedule of a trace run: ``n_radii`` radii, an integer in
    2..``MAX_RADII``, from ``r_max`` down to ``r_min``, real numbers with
    ``0 < r_min < r_max < inf``.  ``grid`` has no effect on the trace: it
    is only checked to be an integer in 64..``MAX_GRID``."""

    r_min: float = 1e-3
    r_max: float = 0.3
    n_radii: int = 200
    grid: int = 4096

    def __post_init__(self):
        _check_radii(r_min=self.r_min, r_max=self.r_max)
        for name, lo, hi in (("n_radii", 2, MAX_RADII), ("grid", 64, MAX_GRID)):
            value = getattr(self, name)
            try:
                value = operator.index(value)  # an int or a numpy integer
            except TypeError:
                raise ConfigError(f"need an integer {name}, got {value!r}") from None
            if not (lo <= value <= hi):
                raise ConfigError(f"need {lo} <= {name} <= {hi}")


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
    # None when the curve sits exactly on its ray, or when its fit window
    # spans less than a factor of 2 in r
    alpha_hat: float | None
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

    @cached_attribute
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


def _rows(e: ModulusExpansion, radii: np.ndarray) -> np.ndarray:
    """The ``C_n`` rows of the circles ``|z| = r`` for r in ``radii``
    (``e.fourier``), which are all the root solve reads, after the check
    that every evaluation of them stays a float, which fails at the largest
    radius: every caller passes it first."""
    # the evaluations of |1 + q|^2 and its theta-derivatives sum the
    # n^2 |C_n| <= mass^2, mass = 1 + sum_j j^2 |c_j| r^j; all of it must
    # stay a float.  mass grows with r, so one check at the largest radius
    # covers every radius, and the factor 4 covers the rounding
    j = np.arange(float(e.c.size))
    r = float(radii.max())
    with np.errstate(over="ignore", invalid="ignore"):  # inf or NaN is rejected
        mass = 1.0 + _kernels.radial_sum(j * j * np.abs(e.c), j, r)
        if not 4.0 * mass * mass < math.inf:  # also NaN
            raise RefinementFailureError(r, 0.0)
    return e.fourier(radii)


def _scan(e: ModulusExpansion, cn: np.ndarray, radii: np.ndarray):
    """All refined local maxima of every circle ``|z| = r`` for r in
    ``radii``, with their ``osc`` and co-maximality, from the circles'
    ``C_n`` rows ``cn`` (:func:`_rows`).

    The critical points of all circles, their kinds and their polished
    angles come from the rows (:func:`maxmod.roots.critical_points`), as
    mirror pairs only where ``e`` is real; a circle without both a maximum
    and a minimum fails at its radius, since a smooth periodic function has
    both.  The one ``osc`` evaluation reads a point's ``C_n`` from its
    circle's row, not from ``e``.  The spread of a circle is its largest
    ``osc`` at a maximum minus its smallest at a minimum.  A maximum is
    co-maximal within ``TIE_TOL`` times that of its circle's largest, and
    its deficit is that largest ``osc`` minus its own.

    Returns ``n_max`` and the flat arrays ``(ridx, theta, osc, deficit,
    comax)`` of the maxima: ``n_max[i]`` maxima of circle i, followed by
    those of circle i + 1, each circle's in counterclockwise order from
    about -pi; ``comax`` marks the co-maximal ones.
    """
    ridx, theta, is_max = roots.critical_points(cn, radii, mirror=not e.c.imag.any())
    n_max = np.bincount(ridx[is_max], minlength=radii.size)
    n_min = np.bincount(ridx[~is_max], minlength=radii.size)
    bad = (n_max == 0) | (n_min == 0)
    if bad.any():
        raise RefinementFailureError(float(radii[np.argmax(bad)]), 0.0)
    mx = np.flatnonzero(is_max)
    mn = np.flatnonzero(~is_max)
    order = np.concatenate([mx, mn])
    osc = e.osc(radii[ridx[order]], theta[order], cn=cn[ridx[order]])
    osc, osc_mn = osc[: mx.size], osc[mx.size :]
    ridx_mx = ridx[mx]
    top = np.maximum.reduceat(osc, np.cumsum(n_max) - n_max)
    spread = top - np.minimum.reduceat(osc_mn, np.cumsum(n_min) - n_min)
    tie_threshold = TIE_TOL * spread
    peak = top[ridx_mx]
    comax = osc >= peak - tie_threshold[ridx_mx]
    return n_max, ridx_mx, reduce_angle(theta[mx]), osc, peak - osc, comax


def ambiguity_radius(h: HaymanForm) -> float:
    """Radius below which excluded candidates fall inside the tie tolerance.

    One pass of the survivor recursion: the survivors start as the k
    candidates omega_j, and each tail term ``b z^n`` above degree k, in
    ascending degree, keeps those whose ``cos(n omega_j + arg b)`` lies
    within ``EPS_T`` of the largest.  The tests keep the recursion with its
    history as the oracle of classify's count (``tests/oracles.py``); this
    loop reads off only the gaps.  The deficit of a candidate that the term
    excludes scales like ``gap * r^n``, ``gap`` being the largest retained
    ``t = 2|b| cos(n omega_j + arg b)`` minus its own, while the tie
    threshold scales like ``TIE_TOL * 4|a| r^k``; counting components below
    the crossover would see phantom curves.  The threshold carries a safety
    factor of 100.  Returns 0.0 when no candidate is ever excluded.
    """
    k, omega, coeffs = h.k, h.omega, h.tail.coeffs
    thresh_coeff = 100.0 * TIE_TOL * 4.0 * abs(h.a)
    r_amb = 0.0
    alive = list(range(k))
    for n in h.tail.nonzero_exponents():
        if n <= k:
            continue
        b = coeffs[n]
        arg_b = cmath.phase(b)
        # compare cosines: the positive factor 2|b| may overflow to inf
        cos = [math.cos(n * omega[j] + arg_b) for j in alive]
        cos_max = max(cos)
        kept = [c >= cos_max - EPS_T for c in cos]
        if all(kept):
            continue
        two_abs_b = 2.0 * abs(b)
        t = [two_abs_b * c for c in cos]
        t_max = max(tj for tj, keep in zip(t, kept) if keep)
        for tj, keep in zip(t, kept):
            gap = t_max - tj
            if not keep and gap > 0:
                r_amb = max(r_amb, (thresh_coeff / gap) ** (1.0 / (n - k)))
        alive = [j for j, keep in zip(alive, kept) if keep]
    return r_amb


def _polyfit(x: np.ndarray, y: np.ndarray, deg: int):
    """The coefficients, highest power first, and the rank of
    ``np.polyfit(x, y, deg, full=True)``, by its own arithmetic: the
    Vandermonde matrix with unit-norm columns, solved by ``lstsq`` at
    ``rcond = len(x) EPS``, then divided by the column norms."""
    lhs = np.vander(x, deg + 1)
    scale = np.sqrt((lhs * lhs).sum(axis=0))
    lhs /= scale
    coef, _, rank, _ = np.linalg.lstsq(lhs, y, x.size * EPS)
    return coef / scale, rank


def _fit_tangent(rs: np.ndarray, thetas: np.ndarray):
    """Fit theta(r) over the smallest decade of radii.

    ``r^-k d/dtheta |p|^2 = -2k|a| sin(k theta + arg a) + O(r)`` has simple
    zeros omega_j, so by the implicit function theorem every maximizer
    branch is real-analytic in r: ``theta = omega_j + c_1 r + c_2 r^2 + ...``.
    One linear least-squares fit of a polynomial of degree ``FIT_DEGREE`` in
    r therefore gives omega_hat as its intercept.  alpha_hat is the log-log
    slope of ``|theta - omega_hat|`` against r; where ``theta - omega_hat``
    changes sign inside the window it is the dominant power
    ``argmax_n |c_n| r_max^n``.  A window that spans less than a factor of
    2 in r cannot tell one power of r from the next, and alpha_hat is then
    None.

    ``rs`` must be strictly descending, as :func:`trace` passes each curve,
    so the window is the head of the reversed arrays.  Its angles are
    unwrapped only where they span pi: below that no step reaches pi, and
    ``np.unwrap`` would only add +0.0, which turns a -0.0 into 0.0 and
    changes no value.

    Returns (omega_hat, alpha_hat | None, on_ray).
    """
    rs = rs[::-1]
    m = max(rs.searchsorted(10.0 * rs[0], "right"), min(8, rs.size))
    r_w = rs[:m]
    t_w = thetas[::-1][:m]
    span = t_w.max() - t_w.min()
    if span >= math.pi:
        t_w = np.unwrap(t_w)
        span = t_w.max() - t_w.min()

    if span < 1e-12:
        return float(reduce_angle(np.mean(t_w))), None, True

    # a window too narrow to resolve FIT_DEGREE + 1 powers of r gets the
    # highest degree it does resolve, not a rank-deficient fit
    coef, rank = _polyfit(r_w, t_w, FIT_DEGREE)
    if rank < FIT_DEGREE + 1:
        coef = _polyfit(r_w, t_w, max(rank - 1, 1))[0]
    coef = coef[::-1]  # c_0, c_1, ...
    omega_hat = float(coef[0])
    ee = t_w - omega_hat
    if r_w[-1] < 2.0 * r_w[0]:
        alpha_hat = None
    elif (ee > 0).all() or (ee < 0).all():
        alpha_hat = float(_polyfit(np.log(r_w), np.log(np.abs(ee)), 1)[0][0])
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
    ``n_max`` and ``theta`` are the flat arrays of :func:`_scan`.

    Returns the flat index of the linked maximum on the circle before, or -1.
    """
    starts = np.cumsum(n_max) - n_max
    prev = np.full(theta.size, -1)
    steps = np.arange(1, n_max.size)
    same = n_max[1:] == n_max[:-1]
    for m in sorted(set(n_max[1:][same].tolist())):  # np.unique would import numpy.ma
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


def _prepare(p: Polynomial | HaymanForm, r_min: float):
    """The checks of a trace whose smallest radius is ``r_min`` and what its
    scan reads.

    Normalizes ``p`` unless it is a normal form already, which rejects a
    monomial, then rejects a truncated series and an ``r_min`` below the
    floor.  The reflection axis is found on the tail's coefficients
    (:func:`~maxmod.modulus.on_axis`) before the one expansion, of the
    turned tail.  Returns ``(h, psi, e)``: the normal form, the axis (0.0
    for none) and that expansion.
    """
    h = normalize(p)
    if h.tail.truncated:
        raise TruncatedSeriesError("tracing needs the full polynomial, not a truncation")
    required = h.floor  # computed once per form: a hunt has read it for its radius
    if r_min < required:
        raise FloorViolationError(r_min, required)

    psi, tail = on_axis(h.tail)  # trace p(e^{i psi} z), whose c_j are real, if p has an axis
    e = expand(tail)  # c z^m moves no maximizer; |1 + q|^2 is a float where |p|^2 may not be
    return h, psi, e


def _count_batch(members) -> list[int]:
    """The component counts of ``members``, each from its one circle
    ``r_min``, with one root solve per row group.  Every member is checked
    as its trace is (:func:`_check_radii`, :func:`_prepare`) and gets the
    row of ``r_min`` (:func:`_rows`, mass check included).  The rows are
    grouped by width and by whether the turned tail is real, as
    :func:`_scan` tests the group's first expansion, and each group's rows
    are scanned at once."""
    groups: dict[tuple[int, bool], tuple] = {}
    for k, (p, r_min) in enumerate(members):
        _check_radii(r_min=r_min)
        _, _, e = _prepare(p, r_min)
        r_min = float(r_min)
        # a product of one row takes another BLAS path (a matrix-vector
        # product) than the trace's many rows and rounds differently, so
        # r_min is formed twice and its row has the bits of the trace's
        cn = _rows(e, np.full(2, r_min))[0]
        # osc with cn reads only the rows, not the expansion: the group's first serves
        groups.setdefault((cn.size, not e.c.imag.any()), (e, []))[1].append((k, cn, r_min))
    counts = [0] * len(members)
    for e, group in groups.values():
        ks, cn, radii = zip(*group)
        radii = np.array(radii)
        _, ridx, *_, comax = _scan(e, np.array(cn), radii)
        for k, n in zip(ks, np.bincount(ridx[comax], minlength=radii.size).tolist()):
            counts[k] = n
    return counts


def count_components(members) -> list[int]:
    """The number of curves of the maximum modulus set through the circle
    ``|z| = r_min`` of every ``(p, r_min)`` in ``members``, in order; ``p``
    is a polynomial or its normal form.  It is ``trace(p,
    cfg).n_components`` for every ``cfg`` whose schedule ends at ``r_min``
    and whose trace succeeds.

    Each member runs the checks of a trace, then forms the ``C_n`` row of
    ``r_min`` alone, with the mass check of that radius, as its trace forms
    it.  Up to ``COUNT_BATCH`` members at a time are then counted by one
    :func:`maxmod.roots.critical_points` call per row group
    (:func:`_count_batch`), one row per member.  No other circle is formed
    or solved, and no maxima are linked, fitted, paired or sampled.  So:

    - where ``r_min`` breaks ``TraceConfig``'s rule, it raises ``ConfigError``;
    - where a check of the trace fails, the count raises the trace's error;
    - where the circle ``r_min`` fails, the count raises that failure at
      ``r_min``, as a trace does unless a larger circle fails first; a
      mass check that fails at ``r_min`` fails at every radius, and a
      trace raises it at ``r_max``;
    - where only a circle above ``r_min`` would fail, the result is a
      count, not an error.

    If a chunk raises, its members are counted again one at a time, so the
    call raises the error of the first member that fails.
    """
    counts = []
    for at in range(0, len(members), COUNT_BATCH):
        chunk = members[at : at + COUNT_BATCH]
        try:
            counts += _count_batch(chunk)
        except MaxmodError:
            for member in chunk:
                counts += _count_batch([member])
    return counts


def trace(p: Polynomial | HaymanForm, cfg: TraceConfig = TraceConfig()) -> TraceResult:
    """Trace the maximum modulus set of ``p``, a polynomial or its normal
    form, over the radius schedule.

    Finds the co-maximal points of every radius in one batched scan
    (:func:`_scan`), links the maxima
    of neighbouring circles by cyclic order (:func:`_link`), largest radius
    first, and reports the co-maximal runs along each linked trajectory as
    curves: component count, tangent fits, rotational symmetry and
    birth/death events.  A mid-schedule birth or a non-monotone death is
    marked not legitimate.  The scan runs on the normalized tail
    ``1 + q`` of ``p = c z^m (1 + q)``; a polynomial with a reflection axis
    is scanned and linked on its axis and turned back before the curves are
    formed.
    """
    h, psi, e = _prepare(p, cfg.r_min)
    radii = radius_schedule(cfg)
    n_max, ridx, theta, osc, deficit, comax = _scan(e, _rows(e, radii), radii)
    mod2 = e.base(radii)[ridx] + osc

    # -- link maxima across radii (descending) into trajectories and curves --
    prev = _link(n_max, theta)
    flat = np.arange(theta.size)
    if psi:
        # back from the axis frame, where mirror maxima tie exactly in _link;
        # each circle's maxima are sorted by angle again and the links follow
        theta = reduce_angle(theta + psi)
        order = np.lexsort((theta, ridx))
        theta, mod2, deficit, comax, prev = (x[order] for x in (theta, mod2, deficit, comax, prev))
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
    # each maximum of a circle lies on its own trajectory, so the co-maximal
    # maxima of the last circle lie on as many different curves
    counts = np.bincount(ridx[comax], minlength=radii.size)
    n_components = int(counts[last])
    off = np.flatnonzero(counts[:last] != n_components)
    stable_radius = float(radii[off[-1] + 1 if off.size else 0])

    # -- tangent fits ------------------------------------------------------
    tangents = []
    for cid, (a, n) in enumerate(zip(first.tolist(), per_curve.tolist())):
        if n < 8:
            continue
        omega_hat, alpha_hat, on_ray = _fit_tangent(sample_r[a : a + n], sample_theta[a : a + n])
        devs = circ_dist(omega_hat, h.omega)
        j = int(np.argmin(devs))
        tangents.append(
            TangentFit(
                curve_id=cid,
                omega_hat=omega_hat,
                alpha_hat=alpha_hat,
                on_ray=on_ray,
                matched_j=j,
                matched_omega=h.omega[j],
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
    descending r.  Each curve's rows are formatted by one ``%`` over its
    interleaved cells, so no Python code runs per row."""
    row = "%.17g,%.17g,%.17g,%.17g,%.17g,%d\n"
    r, theta, mod = result.sample_r, result.sample_theta, result.sample_mod
    curve = result.sample_curve
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("r,theta,re,im,mod,curve_id\n")
        a = 0
        while a < len(curve):
            b = bisect.bisect_right(curve, curve[a], a)
            rs, ts = r[a:b], theta[a:b]
            cells = [None] * (6 * (b - a))
            cells[0::6] = rs
            cells[1::6] = ts
            cells[2::6] = map(operator.mul, rs, map(math.cos, ts))
            cells[3::6] = map(operator.mul, rs, map(math.sin, ts))
            cells[4::6] = mod[a:b]
            cells[5::6] = curve[a:b]
            fh.write((row * (b - a)) % tuple(cells))
            a = b
