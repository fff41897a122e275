"""Numerical computation of the maximum modulus set on a punctured disc.

The global maximizers of ``theta -> |p(r e^{i theta})|^2`` are located on
every circle of a geometric radius schedule at once.  The paper's
trigonometric expansion makes the theta-derivative of ``|p|^2`` a
trigonometric polynomial, so the critical points of every circle are the
unit-circle roots of one polynomial per circle, found by batched companion
eigenvalue solves; one Newton solve (bisection-guarded) on the exact
theta-derivative then polishes the maxima of all circles.
Per-radius maximizer sets are linked into curves, counted, fitted for
tangent direction and exponent, and checked for rotational symmetry.

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
from .modulus import ModulusExpansion, expand
from .poly import HaymanForm, MonomialVerdict, Polynomial, inner_degree, normalize, reciprocal
from .util import TWO_PI, circ_dist, reduce_angle, scalar_circ_dist, scalar_reduce_angle

EPS = float(np.finfo(float).eps)
FIT_DEGREE = 6  # degree of the polynomial theta(r) fitted by _fit_tangent
# Co-maximality: a maximizer ties with the best one when its value lies within
# TIE_TOL times the per-circle spread (max - min) of the squared modulus.
TIE_TOL = 1e-12
# Newton stops when |d/dtheta| is below NEWTON_TOL times an upper bound for
# the theta-derivative on the circle, or after NEWTON_MAX_ITER steps.
NEWTON_TOL = 1e-12
NEWTON_MAX_ITER = 60
# Linking across consecutive radii accepts LINK_TOL times the per-step drift
# estimate, floored at the step 2 pi / TraceConfig.grid.
LINK_TOL = 3.0
# TraceConfig.grid lies in 64..MAX_GRID.
MAX_GRID = 1 << 16
# A root w of the critical-point polynomial (see _derivative_roots) is a
# critical point of its circle when |abs(w) - 1| < ON_CIRCLE.  Simple roots on
# the circle come back within about 1e-12 of it.  A max-min pair that has met
# at a fold and left the circle, with |d/dtheta| >= delta between the two, sits
# at w and 1/conj(w) with |abs(w) - 1| ~ sqrt(2 delta / |d^3/dtheta^3|); the
# bound accepts it only for delta below about 5e-13 |d^3/dtheta^3|, on a circle
# within roundoff of the fold.
ON_CIRCLE = 1e-6


@dataclass(frozen=True)
class TraceConfig:
    """Radius schedule of a trace run; ``grid`` sets the linker's angular
    floor ``2 pi / grid``."""

    r_min: float = 1e-3
    r_max: float = 0.3
    n_radii: int = 200
    grid: int = 4096

    def __post_init__(self):
        if not (0 < self.r_min < self.r_max):
            raise ValueError("need 0 < r_min < r_max")
        if self.n_radii < 2:
            raise ValueError("need n_radii >= 2")
        if not (64 <= self.grid <= MAX_GRID):
            raise ValueError(f"need 64 <= grid <= {MAX_GRID}")


@dataclass(frozen=True)
class CurveSample:
    r: float
    theta: float
    mod2: float
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


@dataclass(frozen=True)
class CircleScan:
    """All refined local maxima of one circle (internal)."""

    r: float
    thetas: np.ndarray
    osc: np.ndarray
    mod2: np.ndarray
    comax: np.ndarray
    spread: float
    tie_threshold: float


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


def _derivative_roots(e: ModulusExpansion, radii: np.ndarray):
    """Roots ``w`` of ``w^D d/dtheta |1 + q(r w)|^2`` for every circle.

    With ``p = a_m z^m (1 + q)``, ``c_0 = 1``, ``c_j`` the coefficients of
    ``q`` and ``w = e^{i theta}``, the squared modulus is the trigonometric sum
    ``|1 + q|^2 = C_0 + sum_{n=1}^{D} (C_n w^n + conj(C_n) w^-n)`` with
    ``C_n(r) = sum_j c_{j+n} conj(c_j) r^{2j+n}``.  Hence ``w^D d/dtheta / i``
    is the polynomial of degree 2D with ``n C_n`` at ``w^{D+n}`` and
    ``-n conj(C_n)`` at ``w^{D-n}``, and its roots on the unit circle are the
    critical points.  Per circle, the top orders whose ``n |C_n|`` is at most
    ``EPS`` times the largest are dropped: they move no critical point and
    would overflow the companion matrix.  Circles of equal remaining degree
    d share one batched eigenvalue solve.

    Returns one ``(radius_indices, roots)`` pair per degree, ``roots`` of
    shape ``(len(radius_indices), 2d)``.
    """
    c = np.concatenate([[1.0 + 0j], e.q_rows[:, 0]])
    deg = c.size - 1
    rp = radii[:, None] ** np.arange(2 * deg)
    nc = np.empty((radii.size, deg), dtype=complex)  # column n-1: n C_n
    for n in range(1, deg + 1):
        acc = np.zeros(radii.size, dtype=complex)
        for j in range(deg - n + 1):  # a fixed order keeps each circle's bits
            acc += (c[j + n] * np.conj(c[j])) * rp[:, 2 * j + n]
        nc[:, n - 1] = n * acc
    mag = np.abs(nc)
    top = mag.max(axis=1)
    flat = ~((0.0 < top) & (top < np.inf))  # also NaN
    if flat.any():
        raise RefinementFailureError(float(radii[np.argmax(flat)]), 0.0)
    kept = deg - np.argmax((mag > EPS * top[:, None])[:, ::-1], axis=1)

    out = []
    for d in sorted(set(kept.tolist())):
        rows = np.flatnonzero(kept == d)
        # descending powers w^{2d} .. w^0, divided by the leading one
        desc = np.concatenate(
            [nc[rows, d - 1 :: -1], np.zeros((rows.size, 1)), -np.conj(nc[rows, :d])], axis=1
        )
        comp = np.zeros((rows.size, 2 * d, 2 * d), dtype=complex)
        comp[:, 0, :] = -desc[:, 1:] / desc[:, :1]
        comp[:, np.arange(1, 2 * d), np.arange(2 * d - 1)] = 1.0
        out.append((rows, np.linalg.eigvals(comp)))
    return out


def _critical_points(e: ModulusExpansion, radii: np.ndarray):
    """Every critical point of ``theta -> |p(r e^{i theta})|^2`` on every
    circle: the roots of :func:`_derivative_roots` within ``ON_CIRCLE`` of
    the unit circle.

    Returns ``(radius_index, theta)``, sorted by radius index, then angle.
    """
    ridx, theta = [], []
    for rows, w in _derivative_roots(e, radii):
        row, col = np.nonzero(np.abs(np.abs(w) - 1.0) < ON_CIRCLE)
        ridx.append(rows[row])
        theta.append(np.angle(w[row, col]))
    ridx = np.concatenate(ridx)
    theta = np.concatenate(theta)
    order = np.lexsort((theta, ridx))
    return ridx[order], theta[order]


def _refine_maxima(
    e: ModulusExpansion, r: np.ndarray, x0: np.ndarray, lo: np.ndarray, hi: np.ndarray
):
    """Hybrid Newton/bisection on d/dtheta of the cross sum, one solve for
    all maxima; maximum i starts at ``x0[i]`` on the circle of radius
    ``r[i]``, inside the bracket ``[lo[i], hi[i]]`` on whose left edge the
    derivative is nonnegative and on whose right edge it is nonpositive.
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
        f, d2 = e.d1d2(r[act], xa)
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


def _scan_circles(e: ModulusExpansion, radii: np.ndarray) -> list[CircleScan]:
    """All refined local maxima of every circle ``|z| = r`` for r in ``radii``.

    The critical points of all circles come from :func:`_critical_points`.
    One ``d1d2`` call at the critical points and at the midpoints between
    circular neighbours sorts them into maxima (``d2 < 0``) and minima and
    checks the bracket of each maximum, whose ends are the midpoints to its
    two neighbours.  One vectorized Newton/bisection solve then polishes the
    maxima of all circles.  The spread of a circle is its largest ``osc`` at
    a maximum minus its smallest at a minimum.
    """
    # the roots see only q; the factor |a_m|^2 r^{2m} of |p|^2 must be a float too
    bad = ~np.isfinite(e.scale(radii))
    if bad.any():
        raise RefinementFailureError(float(radii[np.argmax(bad)]), 0.0)
    ridx, theta = _critical_points(e, radii)
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
    f, d2 = e.d1d2(np.concatenate([r, r]), np.concatenate([theta, mid]))
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
    theta_mx, d2 = _refine_maxima(e, r[mx], theta[mx], mid_before[mx], mid[mx])
    ridx_mx = ridx[mx]

    # guard: a refined point must be a (weak) maximum
    d2_tol = NEWTON_TOL * np.maximum(e.d2_bound(radii), 1e-300)
    bad = d2 > d2_tol[ridx_mx]
    if bad.any():
        i = np.argmax(bad)
        raise RefinementFailureError(float(r[mx[i]]), float(theta_mx[i]))

    osc = e.osc(np.concatenate([r[mx], r[mn]]), np.concatenate([theta_mx, theta[mn]]))
    osc, osc_mn = osc[: mx.size], osc[mx.size :]
    starts = np.cumsum(n_max) - n_max
    top = np.maximum.reduceat(osc, starts)
    spread = top - np.minimum.reduceat(osc_mn, np.cumsum(n_min) - n_min)
    tie_threshold = TIE_TOL * spread
    comax = osc >= top[ridx_mx] - tie_threshold[ridx_mx]
    mod2 = e.base(radii)[ridx_mx] + osc
    theta_mx = reduce_angle(theta_mx)
    return [
        CircleScan(
            r=float(radii[i]),
            thetas=theta_mx[a:b],
            osc=osc[a:b],
            mod2=mod2[a:b],
            comax=comax[a:b],
            spread=float(spread[i]),
            tie_threshold=float(tie_threshold[i]),
        )
        for i, a, b in zip(range(radii.size), starts.tolist(), (starts + n_max).tolist())
    ]


def circle_argmax(e: ModulusExpansion, r: float) -> list[tuple[float, float]]:
    """Newton-refined global maximizers of ``|p|^2`` on the circle |z| = r.

    Returns ``(theta, mod2)`` pairs for every maximizer whose value lies
    within ``TIE_TOL * (max - min)`` of the refined global maximum.
    """
    scan = _scan_circles(e, np.array([r], dtype=float))[0]
    return [
        (float(t), float(m))
        for t, m, c in zip(scan.thetas, scan.mod2, scan.comax)
        if c
    ]


def brute_force_mset(p: Polynomial, r: float, grid: int) -> np.ndarray:
    """Oracle: dense-scan maximizer angles, no refinement.

    Returns the grid angles whose value is within ``TIE_TOL * spread`` of
    the grid maximum.  Evaluates the expansion's cross-term sum, so it stays
    independent of the Horner path the tracer uses.
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


def trace(p: Polynomial, cfg: TraceConfig = TraceConfig()) -> TraceResult:
    """Trace the maximum modulus set of ``p`` over the radius schedule.

    Finds the co-maximal points of every radius in one batched scan (the
    points :func:`circle_argmax` gives radius by radius), links them into
    curves by nearest angle, largest radius first, and reports component
    count, tangent fits, rotational symmetry and birth/death events; a
    mid-schedule birth or a non-monotone death is marked not legitimate.
    """
    if p.truncated:
        raise TruncatedSeriesError("tracing needs the full polynomial, not a truncation")
    h = normalize(p)
    if isinstance(h, MonomialVerdict):
        raise MonomialAllPlaneError("cannot trace a monomial: its maximum set is the plane")
    required = floor_radius(h)
    if cfg.r_min < required:
        raise FloorViolationError(cfg.r_min, required)

    e = expand(p)
    omega = omega_angles(h)
    radii = radius_schedule(cfg)
    scans = _scan_circles(e, radii)

    # -- link maximizer trajectories across radii (descending) ----------
    trajs: dict[int, dict] = {}
    curves: dict[int, dict] = {}
    raw_events: list[dict] = []
    next_traj = 0
    next_curve = 0
    omega_list = omega.tolist()
    step = TWO_PI / cfg.grid  # the linker's angular floor
    for idx, scan in enumerate(scans):
        r = float(radii[idx])
        thetas = scan.thetas.tolist()
        oscs = scan.osc.tolist()
        mod2s = scan.mod2.tolist()
        comaxs = scan.comax.tolist()
        m_count = len(thetas)
        # cap: distinct same-radius maximizers must never share a trajectory
        if m_count > 1:
            ths = sorted(thetas)
            gap_cap = 0.45 * min(b - a for a, b in zip(ths, ths[1:] + [ths[0] + TWO_PI]))
        else:
            gap_cap = math.pi
        alive = [t for t, tr in trajs.items() if tr["alive"]]
        pairs = sorted(
            (scalar_circ_dist(trajs[t]["theta"], thetas[m]), t, m)
            for t in alive
            for m in range(m_count)
        )
        t_to_m: dict[int, int] = {}
        m_to_t: dict[int, int] = {}
        for d, t, m in pairs:
            if t in t_to_m or m in m_to_t:
                continue
            # a maximizer approaches its limiting ray monotonically, so one
            # step moves at most the current deviation from the nearest
            # candidate angle; the drift term covers the settled regime
            dev = min(scalar_circ_dist(trajs[t]["theta"], w) for w in omega_list)
            thr = min(
                gap_cap,
                max(LINK_TOL * max(abs(trajs[t]["drift"]), step), 1.2 * dev),
            )
            if d < thr:
                t_to_m[t] = m
                m_to_t[m] = t
        for t in alive:
            if t not in t_to_m:
                tr = trajs[t]
                tr["alive"] = False
                if tr["curve"] is not None:
                    raw_events.append(
                        {"kind": "death", "r": r, "curve": tr["curve"], "idx": idx, "traj": t}
                    )
                    tr["curve"] = None
        x_top = max(oscs)
        for m in range(m_count):
            theta_m = thetas[m]
            if m in m_to_t:
                t = m_to_t[m]
                tr = trajs[t]
                tr["drift"] = scalar_reduce_angle(theta_m - tr["theta"])
                tr["theta"] = theta_m
            else:
                t = next_traj
                next_traj += 1
                tr = {"theta": theta_m, "drift": 0.0, "alive": True, "curve": None, "deficits": []}
                trajs[t] = tr
            if comaxs[m]:
                if tr["curve"] is None:
                    cid = next_curve
                    next_curve += 1
                    curves[cid] = {"samples": [], "last_idx": idx}
                    tr["curve"] = cid
                    if idx > 0:
                        raw_events.append({"kind": "birth", "r": r, "curve": cid, "idx": idx, "traj": t})
                cid = tr["curve"]
                curves[cid]["samples"].append(
                    CurveSample(r=r, theta=theta_m, mod2=mod2s[m], curve_id=cid)
                )
                curves[cid]["last_idx"] = idx
            else:
                if tr["curve"] is not None:
                    raw_events.append(
                        {"kind": "death", "r": r, "curve": tr["curve"], "idx": idx, "traj": t}
                    )
                    tr["curve"] = None
                tr["deficits"].append((idx, x_top - oscs[m]))

    # -- event legitimacy ------------------------------------------------
    events = []
    for ev in raw_events:
        legitimate: bool | None
        if ev["kind"] == "birth":
            legitimate = False
        else:
            defs = [d for i, d in trajs[ev["traj"]]["deficits"] if ev["idx"] <= i < ev["idx"] + 6]
            if len(defs) < 3:
                legitimate = None
            else:
                arr = np.asarray(defs)
                legitimate = bool(np.all(np.diff(arr) > -0.1 * float(np.max(np.abs(arr)))))
        events.append(TraceEvent(kind=ev["kind"], r=ev["r"], curve_id=ev["curve"], legitimate=legitimate))

    last_idx = len(scans) - 1
    component_ids = tuple(sorted(c for c, cu in curves.items() if cu["last_idx"] == last_idx))
    n_components = len(component_ids)

    counts = np.array([int(s.comax.sum()) for s in scans])
    i0 = last_idx
    while i0 > 0 and counts[i0 - 1] == n_components:
        i0 -= 1
    stable_radius = float(radii[i0])

    mu = inner_degree(h)

    # -- tangent fits ------------------------------------------------------
    tangents = []
    for cid in sorted(curves):
        samples = curves[cid]["samples"]
        if len(samples) < 8:
            continue
        rs = np.array([s.r for s in samples])
        ths = np.array([s.theta for s in samples])
        omega_hat, alpha_hat, on_ray = _fit_tangent(rs, ths)
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
            cid: [(s.r, s.theta) for s in curves[cid]["samples"]] for cid in component_ids
        }
        for m in range(1, mu):
            rot = TWO_PI * m / mu
            for ca in component_ids:
                best = None
                for cb in component_ids:
                    pa = curve_thetas[ca]
                    pb = curve_thetas[cb]
                    n = min(len(pa), len(pb))
                    devs = [
                        scalar_circ_dist(ta + rot, tb)
                        for (ra, ta), (rb, tb) in zip(pa[-n:], pb[-n:])
                    ]
                    dev = max(devs)
                    if best is None or dev < best[1]:
                        best = (cb, dev)
                symmetry.append(
                    SymmetryPair(curve_a=ca, curve_b=best[0], rotation_m=m, max_dev=float(best[1]))
                )

    all_samples = []
    for cid in sorted(curves):
        all_samples.extend(curves[cid]["samples"])

    return TraceResult(
        samples=tuple(all_samples),
        n_components=n_components,
        component_ids=component_ids,
        tangents=tuple(tangents),
        symmetry=tuple(symmetry),
        events=tuple(events),
        stable_radius=stable_radius,
        radii=tuple(float(r) for r in radii),
        omega=tuple(float(w) for w in omega),
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
            mod = math.sqrt(max(s.mod2, 0.0))
            fh.write(
                f"{s.r:.17g},{s.theta:.17g},{re_:.17g},{im:.17g},{mod:.17g},{s.curve_id}\n"
            )
