"""Numerical computation of the maximum modulus set on a punctured disc.

The global maximizers of ``theta -> |p(r e^{i theta})|^2`` are located on
every circle of a geometric radius schedule at once: one dense grid scan of
all circles, then one Newton solve (bisection-guarded) on the exact
theta-derivative for the grid maxima of all circles.
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
# estimate, floored at one grid step.
LINK_TOL = 3.0
# Grid doubling, which separates close seeds, stops at MAX_GRID points.
MAX_GRID = 1 << 16
# The grid scan evaluates whole circles in blocks of at most SCAN_BLOCK points,
# which bounds its working memory whatever the number of radii.  At 2^13 points
# a block's complex temporaries are 128 KiB, the size up to which glibc malloc
# keeps serving them from the heap; at 2^14 it mapped and unmapped them on every
# block, about 2300 page faults per 200-radius trace, whose cost swings with the
# host's load.
SCAN_BLOCK = 1 << 13


@dataclass(frozen=True)
class TraceConfig:
    """Radius schedule and starting grid resolution for a trace run."""

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
    grid_used: int


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


def _grid_maxima(x: np.ndarray) -> np.ndarray:
    """Mask of the circular local maxima along the last axis of ``x``."""
    left = np.roll(x, 1, axis=-1)
    right = np.roll(x, -1, axis=-1)
    return (x >= left) & (x >= right) & ((x > left) | (x > right))


def _grid_scan(e: ModulusExpansion, radii: np.ndarray, grid: int):
    """Grid maxima of every circle, as flat seed arrays grouped by radius.

    Circles are evaluated as ``(radii x grid)`` blocks of at most
    ``SCAN_BLOCK`` points.  A circle whose maxima lie within 3 grid steps
    of each other is scanned again at twice the grid, up to ``MAX_GRID``.

    Returns ``(seed_radius_index, seed_theta, grid_used, spread)``, where
    the last two hold one value per radius.
    """
    grid_used = np.empty(radii.size, dtype=np.int64)
    spread = np.empty(radii.size)
    seed_idx, seed_theta = [], []
    pending = np.arange(radii.size)
    while pending.size:
        th_grid = -math.pi + TWO_PI * np.arange(grid) / grid
        rows = max(1, SCAN_BLOCK // grid)
        crowded = []
        for lo in range(0, pending.size, rows):
            blk = pending[lo : lo + rows]
            x = e.osc(radii[blk, None], th_grid)
            row, col = np.nonzero(_grid_maxima(x))
            counts = np.bincount(row, minlength=blk.size)
            if not counts.all():  # flat circle; cannot happen for >= 2 terms
                raise RefinementFailureError(float(radii[blk[np.argmin(counts)]]), 0.0)
            # forward gap from each maximum to the next one on its circle
            first = np.cumsum(counts) - counts
            last = first + counts - 1
            gap = np.empty_like(col)
            gap[:-1] = np.diff(col)
            gap[last] = col[first] + grid - col[last]
            redo = np.zeros(blk.size, dtype=bool)
            if grid < MAX_GRID:
                redo[row[gap <= 3]] = True
            crowded.append(blk[redo])
            done = ~redo
            grid_used[blk[done]] = grid
            spread[blk[done]] = x[done].max(axis=1) - x[done].min(axis=1)
            seeded = done[row]
            seed_idx.append(blk[row[seeded]])
            seed_theta.append(th_grid[col[seeded]])
        pending = np.concatenate(crowded)
        grid *= 2
    seed_idx = np.concatenate(seed_idx)
    order = np.argsort(seed_idx, kind="stable")
    return seed_idx[order], np.concatenate(seed_theta)[order], grid_used, spread


def _refine_maxima(e: ModulusExpansion, r: np.ndarray, seeds: np.ndarray, step: np.ndarray):
    """Hybrid Newton/bisection on d/dtheta of the cross sum, one solve for
    all seeds; seed i lies on the circle of radius ``r[i]``, with grid step
    ``step[i]``.

    Brackets are the grid neighbors of each seed; the derivative must be
    nonnegative at the left edge and nonpositive at the right edge.  Only
    unconverged seeds are evaluated again.
    """
    tol = NEWTON_TOL * np.maximum(e.d1_bound(r), 1e-300)
    lo = seeds - step
    hi = seeds + step
    chk = np.arange(seeds.size)  # seeds whose bracket is not yet verified
    for _ in range(3):
        f, _ = e.d1d2(np.concatenate([r[chk], r[chk]]), np.concatenate([lo[chk], hi[chk]]))
        bad_lo = f[: chk.size] < 0
        bad_hi = f[chk.size :] > 0
        if not bad_lo.any() and not bad_hi.any():
            break
        lo[chk[bad_lo]] -= step[chk[bad_lo]]
        hi[chk[bad_hi]] += step[chk[bad_hi]]
        chk = chk[bad_lo | bad_hi]
    else:
        raise RefinementFailureError(float(r[chk[0]]), float(seeds[chk[0]]))

    x = seeds.astype(float).copy()
    act = np.arange(x.size)  # unconverged seeds
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
        act = act[~conv]
        if act.size == 0:
            break
    else:
        raise RefinementFailureError(float(r[act[0]]), float(seeds[act[0]]))
    return x


def _scan_circles(e: ModulusExpansion, radii: np.ndarray, cfg: TraceConfig) -> list[CircleScan]:
    """All refined local maxima of every circle ``|z| = r`` for r in ``radii``.

    One blocked grid pass finds the seeds of all circles, one vectorized
    Newton/bisection solve refines them, and the per-circle post-processing
    (maximum guard, duplicate merge, co-maximality) runs on the flat arrays.
    """
    ridx, seeds, grid_used, spread = _grid_scan(e, radii, cfg.grid)
    r = radii[ridx]
    theta = _refine_maxima(e, r, seeds, TWO_PI / grid_used[ridx])
    osc = e.osc(r, theta)
    _, d2 = e.d1d2(r, theta)

    # guard: a refined point must be a (weak) maximum
    d2_tol = NEWTON_TOL * np.maximum(e.d2_bound(radii), 1e-300)
    bad = d2 > d2_tol[ridx]
    if bad.any():
        on_circle = np.flatnonzero(ridx == ridx[np.argmax(bad)])
        worst = on_circle[np.argmax(d2[on_circle])]
        raise RefinementFailureError(float(r[worst]), float(theta[worst]))

    order = np.lexsort((theta, ridx))
    theta, osc, ridx = reduce_angle(theta[order]), osc[order], ridx[order]

    # merge refined duplicates closer than 2 pi / (8 grid); the sequential
    # pass runs only on circles that have such a pair
    counts = np.bincount(ridx, minlength=radii.size)
    starts = np.cumsum(counts) - counts
    nxt = np.arange(1, theta.size + 1)
    nxt[starts + counts - 1] = starts
    merge_dist = TWO_PI / (8.0 * grid_used)
    close = (circ_dist(theta, theta[nxt]) < merge_dist[ridx]) & (counts[ridx] > 1)
    keep = np.ones(theta.size, dtype=bool)
    for c in sorted(set(ridx[close].tolist())):
        ths = theta[starts[c] : starts[c] + counts[c]].tolist()
        xs = osc[starts[c] : starts[c] + counts[c]].tolist()
        kc = keep[starts[c] : starts[c] + counts[c]]  # a view: writes reach keep
        for i in range(len(ths)):
            j = (i + 1) % len(ths)
            if kc[i] and kc[j] and scalar_circ_dist(ths[i], ths[j]) < merge_dist[c]:
                kc[i if xs[i] < xs[j] else j] = False
    theta, osc, ridx = theta[keep], osc[keep], ridx[keep]

    bounds = np.flatnonzero(np.diff(ridx)) + 1
    tie_threshold = TIE_TOL * spread
    top = np.maximum.reduceat(osc, np.concatenate([[0], bounds]))
    comax = osc >= top[ridx] - tie_threshold[ridx]
    mod2 = e.base(radii)[ridx] + osc
    ends = np.concatenate([bounds, [theta.size]]).tolist()
    return [
        CircleScan(
            r=float(radii[i]),
            thetas=theta[a:b],
            osc=osc[a:b],
            mod2=mod2[a:b],
            comax=comax[a:b],
            spread=float(spread[i]),
            tie_threshold=float(tie_threshold[i]),
            grid_used=int(grid_used[i]),
        )
        for i, a, b in zip(range(radii.size), [0] + ends[:-1], ends)
    ]


def circle_argmax(e: ModulusExpansion, r: float, cfg: TraceConfig) -> list[tuple[float, float]]:
    """Newton-refined global maximizers of ``|p|^2`` on the circle |z| = r.

    Returns ``(theta, mod2)`` pairs for every maximizer whose value lies
    within ``TIE_TOL * (max - min)`` of the refined global maximum.
    """
    scan = _scan_circles(e, np.array([r], dtype=float), cfg)[0]
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
    scans = _scan_circles(e, radii, cfg)

    # -- link maximizer trajectories across radii (descending) ----------
    trajs: dict[int, dict] = {}
    curves: dict[int, dict] = {}
    raw_events: list[dict] = []
    next_traj = 0
    next_curve = 0
    omega_list = omega.tolist()
    for idx, scan in enumerate(scans):
        r = float(radii[idx])
        step = TWO_PI / scan.grid_used
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
