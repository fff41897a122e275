"""The root solve of a trace: the critical points of
``theta -> |1 + q(r e^{i theta})|^2`` on many circles at once, from each
circle's Fourier coefficients ``C_n`` and their r-derivatives alone.  The
entry point is :func:`critical_points`; :func:`_derivative_roots` derives
the polynomial it solves and :func:`_group_roots` how it is solved.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import RefinementFailureError
from .util import EPS

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


def critical_points(cn: np.ndarray, radii: np.ndarray, fourier_dr):
    """Every critical point of ``theta -> |1 + q(r e^{i theta})|^2`` on every
    circle: the roots of :func:`_derivative_roots` within ``ON_CIRCLE`` of
    the unit circle.  Row i of ``cn`` holds the ``C_n``, n = 1..D, of the
    radius ``radii[i]``, and ``fourier_dr(r)`` gives the rows ``dC_n/dr`` at
    the radii ``r``.

    Returns ``(radius_index, theta)``, sorted by radius index, then angle.
    """
    ridx, theta = [], []
    for rows, w in _derivative_roots(cn, radii, fourier_dr):
        row, col = np.nonzero(np.abs(np.abs(w) - 1.0) < ON_CIRCLE)
        ridx.append(rows[row])
        theta.append(np.angle(w[row, col]))
    ridx = np.concatenate(ridx)
    theta = np.concatenate(theta)
    order = np.lexsort((theta, ridx))
    return ridx[order], theta[order]


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


def _derivative_roots(cn: np.ndarray, radii: np.ndarray, fourier_dr):
    """Roots ``w`` of ``w^D d/dtheta |1 + q(r w)|^2`` for every circle; row
    i of ``cn`` holds the ``C_n`` of radius ``radii[i]``, and ``fourier_dr``
    gives their r-derivatives (see :func:`critical_points`).

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

    Where every ``C_n`` is real, as for a real polynomial or one turned onto
    its reflection axis (:func:`~maxmod.modulus.on_axis`), R is odd:
    ``R(t) = t S(t^2)``, ``S`` of degree ``d - 1`` in
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
    odd = not cn.imag.any()  # every C_n real: R(t) = t S(t^2), solve S in u = t^2
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
            t = _group_roots(fourier_dr, d, odd, coef[kept_r == m, : m + 1], radii[sub])
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
    (``n C_n`` or ``n dC_n/dr``) of d orders, column k holding the
    coefficient of ``t^k``: R, ``sum_{n=1}^{d} Im(nc[:, n-1] (1+it)^{d+n}
    (1-it)^{d-n})``, or, where R is ``odd`` (every ``C_n`` real), S, whose
    column j holds R's coefficient of ``t^(2j+1)``."""
    table = _half_angle_table(d)
    if odd:
        return nc[:, :d].real @ table[:, 1::2]
    coef = np.empty((nc.shape[0], 2 * d + 1))
    coef[:, 0::2] = nc[:, :d].imag @ table[:, 0::2]
    coef[:, 1::2] = nc[:, :d].real @ table[:, 1::2]
    return coef


def _on_circle(t: np.ndarray) -> np.ndarray:
    """``w = (1+it)/(1-it)`` in real arithmetic, the same bits in any batch;
    no root exceeds about 2 / EPS, so no square overflows."""
    a, b = t.real, t.imag
    den = (1.0 + b) ** 2 + a**2
    return ((1.0 - a**2 - b**2) / den) + 1j * (2.0 * a / den)


def _group_roots(fourier_dr, d: int, odd: bool, lead: np.ndarray, r: np.ndarray) -> np.ndarray:
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
    Where m is at most ``EIGEN_DEGREE``, or the group has no circle but its
    first and last, every circle is an anchor.
    """
    m = lead.shape[1] - 1
    if m == 0:
        return np.empty((lead.shape[0], 0), dtype=complex)
    if m <= EIGEN_DEGREE or lead.shape[0] <= 2:
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
    start = _euler_start(fourier_dr, d, odd, lead[at], t[at], r[at], near, r[follow])
    block = max(1, ABERTH_BLOCK // (m * m))
    for s in range(0, follow.size, block):
        i = follow[s : s + block]
        t[i], ok = _aberth(lead[i], start[s : s + block])
        if not ok.all():  # no uncertified root goes on
            t[i[~ok]] = _companion_roots(lead[i[~ok]])
    return t


def _euler_start(fourier_dr, d: int, odd: bool, lead_a, t_a, r_a, near, r) -> np.ndarray:
    """Aberth starts of the followers of one group of :func:`_group_roots`:
    follower i takes the roots ``t_a[near[i]]`` of its anchor's polynomial
    ``lead_a[near[i]]`` (of degree m, from ``d`` orders ``C_n``) at radius
    ``r_a[near[i]]`` one Euler step along ``dt/dr = -R_r(t) / R'(t)`` to its
    radius ``r[i]``.  ``R_r`` is R (S where ``odd``) with every ``C_n``
    replaced by ``dC_n/dr`` (``fourier_dr(r_a)``); it and ``R'`` are
    evaluated by Horner at the anchors' roots only.  A start that is not
    finite, as where a root near ``t = inf`` overflows, is the anchor's root.
    """
    m = lead_a.shape[1] - 1
    both = np.zeros((2,) + lead_a.shape)  # R_r and R' (of degree m - 1)
    both[0] = _solve_coef(np.arange(1, d + 1) * fourier_dr(r_a)[:, :d], d, odd)[:, : m + 1]
    both[1, :, :m] = lead_a[:, 1:] * np.arange(1, m + 1)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        r_r, r_t = _polyval(both, t_a)
        start = t_a[near] - (r - r_a[near])[:, None] * (r_r / r_t)[near]
    return np.where(np.isfinite(start), start, t_a[near])
