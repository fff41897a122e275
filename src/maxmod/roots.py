"""The root solve of a trace: the critical points of
``theta -> |1 + q(r e^{i theta})|^2`` on many circles at once, each one
sorted into a maximum or a minimum and every maximum polished, from each
circle's Fourier coefficients ``C_n`` alone.  The entry point is
:func:`critical_points`.

Near 0 the lowest tail term governs ``|1 + q|^2`` (Hayman's result), and on
most circles one order governs its derivative.  With ``a_n = n |C_n|``,
``n* = argmax a_n``, ``A = a_{n*}`` and ``phi = n* theta + arg C_{n*}``,

    ``F = d/dtheta |1 + q|^2 = -2 A sin(phi) + E``,  ``|E| <= 2 A x``,
    ``F' = -2 n* A cos(phi) + E'``,  ``|E'| <= 2 n* A y``,

with ``x = (sum a_n - A) / A`` and ``y = (sum n a_n - n* A) / (n* A)``.  If
``x^2 + y^2 < 1``, F has exactly 2 n* zeros, one in each window
``|phi - j pi| < pi/2``: at a window's ends ``|sin(phi)| = 1`` and F has the
sign of ``-sin(phi)``, opposite at the two ends; F can vanish only where
``|sin(phi)| <= x``, and there ``|cos(phi)| >= sqrt(1 - x^2) > y``, so F is
strictly monotone.  The zeros of even j are the maxima.  A circle so
certified from its own row (:func:`_certified`) is solved in its windows by
one bracketed Newton iteration over all windows of all certified circles
(:func:`_window_roots`), and the window's index gives each point's kind: no
point of such a circle is evaluated again.  Every other circle is
eigen-solved (:func:`_eigen_points`): its critical points are the real roots
of a polynomial in the half angle (:func:`_derivative_roots`), found by a
batched eigenvalue solve of its companion matrix, sorted into maxima and
minima by the sign of F' at each and checked against F at the midpoints
between neighbours, and its maxima are polished by the same bracketed
Newton iteration (:func:`_newton`).  Evaluating and polishing every circle's
points a second time cost about an eighth of a trace: without it the
benchmark's random_count workload went from 195 to 235 traces/s (medians of
10 alternating 20 s runs each, shared 2-core host), with every output the
same bit for bit.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from . import _kernels
from .errors import RefinementFailureError
from .util import EPS, TWO_PI, reduce_angle

# A root t of the half-angle polynomial (see _derivative_roots), mapped to
# w = (1+it)/(1-it), is a critical point of its circle when
# |abs(w) - 1| < ON_CIRCLE.  Real roots land within a few ulps of the
# circle.  A max-min pair that has met at a fold and left the circle, with
# |d/dtheta| >= delta between the two, is a complex pair t, conj(t), which
# maps to w and 1/conj(w) with |abs(w) - 1| ~ sqrt(2 delta / |d^3/dtheta^3|);
# the bound accepts it only for delta below about 5e-13 |d^3/dtheta^3|, on a
# circle within roundoff of the fold.
ON_CIRCLE = 1e-6
# A circle whose solved polynomial (R of degree 2d, or S of degree d - 1 on
# real rows, before top orders are dropped; see _derivative_roots) has
# degree at most EIGEN_DEGREE is eigen-solved without a certificate, and a
# trace made only of such circles forms no certificate at all.  A batched
# solve of companion matrices of order 1-3 costs less than the window solve:
# a magic cubic on its axis (S of degree 2) traced at 160 radii took 3.3 ms
# so, against 4.0 ms with its certified circles window-solved.
EIGEN_DEGREE = 3
# A circle is certified when x^2 + y^2 < CERTIFY (see the module docstring).
# Any constant below 1 proves the window count in exact arithmetic; the
# floats need the edge margin.  At a window's end |F| >= 2 A (1 - x), and
# x < sqrt(CERTIFY) makes that more than A / 10.  The computed F, one Horner
# pass over D orders, is off by at most about 4 (D + 1) EPS sum a_n
# <= 8 (D + 1) EPS A, which stays far below A / 10 for every degree a float
# trace reaches, so the signs at the window ends that bracket each zero are
# the exact ones.
CERTIFY = 0.9
# The window solve stops where |F / 2| <= WINDOW_TOL D EPS sum a_n, within
# the rounding of its Horner pass, and then takes one more Newton step inside
# the bracket; or where the bracket is a few ulps wide.  A bisection halves
# a window of width pi / n* below 16 EPS in under 55 steps.
WINDOW_TOL = 4.0
WINDOW_MAX_ITER = 64
# The polish of an eigen-solved maximum stops when |F| is below NEWTON_TOL
# times an upper bound for |F| on its circle, or its bracket is a few ulps
# wide; it fails after NEWTON_MAX_ITER steps.  The same bound for |F'|,
# times NEWTON_TOL, is the most F' may exceed 0 at a polished maximum.
NEWTON_TOL = 1e-12
NEWTON_MAX_ITER = 60


def critical_points(cn: np.ndarray, radii: np.ndarray, bounds):
    """Every critical point of ``theta -> |1 + q(r e^{i theta})|^2`` on every
    circle, with its kind.  Row i of ``cn`` holds the ``C_n``, n = 1..D, of
    the radius ``radii[i]``.  A circle whose solved polynomial has degree
    above ``EIGEN_DEGREE`` and that :func:`_certified` certifies is solved in
    its windows (:func:`_window_roots`); every other circle is eigen-solved
    and its maxima polished (:func:`_eigen_points`).  ``bounds(rows)``
    returns, for the circles ``rows`` (indices into ``cn``), upper bounds of
    ``|F|`` and ``|F'|`` on each; it is called only for eigen-solved
    circles, so a call whose every circle is certified forms none.

    Returns ``(radius_index, theta, is_max)``, sorted by radius index, then
    by the angle before polishing.  Every maximum is polished within its
    bracket, whose ends are the midpoints to its neighbours on the circle or
    its window's edges, so the first or last maximum of a circle may lie a
    little past -pi or pi.
    Raises :class:`~maxmod.errors.RefinementFailureError` where a circle
    cannot be solved, sorted or polished.
    """
    deg = cn.shape[1]
    odd = not cn.imag.any()  # every C_n real: see _derivative_roots
    win = np.zeros(cn.shape[0], dtype=bool)
    if (deg - 1 if odd else 2 * deg) > EIGEN_DEGREE:
        nc = np.arange(1, deg + 1) * cn
        mag = np.abs(nc)
        kept = _kept_orders(mag)
        win = ((kept - 1 if odd else 2 * kept) > EIGEN_DEGREE) & _certified(mag)
    parts = []
    if win.any():
        rows = np.flatnonzero(win)
        i, th, is_max = _window_roots(nc[rows], mag[rows], radii[rows], odd)
        order = np.lexsort((th, i))
        parts.append((rows[i[order]], th[order], is_max[order]))
    eig = np.flatnonzero(~win)
    if eig.size:
        i, th, is_max = _eigen_points(cn[eig], radii[eig], *bounds(eig))
        parts.append((eig[i], th, is_max))
    ridx, theta, is_max = (np.concatenate(x) for x in zip(*parts))
    order = np.argsort(ridx, kind="stable")  # each part is sorted already
    return ridx[order], theta[order], is_max[order]


def _kept_orders(mag: np.ndarray) -> np.ndarray:
    """Per row of ``mag`` (``n |C_n|``), the highest order n whose ``n |C_n|``
    exceeds ``EPS`` times the row's largest (see :func:`_derivative_roots`)."""
    top = mag.max(axis=1)
    return mag.shape[1] - np.argmax((mag > EPS * top[:, None])[:, ::-1], axis=1)


def _certified(mag: np.ndarray) -> np.ndarray:
    """The rows of ``mag`` (``a_n = n |C_n|``, column n-1) with
    ``x^2 + y^2 < CERTIFY``, x and y as in the module docstring.  A row with
    no finite positive ``a_n`` gives NaN and is not certified."""
    star = np.argmax(mag, axis=1)
    a = mag[np.arange(mag.shape[0]), star]
    with np.errstate(divide="ignore", invalid="ignore"):
        x = mag.sum(axis=1) / a - 1.0
        y = (mag @ np.arange(1.0, mag.shape[1] + 1)) / ((star + 1.0) * a) - 1.0
    return x * x + y * y < CERTIFY


def _slopes(coef: np.ndarray, i: np.ndarray, theta: np.ndarray, sign):
    """``sign Im s_1`` and ``sign Re s_2`` at ``theta[k]`` on row ``i[k]``,
    where ``s_m = sum_n coef[m-1, i[k], n-1] w^n`` (one Horner pass,
    :func:`~maxmod._kernels.fourier_sum`).  With ``coef = [n C_n, n^2 C_n]``
    and ``sign = -2`` they are F and F'."""
    s1, s2 = _kernels.fourier_sum(coef[:, i], theta)
    return sign * s1.imag, sign * s2.real


def _newton(coef, i, x0, lo, hi, sign, tol, radii, max_iter: int, polish: bool):
    """One vectorized Newton iteration with bisection for all points: point
    k solves ``g = 0`` for ``g, g' = _slopes(coef, i, theta, sign)`` at
    ``theta`` on row ``i[k]``, from ``x0[k]`` inside the bracket
    ``[lo[k], hi[k]]``, on whose left end g is positive and on whose right
    end it is not.  The bracket end on the side of g's sign moves to the
    iterate, and a Newton step is taken only where ``g' < 0`` and it lands
    strictly inside the bracket, else the bracket is bisected.  A point has
    converged where ``|g| <= tol[k]`` or its bracket is a few ulps wide;
    with ``polish`` it then takes one more such Newton step, else it stays.
    Only unconverged points are evaluated again.

    Returns the zeros and ``g'`` at the last angle each point evaluated;
    raises :class:`~maxmod.errors.RefinementFailureError` at the radius
    (``radii[i[k]]``) and start of the first point that has not converged
    after ``max_iter`` steps.
    """
    x, lo, hi = x0.copy(), lo.copy(), hi.copy()
    dg_x = np.empty_like(x)
    act = np.arange(x.size)  # unconverged points
    for _ in range(max_iter):
        xa = x[act]
        g, dg = _slopes(coef, i[act], xa, sign[act])
        la = np.where(g > 0, xa, lo[act])
        ha = np.where(g <= 0, xa, hi[act])
        conv = (np.abs(g) <= tol[act]) | ((ha - la) <= 16 * EPS)
        newt = xa - g / np.where(dg != 0.0, dg, 1.0)
        ok = (dg < 0.0) & (newt > la) & (newt < ha) & np.isfinite(newt)
        if not polish:
            ok &= ~conv
        x[act] = np.where(ok, newt, np.where(conv, xa, 0.5 * (la + ha)))
        lo[act] = la
        hi[act] = ha
        dg_x[act] = dg
        act = act[~conv]
        if act.size == 0:
            return x, dg_x
    raise RefinementFailureError(float(radii[i[act[0]]]), float(x0[act[0]]))


def _window_roots(nc: np.ndarray, mag: np.ndarray, radii: np.ndarray, odd: bool):
    """The critical points of the certified circles whose rows ``n C_n`` are
    ``nc`` (``mag`` their moduli) at the radii ``radii``: one zero of F in
    each window ``|phi - j pi| < pi/2`` of the module docstring, a maximum
    for even j.

    All windows of all circles take one :func:`_newton` iteration with
    ``polish``, started at the window centre ``theta = (j pi - arg C_{n*}) /
    n*`` inside the window.  On window j, ``g = (-1)^j F / 2 = (-1)^(j+1) Im
    sum_n n C_n w^n`` is positive at the left end and negative at the right,
    and ``g' = (-1)^(j+1) Re sum_n n^2 C_n w^n`` is negative where g can
    vanish.  A point stops where ``|g| <= WINDOW_TOL D EPS sum a_n``, at the
    rounding level of its Horner pass.  A maximum's ``g'`` at the last angle
    the iteration evaluated is ``F' / 2`` there; the certificate makes it
    negative, and a maximum where it is not fails.

    The certificate also makes the checks that an eigen-solved circle needs
    (:func:`_eigen_points`) hold here without an evaluation: the circle has
    2 n* >= 2 critical points, n* maxima and n* minima, alternating; F is
    monotone in each window and has the sign of ``-sin(phi)`` at its ends,
    so ``F > 0`` from a minimum up to the next maximum and ``F < 0`` from a
    maximum up to the next minimum, and the midpoints between neighbours
    bracket every maximum.

    Where every ``C_n`` is real (``odd``), F is odd in theta and ``arg
    C_{n*}`` is 0 or pi, so windows are centred on the axis points 0 and pi,
    which are exact zeros.  Only the centres ``k pi / n*`` in (0, pi) are
    solved; each zero x comes back with its exact mirror -x, of the same
    kind, and the axis points as 0 and -pi, as from
    :func:`_derivative_roots`.  The point 0 is in window 0 or 1 and is a
    maximum iff ``C_{n*} > 0``; -pi is in window ``-n*`` or ``1 - n*`` and
    is a maximum iff ``(-1)^n* C_{n*} > 0``.

    Returns ``(row_index, theta, is_max)`` in no particular order.
    """
    rows = np.arange(nc.shape[0])
    star = np.argmax(mag, axis=1)
    n = star + 1.0
    lead = nc[rows, star]
    count = star if odd else 2 * (star + 1)  # windows solved per circle
    i = np.repeat(rows, count)
    j = np.arange(i.size) - np.repeat(np.cumsum(count) - count, count)
    if odd:  # centres k pi / n*, k = 1..n*-1; a negative C_{n*} turns phi by pi
        j += 1
        centre = j * math.pi / n[i]
        j += lead.real[i] < 0.0
    else:
        centre = (j * math.pi - np.angle(lead)[i]) / n[i]
    is_max = j % 2 == 0
    sign = np.where(is_max, -1.0, 1.0)  # (-1)^(j+1)
    half = 0.5 * math.pi / n[i]
    tol = (WINDOW_TOL * nc.shape[1] * EPS) * mag.sum(axis=1)[i]
    coef = np.stack([nc, np.arange(1, nc.shape[1] + 1) * nc])
    x, dg = _newton(coef, i, centre, centre - half, centre + half, sign, tol, radii, WINDOW_MAX_ITER, True)
    bad = is_max & ~(dg < 0.0)
    if bad.any():
        k = np.argmax(bad)
        raise RefinementFailureError(float(radii[i[k]]), float(x[k]))
    if not odd:
        return i, reduce_angle(x), is_max
    axis = [np.zeros(rows.size), np.full(rows.size, -math.pi)]
    axis_max = [lead.real > 0.0, (-1.0) ** n * lead.real > 0.0]
    return (
        np.concatenate([i, i, rows, rows]),
        np.concatenate([x, -x, *axis]),
        np.concatenate([is_max, is_max, *axis_max]),
    )


def _eigen_points(cn: np.ndarray, radii: np.ndarray, d1_bound: np.ndarray, d2_bound: np.ndarray):
    """The critical points of the circles whose rows ``C_n`` are ``cn``, at
    the radii ``radii``, eigen-solved: the roots of
    :func:`_derivative_roots` within ``ON_CIRCLE`` of the unit circle, each
    circle's in counterclockwise order from about -pi.  ``d1_bound`` and
    ``d2_bound`` bound ``|F|`` and ``|F'|`` on each circle.

    One Horner pass over ``[n C_n, n^2 C_n]`` (:func:`_slopes`) at the
    points and at the midpoints between circular neighbours gives F' at
    each point and F at each midpoint.  A point with ``F' < 0`` is a
    maximum, one with ``F' >= 0`` a minimum.  A circle fails with fewer than
    2 points, without a maximum or a minimum, or with a point of neither
    kind (F' is NaN); a maximum fails unless F is nonnegative at the
    midpoint before it and nonpositive at the one after, the ends of its
    bracket.  The maxima are then polished by one :func:`_newton` iteration
    without ``polish``, stopping at ``|F| <= NEWTON_TOL d1_bound``, and a
    polished maximum fails where ``F' > NEWTON_TOL d2_bound``.

    Returns ``(row_index, theta, is_max)`` sorted by row, then by the
    unpolished angle.
    """
    ridx, theta = [], []
    for rows, w in _derivative_roots(cn, radii):
        row, col = np.nonzero(np.abs(np.abs(w) - 1.0) < ON_CIRCLE)
        ridx.append(rows[row])
        theta.append(np.angle(w[row, col]))
    ridx = np.concatenate(ridx)
    theta = np.concatenate(theta)
    order = np.lexsort((theta, ridx))
    ridx, theta = ridx[order], theta[order]
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

    n = np.arange(1.0, cn.shape[1] + 1)
    coef = np.stack([n * cn, n * n * cn])
    f, d2 = _slopes(coef, np.concatenate([ridx, ridx]), np.concatenate([theta, mid]), -2.0)
    f_mid = f[theta.size :]
    d2 = d2[: theta.size]
    is_max = d2 < 0.0
    n_max = np.bincount(ridx[is_max], minlength=radii.size)
    n_min = np.bincount(ridx[d2 >= 0.0], minlength=radii.size)  # NaN is neither
    bad = (n_max == 0) | (n_min == 0) | (n_max + n_min < counts)
    if bad.any():
        raise RefinementFailureError(float(radii[np.argmax(bad)]), 0.0)
    mx = np.flatnonzero(is_max)
    bad = (f_mid[prv[mx]] < 0) | (f_mid[mx] > 0)
    if bad.any():
        worst = mx[np.argmax(bad)]
        raise RefinementFailureError(float(radii[ridx[worst]]), float(theta[worst]))

    i = ridx[mx]
    tol = NEWTON_TOL * np.maximum(d1_bound, 1e-300)
    sign = np.full(mx.size, -2.0)
    theta_mx, d2 = _newton(
        coef, i, theta[mx], mid_before[mx], mid[mx], sign, tol[i], radii, NEWTON_MAX_ITER, False
    )
    bad = d2 > NEWTON_TOL * np.maximum(d2_bound, 1e-300)[i]
    if bad.any():
        k = np.argmax(bad)
        raise RefinementFailureError(float(radii[i[k]]), float(theta_mx[k]))
    theta[mx] = theta_mx
    return ridx, theta, is_max


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


def _companion_roots(coef: np.ndarray) -> np.ndarray:
    """All roots of the real polynomials ``coef`` (row i: coefficients of
    ``t^0 .. t^m``, ``coef[i, m] != 0``), by one batched eigenvalue solve of
    their companion matrices; shape ``(rows, m)``."""
    m = coef.shape[1] - 1
    comp = np.zeros((coef.shape[0], m, m))
    comp[:, 0, :] = -coef[:, m - 1 :: -1] / coef[:, m, None]
    comp[:, np.arange(1, m), np.arange(m - 1)] = 1.0
    return np.linalg.eigvals(comp).astype(complex, copy=False)


def _derivative_roots(cn: np.ndarray, radii: np.ndarray):
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
    polynomial form a group, eigen-solved by one batched call
    (:func:`_companion_roots`).  Returns one ``(radius_indices, roots)``
    pair per group, ``roots`` of shape ``(len(radius_indices), 2d)``.
    """
    deg = cn.shape[1]
    nc = np.arange(1, deg + 1) * cn  # column n-1: n C_n
    mag = np.abs(nc)
    top = mag.max(axis=1)
    flat = ~((0.0 < top) & (top < np.inf))  # also NaN
    if flat.any():
        raise RefinementFailureError(float(radii[np.argmax(flat)]), 0.0)
    kept = _kept_orders(mag)
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
            t = _companion_roots(coef[kept_r == m, : m + 1]) if m else np.empty((sub.size, 0), complex)
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
    (``n C_n``) of d orders, column k holding the coefficient of ``t^k``: R,
    ``sum_{n=1}^{d} Im(nc[:, n-1] (1+it)^{d+n} (1-it)^{d-n})``, or, where R
    is ``odd`` (every ``C_n`` real), S, whose column j holds R's coefficient
    of ``t^(2j+1)``."""
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
