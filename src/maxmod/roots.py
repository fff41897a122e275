"""The root solve of a trace: the critical points of
``theta -> |1 + q(r e^{i theta})|^2`` on many circles at once, from each
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
(:func:`_window_roots`).  Every other circle is eigen-solved: its critical
points are the real roots of a polynomial in the half angle
(:func:`_derivative_roots`), found by a batched eigenvalue solve of its
companion matrix.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from . import _kernels
from .errors import RefinementFailureError
from .util import EPS, reduce_angle

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


def critical_points(cn: np.ndarray, radii: np.ndarray):
    """Every critical point of ``theta -> |1 + q(r e^{i theta})|^2`` on every
    circle.  Row i of ``cn`` holds the ``C_n``, n = 1..D, of the radius
    ``radii[i]``.  A circle whose solved polynomial has degree above
    ``EIGEN_DEGREE`` and that :func:`_certified` certifies is solved in its
    windows (:func:`_window_roots`); on every other circle the critical
    points are the roots of :func:`_derivative_roots` within ``ON_CIRCLE``
    of the unit circle.

    Returns ``(radius_index, theta)``, sorted by radius index, then angle.
    """
    deg = cn.shape[1]
    odd = not cn.imag.any()  # every C_n real: see _derivative_roots
    win = np.zeros(cn.shape[0], dtype=bool)
    if (deg - 1 if odd else 2 * deg) > EIGEN_DEGREE:
        nc = np.arange(1, deg + 1) * cn
        mag = np.abs(nc)
        kept = _kept_orders(mag)
        win = ((kept - 1 if odd else 2 * kept) > EIGEN_DEGREE) & _certified(mag)
    ridx, theta = [], []
    if win.any():
        rows = np.flatnonzero(win)
        i, th = _window_roots(nc[rows], mag[rows], radii[rows], odd)
        ridx.append(rows[i])
        theta.append(th)
    eig = np.flatnonzero(~win)
    if eig.size:
        for rows, w in _derivative_roots(cn[eig], radii[eig]):
            row, col = np.nonzero(np.abs(np.abs(w) - 1.0) < ON_CIRCLE)
            ridx.append(eig[rows[row]])
            theta.append(np.angle(w[row, col]))
    ridx = np.concatenate(ridx)
    theta = np.concatenate(theta)
    order = np.lexsort((theta, ridx))
    return ridx[order], theta[order]


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


def _window_roots(nc: np.ndarray, mag: np.ndarray, radii: np.ndarray, odd: bool):
    """The critical points of the certified circles whose rows ``n C_n`` are
    ``nc`` (``mag`` their moduli) at the radii ``radii``: one zero of F in
    each window ``|phi - j pi| < pi/2`` of the module docstring.

    All windows of all circles take one vectorized Newton iteration with
    bisection, started at the window centre ``theta = (j pi - arg C_{n*}) /
    n*``.  On window j, ``g = (-1)^j F / 2 = (-1)^(j+1) Im sum_n n C_n w^n``
    is positive at the left end and negative at the right, and ``g' =
    (-1)^(j+1) Re sum_n n^2 C_n w^n`` is negative where g can vanish; both
    come from one Horner pass (:func:`~maxmod._kernels.fourier_sum`).  The
    bracket and the Newton guard are those of the tracer's refinement of
    maxima: the bracket end on the side of g's sign moves to the iterate,
    and a Newton step is taken only where ``g' < 0`` and it lands strictly
    inside the bracket, else the bracket is bisected.  A point whose
    ``|g|`` is at rounding level takes one more such step and stops.

    Where every ``C_n`` is real (``odd``), F is odd in theta and ``arg
    C_{n*}`` is 0 or pi, so windows are centred on the axis points 0 and pi,
    which are exact zeros.  Only the centres ``k pi / n*`` in (0, pi) are
    solved; each zero x comes back with its exact mirror -x, and the axis
    points as 0 and -pi, as from :func:`_derivative_roots`.

    Returns ``(row_index, theta)`` in no particular order.
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
    sign = np.where(j % 2 == 0, -1.0, 1.0)  # (-1)^(j+1)
    half = 0.5 * math.pi / n[i]
    lo, hi = centre - half, centre + half
    tol = (WINDOW_TOL * nc.shape[1] * EPS) * mag.sum(axis=1)[i]
    coef = np.stack([nc, np.arange(1, nc.shape[1] + 1) * nc])
    x = centre.copy()
    act = np.arange(x.size)  # unconverged points
    for _ in range(WINDOW_MAX_ITER):
        xa = x[act]
        s1, s2 = _kernels.fourier_sum(coef[:, i[act]], xa)
        g = sign[act] * s1.imag
        dg = sign[act] * s2.real
        la = np.where(g > 0, xa, lo[act])
        ha = np.where(g <= 0, xa, hi[act])
        conv = (np.abs(g) <= tol[act]) | ((ha - la) <= 16 * EPS)
        newt = xa - g / np.where(dg != 0.0, dg, 1.0)
        ok = (dg < 0.0) & (newt > la) & (newt < ha) & np.isfinite(newt)
        x[act] = np.where(ok, newt, np.where(conv, xa, 0.5 * (la + ha)))
        lo[act] = la
        hi[act] = ha
        act = act[~conv]
        if act.size == 0:
            break
    else:
        raise RefinementFailureError(float(radii[i[act[0]]]), float(centre[act[0]]))
    if not odd:
        return i, reduce_angle(x)
    axis = [np.zeros(rows.size), np.full(rows.size, -math.pi)]
    return np.concatenate([i, i, rows, rows]), np.concatenate([x, -x, *axis])


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
