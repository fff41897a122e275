"""The root solve of a trace: the critical points of
``theta -> |1 + q(r e^{i theta})|^2`` on many circles at once, each one
sorted into a maximum or a minimum and every point polished, from each
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
strictly monotone.  The zeros of even j are the maxima.

Every circle's zeros of F are bracketed on one path (:func:`_brackets`),
by pieces ``[m - h, m + h]`` of the circle that each hold exactly one zero
of a known kind.  A circle so certified from its own row
(:func:`_certified`) starts with its windows as its pieces, and they are
decided without an evaluation.  Every other circle starts with 4D pieces,
which are decided or split by Taylor tests, where ``M2 = 2 sum n^2 a_n``
bounds ``|F''|``: a piece holds no zero of F if
``|F(m)| - |F'(m)| h - M2 h^2 / 2`` exceeds F's rounding, and exactly one,
simple, if ``|F'(m)| > M2 h`` and F has strict opposite signs at its ends;
the signs give its kind.

All points of all circles, maxima and minima, are then polished by one
bracketed Newton iteration (:func:`_newton`).

A certified circle cannot fail.  Each window brackets one simple zero of F
with strict signs at its ends, so the bracketed Newton iteration converges
on it within its ``WINDOW_MAX_ITER`` steps (bisection alone brings a window
below 16 EPS in under 55).  At the maximum of an even window
``|sin(phi)| <= x``, so ``F' <= -2 n* A (sqrt(1 - x^2) - y)``, and
``sqrt(1 - x^2) - y > 0.05`` wherever ``x^2 + y^2 < CERTIFY``: F' is
negative with a margin far beyond its rounding.  And the 2 n* windows hold
both kinds.  Every failure of a root solve therefore comes from a row
without a finite positive ``C_n`` or from an uncertified circle.

A solve reads its rows as a whole only for their width D and for whether
every ``C_n`` is real; everything else it does row by row.  So a row gives
the same points within any stack of rows of its width and all-real test.
A trace and a component count, which solves one row of each of many
polynomials in one call (:func:`maxmod.tracer.count_components`), ask for
mirror pairs only where the expansion is real, so they solve a row alike;
no caller reads the certificate outside a solve.
"""

from __future__ import annotations

import math

import numpy as np

from . import _kernels
from .errors import RefinementFailureError
from .util import EPS, reduce_angle

# A circle is certified when x^2 + y^2 < CERTIFY (see the module docstring).
# Any constant below 1 proves the window count in exact arithmetic; the
# floats need the edge margin.  At a window's end |F| >= 2 A (1 - x), and
# x < sqrt(CERTIFY) makes that more than A / 10.  The computed F, one Horner
# pass over D orders, is off by at most about 4 (D + 1) EPS sum a_n
# <= 8 (D + 1) EPS A, which stays far below A / 10 for every degree a float
# trace reaches, so the signs at the window ends that bracket each zero are
# the exact ones.
CERTIFY = 0.9
# The subdivision of an uncertified circle takes F's rounding to be
# ROUNDING (D + 1) EPS sum a_n, twice the estimate above; like it, an
# estimate of the Horner pass's error, not a proof.  A circle fails where a
# piece holds a fold of F within that rounding (see _brackets), or, as a
# backstop, where a piece is still undecided after ISOLATE_DEPTH splits in
# three, at a half-width of pi / (4 D 3^ISOLATE_DEPTH) < 1.4e-12 / D.
ROUNDING = 8.0
ISOLATE_DEPTH = 24
# Newton stops where |F / 2| <= WINDOW_TOL D EPS sum a_n, within the
# rounding of its Horner pass, and then takes one more Newton step inside
# the bracket; or where the bracket is a few ulps wide.  A bisection halves
# a window of width pi / n* below 16 EPS in under 55 steps.
WINDOW_TOL = 4.0
WINDOW_MAX_ITER = 64


def critical_points(cn: np.ndarray, radii: np.ndarray, mirror: bool = True):
    """Every critical point of ``theta -> |1 + q(r e^{i theta})|^2`` on every
    circle, with its kind.  Row i of ``cn`` holds the ``C_n``, n = 1..D, of
    the radius ``radii[i]``.  :func:`_brackets` brackets each zero of F, by
    a window on a circle that :func:`_certified` certifies and by
    subdivision on every other, and all points of all circles are then
    polished by one :func:`_newton` iteration, started inside their
    brackets: on bracket j, ``g = +-F / 2`` is positive at the left end and
    not at the right (``g = F / 2`` for a maximum), and Newton stops where
    ``|g| <= WINDOW_TOL D EPS sum a_n``, at the rounding level of its
    Horner pass.  A maximum's ``g'`` at the last angle the iteration
    evaluated is ``F' / 2`` there; the certificate and the subdivision's
    inclusion test both make it negative, and a maximum where it is not
    fails.

    Where every ``C_n`` is real (``odd``), as for a real polynomial or one
    turned onto its reflection axis (:func:`~maxmod.modulus.on_axis`), F is
    odd in theta and the axis points 0 and pi are exact zeros.  Only
    ``(0, pi)`` is solved; each zero x comes back with its exact mirror -x,
    of the same kind, and the axis points as 0 and -pi.  With ``mirror``
    false, all-real rows are solved on the whole circle, as complex rows
    are: as they would be within a stack of complex rows.

    Returns ``(radius_index, theta, is_max)``, sorted by radius index, then
    by angle in ``(-pi, pi]`` (``-pi`` for the axis point pi).  Raises
    :class:`~maxmod.errors.RefinementFailureError` where a circle has no
    finite positive ``C_n``, cannot be isolated or polished.
    """
    deg = cn.shape[1]
    odd = mirror and not cn.imag.any()
    n, nc, mag, total = _orders(cn, radii)
    coef = np.stack([nc.T, (n * nc).T], axis=1)  # order-major, see _slopes
    i, m, h, x0, is_max = _brackets(coef, mag, total, radii, odd)
    if odd:  # the pieces centred on the axis points hold their exact zeros
        on_axis = (m == 0.0) | (m == math.pi)
        axis = i[on_axis], np.where(m[on_axis] == 0.0, 0.0, -math.pi), is_max[on_axis]
        i, m, h, x0, is_max = (v[~on_axis] for v in (i, m, h, x0, is_max))
    sign = np.where(is_max, -1.0, 1.0)
    tol = (WINDOW_TOL * deg * EPS) * total[i]
    x, dg = _newton(coef, i, x0, m - h, m + h, sign, tol, radii)
    bad = is_max & ~(dg < 0.0)
    if bad.any():
        k = np.argmax(bad)
        raise RefinementFailureError(float(radii[i[k]]), float(x[k]))
    if odd:  # each zero x in (0, pi), its mirror -x, then the axis points
        i, x, is_max = (np.concatenate(v) for v in zip((i, x, is_max), (i, -x, is_max), axis))
    else:
        x = reduce_angle(x)
    order = np.lexsort((x, i))
    return i[order], x[order], is_max[order]


def _orders(cn: np.ndarray, radii: np.ndarray):
    """``n``, ``n C_n`` and ``a_n = n |C_n|`` of the rows ``cn``, n = 1..D,
    and each row's sum of the ``a_n``.  Raises a
    :class:`~maxmod.errors.RefinementFailureError` at the radius of the
    first row without a finite positive ``a_n``."""
    n = np.arange(1, cn.shape[1] + 1)
    nc = n * cn
    mag = np.abs(nc)
    top = mag.max(axis=1)
    flat = ~((0.0 < top) & (top < np.inf))  # also NaN
    if flat.any():
        raise RefinementFailureError(float(radii[np.argmax(flat)]), 0.0)
    return n, nc, mag, mag.sum(axis=1)


def _certified(mag: np.ndarray, total: np.ndarray) -> np.ndarray:
    """The rows of ``mag`` (``a_n = n |C_n|``, column n-1; ``total`` their
    sums) with ``x^2 + y^2 < CERTIFY``, x and y as in the module docstring.
    Every ``a_n`` is finite and each row has a positive one: :func:`_orders`
    has rejected the other rows."""
    star = np.argmax(mag, axis=1)
    a = mag[np.arange(mag.shape[0]), star]
    x = total / a - 1.0
    y = (mag @ np.arange(1.0, mag.shape[1] + 1)) / ((star + 1.0) * a) - 1.0
    return x * x + y * y < CERTIFY


def _slopes(coef: np.ndarray, i: np.ndarray, theta: np.ndarray, sign):
    """``sign Im s_1`` and ``sign Re s_2`` at ``theta[k]`` on row ``i[k]``,
    where ``s_m = sum_n coef[n-1, m-1, i[k]] w^n``.  ``coef`` is laid out
    order-major, (D, 2, rows), and one Horner pass
    (:func:`~maxmod._kernels.fourier_sum`) gathers each order's two values
    for every point by ``take``, one order per step, so the pass holds
    (2, points) arrays, never a (2, points, D) block.  With
    ``coef[n-1] = [n C_n, n^2 C_n]`` and ``sign = -2`` they are F and F'."""
    s1, s2 = _kernels.fourier_sum(coef, theta, i)
    return sign * s1.imag, sign * s2.real


def _newton(coef, i, x0, lo, hi, sign, tol, radii):
    """One vectorized Newton iteration with bisection for all points: point
    k solves ``g = 0`` for ``g, g' = _slopes(coef, i, theta, sign)`` at
    ``theta`` on row ``i[k]``, from ``x0[k]`` inside the bracket
    ``[lo[k], hi[k]]``, on whose left end g is positive and on whose right
    end it is not.  The bracket end on the side of g's sign moves to the
    iterate, and a Newton step is taken only where ``g' < 0`` and it lands
    strictly inside the bracket, else the bracket is bisected.  A point has
    converged where ``|g| <= tol[k]`` or its bracket is a few ulps wide,
    and then takes one more such Newton step.  Only unconverged points are
    evaluated again.

    Returns the zeros and ``g'`` at the last angle each point evaluated;
    raises :class:`~maxmod.errors.RefinementFailureError` at the radius
    (``radii[i[k]]``) and start of the first point that has not converged
    after ``WINDOW_MAX_ITER`` steps.
    """
    x, lo, hi = x0.copy(), lo.copy(), hi.copy()
    dg_x = np.empty_like(x)
    act = np.arange(x.size)  # unconverged points
    for _ in range(WINDOW_MAX_ITER):
        xa = x[act]
        g, dg = _slopes(coef, i[act], xa, sign[act])
        la = np.where(g > 0, xa, lo[act])
        ha = np.where(g <= 0, xa, hi[act])
        conv = (np.abs(g) <= tol[act]) | ((ha - la) <= 16 * EPS)
        newt = xa - g / np.where(dg != 0.0, dg, 1.0)
        ok = (dg < 0.0) & (newt > la) & (newt < ha) & np.isfinite(newt)
        x[act] = np.where(ok, newt, np.where(conv, xa, 0.5 * (la + ha)))
        lo[act] = la
        hi[act] = ha
        dg_x[act] = dg
        act = act[~conv]
        if act.size == 0:
            return x, dg_x
    raise RefinementFailureError(float(radii[i[act[0]]]), float(x0[act[0]]))


def _brackets(coef, mag, total, radii, odd):
    """The brackets of the zeros of F on every circle: pieces
    ``[m - h, m + h]`` of the circle that hold one zero each, with its kind
    and a start inside.  ``coef`` holds ``[n C_n, n^2 C_n]`` of every
    circle, order-major as :func:`_slopes` reads it, ``mag`` the
    ``a_n = n |C_n|`` and ``total`` their sums.

    The pieces of a circle that :func:`_certified` certifies are its windows
    ``|phi - j pi| < pi/2`` of the module docstring, centred on
    ``m = (j pi - arg C_{n*}) / n*`` with ``h = pi / (2 n*)``.  The
    certificate decides them without an evaluation: F is monotone in each
    window and has the sign of ``-sin(phi)`` at its ends, so each holds one
    zero, a maximum for even j, whose ``g = (-1)^j F / 2`` is positive at
    the left end and negative at the right, with ``g'`` negative where g can
    vanish.  The centre is the start.

    Every other circle starts as 4D pieces of ``h = pi / (4D)`` centred on
    the multiples of ``2 h``.  One Horner pass per level over the pieces of
    all these circles gives F and F' at each centre m and F at each end, and
    with ``M2 = 2 sum n^2 a_n`` and F's rounding ``ROUNDING (D + 1) EPS sum
    a_n`` (an estimate, see ``CERTIFY``) a piece

    - holds no zero if ``|F(m)| - |F'(m)| h - M2 h^2 / 2`` exceeds the
      rounding, since ``|F''| <= M2``;
    - holds exactly one, a maximum if F falls through it, if
      ``|F'(m)| > M2 h``, so that F is strictly monotone on it, and F has
      strict opposite signs, beyond the rounding, at its two ends; the
      regula falsi point of the ends is its start;
    - is split in three otherwise, which keeps every centre a centre.

    A piece on which F stays within the rounding, ``|F(m)| + |F'(m)| h +
    M2 h^2 / 2`` at most the rounding, holds a fold of F within rounding: no
    test can decide it or any piece inside it.  Its circle fails at once, at
    its radius and that piece's centre, and so does a circle with a piece
    still undecided after ``ISOLATE_DEPTH`` splits.

    Where every ``C_n`` is real (``odd``), F is odd and ``arg C_{n*}`` is 0
    or pi, and only the pieces centred in ``[0, pi]`` are kept: the windows
    centred on ``j pi / n*``, j = 0..n*, and the 2D + 1 pieces of the
    subdivision.  Those centred on 0 and pi hold their exact zero there; the
    subdivision never excludes them and drops their children beyond 0 or pi.

    Returns ``(row, m, h, start, is_max)`` of the pieces, those of the
    certified circles first.
    """
    certified = _certified(mag, total)
    rows = np.flatnonzero(certified)
    star = np.argmax(mag[rows], axis=1)
    n = star + 1.0
    lead = coef[star, 0, rows]
    count = star + 2 if odd else 2 * (star + 1)  # windows per circle
    k = np.repeat(np.arange(rows.size), count)
    j = np.arange(k.size) - np.repeat(np.cumsum(count) - count, count)
    if odd:  # centres j pi / n*, j = 0..n*, the last exactly pi
        centre = j * math.pi / n[k]
        centre[np.cumsum(count) - 1] = math.pi
        j += lead.real[k] < 0.0  # a negative C_{n*} turns phi by pi
    else:
        centre = (j * math.pi - np.angle(lead)[k]) / n[k]
    found = [(rows[k], centre, 0.5 * math.pi / n[k], centre, j % 2 == 0)]

    rows = np.flatnonzero(~certified)
    deg = mag.shape[1]
    err = ROUNDING * (deg + 1) * EPS * total[rows]
    m2 = 2.0 * (mag[rows] @ np.arange(1.0, deg + 1) ** 2)
    h = math.pi / (4 * deg)
    k = np.arange(2 * deg + 1) if odd else np.arange(-2 * deg, 2 * deg)
    piece = np.repeat(np.arange(rows.size), k.size)  # index into rows
    m = np.tile(k * (2 * h), rows.size)
    if odd:
        m[k.size - 1 :: k.size] = math.pi
    depth = 0
    while m.size:
        p = m.size
        f, df = _slopes(coef, rows[np.tile(piece, 3)], np.concatenate([m, m - h, m + h]), -2.0)
        fm, f_lo, f_hi, slope = f[:p], f[p : 2 * p], f[2 * p :], np.abs(df[:p])
        e, bound = err[piece], m2[piece]
        falls = (f_lo > e) & (f_hi < -e)
        one = (slope > bound * h) & (falls | ((f_lo < -e) & (f_hi > e)))
        reach = slope * h + 0.5 * bound * h * h  # the most F moves from m
        none = np.abs(fm) - reach > e
        if odd:
            none &= (m != 0.0) & (m != math.pi)
        split = ~(one | none)
        stuck = split & (np.abs(fm) + reach <= e)  # F within rounding all over
        if stuck.any() or (depth == ISOLATE_DEPTH and split.any()):
            worst = np.argmax(stuck) if stuck.any() else np.argmax(split)
            raise RefinementFailureError(float(radii[rows[piece[worst]]]), float(m[worst]))
        lo = m[one] - h
        start = lo + 2 * h * f_lo[one] / (f_lo[one] - f_hi[one])  # regula falsi
        found.append((rows[piece[one]], m[one], np.full(lo.size, h), start, falls[one]))
        h /= 3.0
        piece = np.repeat(piece[split], 3)
        m = (m[split, None] + np.array([-2.0 * h, 0.0, 2.0 * h])).ravel()
        if odd:  # the children of the axis pieces beyond 0 and pi go
            inside = (m >= 0.0) & (m <= math.pi)
            piece, m = piece[inside], m[inside]
        depth += 1
    return tuple(np.concatenate(v) for v in zip(*found))
