"""Small shared helpers: angle reduction and canonical JSON."""

from __future__ import annotations

import json
import math

import numpy as np

TWO_PI = 2.0 * math.pi
_FOLD_EDGES = np.array([-math.pi, math.pi])
_FOLD = np.array([-TWO_PI, 0.0, TWO_PI])


def reduce_angle(theta):
    """Reduce an angle (scalar or array) to the interval (-pi, pi].

    Exact and odd: an angle in (-pi, pi] comes back bit for bit, and
    ``reduce_angle(-x) == -reduce_angle(x)`` unless the result is pi, the
    image of -pi.  ``fmod`` by the float 2 pi is exact and odd, and folding
    its result into (-pi, pi] adds or subtracts 2 pi once, exactly by
    Sterbenz's lemma.
    """
    r = np.fmod(theta, TWO_PI)
    # r <= -pi, -pi < r <= pi and pi < r subtract -2 pi, 0.0 and 2 pi;
    # r - 0.0 keeps the sign of a zero
    r = r - _FOLD.take(_FOLD_EDGES.searchsorted(r))
    return float(r) if np.ndim(r) == 0 else r


def circ_dist(a, b):
    """Shortest angular distance |a - b| on the circle.

    Mirror-exact: ``circ_dist(-a, -b) == circ_dist(a, b)`` bit for bit, -pi
    and pi being one point.  Where ``|a - b| > pi`` the two are reduced to
    (-pi, pi], and the short way through the seam at pi has the length
    ``(pi - |a|) + (pi - |b|)``, not ``2 pi - |a - b|``, whose rounded
    ``|a - b|`` would differ between ``pi, -x`` and its mirror ``pi, x``.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    d = np.abs(a - b)
    seam = d > math.pi
    if seam.any():
        a, b = reduce_angle(a), reduce_angle(b)
        short = np.minimum(np.abs(a - b), (math.pi - np.abs(a)) + (math.pi - np.abs(b)))
        d = np.where(seam, short, d)
    if np.ndim(a) == 0 and np.ndim(b) == 0:
        return float(d)
    return d


def canonical_json(obj) -> str:
    """Deterministic JSON: sorted keys, no spaces, round-trip float repr."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)
