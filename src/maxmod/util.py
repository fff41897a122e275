"""Small shared helpers: angle reduction and canonical JSON."""

from __future__ import annotations

import json
import math

import numpy as np

TWO_PI = 2.0 * math.pi


def reduce_angle(theta):
    """Reduce an angle (scalar or array) to the interval (-pi, pi]."""
    th = np.remainder(theta, TWO_PI)
    th = np.where(th > math.pi, th - TWO_PI, th)
    if np.ndim(theta) == 0:
        return float(th)
    return th


def circ_dist(a, b):
    """Shortest angular distance |a - b| on the circle."""
    d = np.abs(reduce_angle(np.asarray(a, dtype=float) - np.asarray(b, dtype=float)))
    if np.ndim(a) == 0 and np.ndim(b) == 0:
        return float(d)
    return d


def scalar_reduce_angle(theta: float) -> float:
    """:func:`reduce_angle` for one Python float, bit for bit: float ``%``
    and ``np.remainder`` round alike."""
    th = theta % TWO_PI
    return th - TWO_PI if th > math.pi else th


def scalar_circ_dist(a: float, b: float) -> float:
    """:func:`circ_dist` for two Python floats, bit for bit."""
    return abs(scalar_reduce_angle(a - b))


def canonical_json(obj) -> str:
    """Deterministic JSON: sorted keys, no spaces, round-trip float repr."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)
