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


def canonical_json(obj) -> str:
    """Deterministic JSON: sorted keys, no spaces, round-trip float repr."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)
