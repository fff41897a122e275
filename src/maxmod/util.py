"""Small shared helpers: machine epsilon, angle reduction, canonical JSON, a
cached attribute and the one-write build of a frozen dataclass.

Both of the last two write a frozen instance's ``__dict__`` directly:
:class:`cached_attribute` adds a computed fact on its first read, and
:func:`frozen_instance` builds the values the package derives from input it
has already checked with one write of all their fields.  Equality,
hashing, ``repr``, pickling and the frozen ``__setattr__`` see the same
instance either way."""

from __future__ import annotations

import json
import math

import numpy as np

EPS = float(np.finfo(float).eps)
TWO_PI = 2.0 * math.pi
_FOLD_EDGES = np.array([-math.pi, math.pi])
_FOLD = np.array([-TWO_PI, 0.0, TWO_PI])


def reduce_angle(theta):
    """Reduce an angle (scalar or array) to the interval (-pi, pi].

    Exact and odd: an angle in (-pi, pi] comes back bit for bit, and
    ``reduce_angle(-x) == -reduce_angle(x)`` unless the result is pi, the
    image of -pi.  ``fmod`` by the float 2 pi is exact and odd, and folding
    its result into (-pi, pi] adds or subtracts 2 pi once, exactly by
    Sterbenz's lemma; the fold keeps the sign of a zero.  A scalar comes
    back as a ``float``, NaN for a non-finite one.
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


class cached_attribute:
    """Decorator for a method of no arguments whose value is computed on the
    first read and then kept as an instance attribute.

    It is :func:`functools.cached_property` without the ``RLock`` that
    Python 3.10 and 3.11 take on every first read, which costs more than
    the read itself (1.3 against 0.5 us on a frozen dataclass, Python
    3.11.7 on a 2-core x86-64 host); from 3.12 on, ``cached_property``
    behaves as this does.  The value is written straight to the instance
    ``__dict__``, which a frozen dataclass allows, and being a non-data
    descriptor this one is not consulted again.  The dataclass's equality,
    hash and pickling therefore behave as with ``cached_property``.  Two
    threads reading a fresh instance at once may both compute the value;
    each gets an equal one.  ``func`` and ``attrname`` are those of
    ``cached_property``.
    """

    def __init__(self, func):
        self.func = func
        self.attrname = func.__name__
        self.__doc__ = func.__doc__

    def __set_name__(self, owner, name):
        self.attrname = name

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.attrname] = self.func(instance)
        return value


def frozen_instance(cls, /, **fields):
    """An instance of the dataclass ``cls`` built with one write of
    ``fields`` to its ``__dict__``.

    The generated ``__init__`` of a frozen dataclass makes one
    ``object.__setattr__`` call per field and then runs ``__post_init__``;
    this makes neither, so nothing is converted or checked.  It is for
    values the package derives from input it has already checked:
    ``fields`` must name each field of ``cls`` once, hold what the
    constructor would have stored, and ``cls`` must not use slots.  The
    instance then equals, hashes, prints and pickles as the constructor's
    would and stays frozen.  Callers outside the package use the
    constructor and its checks.
    """
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj
