import ast
import cmath
import math
from pathlib import Path

import numpy as np
import pytest

import maxmod
from maxmod import circle_argmax, expand, parse_poly, roots
from maxmod.util import circ_dist, reduce_angle


@pytest.mark.parametrize("a", [0.6, -1.7, 0.8 - 1.3j], ids=["positive", "negative", "complex"])
@pytest.mark.parametrize("k", range(1, 7))
def test_monomial_rows(monkeypatch, a, k):
    # q = a z^k has the one coefficient C_k = a r^k, with dC_k/dr = k a r^(k-1),
    # and the critical points (j pi - arg a) / k, j = 0..2k-1, on every
    # circle.  A real a is solved as S(u), a complex one as R(t); the solved
    # polynomial has degree k - 1 or 2k, so both the eigenvalue solve and
    # the Aberth followers run
    followed = []
    aberth = roots._aberth

    def counted(coef, t):
        followed.append(coef.shape[0])
        return aberth(coef, t)

    monkeypatch.setattr(roots, "_aberth", counted)
    radii = np.geomspace(0.9, 1e-3, 40)
    cn = np.zeros((radii.size, k), dtype=complex)
    cn[:, k - 1] = a * radii**k

    def fourier_dr(r):
        dr = np.zeros((np.size(r), k), dtype=complex)
        dr[:, k - 1] = k * a * np.asarray(r) ** (k - 1)
        return dr

    ridx, theta = roots.critical_points(cn, radii, fourier_dr)
    want = reduce_angle((np.arange(2 * k) * math.pi - cmath.phase(a)) / k)
    assert np.array_equal(np.bincount(ridx, minlength=radii.size), np.full(radii.size, 2 * k))
    for i in range(radii.size):
        dist = circ_dist(theta[ridx == i][:, None], want)
        assert dist.min(axis=1).max() <= 1e-13 and dist.min(axis=0).max() <= 1e-13
    m = 2 * k if isinstance(a, complex) else k - 1
    assert bool(followed) == (m > roots.EIGEN_DEGREE)


def test_groups_without_followers_skip_the_euler_start(monkeypatch):
    # one circle of a degree-4 complex input is its group's only anchor:
    # nothing is followed, so dC_n/dr is never formed
    def unused(*args):
        raise AssertionError("Euler start of a group without followers")

    monkeypatch.setattr(roots, "_euler_start", unused)
    assert circle_argmax(expand(parse_poly("1,0.3,1,0.2i,0.5")), 0.5)


def test_imports_only_errors_and_util():
    # the root layer works on arrays: it reads no expansion, tracer or
    # polynomial type
    path = Path(maxmod.__file__).with_name("roots.py")
    used = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            if node.level:  # from .x import y, or from . import x
                used.update([node.module] if node.module else (a.name for a in node.names))
            elif node.module.split(".")[0] == "maxmod":
                used.add(node.module.partition(".")[2])
        elif isinstance(node, ast.Import):
            names = (a.name for a in node.names if a.name.startswith("maxmod"))
            used.update(name.partition(".")[2] for name in names)
    assert used <= {"errors", "util"}
