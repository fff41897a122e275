import types

import numpy as np
import pytest

from maxmod import _kernels, roots, tracer


@pytest.fixture
def root_solve(monkeypatch) -> dict:
    """Record what each root solve (``roots.critical_points``) does: the
    certificate's verdict on every circle (``certified``, one array per
    :func:`roots._certified` call), the rows on which it evaluates F before
    its Newton polish, which are the circles it isolates by subdivision
    (``subdivided``, one set per :func:`roots._newton` call) and the number
    of evaluations of F outside Newton (``outside``)."""
    seen = {"certified": [], "subdivided": [], "outside": 0}
    rows, polishing = set(), []
    certified, slopes, newton = roots._certified, roots._slopes, roots._newton

    def counted_certified(*orders):
        ok = certified(*orders)
        seen["certified"].append(ok)
        return ok

    def counted_slopes(coef, i, theta, sign):
        if not polishing:
            seen["outside"] += 1
            rows.update(np.unique(i).tolist())
        return slopes(coef, i, theta, sign)

    def counted_newton(*args):
        seen["subdivided"].append(set(rows))
        rows.clear()
        polishing.append(True)
        try:
            return newton(*args)
        finally:
            polishing.pop()

    monkeypatch.setattr(roots, "_certified", counted_certified)
    monkeypatch.setattr(roots, "_slopes", counted_slopes)
    monkeypatch.setattr(roots, "_newton", counted_newton)
    return seen


@pytest.fixture
def scan_pass(monkeypatch):
    """``scan_pass(hook)`` routes the tracer's own calls of
    ``_kernels.fourier_sum``, which are the scan's ``osc`` passes over the
    rows (``tracer._scan``), through ``hook``, and returns the kernel; the
    root solve's calls are not routed."""

    def route(hook):
        kernels = types.SimpleNamespace(**vars(_kernels))
        kernels.fourier_sum = hook
        monkeypatch.setattr(tracer, "_kernels", kernels)
        return _kernels.fourier_sum

    return route
