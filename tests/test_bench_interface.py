"""What the benchmark harness under ``perfbench/`` reads from ``maxmod``.

The harness imports the package by name and interposes timers on module
attributes; its ``--trace 1`` mode counts ``cross_amps`` of the expansion.
The test suite does not collect ``perfbench/``, so these checks keep a
change of the package from breaking the harness unnoticed.
"""

import contextlib
import importlib
import io

import numpy as np

from maxmod import (
    Polynomial,
    TraceConfig,
    TraceResult,
    _kernels,
    classify,
    cli,
    expand,
    modulus,
    parse_poly,
    trace,
    tracer,
)

TINY = "1,0,1,1i"


def test_cross_amps_counts_pairs_of_nonzero_coefficients():
    for text in (TINY, "1,2,0,1i,4", "0,0,3,0,0,0,1", "1,1"):
        p = parse_poly(text)
        t = len(p.nonzero_exponents())
        assert expand(p).cross_amps.size == t * (t - 1) // 2


def test_setup_probe_calls():
    assert TraceConfig(n_radii=12, grid=256).grid == 256
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["trace", "--poly", TINY, "--radii", "12", "--grid", "256", "--json"])
    assert code == 0
    assert isinstance(_kernels.BACKEND, str)


def test_names_the_harness_reads():
    # entry points looked up on their modules at call time, and the names
    # the per-layer timers replace (a missing one would read 0)
    classify_mod = importlib.import_module("maxmod.classify")
    for owner, attr in (
        (cli, "main"),
        (cli, "agreement_verdict"),
        (cli, "trace"),
        (cli, "classify"),
        (cli, "normalize"),
        (cli, "write_csv"),
        (cli, "write_svg"),
        (cli, "canonical_json"),
        (tracer, "trace"),
        (tracer, "expand"),
        (tracer, "normalize"),
        (classify_mod, "classify"),
        (classify_mod, "normalize"),
        (modulus.ModulusExpansion, "osc"),
    ):
        assert callable(getattr(owner, attr)), attr
    # the osc counter reads the theta argument at position 2
    e = expand(parse_poly(TINY))
    th = np.linspace(-1.0, 1.0, 5)
    assert e.osc(0.1, th).shape == th.shape
    # fields of the results the workloads evaluate
    p = Polynomial((1, 0, 1, 1j))
    c = classify(p)
    assert {"mu", "exceptional", "magic", "predicted_count"} <= set(c.to_json_dict())
    assert isinstance(c.mu, int) and isinstance(c.exceptional, bool)
    res = trace(p, TraceConfig(n_radii=12))
    assert isinstance(res, TraceResult)
    assert len(res.radii) == 12 and res.samples
    assert res.n_components == len(res.component_ids)
    for t in res.tangents:
        assert isinstance(t.curve_id, int) and t.omega_error >= 0
    assert cli.agreement_verdict(c, res.n_components)
