"""The committed differential corpora: every input traces to its stored
outcome, and classifies to the stored bytes.  A trace's discrete fields
must match exactly and every sample angle within ``ANGLE_TOL``; the mpmath
oracle of ``test_tracer.py``, not this test, judges accuracy.
``make_corpus.py`` rebuilds both files."""

import json
from pathlib import Path

import numpy as np
import pytest

from make_corpus import classify_outcome, outcome
from maxmod import MaxmodError, Polynomial, TraceConfig, _kernels, roots, tracer
from maxmod.tracer import count_components
from maxmod.util import circ_dist

ANGLE_TOL = 1e-12
CORPUS = json.loads((Path(__file__).with_name("corpus.json")).read_text(encoding="utf-8"))
CLASSIFY_CORPUS = json.loads(Path(__file__).with_name("classify_corpus.json").read_text(encoding="utf-8"))


def test_corpus_covers_its_inputs():
    names = [e["name"] for e in CORPUS]
    assert len(names) == len(set(names)) >= 330
    for prefix, least in (("fig1-", 2), ("random-count-", 12), ("hunt-cubic-", 10), ("random-", 300)):
        assert sum(n.startswith(prefix) for n in names) >= least, prefix
    assert {"degree-8", "crowded"} <= set(names)


@pytest.mark.parametrize("block", range(4))
def test_outcomes_match(block):
    # a quarter of the corpus per test, so a failure names fewer inputs
    failed = []
    for e in CORPUS[block::4]:
        p = Polynomial(tuple(complex(re, im) for re, im in e["coeffs"]))
        r_min, r_max, n_radii = e["cfg"]
        got = outcome(p, TraceConfig(r_min=r_min, r_max=r_max, n_radii=n_radii))
        want = e["expect"]
        theta, want_theta = np.array(got.pop("theta", [])), np.array(want.get("theta", []))
        if got != {k: v for k, v in want.items() if k != "theta"}:
            failed.append((e["name"], "discrete"))
        elif theta.size and circ_dist(theta, want_theta).max() > ANGLE_TOL:
            failed.append((e["name"], float(circ_dist(theta, want_theta).max())))
    assert not failed


def members_of(entries) -> list:
    """The ``(p, cfg)`` of the corpus entries."""
    out = []
    for e in entries:
        p = Polynomial(tuple(complex(re, im) for re, im in e["coeffs"]))
        r_min, r_max, n_radii = e["cfg"]
        out.append((p, TraceConfig(r_min, r_max, n_radii)))
    return out


def test_count_matches_every_trace():
    # the count of each entry alone is the trace's component count; where a
    # trace fails, the count fails with the same error class
    failed = []
    for e, (p, cfg) in zip(CORPUS, members_of(CORPUS)):
        try:
            got = {"error": None, "n_components": count_components([(p, cfg.r_min)])[0]}
        except MaxmodError as ex:
            got = {"error": type(ex).__name__}
        if got != {k: e["expect"][k] for k in ("error", "n_components") if k in e["expect"]}:
            failed.append(e["name"])
    assert not failed


@pytest.mark.parametrize("batch", [tracer.COUNT_BATCH, 1000], ids=["default", "all-at-once"])
def test_one_count_of_the_whole_corpus(monkeypatch, batch):
    # one call counts every entry whose trace succeeds, across row groups of
    # every width and both all-real tests, to the stored component counts,
    # in chunks of the default size and with every row group in one stack
    monkeypatch.setattr(tracer, "COUNT_BATCH", batch)
    entries = [e for e in CORPUS if e["expect"]["error"] is None]
    groups = set()
    solve = roots.critical_points

    def grouped(cn, radii, **kwargs):
        groups.add((cn.shape[1], not cn.imag.any()))
        return solve(cn, radii, **kwargs)

    monkeypatch.setattr(roots, "critical_points", grouped)
    got = count_components([(p, cfg.r_min) for p, cfg in members_of(entries)])
    failed = [e["name"] for e, n in zip(entries, got) if n != e["expect"]["n_components"]]
    assert not failed
    assert len(got) == len(entries) >= 330
    assert len(groups) >= 30 and {odd for _, odd in groups} == {False, True}


def test_count_rows_are_the_trace_rows(monkeypatch):
    # the one row a count forms for each entry, at r_min, is bit for bit
    # the last row of the entry's trace, mass check included
    entries = [e for e in CORPUS if e["expect"]["error"] is None]
    handed = []
    solve = roots.critical_points

    def recorded(cn, radii, **kwargs):
        handed.extend(zip(radii.tolist(), cn))
        return solve(cn, radii, **kwargs)

    monkeypatch.setattr(roots, "critical_points", recorded)
    monkeypatch.setattr(tracer, "COUNT_BATCH", 1)  # one row per solve, in member order
    members = members_of(entries)
    count_components([(p, cfg.r_min) for p, cfg in members])
    assert len(handed) == len(members)
    for (r, row), (p, cfg) in zip(handed, members):
        e = tracer._prepare(p, cfg.r_min)[2]
        radii = tracer.radius_schedule(cfg)
        assert r == radii[-1]
        assert tracer._rows(e, radii)[-1].tobytes() == row.tobytes()


def test_stacked_count_rows_are_the_trace_rows(monkeypatch):
    # in chunks of the default COUNT_BATCH, whose row groups mix widths and
    # both all-real tests and stack up to COUNT_BATCH members, the rows a
    # count forms are still bit for bit the last rows of the entries'
    # traces: the same rows at the same radii, in the order of the groups
    entries = [e for e in CORPUS if e["expect"]["error"] is None]
    handed, solves = [], []
    solve = roots.critical_points

    def recorded(cn, radii, **kwargs):
        handed.extend((r, row.tobytes()) for r, row in zip(radii.tolist(), cn))
        solves.append((cn.shape[1], not cn.imag.any(), radii.size))
        return solve(cn, radii, **kwargs)

    monkeypatch.setattr(roots, "critical_points", recorded)
    members = members_of(entries)
    count_components([(p, cfg.r_min) for p, cfg in members])
    want = []
    for p, cfg in members:
        e = tracer._prepare(p, cfg.r_min)[2]
        radii = tracer.radius_schedule(cfg)
        want.append((radii[-1], tracer._rows(e, radii)[-1].tobytes()))
    assert sorted(handed) == sorted(want)
    assert len({(width, real) for width, real, _ in solves}) >= 30
    assert {real for _, real, size in solves if size > 1} == {False, True}
    assert max(size for *_, size in solves) > 8


def test_scan_osc_is_the_broadcast_pass(scan_pass):
    # on every circle of every entry whose trace succeeds, the scan's osc
    # pass, one Horner pass over the rows that gathers one order per step,
    # gives the bits of the broadcast pass over the gathered rows
    # cn[ridx] at every critical point, maxima and minima
    passes = []

    def recorded(coef, theta, rows):
        passes.append((theta, rows, fourier_sum(coef, theta, rows)))
        return passes[-1][2]

    fourier_sum = scan_pass(recorded)
    entries = [e for e in CORPUS if e["expect"]["error"] is None]
    for p, cfg in members_of(entries):
        e = tracer._prepare(p, cfg.r_min)[2]
        radii = tracer.radius_schedule(cfg)
        cn, real = tracer._rows(e, radii), not e.c.imag.any()
        osc = tracer._scan(cn, radii, real)[3]
        (theta, ridx, got), = passes
        passes.clear()
        want = _kernels.fourier_sum(np.moveaxis(cn[ridx], -1, 0), theta)
        assert got.tobytes() == want.tobytes()
        is_max = roots.critical_points(cn, radii, mirror=real)[2]
        assert osc.tobytes() == (2 * want.real)[is_max].tobytes()
    assert len(entries) >= 330


def test_classify_corpus_covers_its_inputs():
    outcomes = [e["expect"] for e in CLASSIFY_CORPUS]
    errors = {o["error"] for o in outcomes if isinstance(o, dict)}
    assert errors == {"ZeroPolynomialError", "MonomialAllPlaneError", "CoefficientRangeError"}
    got = [json.loads(o) for o in outcomes if isinstance(o, str)]
    assert len(got) >= 400
    assert {c["mu"] for c in got} >= {1, 2, 3}
    assert {c["magic"] for c in got} == {"MAGIC", "NOT_MAGIC", "UNKNOWN"}
    warned = [w.split(":")[0] for c in got for w in c["warnings"]]
    assert warned.count("near-exceptional") >= 5 and warned.count("truncated series") >= 50


def test_classify_corpus_bytes():
    # classify --json prints these bytes for each input, or raises the error
    failed = []
    for e in CLASSIFY_CORPUS:
        p = Polynomial(tuple(complex(re, im) for re, im in e["coeffs"]), truncated=e["truncated"])
        if classify_outcome(p) != e["expect"]:
            failed.append(e["name"])
    assert not failed
