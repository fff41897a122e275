"""The benchmark's four workloads.

Each workload draws its inputs from a fixed pool stored in
``reference.json`` together with the discrete outcome every input produced
when the pool was made (see ``make_reference.py``).  A workload object
turns a pool entry into a ready input (``prepare``, untimed), runs one
input (``run``, timed) and reduces the result to that discrete outcome
(``evaluate``, untimed), which the runner compares with the stored one.
``evaluate`` also returns the problems found by the checks the theory fixes
whatever was stored: count equals inner degree for non-exceptional inputs,
doubled count for magic cubics, tangent error within the criterion-07 bound.

Library and CLI entry points are looked up on their modules at call time
(``tracer.trace``, ``cli.main``, ...), so the per-layer timers in
``layers.py`` see every call the benchmark makes.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import os

from maxmod import Polynomial, TraceConfig, cli, tracer

classify_mod = importlib.import_module("maxmod.classify")

# criterion 07 of the acceptance suite
OMEGA_ERROR_MAX = 1e-6


def poly_of(coeffs) -> Polynomial:
    return Polynomial(tuple(complex(re, im) for re, im in coeffs))


CLASS_KEYS = ("mu", "exceptional", "magic", "predicted_count")


def class_outcome(c) -> dict:
    """The classification's discrete fields, as ``--json`` prints them."""
    d = c.to_json_dict()
    return {k: d[k] for k in CLASS_KEYS}


class Workload:
    units_per_input: int  # traces, hunt samples or classify calls per input
    tail_pct: float  # percentile reported as latency_tail_ms

    def __init__(self, workdir: str):
        self.workdir = workdir  # scratch space for the files the CLI writes


def _run_cli(argv) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, buf.getvalue()


class Fig1(Workload):
    """The paper's Figure-1 pair through ``maxmod trace --json --csv --svg``.

    One input is the whole figure: both traces, run back to back.
    """

    units_per_input = 2  # traces
    tail_pct = 65

    def prepare(self, entry):
        argvs = []
        for i, cmd in enumerate(entry["commands"]):
            base = os.path.join(self.workdir, f"fig1_{i}")
            argvs.append(
                ["trace", "--poly", cmd["poly"], "--rmin", repr(cmd["rmin"]),
                 "--rmax", repr(cmd["rmax"]), "--radii", str(cmd["radii"]),
                 "--json", "--csv", base + ".csv", "--svg", base + ".svg"]
            )
        return argvs

    def run(self, argvs):
        return [_run_cli(argv) for argv in argvs]

    def evaluate(self, argvs, result):
        rows, bad = [], []
        for argv, (code, text) in zip(argvs, result):
            row = {"exit": code}
            if code == 0:
                rep = json.loads(text)
                with open(argv[argv.index("--csv") + 1], encoding="utf-8") as fh:
                    csv_rows = sum(1 for _ in fh)
                row.update({k: rep["classification"][k] for k in CLASS_KEYS})
                row.update(
                    n_components=rep["trace"]["n_components"],
                    agreement=rep["agreement"],
                    csv_rows=csv_rows,
                    svg_written=os.path.getsize(argv[argv.index("--svg") + 1]) > 0,
                )
                for t in rep["trace"]["tangents"]:
                    if t["omega_error"] > OMEGA_ERROR_MAX:
                        bad.append(f"omega_error {t['omega_error']:.2e} on curve {t['curve_id']}")
            rows.append(row)
        return {"commands": rows}, bad


class RandomCount(Workload):
    """Library ``trace()`` on non-exceptional inputs from the criterion-02
    generator, each at its own ``r_min``."""

    units_per_input = 1  # traces
    tail_pct = 70

    def prepare(self, entry):
        p = poly_of(entry["coeffs"])
        cfg = TraceConfig(r_min=entry["r_min"], r_max=0.3, n_radii=200)
        return p, cfg, classify_mod.classify(p)

    def run(self, prepared):
        p, cfg, _ = prepared
        return tracer.trace(p, cfg)

    def evaluate(self, prepared, res):
        c = prepared[2]
        outcome = {
            **class_outcome(c),
            "n_components": res.n_components,
            "agreement": cli.agreement_verdict(c, res.n_components),
        }
        bad = []
        if res.n_components != c.mu:  # criterion 02
            bad.append(f"n_components {res.n_components} != mu {c.mu}")
        for t in res.tangents:
            if t.curve_id in res.component_ids and t.omega_error > OMEGA_ERROR_MAX:
                bad.append(f"omega_error {t.omega_error:.2e} on curve {t.curve_id}")
        return outcome, bad


HUNT_KEYS = ("on_locus", "exceptional", "magic", "mu", "n_components", "conjecture_holds")


class HuntCubic(Workload):
    """``maxmod hunt --family cubic`` commands of a few samples each; every
    second sample lies on the magic locus and is traced."""

    units_per_input = 4  # hunt samples per command
    tail_pct = 75

    def prepare(self, entry):
        out = os.path.join(self.workdir, f"hunt_{entry['seed']}.jsonl")
        argv = ["hunt", "--family", "cubic", "--samples", str(entry["samples"]),
                "--seed", str(entry["seed"]), "--out", out, "--quiet"]
        return argv, out

    def run(self, prepared):
        return _run_cli(prepared[0])[0]

    def evaluate(self, prepared, code):
        if code != 0:
            return {"exit": code, "records": None}, []
        with open(prepared[1], encoding="utf-8") as fh:
            recs = [{k: json.loads(line)[k] for k in HUNT_KEYS} for line in fh]
        bad = [
            f"magic record traced to {r['n_components']} curves"
            for r in recs
            if r["on_locus"] and r["magic"] == "MAGIC"  # criterion 10
            and (r["n_components"] != 2 * r["mu"] or r["conjecture_holds"] is not True)
        ]
        return {"exit": code, "records": recs}, bad


class ClassifyMix(Workload):
    """Library ``classify()`` alone, degrees 2-12, half on the resonance locus."""

    units_per_input = 1  # classify calls
    tail_pct = 90

    def prepare(self, entry):
        return poly_of(entry["coeffs"]), entry["on_locus"]

    def run(self, prepared):
        return classify_mod.classify(prepared[0])

    def evaluate(self, prepared, c):
        bad = ["on-locus input not classified exceptional"] if prepared[1] and not c.exceptional else []
        return class_outcome(c), bad


WORKLOADS = {
    "fig1": Fig1,
    "random_count": RandomCount,
    "hunt_cubic": HuntCubic,
    "classify_mix": ClassifyMix,
}
