#!/usr/bin/env python3
"""The maxmod benchmark: one workload per run, closed loop, one thread.

    python3 perfbench/run.py --workload fig1 [--seed N] [--seconds S] [--trace 0|1]

Workloads (see ``workloads.py`` and ``NOTES.md``): ``fig1``,
``random_count``, ``hunt_cubic``, ``classify_mix``.  Inputs come from the
pools in ``reference.json``; ``--seed`` fixes the order in which each pass
visits its pool.  A run measures whole passes, as many as fit in
``--seconds``, so every run of a workload sees the same inputs equally often.
Every input's outcome is checked against the stored one and the theory.
Reported times are scaled to a nominal host speed by ``calibrate.py``.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs each pass
twice, plainly and with the per-layer timers of ``layers.py`` interposed,
and prints the per-layer metrics plus the tracing overhead.
``--smoke`` runs one input per workload and one pass, for the smoke test.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import traceback
from array import array
from time import perf_counter

import bootstrap

maxmod = bootstrap.load()
import numpy as np  # noqa: E402
import scipy  # noqa: E402

import layers  # noqa: E402
from calibrate import Calibration  # noqa: E402
from maxmod import _kernels  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

DEFAULT_SEED = 20260809  # the acceptance suite's seed
SETUP_REPEATS = 5
REFERENCE = bootstrap.ROOT / "perfbench" / "reference.json"


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="one input, one pass")
    return ap.parse_args(argv)


def environment() -> dict:
    """What a number depends on; results from different backends never compare."""
    return {
        "nproc": os.cpu_count(),
        "pinned_cpu": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "backend": _kernels.BACKEND,
    }


def measure_setup(workload: str, workdir: str, repeats: int) -> float:
    """Median wall time of fresh interpreters that import ``maxmod`` and
    make a first call, in nominal-host seconds.

    One extra start runs first and is discarded: it writes the bytecode
    caches that every later start of the same checkout reuses.
    """
    cmd = [sys.executable, str(bootstrap.ROOT / "perfbench" / "setup_probe.py"), workload, workdir]
    times = []
    calibration = Calibration()
    for i in range(repeats + 1):
        mark = calibration.mark()
        t0 = perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        dt = perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed ({proc.returncode}):\n{proc.stderr}")
        calibration.take()
        if i:
            times.append(dt * calibration.factor(mark))
    return statistics.median(times)


class Tally:
    """Latencies and failures of the inputs run so far."""

    def __init__(self, w, calibration: Calibration):
        self.w = w
        self.calibration = calibration
        # compact arrays, so the bookkeeping barely moves peak_rss_mb
        self.latencies = array("d")  # seconds, as measured
        self.marks = array("l")  # calibration loop before each latency
        self.pass_busy: list[float] = []  # seconds in the program, per pass
        self.attempted = 0
        self.failed = 0

    def run_pass(self, inputs, order):
        busy = 0.0
        for i in order:
            prepared, expect = inputs[i]
            self.marks.append(self.calibration.mark())
            t0 = perf_counter()
            try:
                result = self.w.run(prepared)
            except Exception:
                dt = perf_counter() - t0
                bad = [traceback.format_exc()]
            else:
                dt = perf_counter() - t0
                bad = self._check(prepared, result, expect)
            self.attempted += 1
            self.latencies.append(dt)
            busy += dt
            self.calibration.tick(dt)
            if bad:
                self.failed += 1
                if self.failed <= 5:
                    print(f"FAILED input {i}: " + "; ".join(bad), file=sys.stderr)
        self.pass_busy.append(busy)

    def scaled(self) -> np.ndarray:
        """Latencies in nominal-host seconds; the calibration must have
        taken a loop after the last of them."""
        return np.asarray(self.latencies) * self.calibration.factor(np.asarray(self.marks))

    def _check(self, prepared, result, expect) -> list[str]:
        try:
            outcome, bad = self.w.evaluate(prepared, result)
        except Exception:
            return [traceback.format_exc()]
        if outcome != expect:
            bad.append(f"outcome {outcome} != reference {expect}")
        return bad


def run_passes(run_pass, orders, seconds: float, max_passes: int | None) -> int:
    """Call ``run_pass`` on successive orders until the next pass would end
    more than half a pass after ``seconds``; at least once.  Returns the
    number of passes."""
    t0 = perf_counter()
    for n, order in enumerate(orders, 1):
        run_pass(order)
        elapsed = perf_counter() - t0
        if n == max_passes or elapsed + 0.5 * elapsed / n >= seconds:
            return n


def pass_orders(n: int, seed: int):
    rng = random.Random(seed)
    while True:
        order = list(range(n))
        rng.shuffle(order)
        yield order


def end_to_end(w, tally: Tally, setup_s: float) -> dict:
    """End-to-end metrics; times in nominal-host units (``calibrate.py``)."""
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    units = len(tally.latencies) * w.units_per_input
    print(tally.calibration.describe())
    b = tally.pass_busy
    print(f"as measured: inputs_per_s {units / sum(tally.latencies):.6g}, latency_p50_ms "
          f"{1e3 * np.percentile(tally.latencies, 50):.6g}; {len(b)} passes of "
          f"{min(b):.4g}-{max(b):.4g} s in the program, median {statistics.median(b):.4g} s")
    lat_ms = tally.scaled() * 1e3
    beyond = int(np.sum(lat_ms > np.percentile(lat_ms, w.tail_pct)))
    print(f"latency_tail_ms is p{w.tail_pct}: {beyond} of {lat_ms.size} samples lie beyond it")
    return {
        "setup_s": (setup_s, "s"),
        "inputs_per_s": (units / (lat_ms.sum() / 1e3), "1/s"),
        "latency_p50_ms": (float(np.percentile(lat_ms, 50)), "ms"),
        "latency_tail_ms": (float(np.percentile(lat_ms, w.tail_pct)), "ms"),
        "ok_frac": (1.0 - tally.failed / tally.attempted, "frac"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def print_shares(per_layer: dict, traced_busy: float):
    parts = {
        "modulus": per_layer["modulus.osc_s"][0] + per_layer["modulus.d1d2_s"][0]
        + per_layer["modulus.expand_s"][0],
        "fit": per_layer["tracer.fit_s"][0],
        "tracer self": per_layer["tracer.self_s"][0],
        "classify": per_layer["classify.s"][0],
        "cli self": per_layer["cli.self_s"][0],
        "writers": per_layer["tracer.write_csv_s"][0] + per_layer["svg.write_svg_s"][0]
        + per_layer["util.canonical_json_s"][0],
    }
    print("shares of traced time: " + ", ".join(
        f"{k} {100 * v / traced_busy:.1f}%" for k, v in parts.items()))


def main(argv=None) -> int:
    args = parse_args(argv)
    env = environment()
    print("environment: " + json.dumps(env, sort_keys=True))
    pool = json.loads(REFERENCE.read_text(encoding="utf-8"))["workloads"][args.workload]
    if args.smoke:
        pool = pool[:1]
    max_passes = 1 if args.smoke else None

    with tempfile.TemporaryDirectory(dir=bootstrap.ROOT, prefix=".perfbench-") as workdir:
        w = WORKLOADS[args.workload](workdir)
        inputs = [(w.prepare(entry), entry["expect"]) for entry in pool]
        try:  # lazy imports and first-call costs stay out of the timing
            w.run(inputs[0][0])
        except Exception:  # counted when the measured passes meet it again
            pass

        orders = pass_orders(len(inputs), args.seed)
        if args.trace == 0:
            setup_s = measure_setup(args.workload, workdir, 1 if args.smoke else SETUP_REPEATS)
            tally = Tally(w, Calibration())
            run_passes(lambda order: tally.run_pass(inputs, order), orders, args.seconds, max_passes)
            tally.calibration.take()
            metrics = end_to_end(w, tally, setup_s)
            attempted, failed = tally.attempted, tally.failed
        else:
            # plain and traced passes alternate over the same orders, so a
            # change in host speed during the run hits both alike
            calibration = Calibration()
            plain, traced, spans = Tally(w, calibration), Tally(w, calibration), layers.Spans()

            def pass_pair(order):
                plain.run_pass(inputs, order)
                with layers.installed(spans):
                    traced.run_pass(inputs, order)

            passes = run_passes(pass_pair, orders, args.seconds, max_passes)
            calibration.take()
            print(calibration.describe())
            traced_busy = traced.scaled().sum()
            metrics = layers.layer_metrics(spans, passes, traced_busy / sum(traced.latencies))
            metrics["trace_overhead"] = (traced_busy / plain.scaled().sum(), "ratio")
            print_shares(metrics, traced_busy / passes)
            attempted = plain.attempted + traced.attempted
            failed = plain.failed + traced.failed

    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
