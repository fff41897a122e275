"""Per-layer timers, interposed from outside the package for a traced run.

Each timer replaces a name where its caller looks it up (the module
attribute or class method), records call count and inclusive time, and
keeps a stack so a span's self time (its time minus its child spans) is
known.  Spans are aggregated per name in memory rather than stored one by
one: a classify run makes millions of calls.  ``installed`` restores every
original on exit, so the untraced run never pays for them.
"""

from __future__ import annotations

import contextlib
import importlib
from collections import defaultdict
from time import perf_counter

import numpy as np
import scipy.optimize

from maxmod import cli, modulus, tracer

classify_mod = importlib.import_module("maxmod.classify")


class Spans:
    def __init__(self):
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self._stack = [0.0]  # child time accumulated by each open span

    def wrap(self, name, fn, count=None):
        """Time ``fn`` as span ``name``; ``count(args, result)`` adds counts."""

        def timed(*args, **kwargs):
            self._stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                children = self._stack.pop()
                self._stack[-1] += dt
                self.total[name] += dt
                self.self_time[name] += dt - children
                self.calls[name] += 1
            if count is not None:
                count(args, result)
            return result

        return timed


def _targets(spans: Spans):
    """(owner, attribute, span name, counter) for every interposed name."""

    def osc_count(args, _):
        points = int(np.size(args[2]))
        spans.counts["osc_points"] += points
        spans.counts["osc_term_evals"] += points * int(args[0].cross_amps.size)

    def d1d2_count(args, _):
        spans.counts["d1d2_points"] += int(np.size(args[2]))

    def trace_count(_, res):
        spans.counts["circles"] += len(res.radii)
        spans.counts["samples"] += len(res.samples)

    def scan_count(_, scan):
        spans.counts["grid_points"] += scan.grid_used

    return [
        (cli, "main", "cli.main", None),
        (cli, "trace", "tracer.trace", trace_count),
        (tracer, "trace", "tracer.trace", trace_count),
        (tracer, "_scan_circle", "tracer.scan_circle", scan_count),
        (tracer, "expand", "modulus.expand", None),
        (modulus.ModulusExpansion, "osc", "modulus.osc", osc_count),
        (modulus.ModulusExpansion, "d1d2", "modulus.d1d2", d1d2_count),
        (scipy.optimize, "curve_fit", "tracer.fit", None),
        (scipy.optimize, "minimize_scalar", "tracer.fit", None),
        (cli, "classify", "classify", None),
        (classify_mod, "classify", "classify", None),
        (cli, "normalize", "poly.normalize", None),
        (tracer, "normalize", "poly.normalize", None),
        (classify_mod, "normalize", "poly.normalize", None),
        (cli, "write_csv", "tracer.write_csv", None),
        (cli, "write_svg", "svg.write_svg", None),
        (cli, "canonical_json", "util.canonical_json", None),
    ]


@contextlib.contextmanager
def installed(spans: Spans):
    """Interpose the timers; names missing from the package are skipped and
    their metrics read 0."""
    saved = []
    try:
        for owner, attr, name, count in _targets(spans):
            if hasattr(owner, attr):
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, spans.wrap(name, original, count))
        yield spans
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(spans: Spans, passes: int, factor: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics as ``name -> (value, unit)``.

    Totals are per pass over the workload's pool, so they do not grow with
    the number of passes a faster program fits into a run.  Times are
    multiplied by the traced passes' mean host-speed ``factor`` (see
    ``calibrate.py``).
    """
    t = defaultdict(float, {k: v * factor / passes for k, v in spans.total.items()})
    n = defaultdict(int, {k: v // passes for k, v in spans.calls.items()})
    c = defaultdict(int, {k: v // passes for k, v in spans.counts.items()})
    modulus_s = t["modulus.osc"] + t["modulus.d1d2"] + t["modulus.expand"]
    circles = c["circles"]
    return {
        "modulus.osc_s": (t["modulus.osc"], "s"),
        "modulus.osc_calls": (n["modulus.osc"], "count"),
        "modulus.osc_points": (c["osc_points"], "count"),
        "modulus.osc_term_evals": (c["osc_term_evals"], "count"),
        "modulus.osc_ns_per_term_eval": (_ratio(1e9 * t["modulus.osc"], c["osc_term_evals"]), "ns"),
        "modulus.d1d2_s": (t["modulus.d1d2"], "s"),
        "modulus.d1d2_calls": (n["modulus.d1d2"], "count"),
        "modulus.d1d2_points": (c["d1d2_points"], "count"),
        "modulus.d1d2_points_per_call": (_ratio(c["d1d2_points"], n["modulus.d1d2"]), "ratio"),
        "modulus.expand_s": (t["modulus.expand"], "s"),
        "tracer.trace_s": (t["tracer.trace"], "s"),
        "tracer.trace_calls": (n["tracer.trace"], "count"),
        "tracer.circles": (circles, "count"),
        "tracer.grid_points_per_circle": (_ratio(c["grid_points"], circles), "ratio"),
        "tracer.d1d2_calls_per_circle": (_ratio(n["modulus.d1d2"], circles), "ratio"),
        "tracer.fit_s": (t["tracer.fit"], "s"),
        "tracer.fit_calls": (n["tracer.fit"], "count"),
        # modulus and fit spans only open inside a trace, so this is the
        # trace's own time: scan bookkeeping, linking, events, symmetry
        "tracer.self_s": (t["tracer.trace"] - modulus_s - t["tracer.fit"], "s"),
        "tracer.samples": (c["samples"], "count"),
        "classify.s": (t["classify"], "s"),
        "classify.calls": (n["classify"], "count"),
        "classify.us_per_call": (_ratio(1e6 * t["classify"], n["classify"]), "us"),
        "poly.normalize_s": (t["poly.normalize"], "s"),
        "poly.normalize_calls": (n["poly.normalize"], "count"),
        "cli.main_s": (t["cli.main"], "s"),
        "cli.self_s": (spans.self_time["cli.main"] * factor / passes, "s"),
        "tracer.write_csv_s": (t["tracer.write_csv"], "s"),
        "svg.write_svg_s": (t["svg.write_svg"], "s"),
        "util.canonical_json_s": (t["util.canonical_json"], "s"),
    }
