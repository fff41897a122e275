"""Build ``corpus.json``: seeded trace inputs and each one's outcome.

Run from the repository root when the program's outcomes change on purpose:

    PYTHONPATH=src python3 tests/make_corpus.py

``test_corpus.py`` traces every input again and compares.  The inputs are
fig1's pair, the benchmark's random_count pool (read from
``perfbench/reference.json``), the traced members of one cubic hunt, about
300 seeded polynomials of degree 2-16, a third of them real, and inputs that
once failed.  Each outcome holds the error class or the discrete result
(``n_components``, ``component_ids``, ``stable_radius``, the co-maximal
count per radius, the events with their radius index) and every sample
angle.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from maxmod import (
    HaymanForm,
    MaxmodError,
    Polynomial,
    TraceConfig,
    cli,
    floor_radius,
    normalize,
    parse_poly,
    trace,
)

CORPUS_SEED = 20261019
RANDOM_TRACES = 300
RANDOM_RADII = 50
HUNT_ARGV = ["hunt", "--family", "cubic", "--samples", "40", "--seed", "20260809", "--quiet"]
HERE = Path(__file__).resolve().parent


def outcome(p: Polynomial, cfg: TraceConfig) -> dict:
    """The discrete result of ``trace(p, cfg)`` and its sample angles, or the
    class of the error it raises."""
    try:
        res = trace(p, cfg)
    except MaxmodError as ex:
        return {"error": type(ex).__name__}
    at = {r: i for i, r in enumerate(res.radii)}
    sample_ri = np.array([at[r] for r in res.sample_r], dtype=int)
    per_curve = np.bincount(res.sample_curve)
    return {
        "error": None,
        "n_components": res.n_components,
        "component_ids": list(res.component_ids),
        "stable_radius": res.stable_radius,
        "counts": np.bincount(sample_ri, minlength=len(res.radii)).tolist(),
        "events": [[ev.kind, at[ev.r], ev.curve_id, ev.legitimate] for ev in res.events],
        # a curve is a run of consecutive radii: its first radius index and
        # its number of samples, per curve id
        "curves": [[int(sample_ri[a]), int(n)] for a, n in zip(np.cumsum(per_curve) - per_curve, per_curve)],
        "theta": list(res.sample_theta),
    }


def entry(name: str, p: Polynomial, cfg: TraceConfig) -> dict:
    return {
        "name": name,
        "coeffs": [[z.real, z.imag] for z in p.coeffs],
        "cfg": [cfg.r_min, cfg.r_max, cfg.n_radii],
        "expect": outcome(p, cfg),
    }


def hunt_members() -> list[tuple[HaymanForm, TraceConfig]]:
    """The ``(h, cfg)`` of every member the hunt command ``HUNT_ARGV``
    counts the curves of (``count_components``, the trace's root solve),
    in the order of its calls: the member's normal form and radii."""
    members = []
    hunt_count = cli.count_components

    def recorded(counted):
        members.extend(counted)
        return hunt_count(counted)

    cli.count_components = recorded
    try:
        if cli.main(HUNT_ARGV + ["--out", str(HERE / ".corpus-hunt.jsonl")]) != 0:
            raise SystemExit(f"{' '.join(HUNT_ARGV)} failed")
    finally:
        cli.count_components = hunt_count
        (HERE / ".corpus-hunt.jsonl").unlink(missing_ok=True)
    if not members:
        raise SystemExit(f"{' '.join(HUNT_ARGV)} counted no member's curves")
    return members


def random_inputs() -> list[tuple[Polynomial, TraceConfig]]:
    """Seeded polynomials of degree 2-16, every third real, about 30% of the
    middle coefficients 0, at r_max 0.3, 0.6 and 0.9 in turn."""
    rng = np.random.default_rng(CORPUS_SEED)
    out = []
    for case in range(RANDOM_TRACES):
        deg = int(rng.integers(2, 17))
        c = rng.normal(size=deg + 1) + (case % 3 != 0) * 1j * rng.normal(size=deg + 1)
        c[1:-1] *= rng.random(deg - 1) > 0.3
        c[0] = 1.0
        p = Polynomial(tuple(complex(x) for x in c))
        r_max = (0.3, 0.6, 0.9)[case % 3]
        r_min = min(max(1e-3, 1.5 * floor_radius(normalize(p))), r_max / 2)
        out.append((p, TraceConfig(r_min=r_min, r_max=r_max, n_radii=RANDOM_RADII)))
    return out


def build() -> list[dict]:
    entries = [
        entry("fig1-magic", parse_poly("1,0,1,1i"), TraceConfig(r_min=1e-3, r_max=0.3, n_radii=200)),
        entry("fig1-perturbed", parse_poly("1,0,1,0.001+1i"), TraceConfig(r_min=1e-3, r_max=0.05, n_radii=200)),
    ]
    ref = json.loads((HERE.parent / "perfbench" / "reference.json").read_text(encoding="utf-8"))
    for i, e in enumerate(ref["workloads"]["random_count"]):
        p = Polynomial(tuple(complex(re, im) for re, im in e["coeffs"]))
        entries.append(entry(f"random-count-{i}", p, TraceConfig(r_min=e["r_min"], r_max=0.3, n_radii=200)))
    for i, (h, cfg) in enumerate(hunt_members()):
        # a cubic member leads with the coefficient 1: its tail is its coefficients, bit for bit
        entries.append(entry(f"hunt-cubic-{i}", h.tail, cfg))
    for i, (p, cfg) in enumerate(random_inputs()):
        entries.append(entry(f"random-{i}", p, cfg))
    entries.append(entry("degree-8", parse_poly("1,1,1i,1,-1,1i,0.5,1,2"), TraceConfig(r_max=0.9)))
    crowded = parse_poly(",".join(["1", "0", "1"] + ["0"] * 21 + ["1"]))
    entries.append(entry("crowded", crowded, TraceConfig(r_min=0.05, r_max=0.95, n_radii=40)))
    return entries


def dumps(entries: list[dict]) -> str:
    """JSON with one entry per line, so a changed outcome shows as one
    changed line."""
    return "[\n" + ",\n".join(json.dumps(e) for e in entries) + "\n]\n"


if __name__ == "__main__":
    path = HERE / "corpus.json"
    path.write_text(dumps(build()), encoding="utf-8")
    print(f"wrote {path}")
