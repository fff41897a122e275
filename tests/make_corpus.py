"""Build ``corpus.json``, seeded trace inputs and each one's outcome, and
``classify_corpus.json``, seeded classify inputs and the exact JSON that
``classify`` prints for each.

Run from the repository root when the program's outcomes change on purpose:

    PYTHONPATH=src python3 tests/make_corpus.py

``test_corpus.py`` traces and classifies every input again and compares.
The trace inputs are fig1's pair, the benchmark's random_count pool (read
from ``perfbench/reference.json``), the traced members of one cubic hunt,
about 300 seeded polynomials of degree 2-16, a third of them real, and
inputs that once failed.  Each outcome holds the error class or the
discrete result (``n_components``, ``component_ids``, ``stable_radius``,
the co-maximal count per radius, the events with their radius index) and
every sample angle.  :func:`classify_inputs` describes the classify
inputs.
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
    classify,
    cli,
    floor_radius,
    normalize,
    parse_poly,
    trace,
)
from maxmod.util import canonical_json

CORPUS_SEED = 20261019
RANDOM_TRACES = 300
RANDOM_RADII = 50
CLASSIFY_SEED = 20261020
CLASSIFY_INPUTS = 400
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


def hunt_schedule(r_min: float) -> TraceConfig:
    """160 radii from 0.3 down to a hunt member's counted radius ``r_min``:
    the schedule on which the corpus and the tests trace the member."""
    return TraceConfig(r_min=r_min, r_max=0.3, n_radii=160)


def hunt_members() -> list[tuple[HaymanForm, TraceConfig]]:
    """The ``(h, cfg)`` of every member the hunt command ``HUNT_ARGV``
    counts the curves of (``count_components``), in the order of its
    calls: the member's normal form and :func:`hunt_schedule`."""
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
    return [(h, hunt_schedule(r_min)) for h, r_min in members]


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


def classify_outcome(p: Polynomial) -> str | dict:
    """What ``classify --json`` prints for ``p``, or the class of the error
    ``classify`` raises."""
    try:
        return canonical_json(classify(p).to_json_dict())
    except MaxmodError as ex:
        return {"error": type(ex).__name__}


def _on_locus(rng: np.random.Generator, c: np.ndarray, least: int, off: float) -> None:
    """Turn the phases of ``least``-2 coefficients of ``c`` (which leads
    with 1, so ``c`` is its own tail) onto the resonance locus of a scan
    exponent, each ``off`` radians away from it."""
    h = normalize(Polynomial(tuple(complex(x) for x in c)))
    sigmas = [e for e in range(h.k + 1, h.N + 1) if c[e] != 0]
    if h.k < 2 or not sigmas:
        return  # k = 1 never resonates; a two-term tail has nothing to turn
    arg_a = float(np.angle(c[h.k]))
    for sigma in rng.choice(sigmas, size=min(len(sigmas), int(rng.integers(least, 3))), replace=False):
        phase = cli._locus_phase(rng, k=h.k, sigma=int(sigma), arg_a=arg_a) + off
        c[sigma] = abs(c[sigma]) * np.exp(1j * phase)


def classify_inputs() -> list[tuple[str, Polynomial]]:
    """Seeded tails of degree 2-12, every third real, about 30% of the
    middle coefficients 0.  Each is a polynomial in ``z^mu``, mu = 1, 2 or
    3 in turn by threes; every tenth is a cubic ``1 + a z^2 + b z^3``.  On
    the complex ones, 0-2 tail terms sit on the resonance locus
    (``cli._locus_phase``); on every seventh, 1-2 terms sit 1e-8 off it,
    which the scan warns of, and on the cubics at least one sits on it
    (where k >= 2 and the core has a term above z^k).  Every fifth is a
    truncated series; every 25th has ratios near 1e150 or 1e-150 and every
    11th a factor ``c z^m``, m = 0-3, in front.  One input per error class
    ends the list."""
    rng = np.random.default_rng(CLASSIFY_SEED)
    out = []
    for case in range(CLASSIFY_INPUTS):
        cubic, near = case % 10 == 1, case % 7 == 0
        mu = 1 if cubic else 1 + case // 3 % 3
        base = 3 if cubic else int(rng.integers(1 if mu > 1 else 2, 12 // mu + 1))
        b = rng.normal(size=base + 1) + (case % 3 != 0) * 1j * rng.normal(size=base + 1)
        b[1:-1] *= rng.random(base - 1) > 0.3
        b[0] = 1.0
        if cubic:
            b[1] = 0.0
        c = np.zeros(base * mu + 1, dtype=complex)
        c[::mu] = b
        if case % 3 != 0:
            _on_locus(rng, c, int(cubic or near), 1e-8 if near else 0.0)
        if case % 25 == 0:
            c[0] = (1e-150, 1e150)[case % 2]
        if case % 11 == 0:
            c = np.concatenate([np.zeros(case % 4), c * complex(rng.normal(), rng.normal())])
        p = Polynomial(tuple(complex(x) for x in c), truncated=case % 5 == 0)
        out.append((f"classify-{case}", p))
    out.append(("error-zero", Polynomial(())))
    out.append(("error-monomial", parse_poly("0,0,3")))
    out.append(("error-range", parse_poly("1e-300,1e300")))
    return out


def build_classify() -> list[dict]:
    return [
        {
            "name": name,
            "coeffs": [[z.real, z.imag] for z in p.coeffs],
            "truncated": p.truncated,
            "expect": classify_outcome(p),
        }
        for name, p in classify_inputs()
    ]


def dumps(entries: list[dict]) -> str:
    """JSON with one entry per line, so a changed outcome shows as one
    changed line."""
    return "[\n" + ",\n".join(json.dumps(e) for e in entries) + "\n]\n"


if __name__ == "__main__":
    for name, entries in (("corpus.json", build()), ("classify_corpus.json", build_classify())):
        path = HERE / name
        path.write_text(dumps(entries), encoding="utf-8")
        print(f"wrote {path}")
