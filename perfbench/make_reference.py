"""Build ``reference.json``: the input pools and each input's outcome.

Run from the repository root when the pools or the program's discrete
outcomes change on purpose:

    python3 perfbench/make_reference.py

Pools are drawn from the acceptance suite's seed.  Every input is run once
and its discrete outcome stored; an input whose run breaks a theory check
stops the script, so the stored outcomes are known good.
"""

from __future__ import annotations

import cmath
import json
import math
import tempfile

import bootstrap

bootstrap.load()
import numpy as np  # noqa: E402

from maxmod import Polynomial, ambiguity_radius, classify, floor_radius, normalize  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

POOL_SEED = 20260809  # the acceptance suite's seed
RANDOM_COUNT_INPUTS = 12
CLASSIFY_INPUTS = 200
HUNT_COMMANDS = 10
HUNT_SAMPLES = 4


def polar(rng) -> list[float]:
    z = rng.uniform(0.5, 2.0) * cmath.exp(1j * rng.uniform(-math.pi, math.pi))
    return [z.real, z.imag]


def random_count_pool(rng) -> list[dict]:
    """The acceptance suite's criterion-02 generator, draw for draw: degrees
    3-8, k in {1,2,3}, non-exceptional, residuals >= 1e-6, r_min <= 0.01."""
    pool = []
    while len(pool) < RANDOM_COUNT_INPUTS:
        k = int(rng.choice([1, 2, 3]))
        deg = int(rng.integers(max(3, k + 1), 9))
        exps = {k, deg}
        for e2 in range(k + 1, deg):
            if rng.random() < 0.5:
                exps.add(e2)
        coeffs = [[0.0, 0.0] for _ in range(deg + 1)]
        coeffs[0] = [1.0, 0.0]
        for e2 in sorted(exps):
            coeffs[e2] = polar(rng)
        p = Polynomial(tuple(complex(*c) for c in coeffs))
        c = classify(p)
        if c.exceptional:
            continue
        if any(float(w.split("residual=")[1]) < 1e-6 for w in c.warnings):
            continue
        h = normalize(p)
        r_min = max(2e-4, 1.5 * floor_radius(h), 3.0 * ambiguity_radius(h))
        if r_min > 0.01:
            continue
        pool.append({"coeffs": coeffs, "r_min": r_min})
    return pool


def classify_pool(rng) -> list[dict]:
    """Degrees 2-12; every second input has one phase solved from the
    resonance equation ``m pi = (k/sigma)(m' pi - arg b_sigma) + arg a`` and
    is kept only if classify() then finds it exceptional."""
    pool = []
    while len(pool) < CLASSIFY_INPUTS:
        on_locus = len(pool) % 2 == 1
        deg = int(rng.integers(3 if on_locus else 2, 13))
        k = int(rng.integers(2 if on_locus else 1, deg))
        exps = sorted({k, deg} | {e for e in range(k + 1, deg) if rng.random() < 0.3})
        coeffs = [[0.0, 0.0] for _ in range(deg + 1)]
        coeffs[0] = [1.0, 0.0]
        for e in exps:
            coeffs[e] = polar(rng)
        if on_locus:
            sigma = int(rng.choice(exps[1:]))
            m = int(rng.integers(1, 2 * k - 2))
            m_prime = int(rng.integers(0, 4))
            arg_a = math.atan2(coeffs[k][1], coeffs[k][0])
            phase = m_prime * math.pi - sigma * (m * math.pi - arg_a) / k
            z = abs(complex(*coeffs[sigma])) * cmath.exp(1j * phase)
            coeffs[sigma] = [z.real, z.imag]
            if not classify(Polynomial(tuple(complex(*c) for c in coeffs))).exceptional:
                continue
        pool.append({"coeffs": coeffs, "on_locus": on_locus})
    return pool


def build() -> dict:
    rng = np.random.default_rng(POOL_SEED)
    pools = {
        "fig1": [{"commands": [
            {"poly": "1,0,1,1i", "rmin": 1e-3, "rmax": 0.3, "radii": 200},
            {"poly": "1,0,1,0.001+1i", "rmin": 1e-3, "rmax": 0.05, "radii": 200},
        ]}],
        "random_count": random_count_pool(rng),
        "hunt_cubic": [
            {"seed": POOL_SEED + i, "samples": HUNT_SAMPLES} for i in range(HUNT_COMMANDS)
        ],
        "classify_mix": classify_pool(np.random.default_rng(POOL_SEED)),
    }
    with tempfile.TemporaryDirectory(dir=bootstrap.ROOT, prefix=".perfbench-") as workdir:
        for name, pool in pools.items():
            w = WORKLOADS[name](workdir)
            for entry in pool:
                prepared = w.prepare(entry)
                outcome, bad = w.evaluate(prepared, w.run(prepared))
                if bad:
                    raise SystemExit(f"{name} {entry}: {bad}")
                entry["expect"] = outcome
    return {"pool_seed": POOL_SEED, "workloads": pools}


def dumps(ref: dict) -> str:
    """JSON with one pool entry per line, so a changed outcome shows as one
    changed line."""
    pools = ",\n".join(
        f"  {json.dumps(name)}: [\n" + ",\n".join(f"    {json.dumps(e)}" for e in pool) + "\n  ]"
        for name, pool in ref["workloads"].items()
    )
    return f'{{"pool_seed": {ref["pool_seed"]}, "workloads": {{\n{pools}\n}}}}\n'


if __name__ == "__main__":
    path = bootstrap.ROOT / "perfbench" / "reference.json"
    path.write_text(dumps(build()), encoding="utf-8")
    print(f"wrote {path}")
