"""Smoke test of the benchmark: every workload on one input, in both modes.

    python3 -m pytest perfbench/test_smoke.py -q

Each run must print every metric that ``BENCHMARK.json`` names for its mode,
with that metric's unit, and find every output correct.  A tree without the
package must make the benchmark fail without printing a result.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_printed_with_its_unit(workload, trace):
    proc = run_bench(ROOT, "--workload", workload, "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == wanted
    for name, unit in wanted.items():
        value = result["metrics"][name]["value"]
        assert isinstance(value, (int, float)) and value >= 0, (name, value)
        assert any(line.startswith(f"{workload} {name} = ") and line.endswith(f" {unit}") for line in lines)


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "--workload", SPEC["workloads"][0]["name"], "--smoke")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
