"""One fresh-interpreter start: import ``maxmod`` and make the first call of
a workload's entry point on a tiny input.

The runner times this whole process (interpreter start to exit) several
times and reports the median as ``setup_s``.  The first call pays every
lazy import, such as ``scipy.optimize`` inside the tangent fit.  The CLI's
exit code is not checked here: outcomes are checked in the measured run.

Usage: python3 perfbench/setup_probe.py <workload> <scratch dir>
"""

import contextlib
import os
import sys

import bootstrap

maxmod = bootstrap.load()
from maxmod import TraceConfig, classify, cli, parse_poly, trace  # noqa: E402

TINY = "1,0,1,1i"


def main(workload: str, workdir: str):
    if workload == "fig1":
        base = os.path.join(workdir, "probe")
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            cli.main(["trace", "--poly", TINY, "--radii", "12", "--grid", "256", "--json",
                      "--csv", base + ".csv", "--svg", base + ".svg"])
    elif workload == "random_count":
        trace(parse_poly(TINY), TraceConfig(n_radii=12, grid=256))
    elif workload == "hunt_cubic":
        cli.main(["hunt", "--family", "cubic", "--samples", "2", "--seed", "1",
                  "--out", os.path.join(workdir, "probe.jsonl"), "--quiet"])
    elif workload == "classify_mix":
        classify(parse_poly(TINY))
    else:
        raise SystemExit(f"unknown workload {workload!r}")


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
