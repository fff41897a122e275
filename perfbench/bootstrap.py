"""Load ``maxmod`` from the checkout's ``src`` with the load pinned.

Every benchmark process (runner, set-up probe, reference maker) calls
``load()`` before anything imports numpy.  It refuses an installed copy of
the package, so the benchmark always measures the tree it sits in and fails
where that tree has no ``src/maxmod``.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# one thread per process: BLAS pools off, the package's own pool unset
PINNED_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def load():
    """Pin the environment and the CPU, import ``maxmod`` from ``src`` and
    return it.

    The set-up probes this process starts inherit the environment and the
    CPU, so the host-speed calibration taken here applies to them.
    """
    if "numpy" in sys.modules:
        raise RuntimeError("numpy was imported before the thread pins were set")
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    os.environ.pop("MAXMOD_THREADS", None)
    os.environ.update(PINNED_ENV)
    sys.path.insert(0, str(SRC))
    import maxmod

    if not Path(maxmod.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"maxmod imported from {maxmod.__file__}, not from {SRC}")
    return maxmod
