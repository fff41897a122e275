"""Host-speed calibration for every time the benchmark reports.

The host is shared: the same code runs up to 1.6 times slower from one
second to the next as other tenants load the machine.  So each run times a
fixed loop between its inputs, about once per ``EVERY_S`` of program time,
and scales each measured time by ``NOMINAL_S`` over the mean of the two
loop times around it.
The loop does the three kinds of work maxmod does (term sums over a
4096-point grid as in the scan, many numpy calls on tiny arrays as in Newton
refinement, plain complex arithmetic as in linking and classification), so
it slows down with the host as the program does.  It lives here, not in the
package, so no change to the program can move it.
"""

from __future__ import annotations

import cmath
import math
import statistics
from time import perf_counter

import numpy as np

NOMINAL_S = 6.5e-3  # one loop on the 2-core host the benchmark was defined on
EVERY_S = 0.1

_X = np.linspace(0.0, 2.0 * math.pi, 4096)
_AMP = np.linspace(0.2, 1.0, 6)
_FREQ = np.arange(1.0, 7.0)
_PHASE = np.linspace(0.0, 1.0, 6)


def _work() -> float:
    s = np.zeros(_X.size)
    comp = np.zeros(_X.size)
    for t in range(_AMP.size):
        x = _AMP[t] * np.cos(_FREQ[t] * _X + _PHASE[t])
        tot = s + x
        comp += np.where(np.abs(s) >= np.abs(x), (s - tot) + x, (x - tot) + s)
        s = tot
    th = np.array([0.1, 2.0])
    for _ in range(40):
        d1 = -(_AMP[:3, None] * _FREQ[:3, None] * np.sin(_FREQ[:3, None] * th + _PHASE[:3, None])).sum(axis=0)
        th = np.where(d1 > 0, th + 1e-4, th - 1e-4)
    acc = 0.0
    for i in range(400):
        z = cmath.rect(1.0 + i % 5, i * 1e-3)
        acc += abs(z) * math.atan2(z.imag, z.real)
    return acc + float(s[0] + comp[0] + th[0])


class Calibration:
    """Loop times taken during one run, in order.

    A time measured after loop ``mark()`` is scaled by ``factor(mark)``,
    which needs the next loop too: take one after the last measurement.
    """

    def __init__(self):
        self.times: list[float] = []
        self._since = 0.0
        self.take()

    def take(self):
        t0 = perf_counter()
        for _ in range(4):
            _work()
        self.times.append(perf_counter() - t0)

    def tick(self, busy_s: float):
        """Count ``busy_s`` of program time; take a loop time when due."""
        self._since += busy_s
        if self._since >= EVERY_S:
            self.take()
            self._since = 0.0

    def mark(self) -> int:
        return len(self.times) - 1

    def factor(self, mark):
        """Multiply a time measured between loops ``mark`` and ``mark + 1``
        by this to get nominal-host time; ``mark`` may be an index array."""
        t = np.asarray(self.times)
        return 2.0 * NOMINAL_S / (t[mark] + t[np.asarray(mark) + 1])

    def describe(self) -> str:
        t = self.times
        return (f"host calibration: {len(t)} loops, median {1e3 * statistics.median(t):.3f} ms, "
                f"range {1e3 * min(t):.3f}-{1e3 * max(t):.3f} ms, nominal {1e3 * NOMINAL_S:.3f} ms")
