"""A speedometer for a shared machine.

On a machine shared with other tenants the same pure-Python work runs at
speeds that differ by up to 2.5x and change over seconds to minutes (see
README.md).  A `Speedometer` samples the speed of the machine while a timed
phase runs in this process: every INTERVAL_S of wall time a SIGALRM handler
times one fixed chunk of small-dict arithmetic on tuple keys (the inner
loop of the `poly` kernel), and `factor` is (REFERENCE_S / median chunk
time) ** EXPONENT.  Wall time times factor estimates the time the phase
would have taken at the reference speed.

The workloads slow down less than the chunk when the machine is contended:
when the chunk took 1.6x its reference time, they took 1.3x to 1.5x theirs.
EXPONENT models that.  Over nine runs per workload (README.md) the spread
of the median repetition time was smallest at 0.75-0.9 for `operator`,
0.7-0.75 for `paths` and 0.5 for `catalog`; 0.7 serves all three.

The chunk's data fit in a few kilobytes, so the timed program's own memory
traffic barely changes it, and the cyclic collector is off while it runs,
so that a collection of the program's objects is not read as a slower
machine.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time

INTERVAL_S = 0.1
EDGE_SAMPLES = 3  # chunks timed just before and just after the phase
# Median chunk time at the fast speed of the reference machine (README.md).
REFERENCE_S = 0.0008
EXPONENT = 0.7

_TERMS = tuple(((i, j), 3 * i + 5 * j + 1) for i in range(8) for j in range(8))


def chunk() -> float:
    """Seconds to multiply two fixed 64-term sparse polynomials."""
    enabled = gc.isenabled()
    gc.disable()
    t0 = time.perf_counter()
    out: dict = {}
    for (ia, ja), ca in _TERMS:
        for (ib, jb), cb in _TERMS:
            key = (ia + ib, ja + jb)
            out[key] = out.get(key, 0) + ca * cb
    seconds = time.perf_counter() - t0
    if enabled:
        gc.enable()
    return seconds


class Speedometer:
    """Context manager that samples `chunk` before, during and after a phase."""

    def __init__(self):
        self.samples: list = []
        self._previous = None

    def _tick(self, signum, frame) -> None:
        self.samples.append(chunk())

    def __enter__(self) -> "Speedometer":
        self.samples += [chunk() for _ in range(EDGE_SAMPLES)]
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.samples += [chunk() for _ in range(EDGE_SAMPLES)]

    def factor(self) -> float:
        return (REFERENCE_S / statistics.median(self.samples)) ** EXPONENT
