"""Speed of the machine, sampled while the benchmark runs.

On a shared host the speed of a core drifts by tens of per cent within
minutes, as other tenants come and go. So while an end-to-end region is
timed, a fixed loop of plain Python and numpy calls (no demtrack code) is
timed too: on SIGALRM every REF_PERIOD_S of wall time during an iteration,
and back to back right after a region too short for that (the set-up). The
region's time is scaled by REF_CHUNK_S / (mean time of one loop), so it
reads as on a machine on which the loop takes REF_CHUNK_S. Unscaled wall
times are printed beside the scaled ones and kept in the run details.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

REF_LOOP = 1000
REF_CHUNK_S = 5e-4
REF_PERIOD_S = 0.05
REF_CHUNKS = 40


def reference_chunk(random) -> float:
    """Tuple building, float arithmetic, list appends and numpy Generator calls,
    the mix of the simulation loop, but no demtrack code: no library change
    moves its time."""
    acc = 0.0
    row = (0, 0, 0, 0)
    rows = []
    for i in range(REF_LOOP):
        row = (i, row[0] + 1, row[1], row[2])
        acc += (i % 7) * 0.5
        if i % 4 == 0:
            acc += random()
            rows.append(row)
    return acc


def _generator_random():
    return np.random.Generator(np.random.Philox(0)).random


def reference_speed() -> float:
    """Scale factor from REF_CHUNKS back-to-back loops, for a short region just run."""
    random = _generator_random()
    times = []
    for _ in range(REF_CHUNKS):
        start = time.perf_counter()
        reference_chunk(random)
        times.append(time.perf_counter() - start)
    return REF_CHUNK_S / statistics.mean(times)


class SpeedProbe:
    """Times ``reference_chunk`` on SIGALRM every REF_PERIOD_S inside a ``with``."""

    def __init__(self):
        self.times: list[float] = []
        self.busy = 0.0   # wall time spent in the reference loop
        self._random = _generator_random()

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, REF_PERIOD_S, REF_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _tick(self, signum, frame) -> None:
        # the first loop warms caches the workload evicted; the second is timed
        start = time.perf_counter()
        reference_chunk(self._random)
        mid = time.perf_counter()
        reference_chunk(self._random)
        end = time.perf_counter()
        self.times.append(end - mid)
        self.busy += end - start

    def scale(self) -> float:
        """Factor that converts the region's wall time to reference speed."""
        return REF_CHUNK_S / statistics.mean(self.times) if self.times else reference_speed()
