"""Host-speed probe: the speed of the CPU a child runs on, while it runs.

On a shared host the CPU a child runs on slows by up to half, for
seconds to minutes at a time, as other tenants load the same core.
The same cold run then takes 5.6 s or 9.7 s, and no choice of sample
within one benchmark run removes that (README, "Steadying the times").

A :class:`SpeedProbe` runs in the parent while one child runs, pinned to
the child's CPU.  Every ``PERIOD_S`` it runs :func:`chunk`, a fixed
pure-Python loop, and records its thread CPU time.  The mean chunk time
over the child's life says how fast that CPU ran for the child, so
:meth:`SpeedProbe.scale` turns the child's time into its time at the
reference speed, where a chunk takes ``REFERENCE_S``.  A change to the
program moves the child's time and not the chunk's, so it still shows.
"""

from __future__ import annotations

import os
import threading
import time
from typing import List

PERIOD_S = 0.05
#: CPU time of one chunk on a quiet shared 2-core x86-64 host, Python 3.11
REFERENCE_S = 0.0008


def chunk(n: int = 4000) -> int:
    """Dict updates and integer arithmetic, like the simulator's own loops."""
    counts: dict = {}
    total = 0
    for i in range(n):
        key = (i * 2654435761) & 4095
        counts[key] = counts.get(key, 0) + 1
        total += key
    return total


class SpeedProbe:
    """Times :func:`chunk` on ``cpu`` every ``PERIOD_S`` until the block exits.

    The first chunk runs at once, so even a child that exits at once
    gets one sample.  The chunks take about 2% of the CPU; ``busy_s`` is
    that time, which the child did not get.
    """

    def __init__(self, cpu: int) -> None:
        self.cpu = cpu
        self.times: List[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def __enter__(self) -> "SpeedProbe":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def _run(self) -> None:
        os.sched_setaffinity(threading.get_native_id(), {self.cpu})
        while True:
            started = time.thread_time()
            chunk()
            self.times.append(time.thread_time() - started)
            if self._stop.wait(PERIOD_S):
                return

    @property
    def busy_s(self) -> float:
        return sum(self.times)

    @property
    def slowdown(self) -> float:
        """Mean chunk time over the reference: 1.5 means 50% slower."""
        return sum(self.times) / len(self.times) / REFERENCE_S

    def scale(self, seconds: float) -> float:
        """``seconds`` measured while the probe ran, at the reference speed."""
        return seconds / self.slowdown
