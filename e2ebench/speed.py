"""Correction of timings for the machine's drifting speed.

On the 2-vCPU VM the baseline was recorded on, other tenants share the
cores: a fixed piece of pure-Python work took from 5.5 to 9.9 ms (median
per 5-s window) within one 90-s stretch, and two runs of one corpus a
minute apart differed by 20-30 % in throughput.  So each latency is divided by the duration of a
fixed *reference unit* timed on the same core around and during it, and
multiplied by `REFERENCE_S`, the unit's duration on that machine when
uncontended.  The result reads as the latency at uncontended speed.  The
reference shares no code with arrdmod, so a change to the program cannot
move it.
"""

from __future__ import annotations

import os
import signal
import statistics
import time
from fractions import Fraction

# Duration of one `reference_unit` on an uncontended core of the 2-vCPU VM
# the baseline was recorded on (5th percentile of 2000 `reference_sample`s).
REFERENCE_S = 0.39e-3


def reference_unit():
    """Fixed pure-Python work shaped like the program's (rational sums and a
    fraction-free integer elimination); it shares no code with arrdmod."""
    total = Fraction(0)
    for i in range(1, 120):
        total += Fraction(i % 7 - 3, i % 11 + 1)
    mat = [[(i * 7 + j * 13) % 17 - 8 for j in range(7)] for i in range(6)]
    prev = 1
    for k in range(6):
        piv = mat[k][k] or 1
        for row in mat[k + 1 :]:
            f = row[k]
            for j in range(k, 7):
                row[j] = (row[j] * piv - f * mat[k][j]) // prev
        prev = piv
    return total, mat


def reference_sample() -> float:
    """Median duration of three reference units: the core's speed now."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        reference_unit()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class SpeedProbe:
    """Tracks the core's speed while a request runs.

    A request can last seconds, longer than the machine keeps one speed, so
    samples taken only before and after it miss what happened meanwhile.
    While armed, an interval timer runs one reference unit every `TICK_S`
    on this thread, hence this core; the probe keeps each unit's duration
    and their total, which the caller takes out of the request's latency.
    A probe made with ``armed=False`` sets no timer and records nothing.
    """

    TICK_S = 0.02

    def __init__(self, armed: bool = True):
        self.armed = armed
        self.samples: list[float] = []
        self.spent = 0.0

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        reference_unit()
        took = time.perf_counter() - t0
        self.samples.append(took)
        self.spent += took

    def __enter__(self) -> "SpeedProbe":
        self.samples, self.spent = [], 0.0
        if not self.armed:
            return self
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.TICK_S, self.TICK_S)
        return self

    def __exit__(self, *exc) -> None:
        if not self.armed:
            return
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


def pin_to_current_cpu() -> None:
    """Keep this process, and the interpreters it spawns, on the core it
    started on, so that reference samples time the core the requests use."""
    try:
        with open("/proc/self/stat", encoding="ascii") as fh:
            cpu = int(fh.read().rsplit(")", 1)[1].split()[36])
        os.sched_setaffinity(0, {cpu})
    except (OSError, ValueError, IndexError, AttributeError):
        pass
