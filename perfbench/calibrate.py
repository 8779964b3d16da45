"""Machine-speed normalization for every reported time.

The benchmark shares its machine with other work, and the machine's
speed is not one number.  On the two-core host it was sized on, a fixed
loop of interpreter work switches between a fast and a slow mode (about
1.9 and 3.1 ms) from one sample to the next and stays in one mode for
anything from tens of milliseconds to seconds; every layer of the
program slows by the same factor.  Scaling a whole run by one median
loop time then jumps by the ratio of the two modes whenever the run
spends about half its time in each, and a tail percentile of raw times
counts how long the run spent in the slow mode.

So every timed request runs between two samples of a fixed pure-Python
reference loop, and its time is scaled by ``REFERENCE_MS / mean(the two
samples)``: it reads as milliseconds on a machine where the loop takes
exactly ``REFERENCE_MS``, at the speed the machine had while it ran.  A
sample that ended a moment ago is reused as the next request's first
sample.  The raw loop median of each phase is printed next to the
result, and scales what the traced run reports.

Interference from other work does not slow every kind of work alike:
arithmetic alone tracked the slowdowns of the cache-hit path less well
than a mix with allocation does, and allocation alone over-corrected,
so the loop does both.  Everything it allocates is freed at once, by
reference counting, so the size of the program's heap does not change
its time; a program change that bloats the heap still shows in the
scaled times.
"""

from __future__ import annotations

import math
import statistics
import time
from typing import Callable, TypeVar

T = TypeVar("T")

REFERENCE_MS = 1.0
#: A sample that ended less than this long ago still describes the
#: machine, so the next request uses it as its first sample.
FRESH_S = 0.002


def reference_loop() -> int:
    """About 3 ms of interpreter work in two halves: integer arithmetic,
    then small dicts, tuples, lists and strings made and dropped, the
    kind of object churn the program's request path does."""
    acc = 0
    for i in range(20_000):
        acc += i * i % 7
    for i in range(1_500):
        d = {"a": i, "b": (i, i + 1), "c": [i, i, i]}
        acc += len(d) + len(f"q{i}x") + d["b"][1] % 7
    return acc


class Calibration:
    """Reference-loop samples for one phase of a run."""

    def __init__(self) -> None:
        self.samples_ms: list[float] = []
        self._ended = -math.inf

    def sample(self) -> float:
        """Time the reference loop once; return the time in ms."""
        t0 = time.perf_counter()
        reference_loop()
        t1 = time.perf_counter()
        self.samples_ms.append((t1 - t0) * 1e3)
        self._ended = t1
        return self.samples_ms[-1]

    def latest(self) -> float:
        """The last sample if it ended within ``FRESH_S``, else a new one."""
        if time.perf_counter() - self._ended < FRESH_S:
            return self.samples_ms[-1]
        return self.sample()

    def call(self, fn: Callable[..., T], *args, **kwargs) -> tuple[T, float]:
        """``fn(*args, **kwargs)`` and its time in scaled ms, taken
        between two reference samples.  An exception propagates."""
        before = self.latest()
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        ms = (time.perf_counter() - t0) * 1e3
        after = self.sample()
        return out, ms * REFERENCE_MS / ((before + after) / 2)

    @property
    def loop_ms(self) -> float:
        return statistics.median(self.samples_ms)

    @property
    def factor(self) -> float:
        """Multiply a time measured in this phase by this."""
        return REFERENCE_MS / self.loop_ms
