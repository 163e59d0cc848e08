"""Host speed, measured with a fixed piece of pure-Python work.

The benchmark's host is shared, and its speed moves by a third or more in
regimes of seconds to minutes, with CPU time moving as much as wall time.
So every reported time is scaled to a reference speed: a time measured
while one chunk of the work below took ``c`` seconds on average is reported
as ``time * REFERENCE_S / c``, in seconds of a host on which a chunk takes
``REFERENCE_S``.  The raw times are kept in the record.

While jobs run, ``Sampler`` times one chunk every ``INTERVAL_S`` from a
timer signal, so the chunks read the host's speed evenly over the jobs,
and the time spent in them is taken out of the jobs' time.  A set-up is too
short for that; it is scaled by a ``calibrate()`` just before it and one
just after it.

The work is what the group layer spends its time on: composing permutations
as tuples and looking them up in a set.  It never calls ``etmaps``, so no
change to the program moves it.
"""

from __future__ import annotations

import signal
import statistics
from collections import deque
from time import perf_counter

POINTS = 24
COMPOSITIONS = 3000  # one chunk, about 5 ms on the reference host
CHUNKS = 9  # one calibrate()
INTERVAL_S = 0.2  # the sampler's period: its chunks take about 3 % of the time
# about the median chunk on the host of the baseline in README.md
REFERENCE_S = 0.006

_CYCLE = tuple((i + 1) % POINTS for i in range(POINTS))
_SWAP = (1, 0) + tuple(range(2, POINTS))


def chunk() -> float:
    """Seconds for COMPOSITIONS steps of a breadth-first closure of
    <(0 1 ... 23), (0 1)>, whose queue never runs dry this soon."""
    start = perf_counter()
    seen = {_CYCLE}
    queue = deque(seen)
    for _ in range(COMPOSITIONS // 2):
        p = queue.popleft()
        for g in (_CYCLE, _SWAP):
            q = tuple(p[i] for i in g)
            if q not in seen:
                seen.add(q)
                queue.append(q)
    return perf_counter() - start


def calibrate() -> float:
    """Median seconds of CHUNKS chunks in a row: the host's speed now."""
    return statistics.median(chunk() for _ in range(CHUNKS))


def scaled(seconds: float, chunk_s: float) -> float:
    """``seconds`` measured while a chunk took ``chunk_s``, in seconds of the
    reference host."""
    return seconds * REFERENCE_S / chunk_s


class Sampler:
    """Within ``with Sampler() as s:``, one chunk every INTERVAL_S of wall
    time, run from SIGALRM between two bytecodes of whatever is running.
    ``s.chunks`` are their times; ``s.clock()`` is ``perf_counter`` stopped
    while the handler runs."""

    def __init__(self):
        self.chunks: list[float] = []
        self.overhead_s = 0.0

    def _sample(self, signum, frame) -> None:
        start = perf_counter()
        self.chunks.append(chunk())
        self.overhead_s += perf_counter() - start

    def clock(self) -> float:
        return perf_counter() - self.overhead_s

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
