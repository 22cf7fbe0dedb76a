"""Host-speed-normalized timing in process CPU time.

On a shared 2-vCPU cloud VM (Python 3.11, numpy 2.4) two effects move the
time of pure-Python code. The process is descheduled for up to about 10 ms
at a time, which inflates wall time but not CPU time; and the CPU time of a
fixed piece of work swings by about 1.3x every few seconds. Over ten seeds
of 25-second random-pipeline runs, wall-clock ``ops_per_s`` spread 12% and
the wall-clock tail latency 25% (quartile distance over the median).

So every interval is measured in process CPU time, which drops the
descheduling, and scaled by the host's current speed, which cancels the
swings. :class:`SpeedClock` samples that speed by running a fixed reference
kernel from a ``SIGALRM`` handler every ``PERIOD`` seconds, so it samples
during long ops too. An interval's normalized duration is its CPU time
minus the handler's CPU time inside it, multiplied by the mean of
``REFERENCE_S / kernel CPU time`` over the samples taken within ``WINDOW``
seconds of its wall interval: seconds on a host where the kernel takes
``REFERENCE_S``. The kernel shares no code with orthocat, so a change to
the library's code never moves it; it does share the process's heap,
caches and interpreter (see README.md).
"""

from __future__ import annotations

import bisect
import gc
import signal
import time
from typing import Callable

PERIOD = 0.02
WINDOW = 0.04
# The kernel's time at the faster of the two speeds of that VM; it only
# sets the scale of the reported numbers.
REFERENCE_S = 0.0003


def kernel() -> int:
    """Fixed allocation-heavy pure-Python work: tuple keys in a dict, sorted
    tuples, a set of frozensets (the mix of the library's hot loops)."""
    index: dict[tuple[int, int], int] = {}
    for i in range(300):
        key = (i % 97, i * 7 % 1013)
        if key not in index:
            index[key] = len(index)
    rows = [tuple(sorted((v, v ^ 5, v % 7))) for v in index.values()]
    return len({frozenset(row) for row in rows})


class SpeedClock:
    """Samples the reference kernel while started; normalizes CPU intervals."""

    def __init__(self, on_pause: Callable[[float], None] | None = None) -> None:
        self._on_pause = on_pause
        self._pause_start: list[float] = []
        self._pause_len: list[float] = []
        self._sample_at: list[float] = []
        self._speed: list[float] = []  # REFERENCE_S / kernel CPU time, per sample
        self._previous = None

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._tick()
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._tick()

    def _tick(self, signum=None, frame=None) -> None:
        t0 = time.perf_counter()
        c0 = time.process_time()
        # No collection inside the kernel: its garbage is freed before it
        # returns, so the program's collection schedule stays as it was.
        enabled = gc.isenabled()
        gc.disable()
        try:
            k0 = time.process_time()
            kernel()
            k1 = time.process_time()
        finally:
            if enabled:
                gc.enable()
        self._sample_at.append(t0)
        self._speed.append(REFERENCE_S / (k1 - k0))
        pause = time.process_time() - c0
        self._pause_start.append(t0)
        self._pause_len.append(pause)
        if self._on_pause is not None:
            self._on_pause(pause)

    def paused(self, start: float, end: float) -> float:
        """Handler CPU time inside the wall interval [start, end]; a handler
        never straddles a clock read of the interrupted code, so each is in
        or out."""
        lo = bisect.bisect_left(self._pause_start, start)
        hi = bisect.bisect_left(self._pause_start, end)
        return sum(self._pause_len[lo:hi])

    def factor(self, start: float, end: float) -> float:
        """Mean sampled speed within WINDOW of the wall interval [start, end]."""
        lo = bisect.bisect_left(self._sample_at, start - WINDOW)
        hi = bisect.bisect_right(self._sample_at, end + WINDOW)
        near = self._speed[lo:hi]
        if not near:  # handler starved for the whole window: use every sample
            near = self._speed
        return sum(near) / len(near)

    def normalized(self, start: float, end: float, cpu: float) -> float:
        """Seconds that ``cpu`` CPU seconds, spent in the wall interval
        [start, end], would take at the reference speed."""
        return (cpu - self.paused(start, end)) * self.factor(start, end)
