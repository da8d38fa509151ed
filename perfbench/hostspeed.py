"""Host-speed reference: a fixed pure-Python kernel timed between jobs.

On a shared host the speed of the CPU drifts by tens of percent over
seconds to minutes, and the process's CPU time drifts with its wall time,
so neither clock alone tells a slower program from a busier host.  The
benchmark therefore runs this kernel, which never changes and does not
touch `torquiv`, after every job and around every set-up, and scales each
measured time by `REFERENCE_S` over the median kernel time of the samples
taken within `WINDOW_S` of it.  A scaled time reads as the time the job
would take on a host where the kernel takes exactly `REFERENCE_S`; a host
that runs everything 30% slower for a while leaves it unchanged, a program
that does 30% more work does not.  The median over a window, rather than
the two samples next to a job, keeps one interrupted sample from moving a
job's time.
"""

from __future__ import annotations

import bisect
import gc
import statistics
import time

REFERENCE_S = 0.001  # the kernel's nominal time; sets the scale, not a measurement
WINDOW_S = 0.5  # samples this close to a timed interval describe its host speed
WARMUP = 20


def _kernel() -> int:
    """Dict, set, tuple-hash, sort and string work, like the library's own."""
    table: dict[int, int] = {}
    acc = 0
    for i in range(1500):
        k = (i * 7919) % 2039
        table[k] = table.get(k, 0) + i
        acc ^= hash((k, i & 31))
    keys = set(table)
    ranked = sorted(table.items(), key=lambda kv: (kv[1] % 97, kv[0]))
    text = "".join(str(k) for k, _v in ranked[:250])
    return acc + len(keys) + len(text)


def _time_kernel() -> tuple[float, float]:
    """(midpoint, seconds) of one kernel run, with the collector held off
    so that the library's heap does not show in it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _kernel()
        end = time.perf_counter()
    finally:
        if enabled:
            gc.enable()
    return (start + end) / 2, end - start


class HostSpeed:
    """Kernel samples in time order; `scale` turns a measured interval
    into reference seconds."""

    def __init__(self) -> None:
        for _ in range(WARMUP):
            _time_kernel()
        self.at: list[float] = []
        self.seconds: list[float] = []

    def sample(self, n: int = 1) -> None:
        for _ in range(n):
            at, seconds = _time_kernel()
            self.at.append(at)
            self.seconds.append(seconds)

    def kernel_seconds(self, start: float, end: float) -> float:
        """Median kernel time of the samples within `WINDOW_S` of
        [start, end], or of the one on either side when none is."""
        lo = bisect.bisect_left(self.at, start - WINDOW_S)
        hi = bisect.bisect_right(self.at, end + WINDOW_S)
        if lo == hi:
            lo, hi = max(lo - 1, 0), lo + 1
        return statistics.median(self.seconds[lo:hi])

    def scale(self, start: float, end: float) -> float:
        """Reference seconds of the interval [start, end] (perf_counter)."""
        return (end - start) * REFERENCE_S / self.kernel_seconds(start, end)
