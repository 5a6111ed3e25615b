"""Stopwatches for the benchmark's timed phases.

The benchmark runs on small shared machines whose speed drifts: the same
Figure 7 grid takes anywhere from 10 to 13 seconds within minutes, and a
slow phase can last several seconds.  :class:`HostClock` measures a call
in *reference seconds* instead: while the call runs, an interval timer
interrupts it every ``SLICE_S`` and times a fixed pure-Python
calibration loop, and every slice of the call is scaled by how long that
loop took around it, relative to ``REFERENCE_LOOP_S``.  A reference
second is therefore a second of a host on which the loop takes
``REFERENCE_LOOP_S``.  The loop is the benchmark's own code, so a faster
program reads faster and a slower host does not read slower.  The
loop's own time is excluded from the measured call.

:class:`Stopwatch` is the plain wall clock with the same interface; the
traced run uses it, because the calibration loop would otherwise run
inside the program's spans.
"""

from __future__ import annotations

import signal
import time
from typing import Any, Optional

#: Seconds the calibration loop takes on the reference host (a 2-vCPU
#: x86-64 VM running CPython 3, in its fast phases).
REFERENCE_LOOP_S = 0.003
#: Wall seconds between calibrations while a call runs.
SLICE_S = 0.1
#: Runs of the loop per calibration; the fastest one counts.
LOOP_REPS = 3


def calibration_loop() -> float:
    """Seconds one run of the fixed calibration loop takes."""
    start = time.perf_counter()
    total = 0
    table = {}
    values = []
    for i in range(20_000):
        total += i * i % 7
        table[i & 255] = total
        values.append(total & 15)
    values.sort()
    return time.perf_counter() - start


def calibrate() -> float:
    return min(calibration_loop() for _ in range(LOOP_REPS))


class Stopwatch:
    """Wall seconds of the ``with`` block, as :attr:`seconds`."""

    def __init__(self) -> None:
        self.seconds = 0.0
        self._start = 0.0

    def __enter__(self) -> "Stopwatch":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc: Any) -> None:
        self.seconds = time.perf_counter() - self._start


class HostClock:
    """Reference seconds of the ``with`` block, as :attr:`seconds`.

    Uses ``SIGALRM`` and must run in the main thread; blocks must not
    nest.  ``slices=False`` calibrates only before and after the block,
    for a short block that waits on another process: that process would
    keep working while the loop runs, so the loop cannot be cut out of
    its time.
    """

    def __init__(self, slices: bool = True) -> None:
        self.slices = slices
        self.seconds = 0.0
        self._loop_s = 0.0
        self._mark = 0.0
        self._active = False
        self._previous: Optional[Any] = None

    def __enter__(self) -> "HostClock":
        self._loop_s = calibrate()
        if self.slices:
            self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
            self._active = True
            signal.setitimer(signal.ITIMER_REAL, SLICE_S, SLICE_S)
        self._mark = time.perf_counter()
        return self

    def _on_alarm(self, *_: Any) -> None:
        # An alarm delivered just before the timer stopped can run its
        # handler after ``__exit__`` began; that slice is closed there.
        # An alarm during a slow calibration is skipped, not nested.
        if self._active:
            self._active = False
            self._slice()
            self._active = True

    def _slice(self) -> None:
        elapsed = time.perf_counter() - self._mark
        loop_s = calibrate()
        mean_loop_s = (self._loop_s + loop_s) / 2
        self.seconds += elapsed * REFERENCE_LOOP_S / mean_loop_s
        self._loop_s = loop_s
        self._mark = time.perf_counter()

    def __exit__(self, *exc: Any) -> None:
        if self.slices:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            self._active = False
        self._slice()
        if self.slices:
            signal.signal(signal.SIGALRM, self._previous)
