"""Host-speed calibration for a shared machine.

The build host is a virtual machine on shared hardware whose speed
changes from one second to the next, by up to about 2x.  Every
workload, and every engine within one, slows by the same factor, so a
raw time mostly measures the state the host was in.

So each measured time is scaled to a fixed reference speed.  Between
operations, at least every ``BRACKET_S`` seconds, the benchmark times
:func:`reference_kernel`.  This is pure Python that touches no code of
the program under test, with the garbage collector held off, so no
change to the program can move it.  A time measured between two kernel
timings ``k0`` and ``k1`` is reported as::

    measured * REFERENCE_S / ((k0 + k1) / 2)

that is, in milliseconds at the speed where the kernel takes
``REFERENCE_S``.  The raw times and the kernel timings are kept in the
run's result file.
"""

from __future__ import annotations

import gc
import statistics
import time
from typing import Callable, List, Tuple

#: The kernel's time on the build host in its fast state (Intel Xeon,
#: 2.1 GHz, Python 3.11): the speed every reported time is scaled to.
REFERENCE_S = 0.0011

#: Longest stretch of operations between two kernel timings.
BRACKET_S = 0.025

#: Untimed kernel runs before the first timing.
WARMUP = 5

_clock = time.perf_counter
_KEYS = tuple(f"k{i}" for i in range(97))


def reference_kernel() -> int:
    """A fixed mix of the work an interpreter does: dict and tuple
    indexing, string formatting, small allocations, integer arithmetic."""
    table = {}
    items = []
    acc = 0
    for i in range(4000):
        key = _KEYS[i % 97]
        table[key] = table.get(key, 0) + i
        items.append((i, key))
        acc += len(key) * (i & 7)
    for i, key in items:
        acc ^= hash(key) & 0xFF
    return acc


def time_kernel() -> float:
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = _clock()
        reference_kernel()
        return _clock() - started
    finally:
        if enabled:
            gc.enable()


class HostSpeed:
    """Brackets measurements with kernel timings and hands each one
    back scaled to the reference speed."""

    def __init__(self) -> None:
        self.kernels: List[float] = []
        # The interpreter specializes the kernel's bytecode over its
        # first runs; those are not the host's speed.
        for _ in range(WARMUP):
            time_kernel()
        self._last = self._kernel()
        self._opened = _clock()
        self._pending: List[Tuple[float, Callable[[float, float], None]]] = []

    def _kernel(self) -> float:
        seconds = time_kernel()
        self.kernels.append(seconds)
        return seconds

    def add(self, seconds: float,
            done: Callable[[float, float], None]) -> None:
        """Queue a measurement; ``done(scaled, raw)`` is called once
        the bracket closes."""
        self._pending.append((seconds, done))
        if _clock() - self._opened >= BRACKET_S:
            self.flush()

    def flush(self) -> None:
        if not self._pending:
            return
        kernel = self._kernel()
        scale = REFERENCE_S / ((self._last + kernel) / 2)
        pending, self._pending = self._pending, []
        for seconds, done in pending:
            done(seconds * scale, seconds)
        self._last = kernel
        self._opened = _clock()

    def factor(self) -> float:
        """Median host slowdown against the reference speed."""
        return statistics.median(self.kernels) / REFERENCE_S
