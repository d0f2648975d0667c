"""A discrete simulation clock shared by all platform components."""

from __future__ import annotations

import time


def monotonic_time() -> float:
    """Monotonic wall-clock seconds (the tracing timestamp source).

    Observability code (:mod:`repro.obs`) stamps events with this when
    no platform simulator is attached; with one attached it uses the
    simulation clock instead, so platform activity and runtime events
    share a timeline.
    """
    return time.monotonic()


class SimClock:
    """Simulated wall-clock time in seconds.

    Components advance the clock whenever they model an activity that
    takes time (CPU work, I/O, sleeping); the platform integrates
    energy, heat and charge over the same interval itself.
    """

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)

    @property
    def now(self) -> float:
        return self._now

    def advance(self, duration: float) -> None:
        if duration < 0:
            raise ValueError(f"cannot advance time by {duration}")
        self._now += duration

    def __repr__(self) -> str:
        return f"SimClock(t={self._now:.6f}s)"
