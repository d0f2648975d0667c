"""``--jobs`` for every parallel command: ``None`` or ``1`` runs
serially in-process, ``0`` uses one worker per core, ``N > 1`` a pool
of ``N``; a negative count is an error."""

from __future__ import annotations

import argparse
import os
from typing import Optional

__all__ = ["resolve_jobs", "non_negative_int"]


def resolve_jobs(jobs: Optional[int]) -> int:
    """Worker count for a ``--jobs`` value (None/1 serial, 0 = cores)."""
    if jobs is None:
        return 1
    if jobs < 0:
        raise ValueError(f"jobs must be >= 0, got {jobs}")
    return jobs or os.cpu_count() or 1


def non_negative_int(text: str) -> int:
    """The argparse ``type`` of every ``--jobs`` option."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value
