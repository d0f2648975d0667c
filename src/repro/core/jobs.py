"""Process fan-out for every parallel command.

``--jobs``: ``None`` or ``1`` runs serially in-process, ``0`` uses one
worker per core, ``N > 1`` a pool of ``N``; a negative count is an
error.  :func:`map_jobs` is the one place a process pool is built."""

from __future__ import annotations

import argparse
import os
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Iterable, List, Optional, TypeVar

__all__ = ["resolve_jobs", "map_jobs", "non_negative_int", "positive_int"]

T = TypeVar("T")
R = TypeVar("R")


def resolve_jobs(jobs: Optional[int]) -> int:
    """Worker count for a ``--jobs`` value (None/1 serial, 0 = cores)."""
    if jobs is None:
        return 1
    if jobs < 0:
        raise ValueError(f"jobs must be >= 0, got {jobs}")
    return jobs or os.cpu_count() or 1


def map_jobs(fn: Callable[[T], R], items: Iterable[T],
             jobs: int) -> List[R]:
    """``[fn(item) for item in items]``, over at most ``jobs`` processes.

    At most one worker or one item runs serially in-process (no pool,
    so nothing needs to pickle); otherwise ``fn`` must be module-level.
    Results come back in input order either way, so callers fold them
    exactly as the serial run would.
    """
    items = list(items)
    if jobs <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ProcessPoolExecutor(max_workers=min(jobs, len(items))) as pool:
        return list(pool.map(fn, items))


def _int_at_least(text: str, low: int) -> int:
    value = int(text)
    if value < low:
        raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
    return value


def non_negative_int(text: str) -> int:
    """The argparse ``type`` of every ``--jobs`` option."""
    return _int_at_least(text, 0)


def positive_int(text: str) -> int:
    """An argparse ``type`` for counts that must be at least one."""
    return _int_at_least(text, 1)
