"""Span recorder for the benchmark's traced run.

Layers are timed from outside: :func:`install` replaces each layer's
public entry point, in the namespace where its callers look it up,
with a wrapper that opens a span on entry and closes it on exit.  The
program under test is not modified; :meth:`Patches.restore` puts every
original back.

A span records its name, start, end, parent span and operation id.
Spans are kept in memory in flat arrays (a fleet operation opens a
few thousand) and written out once, when the run ends, by
:func:`write_spans`.

A span's *self time* is its duration minus the durations of its child
spans.  Because every span is opened and closed on one call stack,
children nest inside their parent and never overlap, so the self
times of one operation's spans add up to the operation's wall time:
the disjoint-stage ledger.  :func:`summarize` checks that children sum
to no more than their parent, within :data:`LEDGER_TOLERANCE_S`.
"""

from __future__ import annotations

import json
import time
from array import array
from typing import Callable, Dict, List, Optional, Tuple

#: Allowed excess of a span's children over the span itself: clock
#: reads are monotonic, so any excess beyond float rounding means a
#: span was closed out of order.
LEDGER_TOLERANCE_S = 1e-6

#: Name of the root span the benchmark opens around each operation;
#: its self time is harness overhead plus glue no layer claims.
ROOT = "op"

_clock = time.perf_counter


class SpanRecorder:
    """Flat in-memory span store with an open-span stack."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: List[int] = []
        self.op_id = -1
        #: Counts recorded at the same boundaries as the spans.
        self.counters: Dict[str, float] = {}

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        idx = len(self.start)
        stack = self._stack
        self.name.append(nid)
        self.parent.append(stack[-1] if stack else -1)
        self.op.append(self.op_id)
        self.end.append(0.0)
        stack.append(idx)
        self.start.append(_clock())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = _clock()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {idx} closed while {popped} open")

    def innermost(self) -> Optional[str]:
        """Name of the innermost open span."""
        stack = self._stack
        return self.names[self.name[stack[-1]]] if stack else None

    def within(self, name: str) -> bool:
        """Whether a span called ``name`` is open."""
        nid = self._ids.get(name)
        return nid is not None and any(self.name[i] == nid
                                       for i in self._stack)

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def run_op(self, op_id: int, fn: Callable[[], object]) -> object:
        """Run one operation under a root span."""
        self.op_id = op_id
        idx = self.open(self.name_id(ROOT))
        try:
            return fn()
        finally:
            self.close(idx)
            self.op_id = -1

    def __len__(self) -> int:
        return len(self.start)


def span_wrapper(rec: SpanRecorder, name, fn: Callable,
                 after: Optional[Callable] = None) -> Callable:
    """``fn`` wrapped in a span.

    ``name`` is a span name, or a callable mapping the call's
    arguments to one, or to ``None`` for a call that opens no span
    (the interpreter's span is named by its engine).
    ``after(args, result, error)`` runs once the span is closed, so
    counting costs no layer any time.
    """
    if callable(name):
        namer = name

        def nid_for(args):
            span_name = namer(args)
            return None if span_name is None else rec.name_id(span_name)
    else:
        fixed = rec.name_id(name)

        def nid_for(args):
            return fixed

    def wrapper(*args, **kwargs):
        nid = nid_for(args)
        if nid is None:
            return fn(*args, **kwargs)
        idx = rec.open(nid)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            rec.close(idx)
            if after is not None:
                after(args, None, exc)
            raise
        rec.close(idx)
        if after is not None:
            after(args, result, None)
        return result

    wrapper.__wrapped__ = fn
    wrapper.__name__ = getattr(fn, "__name__", "wrapper")
    return wrapper


class _SpanContext:
    """A context manager whose enter..exit is one span."""

    __slots__ = ("rec", "nid", "inner", "idx")

    def __init__(self, rec: SpanRecorder, nid: int, inner) -> None:
        self.rec = rec
        self.nid = nid
        self.inner = inner

    def __enter__(self):
        self.idx = self.rec.open(self.nid)
        return self.inner.__enter__()

    def __exit__(self, *exc):
        try:
            return self.inner.__exit__(*exc)
        finally:
            self.rec.close(self.idx)


def context_wrapper(rec: SpanRecorder, name: str, fn: Callable) -> Callable:
    """``fn`` returns a context manager; the ``with`` block is the span."""
    nid = rec.name_id(name)

    def wrapper(*args, **kwargs):
        return _SpanContext(rec, nid, fn(*args, **kwargs))

    wrapper.__wrapped__ = fn
    return wrapper


class Patches:
    """Attribute replacements that can be undone."""

    def __init__(self) -> None:
        self._saved: List[Tuple[object, str, object]] = []

    def wrap(self, target, attr: str, make: Callable) -> None:
        """Replace ``target.attr`` with ``make(original)``."""
        # Save the raw attribute from the class/module dict so that
        # restoring puts back exactly what was there.
        self._saved.append((target, attr, vars(target)[attr]))
        setattr(target, attr, make(getattr(target, attr)))

    def restore(self) -> None:
        while self._saved:
            target, attr, original = self._saved.pop()
            setattr(target, attr, original)


def summarize(rec: SpanRecorder) -> Dict[str, object]:
    """Per-name self time and call counts, plus the ledger check."""
    n = len(rec.start)
    start, end, parent, name = rec.start, rec.end, rec.parent, rec.name
    child_sum = [0.0] * n
    for i in range(n):
        p = parent[i]
        if p >= 0:
            child_sum[p] += end[i] - start[i]
    busy = [0.0] * len(rec.names)
    calls = [0] * len(rec.names)
    violations = 0
    worst_excess = 0.0
    for i in range(n):
        duration = end[i] - start[i]
        excess = child_sum[i] - duration
        if excess > worst_excess:
            worst_excess = excess
        if excess > LEDGER_TOLERANCE_S:
            violations += 1
        nid = name[i]
        busy[nid] += duration - child_sum[i]
        calls[nid] += 1
    root = rec._ids.get(ROOT)
    root_total = 0.0
    if root is not None:
        root_total = sum(end[i] - start[i] for i in range(n)
                         if name[i] == root)
    return {
        "busy_s": {rec.names[k]: busy[k] for k in range(len(busy))},
        "calls": {rec.names[k]: calls[k] for k in range(len(calls))},
        "spans": n,
        "ledger_violations": violations,
        "ledger_worst_excess_s": worst_excess,
        "root_total_s": root_total,
    }


def write_spans(rec: SpanRecorder, path: str) -> None:
    """One JSON header line, then the five span arrays as raw bytes."""
    header = {"names": rec.names, "count": len(rec),
              "arrays": [["name", "i"], ["parent", "i"], ["op", "i"],
                         ["start", "d"], ["end", "d"]]}
    with open(path, "wb") as fh:
        fh.write(json.dumps(header).encode() + b"\n")
        for field, _ in header["arrays"]:
            getattr(rec, field).tofile(fh)


def read_spans(path: str) -> SpanRecorder:
    """Inverse of :func:`write_spans`."""
    rec = SpanRecorder()
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        for name in header["names"]:
            rec.name_id(name)
        for field, code in header["arrays"]:
            arr = array(code)
            arr.fromfile(fh, header["count"])
            setattr(rec, field, arr)
    return rec
