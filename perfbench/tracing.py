"""Spans around the benchmark's own calls into the library, and GC pauses.

A span records name, start, end (``perf_counter_ns``), the index of the
enclosing span, and a work count the caller sets (elements walked, points
classified, entries produced).  Spans stay in memory and are written out as
JSON lines when the pass ends.  With tracing off, ``NullTracer`` hands out
one shared no-op span, so the workload code is the same in both modes.
"""
from __future__ import annotations

import gc
import json
from time import perf_counter_ns


class Span:
    __slots__ = ("name", "start", "end", "parent", "count", "extra", "error", "_stack")

    def __init__(self, tracer, name):
        self.name = name
        self.count = 0
        self.extra = 0
        self.error = None
        self._stack = tracer.stack
        self.parent = tracer.stack[-1] if tracer.stack else -1
        tracer.stack.append(len(tracer.records))
        tracer.records.append(self)

    def __enter__(self):
        self.start = perf_counter_ns()
        return self

    def __exit__(self, exc_type, exc, tb):
        self.end = perf_counter_ns()
        self._stack.pop()
        if exc_type is not None:
            self.error = exc_type.__name__
        return False


class Tracer:
    """Collects spans in memory.  A span's count and extra may be set after
    its block ends; they are read when the spans are written or summed."""

    def __init__(self):
        self.records: list[Span] = []
        self.stack: list[int] = []

    def span(self, name: str) -> Span:
        """Open a span; use it at once in a ``with`` statement."""
        return Span(self, name)

    def write(self, path: str, trace_id: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.records):
                fh.write(json.dumps({
                    "trace": trace_id, "id": i, "name": s.name,
                    "start_ns": s.start, "end_ns": s.end, "parent": s.parent,
                    "count": s.count, "extra": s.extra, "error": s.error,
                }) + "\n")

    def aggregate(self) -> dict:
        """Per span name: calls, total ns, summed counts and extras, calls
        that raised, and every duration (for percentiles)."""
        out: dict = {}
        for s in self.records:
            agg = out.get(s.name)
            if agg is None:
                agg = out[s.name] = {
                    "calls": 0, "ns": 0, "count": 0, "extra": 0, "errors": 0,
                    "durations": [],
                }
            agg["calls"] += 1
            agg["ns"] += s.end - s.start
            agg["count"] += s.count
            agg["extra"] += s.extra
            agg["errors"] += s.error is not None
            agg["durations"].append(s.end - s.start)
        return out


class _NullSpan:
    __slots__ = ("count", "extra")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


class NullTracer:
    """Tracing off: every span is the same no-op object."""

    _span = _NullSpan()

    def span(self, name: str) -> _NullSpan:
        return self._span


class GcMonitor:
    """Total pause time and number of collections, from ``gc.callbacks``."""

    def __init__(self):
        self.pause_ns = 0
        self.collections = 0
        self._start = 0

    def _callback(self, phase, info):
        if phase == "start":
            self._start = perf_counter_ns()
        else:
            self.pause_ns += perf_counter_ns() - self._start
            self.collections += 1

    def __enter__(self):
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *exc):
        gc.callbacks.remove(self._callback)
        return False
