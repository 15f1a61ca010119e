"""A small thread-safe span recorder and the self-time arithmetic over it.

A span is one timed call at a layer boundary: a name, a monotonic start and
end, the span that was open on the same thread when it began (its parent),
and the trace id of the benchmark operation in flight.  Spans live in memory
until the run ends; nothing is written while the workload is timed.

Self time is a span's duration minus the part of it that its direct
children cover.  Children on other threads (the service coordinator answers
queries on a worker thread) are not children: they form trees of their own,
tagged with the same trace id.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator


@dataclass
class Span:
    span_id: int
    name: str
    parent: int | None
    trace: int | None
    start: float
    end: float = float("nan")
    failed: bool = False

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Collects spans from any thread; counters ride along under one lock."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        #: Trace id stamped on every span; the benchmark's single caller sets
        #: it to the operation's root span id while the operation runs.
        self.trace: int | None = None
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def start(self, name: str) -> Span:
        stack = self._stack()
        with self._lock:
            span_id = next(self._ids)
        span = Span(
            span_id=span_id,
            name=name,
            parent=stack[-1].span_id if stack else None,
            trace=self.trace,
            start=self.clock(),
        )
        stack.append(span)
        return span

    def finish(self, span: Span, *, failed: bool = False) -> None:
        span.end = self.clock()
        span.failed = failed
        stack = self._stack()
        if not stack or stack[-1] is not span:
            raise RuntimeError(f"span {span.name!r} finished out of order")
        stack.pop()
        with self._lock:
            self.spans.append(span)

    def count(self, name: str, amount: float = 1.0) -> None:
        with self._lock:
            self.counters[name] += amount

    @contextmanager
    def root(self, name: str) -> Iterator[Span]:
        """One benchmark operation; its span id is the trace id of every
        span recorded while it runs, on any thread."""
        span = self.start(name)
        span.trace = self.trace = span.span_id
        failed = True
        try:
            yield span
            failed = False
        finally:
            self.trace = None
            self.finish(span, failed=failed)


def covered(intervals: Iterable[tuple[float, float]]) -> float:
    """Length of the union of ``[start, end)`` intervals."""
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans: Iterable[Span]) -> dict[int, float]:
    """Span id -> duration minus the union of its direct children's spans."""
    spans = list(spans)
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    return {
        span.span_id: span.duration - covered(children.get(span.span_id, ()))
        for span in spans
    }

