"""Self-time arithmetic and the recorder's parent links."""

from __future__ import annotations

import threading

import pytest

from layers import layer_metrics
from spans import SpanRecorder, covered, self_times


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_covered_merges_overlaps_and_gaps():
    assert covered([]) == 0.0
    assert covered([(0, 2), (1, 3), (5, 6)]) == 4.0
    assert covered([(0, 10), (2, 3)]) == 10.0


def test_self_time_of_a_nested_tree():
    clock = FakeClock()
    recorder = SpanRecorder(clock)
    with recorder.root("op") as root:  # [0, 10]
        clock.now = 1.0
        a = recorder.start("engine.runtime")  # [1, 4]
        clock.now = 2.0
        leaf = recorder.start("sketch.update")  # [2, 3]
        clock.now = 3.0
        recorder.finish(leaf)
        clock.now = 4.0
        recorder.finish(a)
        clock.now = 5.0
        b = recorder.start("comm.network.send")  # [5, 9]
        clock.now = 9.0
        recorder.finish(b)
        clock.now = 10.0
    own = self_times(recorder.spans)
    assert own[root.span_id] == pytest.approx(10 - 3 - 4)
    assert own[a.span_id] == pytest.approx(3 - 1)
    assert own[leaf.span_id] == pytest.approx(1)
    assert own[b.span_id] == pytest.approx(4)
    # Self times partition the root's wall time.
    assert sum(own.values()) == pytest.approx(root.duration)
    assert leaf.parent == a.span_id and a.parent == root.span_id
    assert {span.trace for span in recorder.spans} == {root.span_id}


def test_spans_on_another_thread_are_their_own_roots():
    recorder = SpanRecorder()
    inner = []

    def worker():
        span = recorder.start("service.coordinator.answer")
        recorder.finish(span)
        inner.append(span)

    with recorder.root("op") as root:
        thread = threading.Thread(target=worker)
        thread.start()
        thread.join(timeout=10)
    assert not thread.is_alive()
    (span,) = inner
    assert span.parent is None
    assert span.trace == root.span_id
    # The other thread's span does not reduce the root's self time.
    assert self_times(recorder.spans)[root.span_id] == pytest.approx(root.duration)


def test_finishing_out_of_order_is_an_error():
    recorder = SpanRecorder()
    outer = recorder.start("a")
    recorder.start("b")
    with pytest.raises(RuntimeError):
        recorder.finish(outer)


def test_concurrent_recording_loses_no_span():
    recorder = SpanRecorder()

    def work():
        for _ in range(500):
            recorder.finish(recorder.start("x"))
            recorder.count("n")

    threads = [threading.Thread(target=work) for _ in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
    assert not any(thread.is_alive() for thread in threads)
    assert len(recorder.spans) == 4000
    assert len({span.span_id for span in recorder.spans}) == 4000
    assert recorder.counters["n"] == 4000


def test_layer_metrics_are_per_operation():
    clock = FakeClock()
    recorder = SpanRecorder(clock)
    for _ in range(2):
        with recorder.root("op"):
            start = clock.now
            clock.now = start + 1.0
            outer = recorder.start("engine.runtime")
            inner = recorder.start("engine.runtime")  # map_sites calling map
            clock.now = start + 3.0
            recorder.finish(inner)
            recorder.finish(outer)
            clock.now = start + 4.0
    metrics = layer_metrics(recorder, ops=2)
    assert metrics["engine.runtime.busy_s"] == pytest.approx(2.0)
    assert metrics["engine.runtime.calls"] == pytest.approx(1.0)
    assert metrics["other_s"] == pytest.approx(2.0)
    assert metrics["comm.tree.mergeable_frac"] is None
