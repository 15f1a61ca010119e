"""The traced run and the per-layer metrics computed from its spans.

Every time metric is self-seconds per operation: the time inside a layer's
wrapped calls minus the time in wrapped calls they made, summed over the
traced phase and divided by the operations it completed.  Call counts count
outermost calls only (``map_sites`` calling ``map``, or ``RemoteNetwork.send``
calling ``Network.send``, is one call).  Ratios are ``None`` when their base
is zero, meaning the layer was not used.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict

from probes import Installation
from spans import SpanRecorder, self_times

#: Reported self-seconds metric -> the span names it sums.
SELF_SECONDS = {
    "engine.coordinator.self_s": ["engine.coordinator"],
    "engine.runtime.busy_s": ["engine.runtime"],
    "engine.topology.build_s": ["engine.topology.build"],
    "engine.cost_report_s": ["engine.cost_report"],
    "engine.streaming.ingest_s": ["engine.streaming.ingest"],
    "engine.streaming.end_epoch_s": ["engine.streaming.end_epoch"],
    "engine.streaming.live_s": ["engine.streaming.live"],
    "sketch.update_s": ["sketch.update"],
    "sketch.merge_s": ["sketch.merge"],
    "sketch.kernels.scatter_s": ["sketch.kernels.scatter"],
    "sketch.serialization_s": ["sketch.serialization"],
    "comm.network.send_s": ["comm.network.send", "comm.network.broadcast"],
    "comm.bitcost_s": ["comm.bitcost"],
    "comm.accounting_s": ["comm.accounting"],
    "comm.tree.merge_s": ["comm.tree.merge"],
    "comm.conditions.simulate_s": ["comm.conditions.simulate"],
    "comm.wire.encode_s": ["comm.wire.encode"],
    "comm.wire.decode_s": ["comm.wire.decode"],
    "comm.framing_s": ["comm.framing"],
    "service.messages.encode_s": ["service.messages.encode"],
    "service.messages.decode_s": ["service.messages.decode"],
    "service.transport.wait_s": ["service.transport"],
    "service.client.self_s": ["service.client.query"],
    "service.coordinator.answer_self_s": ["service.coordinator.answer"],
}
#: Reported call-count metric -> the span name whose outermost calls it counts.
CALLS = {
    "engine.runtime.calls": "engine.runtime",
    "sketch.update.calls": "sketch.update",
    "sketch.merge.calls": "sketch.merge",
    "comm.network.sends": "comm.network.send",
    "service.transport.requests": "service.transport",
}
#: Reported metric -> the probe counter it reads.
COUNTERS = {
    "sketch.update.rows": "sketch.update.rows",
    "comm.network.bits": "comm.network.bits",
    "comm.accounting.records": "comm.accounting.records",
    "comm.tree.merges": "comm.tree.mergeable",
    "comm.wire.bytes": "comm.wire.bytes",
    "comm.framing.frames": "comm.framing.frames",
    "service.messages.payloads": "service.messages.payloads",
}

UNITS = {name: "s/op" for name in SELF_SECONDS}
UNITS.update({name: "count/op" for name in list(CALLS) + list(COUNTERS)})
UNITS.update(
    {
        "service.transport.failures": "count/op",
        "service.client.overhead_s": "s/op",
        "other_s": "s/op",
        "comm.tree.mergeable_frac": "ratio",
        "service.messages.pickle_frac": "ratio",
        "traced_op_s": "s/op",
        "untraced_op_s": "s/op",
        "tracing_overhead_frac": "ratio",
    }
)


def _ratio(top: float, base: float) -> float | None:
    return top / base if base else None


def layer_metrics(recorder: SpanRecorder, ops: int) -> dict[str, float | None]:
    """Per-operation layer metrics from one traced phase of ``ops`` operations."""
    spans = recorder.spans
    own = self_times(spans)
    by_id = {span.span_id: span for span in spans}
    seconds: dict[str, float] = defaultdict(float)
    outermost: dict[str, int] = defaultdict(int)
    total: dict[str, float] = defaultdict(float)
    failures = 0
    for span in spans:
        seconds[span.name] += own[span.span_id]
        total[span.name] += span.duration
        parent = by_id.get(span.parent)
        if parent is None or parent.name != span.name:
            outermost[span.name] += 1
        if span.name == "service.transport" and span.failed:
            failures += 1
    roots = [span for span in spans if span.parent is None and span.trace == span.span_id]
    counters = recorder.counters
    metrics: dict[str, float | None] = {}
    for name, span_names in SELF_SECONDS.items():
        metrics[name] = sum(seconds[s] for s in span_names) / ops
    for name, span_name in CALLS.items():
        metrics[name] = outermost[span_name] / ops
    for name, counter in COUNTERS.items():
        metrics[name] = counters[counter] / ops
    metrics["service.transport.failures"] = failures / ops
    metrics["service.client.overhead_s"] = (
        total["service.client.query"] - total["service.coordinator.answer"]
    ) / ops
    metrics["other_s"] = sum(own[span.span_id] for span in roots) / ops
    metrics["comm.tree.mergeable_frac"] = _ratio(counters["comm.tree.mergeable"], counters["comm.tree.groups"])
    metrics["service.messages.pickle_frac"] = _ratio(
        counters["service.messages.pickled"], counters["service.messages.payloads"]
    )
    return metrics


def traced_run(workload, seconds: float, run_pass):
    """Alternate untraced and traced passes for ``seconds``.

    Alternating pairs each traced pass with an untraced one over the same
    operations, so drift during the run cancels out of the overhead.
    Returns (every record in execution order, per-layer metrics of the
    traced passes).
    """
    recorder = SpanRecorder()
    installation = Installation(recorder)
    records, plain, traced = [], [], []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        untraced_pass = run_pass(workload)
        with installation:
            traced_pass = run_pass(workload, recorder)
        plain += untraced_pass
        traced += traced_pass
        records += untraced_pass + traced_pass
    metrics = layer_metrics(recorder, len(traced))
    untraced_op = statistics.fmean(record.latency for record in plain)
    traced_op = statistics.fmean(record.latency for record in traced)
    metrics.update(
        untraced_op_s=untraced_op,
        traced_op_s=traced_op,
        tracing_overhead_frac=traced_op / untraced_op - 1.0,
    )
    return records, metrics
