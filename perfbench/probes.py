"""Span wrappers around the public entry points of each layer.

The traced run installs these wrappers, runs the workload, and removes them
again; the untraced runs never see them.  A function imported with
``from module import name`` is bound in several module namespaces, so a
function probe patches every ``repro`` module that binds the same object.
A method probe patches the class that defines it; subclasses that override
the method have probes of their own.

Each probe names the span it records.  Some also count work as it passes
the boundary (rows, bits, bytes, frames, pickled payloads); those counters
land in :attr:`spans.SpanRecorder.counters`.
"""

from __future__ import annotations

import functools
import importlib
import sys
from dataclasses import dataclass
from typing import Any, Callable

from spans import SpanRecorder

Observe = Callable[[SpanRecorder, tuple, dict, Any], None]


@dataclass(frozen=True)
class Probe:
    module: str
    path: str  # "function" or "Class.method"
    span: str
    observe: Observe | None = None


def _rows(recorder, args, kwargs, result):
    indices = args[1] if len(args) > 1 else kwargs.get("indices")
    recorder.count("sketch.update.rows", len(indices))


def _record(recorder, args, kwargs, result):
    recorder.count("comm.accounting.records")
    # Networks record each message twice: once in the network-wide log,
    # keyed by direction, and once in the per-link log.  Bits count once.
    if kwargs.get("direction_key") is not None:
        recorder.count("comm.network.bits", kwargs["bits"])


def _wire_bytes(recorder, args, kwargs, result):
    recorder.count("comm.wire.bytes", len(result))


def _frames_out(recorder, args, kwargs, result):
    recorder.count("comm.framing.frames", 1)


def _frames_in(recorder, args, kwargs, result):
    recorder.count("comm.framing.frames", len(result))


def _payload_out(recorder, args, kwargs, result):
    recorder.count("service.messages.payloads")
    recorder.count("service.messages.pickled", bytes(result[:1]) == b"P")


def _payload_in(recorder, args, kwargs, result):
    recorder.count("service.messages.payloads")
    recorder.count("service.messages.pickled", bytes(args[0][:1]) == b"P")


def _mergeable(recorder, args, kwargs, result):
    recorder.count("comm.tree.groups")
    recorder.count("comm.tree.mergeable", bool(result))


def _probes() -> list[Probe]:
    probes = [
        # engine
        Probe("repro.engine.base", "StarProtocol.run", "engine.coordinator"),
        Probe("repro.engine.runtime", "Runtime.map", "engine.runtime"),
        Probe("repro.engine.runtime", "Runtime.map_async", "engine.runtime"),
        Probe("repro.engine.runtime", "Runtime.map_sites", "engine.runtime"),
        Probe("repro.service.transport", "RemoteRuntime.map", "engine.runtime"),
        Probe("repro.engine.topology", "StarTopology.build", "engine.topology.build"),
        Probe("repro.engine.topology", "TreeTopology.build_tree", "engine.topology.build"),
        Probe("repro.engine.base", "ClusterCostReport.from_network", "engine.cost_report"),
        Probe("repro.engine.streaming", "StreamingSession.ingest", "engine.streaming.ingest"),
        Probe("repro.engine.streaming", "StreamingSession.end_epoch", "engine.streaming.end_epoch"),
        # sketch
        Probe("repro.sketch.mergeable", "LinearStateMixin.update_many", "sketch.update", _rows),
        Probe("repro.sketch.countsketch", "CountSketch.update_many", "sketch.update", _rows),
        Probe("repro.sketch.mergeable", "LinearStateMixin.merge", "sketch.merge"),
        Probe("repro.sketch.countsketch", "CountSketch.merge", "sketch.merge"),
        # comm
        Probe("repro.comm.network", "Network.send", "comm.network.send"),
        Probe("repro.comm.network", "TreeNetwork.send", "comm.network.send"),
        Probe("repro.service.transport", "RemoteNetwork.send", "comm.network.send"),
        Probe("repro.comm.network", "Network.broadcast", "comm.network.broadcast"),
        Probe("repro.comm.network", "TreeNetwork.broadcast", "comm.network.broadcast"),
        Probe("repro.service.transport", "RemoteNetwork.broadcast", "comm.network.broadcast"),
        Probe("repro.comm.accounting", "MessageLog.record", "comm.accounting", _record),
        Probe("repro.comm.network", "merge_payload_group", "comm.tree.merge"),
        Probe("repro.comm.network", "_payloads_mergeable", "comm.tree.merge", _mergeable),
        Probe("repro.comm.conditions", "simulate_makespan", "comm.conditions.simulate"),
        Probe("repro.comm.conditions", "simulate_tree_makespan", "comm.conditions.simulate"),
        Probe("repro.comm.wire", "encode_array", "comm.wire.encode", _wire_bytes),
        Probe("repro.comm.wire", "encode_bundle", "comm.wire.encode", _wire_bytes),
        Probe("repro.comm.wire", "decode_array", "comm.wire.decode"),
        Probe("repro.comm.wire", "decode_bundle", "comm.wire.decode"),
        Probe("repro.comm.framing", "encode_frame", "comm.framing", _frames_out),
        Probe("repro.comm.framing", "FrameDecoder.feed", "comm.framing", _frames_in),
        # service (coordinator side; site processes are not traced)
        Probe("repro.service.messages", "encode_payload", "service.messages.encode", _payload_out),
        Probe("repro.service.messages", "decode_payload", "service.messages.decode", _payload_in),
        Probe("repro.service.transport", "request_with_retry", "service.transport"),
        Probe("repro.service.transport", "SocketTransport.run_tasks", "service.transport"),
        Probe("repro.service.client", "ServiceClient.query", "service.client.query"),
        Probe("repro.service.server", "CoordinatorServer._answer", "service.coordinator.answer"),
    ]
    for method in ("live_lp_norm", "live_l0", "live_l0_sample", "live_heavy_hitters"):
        probes.append(
            Probe("repro.engine.streaming", f"StreamingSession.{method}", "engine.streaming.live")
        )
    for name in ("scatter_add_scalar", "scatter_add_vector", "bincount_rows"):
        probes.append(Probe("repro.sketch.kernels", name, "sketch.kernels.scatter"))
    for name in (
        "serialize_state",
        "deserialize_state",
        "extract_delta",
        "serialize_deltas",
        "extract_deltas",
        "deserialize_deltas",
    ):
        probes.append(Probe("repro.sketch.serialization", name, "sketch.serialization"))
    for name in ("total_bits", "rounds", "bits_sent_by", "bits_by_label", "bits_per_round", "per_round"):
        probes.append(Probe("repro.comm.accounting", f"MessageLog.{name}", "comm.accounting"))
    bitcost = importlib.import_module("repro.comm.bitcost")
    for name in sorted(vars(bitcost)):
        if name.startswith("bits_for_"):
            probes.append(Probe("repro.comm.bitcost", name, "comm.bitcost"))
    return probes


PROBES = _probes()


def _wrap(function: Callable, recorder: SpanRecorder, probe: Probe) -> Callable:
    @functools.wraps(function)
    def traced(*args, **kwargs):
        span = recorder.start(probe.span)
        try:
            result = function(*args, **kwargs)
        except BaseException:
            recorder.finish(span, failed=True)
            raise
        recorder.finish(span)
        if probe.observe is not None:
            probe.observe(recorder, args, kwargs, result)
        return result

    return traced


def _wrap_attribute(raw: Any, recorder: SpanRecorder, probe: Probe) -> Any:
    """Wrap a class ``__dict__`` entry, keeping its descriptor kind."""
    if isinstance(raw, classmethod):
        return classmethod(_wrap(raw.__func__, recorder, probe))
    if isinstance(raw, property):
        return property(_wrap(raw.fget, recorder, probe), raw.fset, raw.fdel, raw.__doc__)
    return _wrap(raw, recorder, probe)


class Installation:
    """The wrappers of one traced run; :meth:`remove` puts everything back."""

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        #: (owner, attribute, original) for every patched binding.
        self.patched: list[tuple[Any, str, Any]] = []

    def _patch(self, owner: Any, attribute: str, original: Any, replacement: Any) -> None:
        self.patched.append((owner, attribute, original))
        setattr(owner, attribute, replacement)

    def install(self) -> "Installation":
        for probe in PROBES:
            module = importlib.import_module(probe.module)
            if "." in probe.path:
                class_name, attribute = probe.path.split(".")
                owner = getattr(module, class_name)
                raw = owner.__dict__[attribute]
                self._patch(owner, attribute, raw, _wrap_attribute(raw, self.recorder, probe))
                continue
            function = getattr(module, probe.path)
            traced = _wrap(function, self.recorder, probe)
            for bound in list(sys.modules.values()):
                if not getattr(bound, "__name__", "").startswith("repro"):
                    continue
                for attribute, value in list(vars(bound).items()):
                    if value is function:
                        self._patch(bound, attribute, function, traced)
        return self

    def remove(self) -> None:
        for owner, attribute, original in reversed(self.patched):
            setattr(owner, attribute, original)
        for owner, attribute, original in self.patched:
            current = owner.__dict__[attribute] if isinstance(owner, type) else getattr(owner, attribute)
            if current is not original:
                raise RuntimeError(f"{owner!r}.{attribute} was not restored")
        self.patched = []

    def __enter__(self) -> "Installation":
        try:
            return self.install()
        except BaseException:
            self.remove()  # a probe that failed to install leaves no wrapper behind
            raise

    def __exit__(self, *exc_info) -> None:
        self.remove()
