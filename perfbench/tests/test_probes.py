"""The layer wrappers go in for a traced run and come out again."""

from __future__ import annotations

import importlib
import sys

import pytest

from layers import traced_run
from probes import PROBES, Installation
from run import run_pass
from spans import SpanRecorder
from workloads import OneShotStar, StreamK16Dense


def _bindings() -> dict[tuple[str, str], object]:
    """Every ``repro`` module or class attribute a probe may patch."""
    found = {}
    for probe in PROBES:
        module = importlib.import_module(probe.module)
        if "." in probe.path:
            class_name, attribute = probe.path.split(".")
            owner = getattr(module, class_name)
            found[(f"{probe.module}.{class_name}", attribute)] = owner.__dict__[attribute]
            continue
        function = getattr(module, probe.path)
        for name, bound in list(sys.modules.items()):
            if name.startswith("repro"):
                for attribute, value in vars(bound).items():
                    if value is function:
                        found[(name, attribute)] = value
    return found


def test_from_imports_are_wrapped_in_every_namespace_and_restored():
    countsketch = importlib.import_module("repro.sketch.countsketch")
    kernels = importlib.import_module("repro.sketch.kernels")
    server = importlib.import_module("repro.service.server")
    client = importlib.import_module("repro.service.client")
    framing = importlib.import_module("repro.comm.framing")
    original = kernels.scatter_add_vector
    before = _bindings()
    with Installation(SpanRecorder()) as installation:
        assert countsketch.scatter_add_vector is not original
        assert countsketch.scatter_add_vector is kernels.scatter_add_vector
        assert server.encode_frame is client.encode_frame is framing.encode_frame
        assert server.encode_frame.__wrapped__ is not None
        assert len(installation.patched) > len(PROBES)
    assert _bindings() == before
    assert countsketch.scatter_add_vector is original


def test_traced_run_records_layers_and_restores_everything():
    before = _bindings()
    workload = OneShotStar(3, smoke=True)
    workload.build()
    records, metrics = traced_run(workload, 0.5, run_pass)
    assert _bindings() == before
    assert records
    assert metrics["engine.coordinator.self_s"] > 0
    assert metrics["comm.network.sends"] > 0
    assert metrics["comm.accounting.records"] >= 2 * metrics["comm.network.sends"]
    assert metrics["traced_op_s"] > 0 and metrics["untraced_op_s"] > 0


def test_wrappers_come_out_when_the_workload_raises():
    before = _bindings()
    workload = StreamK16Dense(4, smoke=True)
    workload.build()

    def broken_pass(workload, recorder=None):
        if recorder is not None:
            raise RuntimeError("operation failed under tracing")
        return run_pass(workload)

    with pytest.raises(RuntimeError):
        traced_run(workload, 0.1, broken_pass)
    assert _bindings() == before
