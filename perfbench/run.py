"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload oneshot-star-k64 --seed 1 --seconds 10 --trace 0

Runs from the root of a source checkout (it imports ``repro`` from ``src``).
The untraced run (``--trace 0``) times whole passes of the workload's
round-robin operation list for ``--seconds`` seconds, checks every output
outside the timed region, and reports the end-to-end metrics.  The traced run
(``--trace 1``) alternates untraced passes with passes under the layer
wrappers from ``probes.py``, and reports per-layer metrics from the traced
passes plus the tracing overhead (traced against untraced mean latency).

The second-to-last line of standard output is the full report (host record,
workload configuration, every metric by name and unit, the check verdict);
the last line is the summary the benchmark contract asks for, carrying the
metrics named in ``BENCHMARK.json``.  The full report is also written under
``.perfbench/results/``.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import pathlib  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from contextlib import nullcontext  # noqa: E402

ROOT = pathlib.Path(__file__).resolve().parents[1]
#: Set-ups per run; ``setup_s`` reports their median (plus the import).
SETUPS = 3
#: Kernel backend, pinned so a run never depends on what the host compiled.
KERNELS = "numpy"

UNITS = {
    "setup_s": "s",
    "op_p50_s": "s",
    "op_p90_s": "s",
    "op_tail10_mean_s": "s",
    "ops_per_s": "1/s",
    "bits_per_op": "bit",
    "peak_rss_mb": "MB",
    "query_p50_s": "s",
    "query_p90_s": "s",
    "queries_per_s": "1/s",
    "bits_per_query": "bit",
    "wire_bytes_per_query": "B",
    "epoch_p50_s": "s",
    "epoch_p90_s": "s",
    "ingest_rows_per_s": "rows/s",
    "live_query_p50_s": "s",
    "upload_bytes_per_epoch": "B",
    "max_rel_error": "ratio",
    "failed_frac": "ratio",
    "empty_sample_frac": "ratio",
}


def run_pass(workload, recorder=None):
    """One pass over the workload's round-robin operations, each timed."""
    from workloads import Record

    records = []
    for label, op in workload.pass_ops():
        began = time.perf_counter()
        try:
            with recorder.root(label) if recorder is not None else nullcontext():
                record = op()
        except Exception as exc:  # a failed operation is counted, not fatal
            record = Record(label, error=f"{type(exc).__name__}: {exc}")
        record.latency = time.perf_counter() - began
        record.traced = recorder is not None
        records.append(record)
    return records


def closed_loop(workload, seconds: float):
    """Whole passes until ``seconds`` elapse; returns the records."""
    records = []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        records += run_pass(workload)
    return records


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[8] if len(values) > 1 else values[0]


def tail10_mean(values: list[float]) -> float:
    """Mean of the slowest tenth of ``values`` (at least one).

    Unlike the p90 it moves smoothly when the share of one slow query class
    in the round-robin mix sits near ten percent, as it does here.
    """
    slowest = sorted(values)[-max(1, math.ceil(len(values) / 10)) :]
    return statistics.fmean(slowest)


def end_to_end(records, setup_s: float, rss_mb: float, failed: int) -> dict:
    """End-to-end metrics; timings come from untraced operations only."""
    failed_frac = failed / len(records)
    records = [record for record in records if not record.traced]
    latencies = [record.latency for record in records]
    done = [record for record in records if record.error is None] or records
    metrics = {
        "setup_s": setup_s,
        "op_p50_s": statistics.median(latencies),
        "op_p90_s": p90(latencies),
        "op_tail10_mean_s": tail10_mean(latencies),
        "ops_per_s": len(latencies) / sum(latencies),
        "bits_per_op": statistics.fmean(record.bits for record in done),
        "peak_rss_mb": rss_mb,
        "failed_frac": failed_frac,
    }
    if "epoch_s" in done[0].extra:
        epochs = [record.extra["epoch_s"] for record in done if "epoch_s" in record.extra]
        live = [s for record in done for s in record.extra.get("live_s", ())]
        metrics.update(
            epoch_p50_s=statistics.median(epochs),
            epoch_p90_s=p90(epochs),
            ingest_rows_per_s=sum(record.extra["rows"] for record in done) / sum(epochs),
            live_query_p50_s=statistics.median(live),
            upload_bytes_per_epoch=statistics.fmean(record.extra["upload_bytes"] for record in done),
        )
    else:
        metrics.update(
            query_p50_s=metrics["op_p50_s"],
            query_p90_s=metrics["op_p90_s"],
            queries_per_s=metrics["ops_per_s"],
            bits_per_query=metrics["bits_per_op"],
        )
        if "wire_bytes" in done[0].extra:
            metrics["wire_bytes_per_query"] = statistics.fmean(r.extra["wire_bytes"] for r in done)
    return metrics


def cpu_ticks() -> tuple[int, int] | None:
    """(steal, total) jiffies of all CPUs from ``/proc/stat``, if readable.

    Steal is time the hypervisor ran something else on the virtual CPUs;
    its share during the timed region explains slow runs.
    """
    try:
        with open("/proc/stat", encoding="ascii") as stat:
            fields = [int(value) for value in stat.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def host_record(seed: int) -> dict:
    from repro.sketch import _native
    import numpy

    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as cpuinfo:
            cpu_model = next(
                (line.split(":", 1)[1].strip() for line in cpuinfo if line.startswith("model name")),
                cpu_model,
            )
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
        commit = done.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "REPRO_KERNELS": os.environ["REPRO_KERNELS"],
        "kernel_backend": _native.current_backend(),
        "seed": seed,
        "git_commit": commit or "unavailable (not a git checkout)",
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    # Everything the run writes stays in the checkout, site processes' temp
    # files included (they inherit the environment).
    scratch = ROOT / ".perfbench"
    (scratch / "tmp").mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = tempfile.tempdir = str(scratch / "tmp")
    os.environ["REPRO_KERNELS"] = KERNELS
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

    import layers
    from workloads import WORKLOADS

    import_s = time.perf_counter() - _STARTED
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed, smoke=args.smoke)
    per_layer = None
    try:
        builds = []
        for _ in range(SETUPS):
            began = time.perf_counter()
            workload.build()
            builds.append(time.perf_counter() - began)
        ticks = cpu_ticks()
        if args.trace:
            records, per_layer = layers.traced_run(workload, args.seconds, run_pass)
        else:
            records = closed_loop(workload, args.seconds)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        after = cpu_ticks()
    finally:
        workload.teardown()
    verdict = workload.check(records)
    failed = {index for index, record in enumerate(records) if record.error is not None}
    failed |= verdict.failed_ops
    metrics = end_to_end(records, import_s + statistics.median(builds), rss_mb, len(failed))
    metrics["max_rel_error"] = max(verdict.rel_errors.values(), default=0.0)
    if verdict.samples:
        metrics["empty_sample_frac"] = verdict.empty_samples / verdict.samples
    correct = not failed and not verdict.failures

    names = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    reported = dict(metrics, **(per_layer or {}))
    units = dict(UNITS, **layers.UNITS)
    report = {
        "workload": workload.name,
        "why": workload.why,
        "trace": args.trace,
        "seconds": args.seconds,
        "host": dict(
            host_record(args.seed),
            cpu_steal_frac=(after[0] - ticks[0]) / max(1, after[1] - ticks[1]) if ticks and after else None,
        ),
        "config": workload.config(),
        "samples": sum(not r.traced for r in records),
        "samples_beyond_p90": sum(not r.traced and r.latency > metrics["op_p90_s"] for r in records),
        "setup_builds_s": builds,
        "import_s": import_s,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in reported.items()},
        "median_s_by_op": {
            name: statistics.median(r.latency for r in records if r.name == name and not r.traced)
            for name in dict.fromkeys(r.name for r in records)
        },
        "rel_error_by_query": verdict.rel_errors,
        "failures": verdict.failures[:20] + [records[i].error for i in sorted(failed) if records[i].error][:20],
    }
    results = ROOT / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    out = results / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    latencies = [[record.name, record.latency] for record in records]
    out.write_text(json.dumps(dict(report, latencies=latencies), default=str) + "\n", encoding="utf-8")
    print(json.dumps(report, default=str), flush=True)
    summary = {
        "correct": correct,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {name: {"value": reported[name], "unit": units[name]} for name in names},
    }
    print(json.dumps(summary), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
