"""The benchmark's closed-loop workloads.

Each workload has one caller that waits for every answer before it sends the
next request.  A workload generates its inputs from the seed (matrices from
``repro.matrices.generators``, turnstile batches from a seeded generator),
builds the system, runs one untimed warm-up operation, and then serves
operations in whole passes over a fixed round-robin list.  ``check`` runs
after the timed region: it recomputes the exact answers, and replays the
same seed and query sequence on a reference system where the workload
promises bit-identical answers.

See ``WORKLOADS.md`` for why each workload exists.
"""

from __future__ import annotations

import contextlib
import math
import time
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro import ClusterEstimator, StreamingSession
from repro.comm.conditions import LinkModel, NetworkConditions
from repro.matrices import generators, stats
from repro.service.client import local_cluster

#: The nine queries every binary cluster answers: (label, method, kwargs).
BINARY_QUERIES: list[tuple[str, str, dict]] = [
    ("lp_norm(p=0)", "lp_norm", {"p": 0.0}),
    ("lp_norm(p=1)", "lp_norm", {"p": 1.0}),
    ("lp_norm(p=2)", "lp_norm", {"p": 2.0}),
    ("natural_join_size", "natural_join_size", {}),
    ("l0_sample", "l0_sample", {}),
    ("l1_sample", "l1_sample", {}),
    ("linf", "linf", {}),
    ("linf_kappa(4)", "linf_kappa", {"kappa": 4}),
    ("heavy_hitters(0.1,0.05)", "heavy_hitters", {"phi": 0.1, "epsilon": 0.05}),
]
#: Queries on the integer pair, which select the general-matrix families.
INTEGER_QUERIES = [query for query in BINARY_QUERIES if query[1] in ("linf_kappa", "heavy_hitters")]
LIVE_QUERIES = ["live_lp_norm(2)", "live_l0", "live_l0_sample", "live_heavy_hitters(0.1)"]


@dataclass
class Record:
    """One completed operation, as the caller saw it."""

    name: str
    latency: float = 0.0
    value: Any = None
    bits: int = 0
    #: Workload-specific extras (wire bytes, epoch split, live answers).
    extra: dict = field(default_factory=dict)
    error: str | None = None
    #: Whether the layer wrappers were installed while it ran.
    traced: bool = False


@dataclass
class Verdict:
    """What ``check`` found: each failure, and the operations it names."""

    failures: list[str] = field(default_factory=list)
    #: Indices into the run's records of the operations found wrong.
    failed_ops: set[int] = field(default_factory=set)
    rel_errors: dict[str, float] = field(default_factory=dict)
    #: l0/l1 sample outputs checked, and how many of them were empty.
    samples: int = 0
    empty_samples: int = 0

    def fail(self, op: int | None, what: str) -> None:
        """Record a failure of operation ``op`` (None: of the run as a whole)."""
        self.failures.append(what)
        if op is not None:
            self.failed_ops.add(op)

    def rel_error(self, op: int, label: str, estimate: float, exact: float) -> None:
        """Keep the worst relative error per label; a non-finite or negative
        estimate fails its operation."""
        if not math.isfinite(estimate) or estimate < 0:
            self.fail(op, f"{label}: estimate {estimate} is not a finite non-negative number")
            return
        err = abs(estimate - exact) / exact if exact else float(estimate != 0)
        self.rel_errors[label] = max(self.rel_errors.get(label, 0.0), err)

    def sample(self, op: int, where: str, sample: Any, c: np.ndarray) -> None:
        """A returned sample must lie in the support of ``c``.

        An empty output is the sampler reporting failure, which its
        guarantee allows with small probability: it is counted, not failed.
        """
        self.samples += 1
        if sample.row is None:
            self.empty_samples += 1
        elif c[sample.row, sample.col] == 0:
            self.fail(op, f"{where}: sample ({sample.row}, {sample.col}) is outside the support")
        elif sample.value is not None and sample.value != c[sample.row, sample.col]:
            self.fail(op, f"{where}: sample value {sample.value} != exact {c[sample.row, sample.col]}")


def check_exact(
    verdict: Verdict, op: int, label: str, method: str, kwargs: dict, value: Any, c: np.ndarray
) -> None:
    """Hold one one-shot answer against the exact product ``c``."""
    where = f"{label}#{op}"
    if method == "lp_norm":
        verdict.rel_error(op, label, float(value), stats.exact_lp_pp(c, kwargs["p"]))
    elif method == "natural_join_size":
        if float(value) != stats.exact_lp_pp(c, 1.0):
            verdict.fail(op, f"{where}: {value} != exact {stats.exact_lp_pp(c, 1.0)}")
    elif method in ("l0_sample", "l1_sample"):
        verdict.sample(op, where, value, c)
    elif method in ("linf", "linf_kappa"):
        verdict.rel_error(op, label, float(value), stats.exact_linf(c))


class Workload:
    """Base: a round-robin list of operations over one built system."""

    name = ""
    why = ""
    callers = 1

    def __init__(self, seed: int, *, smoke: bool = False) -> None:
        self.seed = seed
        self.rng = np.random.default_rng(seed)

    def config(self) -> dict:
        raise NotImplementedError

    def build(self) -> None:
        """Construct the system and run the untimed warm-up operation."""
        raise NotImplementedError

    def teardown(self) -> None:
        pass

    def pass_ops(self) -> list[tuple[str, Callable[[], Record]]]:
        raise NotImplementedError

    def check(self, records: list[Record]) -> Verdict:
        raise NotImplementedError


class _OneShot(Workload):
    """Shared by the three one-shot workloads: queries on ClusterEstimators."""

    def _plan(self) -> list[tuple[str, str, str, dict]]:
        """(label, target key, method, kwargs) in round-robin order."""
        raise NotImplementedError

    def _targets(self) -> dict[str, Any]:
        """Target key -> the estimator (or service client) that answers."""
        raise NotImplementedError

    def _queries(self) -> list[tuple[str, Any, str, dict]]:
        targets = self._targets()
        return [(label, targets[key], method, kwargs) for label, key, method, kwargs in self._plan()]

    def _by_label(self) -> dict[str, tuple[str, dict, str]]:
        """Label -> (method, kwargs, target key)."""
        return {label: (method, kwargs, key) for label, key, method, kwargs in self._plan()}

    def _ask(self, label: str, estimator, method: str, kwargs: dict) -> Record:
        result = getattr(estimator, method)(**kwargs)
        return Record(label, value=result.value, bits=int(result.cost.total_bits))

    def build(self) -> None:
        self._make()
        self.warmup = self._ask(*self._queries()[0])

    def pass_ops(self):
        return [
            (query[0], lambda query=query: self._ask(*query))
            for query in self._queries()
        ]

    def _exact_checks(self, verdict: Verdict, records: list[Record], products: dict) -> None:
        plan = self._by_label()
        for index, record in enumerate(records):
            if record.error is not None:
                continue
            method, kwargs, key = plan[record.name]
            check_exact(verdict, index, record.name, method, kwargs, record.value, products[key])
            if record.bits <= 0:
                verdict.fail(index, f"{record.name}#{index}: metered {record.bits} bits")

    def _replay(
        self, verdict: Verdict, records: list[Record], reference: dict, what: str, *, same_bits: bool
    ) -> None:
        """Issue the warm-up and every recorded query on ``reference``
        estimators built with the same seeds; answers must match exactly,
        and so must the metered bits when ``same_bits``."""
        plan = self._by_label()
        # Index -1 is the warm-up query: a mismatch there fails the run.
        for index, record in enumerate([self.warmup] + records, start=-1):
            method, kwargs, key = plan[record.name]
            expected = getattr(reference[key], method)(**kwargs)
            if record.error is not None:
                continue
            op = index if index >= 0 else None
            if not record.value == expected.value:
                verdict.fail(op, f"{record.name}#{index}: {record.value!r} != {what} {expected.value!r}")
            if same_bits and record.bits != expected.cost.total_bits:
                verdict.fail(op, f"{record.name}#{index}: {record.bits} bits != {what} {expected.cost.total_bits}")


class OneShotStar(_OneShot):
    name = "oneshot-star-k64"
    why = "site compute and the coordinator finish dominate a flat star; the int64 coordinator products show here"

    def __init__(self, seed: int, *, smoke: bool = False) -> None:
        super().__init__(seed, smoke=smoke)
        self.n, self.k = (48, 8) if smoke else (384, 64)
        self.a, self.b = generators.random_binary_pair(self.n, density=0.05, seed=self.rng)
        self.ai, self.bi = generators.integer_matrix_pair(self.n, max_value=10, density=0.05, seed=self.rng)
        self.seeds = [int(s) for s in self.rng.integers(0, 2**31 - 1, size=2)]

    def config(self) -> dict:
        return {
            "topology": "flat star, in-process",
            "k": self.k,
            "binary_pair": f"random_binary_pair({self.n}, density=0.05)",
            "integer_pair": f"integer_matrix_pair({self.n}, max_value=10, density=0.05)",
            "queries": [label for label, *_ in self._plan()],
            "closed_loop_callers": self.callers,
        }

    def _make(self) -> None:
        self.binary = ClusterEstimator.from_matrix(self.a, self.b, self.k, seed=self.seeds[0])
        self.integer = ClusterEstimator.from_matrix(self.ai, self.bi, self.k, seed=self.seeds[1])

    def _plan(self):
        return [(label, "binary", method, kwargs) for label, method, kwargs in BINARY_QUERIES] + [
            (f"int:{label}", "integer", method, kwargs) for label, method, kwargs in INTEGER_QUERIES
        ]

    def _targets(self):
        return {"binary": self.binary, "integer": self.integer}

    def check(self, records):
        verdict = Verdict()
        products = {"binary": stats.product(self.a, self.b), "integer": stats.product(self.ai, self.bi)}
        self._exact_checks(verdict, records, products)
        return verdict


class TreeFan8(_OneShot):
    name = "tree-fan8-k256"
    why = "per-message and per-site metering overhead dominate a 256-site fan-out-8 tree with a makespan model"

    def __init__(self, seed: int, *, smoke: bool = False) -> None:
        super().__init__(seed, smoke=smoke)
        self.rows, self.inner, self.k, self.fan_out = (256, 32, 32, 4) if smoke else (2048, 64, 256, 8)
        self.a, self.b = generators.rectangular_binary_pair(
            self.rows, self.inner, self.inner, density=0.05, seed=self.rng
        )
        self.estimator_seed = int(self.rng.integers(0, 2**31 - 1))
        self.conditions = NetworkConditions(LinkModel(latency=1e-3, bandwidth=1e7))

    def config(self) -> dict:
        return {
            "topology": f"aggregation tree, fan-out {self.fan_out}, in-process",
            "k": self.k,
            "binary_pair": f"rectangular_binary_pair({self.rows}, {self.inner}, {self.inner}, density=0.05)",
            "conditions": "LinkModel(latency=1e-3, bandwidth=1e7) on every link",
            "queries": [label for label, *_ in self._plan()],
            "closed_loop_callers": self.callers,
        }

    def _estimator(self, tree) -> ClusterEstimator:
        return ClusterEstimator.from_matrix(
            self.a, self.b, self.k, seed=self.estimator_seed, tree=tree, conditions=self.conditions
        )

    def _make(self) -> None:
        self.estimator = self._estimator(self.fan_out)

    def _plan(self):
        return [(label, "binary", method, kwargs) for label, method, kwargs in BINARY_QUERIES]

    def _targets(self):
        return {"binary": self.estimator}

    def check(self, records):
        verdict = Verdict()
        self._exact_checks(verdict, records, {"binary": stats.product(self.a, self.b)})
        self._replay(verdict, records, {"binary": self._estimator(None)}, "flat star", same_bits=False)
        return verdict


class ServiceLoopback(_OneShot):
    name = "service-loopback-k4"
    why = "the same protocols over framing, the payload codec and loopback sockets to four site processes"

    def __init__(self, seed: int, *, smoke: bool = False) -> None:
        super().__init__(seed, smoke=smoke)
        self.n, self.k = (48, 4) if smoke else (256, 4)
        self.a, self.b = generators.random_binary_pair(self.n, density=0.05, seed=self.rng)
        self.shards = np.array_split(self.a, self.k, axis=0)
        self.estimator_seed = int(self.rng.integers(0, 2**31 - 1))
        self._cluster: contextlib.AbstractContextManager | None = None

    def config(self) -> dict:
        return {
            "topology": "flat star over 127.0.0.1: coordinator thread here, one OS process per site",
            "k": self.k,
            "binary_pair": f"random_binary_pair({self.n}, density=0.05)",
            "queries": [label for label, *_ in self._plan()],
            "closed_loop_callers": self.callers,
            "client_connections": 1,
        }

    def _make(self) -> None:
        self.teardown()
        self._cluster = local_cluster(self.shards, self.b, seed=self.estimator_seed)
        _server, self.client = self._cluster.__enter__()

    def teardown(self) -> None:
        if self._cluster is not None:
            cluster, self._cluster = self._cluster, None
            cluster.__exit__(None, None, None)

    def _ask(self, label, client, method, kwargs):
        result = client.query(method, **kwargs)
        record = Record(label, value=result.value, bits=int(result.cost.total_bits))
        record.extra["wire_bytes"] = int(client.last_service["observed_bytes"])
        return record

    def _plan(self):
        return [(label, "binary", method, kwargs) for label, method, kwargs in BINARY_QUERIES]

    def _targets(self):
        return {"binary": self.client}

    def check(self, records):
        verdict = Verdict()
        self._exact_checks(verdict, records, {"binary": stats.product(self.a, self.b)})
        reference = ClusterEstimator(self.shards, self.b, seed=self.estimator_seed)
        self._replay(verdict, records, {"binary": reference}, "in-process", same_bits=True)
        for index, record in enumerate(records):
            if record.error is None and record.extra.get("wire_bytes", 0) <= 0:
                verdict.fail(index, f"{record.name}#{index}: no bytes crossed the sockets")
        return verdict


class StreamK16(Workload):
    name = "stream-k16"
    why = "turnstile ingest, delta shipping and merge beside live estimates read from the merged state"
    sketch_mode = "hash"

    def __init__(self, seed: int, *, smoke: bool = False) -> None:
        super().__init__(seed, smoke=smoke)
        self.k, self.rows, self.inner, self.batch = (4, 128, 16, 16) if smoke else (16, 2048, 64, 64)
        _, self.b = generators.rectangular_binary_pair(
            self.rows, self.inner, self.inner, density=0.05, seed=self.rng
        )
        self.row_counts = [len(part) for part in np.array_split(np.arange(self.rows), self.k)]
        self.offsets = np.concatenate([[0], np.cumsum(self.row_counts)])
        self.session_seed = int(self.rng.integers(0, 2**31 - 1))
        self.session: StreamingSession | None = None

    def config(self) -> dict:
        return {
            "topology": "flat star, in-process, default runtime",
            "k": self.k,
            "rows": self.rows,
            "b": f"rectangular_binary_pair({self.rows}, {self.inner}, {self.inner}, density=0.05) B",
            "sketch_mode": self.sketch_mode,
            "epoch": f"every site ingests {self.batch} distinct rows of deltas in {{-1,0,1}} "
            f"(P(+1)=P(-1)=0.05), then end_epoch()",
            "queries_per_epoch": LIVE_QUERIES,
            "closed_loop_callers": self.callers,
        }

    def batches(self, epoch: int) -> list[tuple[np.ndarray, np.ndarray]]:
        """The per-site turnstile batches of one epoch: a pure function of
        the seed and the epoch number, so a replay rebuilds ``A`` exactly."""
        rng = np.random.default_rng([self.seed, epoch])
        out = []
        for site in range(self.k):
            rows = self.offsets[site] + rng.choice(self.row_counts[site], size=self.batch, replace=False)
            deltas = rng.choice(np.array([-1, 0, 1]), size=(self.batch, self.inner), p=[0.05, 0.9, 0.05])
            out.append((rows.astype(np.int64), deltas.astype(np.int64)))
        return out

    def build(self) -> None:
        self.teardown()
        self.session = StreamingSession(
            self.row_counts, self.b, seed=self.session_seed, sketch_mode=self.sketch_mode
        )
        self._epoch(0, self.batches(0))  # the untimed warm-up epoch
        #: Number of epochs run on the current session (the next epoch's number).
        self.epoch = 1

    def teardown(self) -> None:
        if self.session is not None:
            self.session.close()

    def _epoch(self, epoch: int, batches) -> Record:
        session = self.session
        clock = time.perf_counter
        start = clock()
        for site, (rows, deltas) in enumerate(batches):
            session.ingest(site, rows, deltas)
        report = session.end_epoch()
        epoch_done = clock()
        live, live_seconds = [], []
        for query in (
            lambda: session.live_lp_norm(2.0),
            session.live_l0,
            session.live_l0_sample,
            lambda: session.live_heavy_hitters(0.1),
        ):
            before = clock()
            live.append(query())
            live_seconds.append(clock() - before)
        return Record(
            "epoch",
            value=live,
            bits=8 * int(report.total_bytes),
            extra={
                "epoch": epoch,
                "epoch_s": epoch_done - start,
                "rows": sum(len(rows) for rows, _ in batches),
                "upload_bytes": int(report.total_bytes),
                "live_s": live_seconds,
            },
        )

    def pass_ops(self):
        epoch, self.epoch = self.epoch, self.epoch + 1
        batches = self.batches(epoch)
        return [("epoch", lambda: self._epoch(epoch, batches))]

    def check(self, records):
        verdict = Verdict()
        by_epoch = {
            record.extra["epoch"]: (index, record)
            for index, record in enumerate(records)
            if record.error is None
        }
        a = np.zeros((self.rows, self.inner), dtype=np.int64)
        b = self.b.astype(float)
        for epoch in range(self.epoch):
            for rows, deltas in self.batches(epoch):
                a[rows] += deltas
            if epoch not in by_epoch:
                continue
            op, record = by_epoch[epoch]
            c = np.rint(a.astype(float) @ b).astype(np.int64)
            lp2, l0, sample, _heavy = record.value
            verdict.rel_error(op, "live_lp_norm(2)", lp2, stats.exact_lp_pp(c, 2.0))
            verdict.rel_error(op, "live_l0", l0, stats.exact_lp_pp(c, 0.0))
            verdict.sample(op, f"live_l0_sample@{epoch}", sample, c)
            if record.bits <= 0:
                verdict.fail(op, f"epoch {epoch}: shipped {record.bits} bits")
        if not np.array_equal(np.vstack(self.session.shards()), a):
            verdict.fail(None, "accumulated session shards differ from the ingested batches")
        return verdict


class StreamK16Dense(StreamK16):
    """``stream-k16`` with per-coordinate (dense) sketch randomness.

    In ``hash`` mode the live l0 sampler returns a coordinate outside the
    support of ``A B`` in about one epoch in a hundred (see WORKLOADS.md), so
    ``stream-k16`` fails its check; this variant's outputs pass it.
    """

    name = "stream-k16-dense"
    why = "stream-k16 with dense sketch randomness, whose live l0 samples pass the support check"
    sketch_mode = "dense"


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (OneShotStar, TreeFan8, StreamK16, StreamK16Dense, ServiceLoopback)
}
