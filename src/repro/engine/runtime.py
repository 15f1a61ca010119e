"""The engine's message-passing runtime: pluggable per-site executors.

Every engine protocol is now written as an alternation of two phases:

1. a **fan-out phase** — per-site local computation (sketch ``update_many``
   over a shard, group sampling, exchange-list construction, ...) with *no*
   network access, expressed as a picklable module-level task function and
   executed through :meth:`Runtime.map`;
2. a **serial phase** — the coordinator's side: sends in fixed site order,
   entrywise merges, thresholding, the final estimate.

The runtime only parallelizes phase 1, so the transcript — the order of
messages on the network, the bits charged per message, the round counter —
is produced by exactly the same serial code regardless of the executor.

Serial-equivalence guarantee
----------------------------
``Runtime("serial")`` (the default) runs every task inline, in site order,
on the caller's thread: byte for byte the pre-runtime control flow, which
is why the pinned-transcript suites (``tests/test_engine_equivalence.py``,
``tests/engine/test_determinism.py``, the golden-state and the streaming
equivalence tests) pass unmodified.  The concurrent executors preserve
bit-identical *results* too, because the engine's randomness discipline
makes per-site work independent:

* each site draws only from its **private** generator, so concurrent sites
  never contend for a stream, and results are collected **in site order**
  regardless of completion order;
* task functions that consume randomness take the generator as an argument
  and return it alongside their result; :meth:`Runtime.map_sites` restores
  the returned generator onto the site, so a later phase continues from the
  advanced state even when the draw happened in another *process* (in the
  serial and thread executors the returned object is the site's own
  generator and the restore is a no-op);
* floating-point accumulation across sites happens in the serial phase, in
  site order, so sums associate identically under every executor.

Together these give the contract pinned by ``tests/engine/test_runtime.py``:
all three executors produce identical protocol outputs and identical
bit/round/per-link meters, for every protocol family, at every k.

Executors
---------
``serial``
    Inline execution (default).  Zero overhead, zero dependencies.
``threads``
    A shared :class:`~concurrent.futures.ThreadPoolExecutor`.  NumPy
    releases the GIL inside the BLAS/ufunc kernels that dominate per-site
    work, so k-site runs overlap their heavy lifting on multicore hosts.
``processes``
    A shared :class:`~concurrent.futures.ProcessPoolExecutor` (fork start
    method where available).  True multi-core fan-out; task functions and
    their arguments must be picklable — all engine sketches and payloads
    are.  Large ndarray task arguments (shards, matrices) travel through
    ``multiprocessing.shared_memory`` segments that workers attach once
    and the runtime refreshes per dispatch, so the per-task pickle cost
    covers only the small residue; the honest trade-off per host is
    recorded in ``BENCH_runtime.json``.

Resident workers (``persistent=True``)
--------------------------------------
Pool workers are stateless: every task round-trips its inputs.  For
stateful consumers (the streaming runtime) that means re-pickling whole
site sketches each epoch.  ``Runtime(..., persistent=True)`` warms the
pool eagerly and unlocks :meth:`Runtime.resident_pool` — one dedicated
worker per site that *keeps* the site's sketch state (pinned into shared
memory via :mod:`repro.sketch.shm`) across epochs, so per-epoch traffic
is just update batches out and counters back, and the coordinator merges
summaries straight out of the workers' shm segments with zero
serialization.  Resident process workers run BLAS single-threaded (see
:func:`_single_blas_thread`), so k workers do not start k BLAS threads each.

Fault policies
--------------
The runtime also owns the **dropout policy** applied when the network
conditions declare sites dropped (:class:`repro.comm.conditions
.NetworkConditions.dropped`):

``"fail"``
    (default) Raise :class:`SiteDroppedError` — a one-shot protocol cannot
    answer without all shards.
``"exclude"``
    Run the protocol over the surviving sites only and report which sites
    contributed (``details["dropout"]``).  Protocol families whose output
    is an additive mass over row-shards (the mergeable-summary families:
    ``lp_norm`` / ``join_size``, ``natural_join_size``) are additionally
    **renormalized** by the inverse surviving row fraction, so the estimate
    still targets the full ``||A B||`` under a uniform-mass assumption.
"""

from __future__ import annotations

import atexit
import ctypes
import os
import traceback
from collections import deque
from dataclasses import dataclass
from concurrent.futures import Executor, ProcessPoolExecutor, ThreadPoolExecutor
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from repro.sketch import shm as _shm

__all__ = [
    "DROPOUT_POLICIES",
    "EXECUTORS",
    "QuorumPolicy",
    "ResidentPool",
    "Runtime",
    "SERIAL_RUNTIME",
    "SiteDroppedError",
    "WorkerCrashedError",
]

#: Supported executors, in cost order.
EXECUTORS = ("serial", "threads", "processes")

#: Supported dropout policies.
DROPOUT_POLICIES = ("fail", "exclude")


class SiteDroppedError(RuntimeError):
    """Raised when dropped sites make a protocol unanswerable under policy.

    Carries the failure as structured state — ``dropped`` (sorted names),
    ``policy`` (the active dropout policy, if known), ``surviving`` (how
    many sites remain) and ``reason`` (``"dropped"`` or ``"quorum"``) — so
    callers can degrade programmatically via :meth:`degradation_report`
    instead of parsing the message.
    """

    def __init__(
        self,
        dropped: Sequence[str],
        message: str | None = None,
        *,
        policy: str | None = None,
        surviving: int | None = None,
        reason: str = "dropped",
    ) -> None:
        self.dropped = sorted(dropped)
        self.policy = policy
        self.surviving = surviving
        self.reason = reason
        if message is None:
            if reason == "quorum":
                parts = [
                    f"quorum not met: sites {self.dropped} missed the "
                    f"response deadline"
                ]
            else:
                parts = [f"sites {self.dropped} are dropped"]
            if policy is not None:
                parts.append(f"active dropout policy: {policy!r}")
            if surviving is not None:
                parts.append(f"surviving sites: {surviving}")
            if reason == "dropped" and policy == "fail" and surviving:
                parts.append(
                    "rerun with Runtime(dropout='exclude') to estimate "
                    "from the survivors"
                )
            message = "; ".join(parts)
        super().__init__(message)

    def degradation_report(self) -> dict:
        """The failure as a structured report (service answers embed this)."""
        return {
            "reason": self.reason,
            "dropped_sites": self.dropped,
            "policy": self.policy,
            "surviving_sites": self.surviving,
            "message": str(self),
        }


@dataclass(frozen=True)
class QuorumPolicy:
    """Answer queries from the first ``n - f`` site responses.

    Ported from the approximate-consensus exemplars (proceed once ``n - f``
    responses arrive): a quorum-mode runtime waits for the fastest
    ``n - f`` sites instead of the full fan-in, treats the rest as
    *stragglers* — excluded from the answer (with survivor
    renormalization) but not discarded, their results late-merge on
    arrival — and fails the query only when fewer than ``n - f`` sites
    respond within the per-site ``deadline``.

    Parameters
    ----------
    f:
        Number of slow/failed sites to tolerate; the quorum is ``n - f``.
    n:
        Expected cluster size (defaults to the actual site count at run
        time).
    deadline:
        Per-site response deadline in simulated seconds; ``None`` defers
        to ``NetworkConditions.deadline`` (and with neither set, every
        site responds and the quorum is simply the fastest ``n - f``).
    """

    f: int = 0
    n: int | None = None
    deadline: float | None = None

    def __post_init__(self) -> None:
        if self.f < 0:
            raise ValueError(f"f must be >= 0, got {self.f}")
        if self.n is not None and self.n - self.f < 1:
            raise ValueError(
                f"quorum n - f must be >= 1, got n={self.n}, f={self.f}"
            )
        if self.deadline is not None and self.deadline <= 0:
            raise ValueError(f"deadline must be > 0 seconds, got {self.deadline}")

    @classmethod
    def coerce(
        cls, value: "QuorumPolicy | tuple | int | None"
    ) -> "QuorumPolicy | None":
        """Accept a policy, an ``(n, f)`` pair, a bare ``f``, or ``None``."""
        if value is None or isinstance(value, QuorumPolicy):
            return value
        if isinstance(value, tuple):
            n, f = value
            return cls(n=int(n), f=int(f))
        return cls(f=int(value))

    def required(self, k: int) -> int:
        """The quorum size ``n - f`` for an actual cluster of k sites."""
        n = self.n if self.n is not None else k
        if n > k:
            raise ValueError(
                f"quorum expects n={n} sites but the cluster has only {k}"
            )
        return n - self.f


def _default_workers() -> int:
    """Pool width default: env override, then CPU *affinity*, then count.

    ``os.cpu_count()`` reports the machine, not the container: under a
    cgroup cpuset (CI runners, schedulers) it over-provisions the pool and
    the surplus workers just contend.  ``os.sched_getaffinity(0)`` reports
    the CPUs this process may actually run on.  ``REPRO_WORKERS`` wins over
    both, so benchmarks and CI can pin the width explicitly.
    """
    env = os.environ.get("REPRO_WORKERS")
    if env:
        try:
            workers = int(env)
        except ValueError:
            raise ValueError(f"REPRO_WORKERS must be an integer, got {env!r}") from None
        if workers < 1:
            raise ValueError(f"REPRO_WORKERS must be >= 1, got {workers}")
        return workers
    if hasattr(os, "sched_getaffinity"):
        try:
            return max(len(os.sched_getaffinity(0)), 1)
        except OSError:  # pragma: no cover - affinity unsupported at runtime
            pass
    return max(os.cpu_count() or 1, 1)


def _noop(_: int) -> None:
    """Pool warm-up task (forces every worker process/thread to spawn)."""
    return None


#: Task-argument ndarrays at least this large ride to process workers via
#: shared memory instead of pickle (below it, the copy wins over the setup).
_SHM_MIN_BYTES = 1 << 16


class _SharedArg:
    """Picklable stand-in for a large ndarray task argument (see Runtime.map)."""

    __slots__ = ("block", "untrack")

    def __init__(self, block: _shm.ShmBlock, untrack: bool) -> None:
        self.block = block
        self.untrack = untrack


#: Per-worker-process cache of attached segments: name -> (view, SharedMemory).
#: Lives for the worker's lifetime; the OS drops the mappings when it exits.
_ATTACHED_VIEWS: dict[str, tuple[np.ndarray, Any]] = {}


def _resolve_shared(arg: Any) -> Any:
    if not isinstance(arg, _SharedArg):
        return arg
    cached = _ATTACHED_VIEWS.get(arg.block.name)
    if cached is None:
        view, seg = _shm.attach(arg.block, untrack=arg.untrack)
        # Workers read fan-out inputs; writing would corrupt shared state.
        view.flags.writeable = False
        cached = (view, seg)
        _ATTACHED_VIEWS[arg.block.name] = cached
    return cached[0]


def _invoke_shared(fn: Callable[..., Any], *args: Any) -> Any:
    """Worker-side trampoline: attach shm-backed args, then run the task."""
    return fn(*[_resolve_shared(a) for a in args])


class WorkerCrashedError(RuntimeError):
    """A resident worker process died mid-conversation (crash or kill)."""


#: ``set_num_threads`` entry points of the OpenBLAS builds NumPy and SciPy
#: wheels bundle: plain, 64-bit-integer (``64_`` suffix) and ``scipy_``-prefixed.
_BLAS_THREAD_SETTERS = (
    "openblas_set_num_threads",
    "openblas_set_num_threads64_",
    "scipy_openblas_set_num_threads",
    "scipy_openblas_set_num_threads64_",
)


def _single_blas_thread() -> None:
    """Run every loaded OpenBLAS single-threaded in this forked worker.

    A forked worker inherits the parent's OpenBLAS, which starts one thread
    per core on first use, so k resident workers on k cores run k x k BLAS
    threads that spin against each other.  ``OPENBLAS_NUM_THREADS`` is read
    only when the library loads, so it cannot reach a forked child; the
    library's own setter can.  A caller who set the variable keeps it, and
    hosts without ``/proc`` or OpenBLAS keep their defaults.
    """
    if "OPENBLAS_NUM_THREADS" in os.environ:
        return
    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split()[-1] for line in maps if "openblas" in line}
    except OSError:
        return
    for path in paths:
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        for name in _BLAS_THREAD_SETTERS:
            setter = getattr(library, name, None)
            if setter is not None:
                setter.argtypes, setter.restype = [ctypes.c_int], None
                setter(1)


def _resident_worker_main(conn, init_fn, init_args) -> None:
    """Resident worker loop: build the pinned state, then serve calls.

    Protocol (per-slot FIFO over a duplex pipe): the parent sends
    ``(fn, args)`` requests and ``None`` to shut down; the worker answers
    every request — and the initial state construction — with
    ``("ok", result)`` or ``("err", traceback_text)``.
    """
    _single_blas_thread()
    try:
        state = init_fn(*init_args)
        conn.send(("ok", None))
    except BaseException:
        try:
            conn.send(("err", traceback.format_exc()))
        finally:
            conn.close()
        return
    while True:
        try:
            request = conn.recv()
        except (EOFError, OSError):  # parent went away
            break
        if request is None:
            break
        fn, args = request
        try:
            conn.send(("ok", fn(state, *args)))
        except BaseException:
            conn.send(("err", traceback.format_exc()))
    conn.close()


class ResidentPool:
    """One pinned worker per slot, holding slot state across calls.

    Created via :meth:`Runtime.resident_pool`.  Slot ``i``'s state is built
    once by ``init_fn(*init_tasks[i])`` inside the worker and every
    subsequent ``fn`` runs as ``fn(state, *args)`` against it — per-epoch
    traffic shrinks to the call arguments and return values.  Calls to one
    slot execute in submission order (FIFO); distinct slots run
    concurrently (under the process/thread executors).

    Usage discipline: :meth:`submit` enqueues asynchronously, :meth:`drain`
    collects every outstanding result for a slot in order, :meth:`call` is
    the synchronous convenience (requires the slot to be drained).  Worker
    exceptions re-raise in the caller with the worker traceback attached;
    a dead worker process raises :class:`WorkerCrashedError`.
    """

    def __init__(self, num_slots: int) -> None:
        self._pending = [0] * num_slots
        self._closed = False

    # Subclass hooks ------------------------------------------------------
    def _dispatch(self, slot: int, fn: Callable[..., Any], args: tuple) -> None:
        raise NotImplementedError

    def _collect(self, slot: int) -> Any:
        raise NotImplementedError

    def _shutdown(self) -> None:
        raise NotImplementedError

    # Public API ----------------------------------------------------------
    @property
    def num_slots(self) -> int:
        return len(self._pending)

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has run (no further submits/results)."""
        return self._closed

    def pending(self, slot: int) -> int:
        """Outstanding (submitted, not yet drained) calls for ``slot``."""
        return self._pending[slot]

    def submit(self, slot: int, fn: Callable[..., Any], *args: Any) -> None:
        """Enqueue ``fn(state, *args)`` on ``slot`` (returns immediately)."""
        if self._closed:
            raise RuntimeError("resident pool is closed")
        self._dispatch(slot, fn, args)
        self._pending[slot] += 1

    def result(self, slot: int) -> Any:
        """The oldest outstanding result for ``slot`` (blocks until ready)."""
        if self._closed:
            # Without this guard a post-close result() would reach into the
            # subclass's torn-down connection/executor lists and surface as
            # an IndexError — a lifecycle violation must read as one.
            raise RuntimeError("resident pool is closed")
        if self._pending[slot] < 1:
            raise RuntimeError(f"no outstanding call on slot {slot}")
        self._pending[slot] -= 1
        return self._collect(slot)

    def drain(self, slot: int) -> list[Any]:
        """All outstanding results for ``slot``, in submission order."""
        return [self.result(slot) for _ in range(self._pending[slot])]

    def call(self, slot: int, fn: Callable[..., Any], *args: Any) -> Any:
        """Synchronous ``fn(state, *args)`` on a drained slot."""
        if self._pending[slot]:
            raise RuntimeError(
                f"slot {slot} has {self._pending[slot]} outstanding calls; "
                f"drain() before a synchronous call"
            )
        self.submit(slot, fn, *args)
        return self.result(slot)

    def close(self) -> None:
        """Shut every worker down (idempotent; outstanding results dropped)."""
        if self._closed:
            return
        self._closed = True
        self._shutdown()

    def __enter__(self) -> "ResidentPool":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


class _SerialResidentPool(ResidentPool):
    """Inline variant: states live in the caller, submit executes eagerly."""

    def __init__(self, init_fn, init_tasks) -> None:
        super().__init__(len(init_tasks))
        self._states = [init_fn(*task) for task in init_tasks]
        self._results: list[deque] = [deque() for _ in init_tasks]

    def _dispatch(self, slot, fn, args) -> None:
        self._results[slot].append(fn(self._states[slot], *args))

    def _collect(self, slot):
        return self._results[slot].popleft()

    def _shutdown(self) -> None:
        self._states = []
        self._results = []

    def state(self, slot: int):
        """Direct access to a slot's live state (serial/threads only)."""
        return self._states[slot]


class _ThreadResidentPool(_SerialResidentPool):
    """One single-thread executor per slot: FIFO per slot, slots concurrent.

    States still live in this process (threads share memory), so
    :meth:`state` works here too; the GIL-releasing kernel backends are
    what let the per-slot threads actually overlap.
    """

    def __init__(self, init_fn, init_tasks) -> None:
        ResidentPool.__init__(self, len(init_tasks))
        self._executors = [
            ThreadPoolExecutor(max_workers=1, thread_name_prefix=f"repro-resident-{i}")
            for i in range(len(init_tasks))
        ]
        init_futures = [
            ex.submit(init_fn, *task) for ex, task in zip(self._executors, init_tasks)
        ]
        self._states = [f.result() for f in init_futures]
        self._results = [deque() for _ in init_tasks]

    def _run(self, slot, fn, args):
        return fn(self._states[slot], *args)

    def _dispatch(self, slot, fn, args) -> None:
        self._results[slot].append(self._executors[slot].submit(self._run, slot, fn, args))

    def _collect(self, slot):
        return self._results[slot].popleft().result()

    def _shutdown(self) -> None:
        for ex in self._executors:
            ex.shutdown(wait=True, cancel_futures=True)
        self._executors = []
        self._states = []
        self._results = []


class _ProcessResidentPool(ResidentPool):
    """One dedicated worker process per slot, duplex pipe, FIFO protocol."""

    def __init__(self, init_fn, init_tasks, context) -> None:
        super().__init__(len(init_tasks))
        self._procs = []
        self._conns = []
        for i, task in enumerate(init_tasks):
            parent_conn, child_conn = context.Pipe()
            proc = context.Process(
                target=_resident_worker_main,
                args=(child_conn, init_fn, tuple(task)),
                daemon=True,
                name=f"repro-resident-{i}",
            )
            proc.start()
            child_conn.close()
            self._procs.append(proc)
            self._conns.append(parent_conn)
        for slot in range(len(init_tasks)):  # init handshake (errors surface)
            self._receive(slot)

    def _receive(self, slot: int):
        try:
            kind, payload = self._conns[slot].recv()
        except (EOFError, OSError):
            # Reap the dead worker so the exit code makes it into the error
            # (the pipe closes a beat before the process is join-able).
            self._procs[slot].join(timeout=5)
            code = self._procs[slot].exitcode
            raise WorkerCrashedError(
                f"resident worker {slot} died (exit code {code})"
            ) from None
        if kind == "err":
            raise RuntimeError(f"resident worker {slot} task failed:\n{payload}")
        return payload

    def _dispatch(self, slot, fn, args) -> None:
        try:
            self._conns[slot].send((fn, args))
        except (BrokenPipeError, OSError):
            code = self._procs[slot].exitcode
            raise WorkerCrashedError(
                f"resident worker {slot} died (exit code {code})"
            ) from None

    def _collect(self, slot):
        return self._receive(slot)

    def _shutdown(self) -> None:
        for conn in self._conns:
            try:
                conn.send(None)
            except (BrokenPipeError, OSError):
                pass
        for proc, conn in zip(self._procs, self._conns):
            proc.join(timeout=5)
            if proc.is_alive():  # pragma: no cover - stuck worker
                proc.terminate()
                proc.join(timeout=5)
            conn.close()
        self._procs = []
        self._conns = []


class Runtime:
    """Executes the engine's per-site fan-out phases.

    Parameters
    ----------
    executor:
        ``"serial"`` (default), ``"threads"`` or ``"processes"``.
    max_workers:
        Pool width for the concurrent executors.  Default: the
        ``REPRO_WORKERS`` env var, else the CPU *affinity* count
        (:func:`os.sched_getaffinity` — honest in containers), else
        ``os.cpu_count()``.
    dropout:
        Policy applied to sites declared dropped by the network conditions:
        ``"fail"`` (default) or ``"exclude"`` (see the module docstring).
    persistent:
        Opt into resident-worker mode: the pool is warmed *eagerly* at
        construction (no cold start on the first epoch), and state-holding
        consumers — :class:`repro.engine.streaming.StreamingSession` — pin
        each site's sketch state in a dedicated worker via
        :meth:`resident_pool`, shrinking per-epoch IPC to update batches
        and counters.  Identical outputs and meters; purely a performance
        mode.

    A runtime is reusable across protocol runs and queries; its worker pool
    is created lazily on the first concurrent :meth:`map` (eagerly under
    ``persistent=True``) and shared until :meth:`close` (also invoked by
    the context-manager exit and at interpreter shutdown).
    """

    def __init__(
        self,
        executor: str = "serial",
        *,
        max_workers: int | None = None,
        dropout: str = "fail",
        quorum: "QuorumPolicy | tuple | int | None" = None,
        persistent: bool = False,
    ) -> None:
        if executor not in EXECUTORS:
            raise ValueError(f"executor must be one of {EXECUTORS}, got {executor!r}")
        if dropout not in DROPOUT_POLICIES:
            raise ValueError(f"dropout must be one of {DROPOUT_POLICIES}, got {dropout!r}")
        if max_workers is not None and max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        self.executor = executor
        self.max_workers = max_workers
        self.dropout = dropout
        self.quorum = QuorumPolicy.coerce(quorum)
        self.persistent = bool(persistent)
        self._pool: Executor | None = None
        self._atexit_registered = False
        self._resident_pools: list[ResidentPool] = []
        self._adopted_arenas: list[_shm.ShmArena] = []
        self._shm_arena: _shm.ShmArena | None = None
        # id(array) -> (block, shm view, strong ref pinning the id).
        self._shm_cache: dict[int, tuple[_shm.ShmBlock, np.ndarray, np.ndarray]] = {}
        if self.persistent:
            self.warm()

    # ------------------------------------------------------------------ pool
    def _mp_context(self):
        import multiprocessing

        try:
            return multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-fork platforms
            return multiprocessing.get_context()

    @property
    def _uses_spawn(self) -> bool:
        """Whether process workers get their own resource tracker (spawn)."""
        return self._mp_context().get_start_method() != "fork"

    def _register_atexit(self) -> None:
        """Install the interpreter-shutdown close hook (at most one live).

        Registration and unregistration must stay exactly paired across
        warm→close cycles: ``atexit.register`` appends unconditionally, so a
        re-register without the matching unregister would stack duplicate
        hooks (each pinning this runtime) for the life of the process.  The
        ``_atexit_registered`` flag is the single source of truth — it is
        only set here and only cleared by :meth:`close` right after the
        ``atexit.unregister`` call.
        """
        if not self._atexit_registered:
            atexit.register(self.close)
            self._atexit_registered = True

    def _ensure_pool(self) -> Executor:
        if self._pool is None:
            workers = self.max_workers or _default_workers()
            if self.executor == "threads":
                self._pool = ThreadPoolExecutor(
                    max_workers=workers, thread_name_prefix="repro-site"
                )
            else:
                self._pool = ProcessPoolExecutor(
                    max_workers=workers, mp_context=self._mp_context()
                )
            self._register_atexit()
        return self._pool

    def warm(self) -> None:
        """Create the pool and spawn every worker now, off the hot path.

        Both pool classes spawn workers lazily per submission; without a
        warm-up the first parallel epoch pays the full fork/thread-start
        latency.  No-op for the serial executor and for an already-warm
        pool (workers only spawn once).
        """
        if self.executor == "serial":
            return
        pool = self._ensure_pool()
        workers = self.max_workers or _default_workers()
        list(pool.map(_noop, range(workers)))

    def resident_pool(
        self, init_fn: Callable[..., Any], init_tasks: Sequence[tuple]
    ) -> ResidentPool:
        """One pinned worker per slot; see :class:`ResidentPool`.

        The executor decides the worker kind: dedicated processes
        (``processes``), per-slot single-thread executors (``threads``), or
        inline state (``serial``).  Under ``processes`` ``init_fn`` and
        every submitted ``fn`` must be module-level picklables.  The pool
        is tracked and shut down by :meth:`close`.
        """
        if self.executor == "processes":
            pool: ResidentPool = _ProcessResidentPool(
                init_fn, init_tasks, self._mp_context()
            )
        elif self.executor == "threads":
            pool = _ThreadResidentPool(init_fn, init_tasks)
        else:
            pool = _SerialResidentPool(init_fn, init_tasks)
        self._register_atexit()
        self._resident_pools.append(pool)
        return pool

    def discard_resident_pool(self, pool: ResidentPool) -> None:
        """Close one resident pool and stop tracking it.

        Sessions that own a pool call this on close; without it every pool
        ever created stays in the tracking list for the runtime's lifetime —
        harmless for one session, a real leak for a multi-tenant service
        cycling thousands of them over one shared runtime.
        """
        pool.close()
        try:
            self._resident_pools.remove(pool)
        except ValueError:
            pass

    @property
    def resident_pool_count(self) -> int:
        """Live (tracked, not yet closed) resident pools — pool occupancy."""
        return sum(1 for pool in self._resident_pools if not pool.closed)

    # ----------------------------------------------------- arena adoption
    def adopt_arena(self, arena: _shm.ShmArena) -> _shm.ShmArena:
        """Track a caller-owned shm arena for closure with this runtime.

        Sessions allocate their resident sketch state in their own arenas;
        adopting them ties the segments' lifetime to the runtime, so a
        session abandoned without ``close()`` cannot dangle ``/dev/shm``
        segments past :meth:`Runtime.close` (or interpreter shutdown via
        the atexit hook).  A session that does close properly calls
        :meth:`release_arena` first and closes the arena itself.
        """
        self._adopted_arenas.append(arena)
        self._register_atexit()
        return arena

    def release_arena(self, arena: _shm.ShmArena) -> None:
        """Stop tracking an adopted arena (ownership returns to the caller)."""
        try:
            self._adopted_arenas.remove(arena)
        except ValueError:
            pass

    # ----------------------------------------------------- shared task inputs
    def _share_array(self, arr: np.ndarray) -> _SharedArg:
        """Publish a task-argument array through shared memory (cached).

        The segment is keyed by the array's identity and *refreshed* (one
        memcpy) on every dispatch, so in-place mutations between calls —
        e.g. a streaming shard growing across epochs — are always visible;
        workers attach once and read directly, paying zero pickling.
        """
        key = id(arr)
        entry = self._shm_cache.get(key)
        if (
            entry is None
            or entry[2] is not arr
            or entry[1].shape != arr.shape
            or entry[1].dtype != arr.dtype
        ):
            if self._shm_arena is None:
                self._shm_arena = _shm.ShmArena()
            view, block = self._shm_arena.allocate(arr.shape, arr.dtype)
            entry = (block, view, arr)
            self._shm_cache[key] = entry
        entry[1][...] = arr
        return _SharedArg(entry[0], untrack=self._uses_spawn)

    def _wrap_shared(self, tasks: Sequence[tuple]) -> tuple[list[tuple], bool]:
        wrapped: list[tuple] = []
        any_shared = False
        for task in tasks:
            out = []
            for arg in task:
                if (
                    isinstance(arg, np.ndarray)
                    and arg.dtype != object
                    and arg.nbytes >= _SHM_MIN_BYTES
                ):
                    out.append(self._share_array(arg))
                    any_shared = True
                else:
                    out.append(arg)
            wrapped.append(tuple(out))
        return wrapped, any_shared

    def close(self) -> None:
        """Shut pools down and release shared memory (idempotent)."""
        for pool in self._resident_pools:
            pool.close()
        self._resident_pools.clear()
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        for arena in self._adopted_arenas:
            arena.close()
        self._adopted_arenas.clear()
        if self._shm_arena is not None:
            self._shm_arena.close()
            self._shm_arena = None
        self._shm_cache.clear()
        if self._atexit_registered:
            # Drop the interpreter-shutdown hook so closed runtimes are
            # garbage-collectable instead of accumulating in the atexit list.
            atexit.unregister(self.close)
            self._atexit_registered = False

    def __enter__(self) -> "Runtime":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------- map
    def map(self, fn: Callable[..., Any], tasks: Sequence[tuple]) -> list[Any]:
        """Run ``fn(*task)`` for every task; results come back in task order.

        The serial executor (and any call with fewer than two tasks, where
        concurrency cannot help) runs inline on the caller's thread — but a
        concurrent runtime still creates its pool on the way through, so a
        tiny first phase no longer pushes the pool-spawn latency onto the
        first real parallel epoch.  For the ``processes`` executor ``fn``
        must be a module-level function and every task element picklable;
        large ndarray task arguments travel via shared memory (attached
        once per worker, refreshed per dispatch) instead of per-task
        pickles.
        """
        if self.executor == "serial":
            return [fn(*task) for task in tasks]
        if len(tasks) < 2:
            self._ensure_pool()
            return [fn(*task) for task in tasks]
        pool = self._ensure_pool()
        if self.executor == "processes":
            wrapped, any_shared = self._wrap_shared(tasks)
            if any_shared:
                return list(
                    pool.map(_invoke_shared, [fn] * len(wrapped), *zip(*wrapped))
                )
        return list(pool.map(fn, *zip(*tasks)))

    def map_async(
        self, fn: Callable[..., Any], tasks: Sequence[tuple]
    ) -> Callable[[], list[Any]]:
        """Dispatch every task now; join (and get ordered results) later.

        Returns a zero-argument callable producing the same list
        :meth:`map` would have, so the caller can run other work between
        dispatch and join.  Serial execution — the serial
        executor or a sub-concurrent task count — runs eagerly at dispatch
        so the join can never surprise.  Until the join returns, task
        arguments must not be mutated: the threads executor reads them in
        place, and a pending process pickle may still be reading them too.
        """
        if self.executor == "serial" or len(tasks) < 2:
            if self.executor != "serial":
                self._ensure_pool()
            results = [fn(*task) for task in tasks]
            return lambda: results
        pool = self._ensure_pool()
        if self.executor == "processes":
            wrapped, any_shared = self._wrap_shared(tasks)
            if any_shared:
                futures = [pool.submit(_invoke_shared, fn, *task) for task in wrapped]
                return lambda: [future.result() for future in futures]
        futures = [pool.submit(fn, *task) for task in tasks]
        return lambda: [future.result() for future in futures]

    def map_sites(
        self,
        fn: Callable[..., tuple[Any, Any]],
        sites: Sequence[Any],
        tasks: Sequence[tuple],
    ) -> list[Any]:
        """Fan ``fn(site.rng, *task)`` out over sites; restore advanced rngs.

        ``fn`` must return ``(result, rng)``.  Each site's private generator
        is passed as the first argument and *replaced* by the returned one,
        so draws made in a worker process are visible to later phases — the
        serial/threads executors return the site's own (mutated) generator
        and the replacement is a no-op.  Results are in site order.
        """
        outcomes = self.map(
            fn, [(site.rng,) + tuple(task) for site, task in zip(sites, tasks)]
        )
        results = []
        for site, (result, rng) in zip(sites, outcomes):
            site.rng = rng
            results.append(result)
        return results

    # ---------------------------------------------------------------- faults
    def partition_dropped(
        self, site_names: Sequence[str], dropped: Iterable[str]
    ) -> tuple[list[int], list[str]]:
        """Split site indices into (surviving, dropped-names) under policy.

        Returns the indices of surviving sites (in order) and the sorted
        names actually dropped.  Raises :class:`SiteDroppedError` when the
        policy is ``"fail"`` and any site is dropped, or when no site
        survives — and ``ValueError`` when a declared name matches no site
        (a typo'd fault declaration must not silently test nothing).
        """
        dropped = set(dropped)
        unknown = dropped - set(site_names)
        if unknown:
            raise ValueError(
                f"dropped sites {sorted(unknown)} match no site in this "
                f"topology (sites: {list(site_names)})"
            )
        if not dropped:
            return list(range(len(site_names))), []
        surviving = [i for i, name in enumerate(site_names) if name not in dropped]
        if self.dropout == "fail":
            raise SiteDroppedError(
                sorted(dropped), policy=self.dropout, surviving=len(surviving)
            )
        if not surviving:
            raise SiteDroppedError(
                sorted(dropped),
                "every site is dropped; nothing can be estimated",
                policy=self.dropout,
                surviving=0,
            )
        return surviving, sorted(dropped)

    def partition_quorum(
        self,
        site_names: Sequence[str],
        conditions=None,
        tree=None,
    ) -> tuple[list[int], list[str], dict | None]:
        """Split site indices into (quorum contributors, stragglers) under
        the runtime's :class:`QuorumPolicy`.

        The simulated response time of a site is its link latency under
        ``conditions`` (ideal links respond instantly).  Sites beyond the
        per-site deadline never count as responders; of the responders, the
        fastest ``n - f`` (site order breaking ties) form the quorum and
        the rest are stragglers — excluded from this answer, merged late.
        Raises :class:`SiteDroppedError` (``reason="quorum"``) when fewer
        than ``n - f`` sites respond in time.

        The scan is a single NumPy pass: one latency vector, one boolean
        deadline mask, one *stable* argsort (ties break by site order,
        exactly like the historical per-site sort — contributor sets are
        pinned bit-identical).

        With a :class:`~repro.comm.tree.TreeSpec` the latencies resolve
        per *edge* (exact override > enclosing region > default) and the
        details additionally report how each aggregator's subtree fared
        (``per_subtree``: sites present vs contributing), so quorum
        accounting follows the hierarchy.

        Returns ``(contributor indices, straggler names, quorum details)``
        — details is ``None`` when no quorum policy is active.
        """
        policy = self.quorum
        if policy is None:
            return list(range(len(site_names))), [], None
        k = len(site_names)
        required = policy.required(k)
        deadline = policy.deadline
        if deadline is None and conditions is not None:
            deadline = conditions.deadline
        if conditions is None:
            latencies = np.zeros(k, dtype=np.float64)
        elif tree is not None and conditions.regions:
            latencies = np.array(
                [
                    conditions.edge_link(name, tree.ancestors(name)).latency
                    for name in site_names
                ],
                dtype=np.float64,
            )
        else:
            latencies = np.full(k, conditions.default.latency, dtype=np.float64)
            if conditions.overrides:
                index = {name: i for i, name in enumerate(site_names)}
                for name, model in conditions.overrides.items():
                    if name in index:
                        latencies[index[name]] = model.latency
        if deadline is None:
            responders = np.arange(k)
        else:
            responders = np.flatnonzero(latencies <= deadline)
        if responders.size < required:
            missed = [
                site_names[i] for i in np.flatnonzero(latencies > (deadline or 0.0))
            ]
            raise SiteDroppedError(
                missed,
                policy=self.dropout,
                surviving=int(responders.size),
                reason="quorum",
            )
        ordered = responders[np.argsort(latencies[responders], kind="stable")]
        contributors = [int(i) for i in np.sort(ordered[:required])]
        in_quorum = set(contributors)
        stragglers = [
            name for i, name in enumerate(site_names) if i not in in_quorum
        ]
        details = {
            "n": policy.n if policy.n is not None else k,
            "f": policy.f,
            "required": required,
            "deadline": deadline,
            "quorum_met": True,
            "contributing_sites": [site_names[i] for i in contributors],
            "stragglers": stragglers,
            "arrival_s": {
                name: float(latencies[i]) for i, name in enumerate(site_names)
            },
        }
        if tree is not None and tree.aggregators:
            present = set(site_names)
            contributing = set(details["contributing_sites"])
            details["per_subtree"] = {
                agg: {
                    "sites": sum(
                        1 for leaf in tree.subtree_sites(agg) if leaf in present
                    ),
                    "contributing": sum(
                        1 for leaf in tree.subtree_sites(agg) if leaf in contributing
                    ),
                }
                for agg in tree.aggregators
            }
        return contributors, stragglers, details

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        parts = [repr(self.executor), f"dropout={self.dropout!r}"]
        if self.quorum is not None:
            parts.append(f"quorum={self.quorum}")
        return f"Runtime({', '.join(parts)})"


#: The shared default: serial execution, fail-on-dropout.  The serial
#: executor never allocates a pool, so one stateless instance backs every
#: protocol run and helper invoked without an explicit runtime.
SERIAL_RUNTIME = Runtime()
