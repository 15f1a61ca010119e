"""Runtime pool lifecycle: sizing, warm-up, resident workers, shm hygiene.

The invariance suite (``test_runtime.py``) pins *what* the executors
compute; this module pins how the pools behave as resources:

* worker-count resolution (CPU affinity by default, ``REPRO_WORKERS``
  overrides),
* pool warm-up — eager under ``persistent=True``, and the sub-concurrent
  ``map`` fallback still creates the pool on its way through,
* context-manager reuse across runs and ``close()`` idempotency,
* ``map_async`` dispatch/join semantics,
* resident pools: state pinned per slot, FIFO results, crash surfacing
  (``WorkerCrashedError``), idempotent shutdown,
* shared-memory hygiene: every segment a runtime or a resident streaming
  session allocates is unlinked on close — including after a worker crash
  — proven by ``attach`` raising ``FileNotFoundError``.
"""

from __future__ import annotations

import ctypes
import os

import numpy as np
import pytest

from repro.engine.runtime import (
    Runtime,
    WorkerCrashedError,
    _default_workers,
)
from repro.engine.streaming import StreamingSession
from repro.sketch import shm as shm_mod


# --------------------------------------------------------------- module-level
# Functions submitted to process pools must be importable.

def _double(x):
    return 2 * x


def _array_sum(arr):
    return float(arr.sum())


def _init_counter(start):
    return {"count": start}


def _bump(state, by):
    state["count"] += by
    return state["count"]


def _read(state):
    return state["count"]


def _crash(state):
    os._exit(13)


def _blas_thread_counts(state=None):
    """Thread count of every loaded OpenBLAS (NumPy's and SciPy's builds)."""
    with open("/proc/self/maps") as maps:
        paths = sorted({line.split()[-1] for line in maps if "openblas" in line})
    counts = []
    for path in paths:
        library = ctypes.CDLL(path)
        for prefix in ("", "scipy_"):
            for suffix in ("", "64_"):
                name = f"{prefix}openblas_get_num_threads{suffix}"
                getter = getattr(library, name, None)
                if getter is not None:
                    getter.argtypes, getter.restype = [], ctypes.c_int
                    counts.append(getter())
    return counts


class TestWorkerSizing:
    def test_affinity_is_the_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert _default_workers() == len(os.sched_getaffinity(0))

    def test_env_override_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert _default_workers() == 3

    @pytest.mark.parametrize("bad", ["0", "-2", "many"])
    def test_invalid_override_rejected(self, monkeypatch, bad):
        monkeypatch.setenv("REPRO_WORKERS", bad)
        with pytest.raises(ValueError):
            _default_workers()


class TestPoolLifecycle:
    def test_persistent_runtime_warms_eagerly(self):
        with Runtime("threads", max_workers=2, persistent=True) as runtime:
            assert runtime._pool is not None  # created at construction

    def test_sub_concurrent_map_still_creates_the_pool(self):
        with Runtime("threads", max_workers=2) as runtime:
            assert runtime._pool is None  # lazy until first map
            assert runtime.map(_double, [(21,)]) == [42]
            assert runtime._pool is not None  # single task ran inline, but
            # the pool exists for the first *real* parallel phase

    def test_context_manager_reuses_one_pool_across_runs(self):
        with Runtime("threads", max_workers=2) as runtime:
            runtime.map(_double, [(1,), (2,)])
            pool = runtime._pool
            runtime.map(_double, [(3,), (4,)])
            assert runtime._pool is pool
        assert runtime._pool is None  # exit closed it

    def test_close_is_idempotent_and_runtime_remains_usable(self):
        runtime = Runtime("threads", max_workers=2)
        assert runtime.map(_double, [(1,), (2,)]) == [2, 4]
        runtime.close()
        runtime.close()  # double close is a no-op
        # A closed runtime lazily re-creates its pool on the next use.
        assert runtime.map(_double, [(5,), (6,)]) == [10, 12]
        runtime.close()

    @pytest.mark.parametrize("executor", ["serial", "threads", "processes"])
    def test_map_async_matches_map(self, executor):
        with Runtime(executor, max_workers=2) as runtime:
            tasks = [(i,) for i in range(5)]
            join = runtime.map_async(_double, tasks)
            assert join() == runtime.map(_double, tasks)


class TestSharedMemoryHygiene:
    def test_large_map_arguments_travel_via_shm_and_are_released(self):
        arr = np.arange(32_768, dtype=np.int64)  # 256 KiB >= threshold
        runtime = Runtime("processes", max_workers=2)
        try:
            results = runtime.map(_array_sum, [(arr,), (arr,)])
            assert results == [float(arr.sum())] * 2
            assert runtime._shm_arena is not None
            blocks = [entry[0] for entry in runtime._shm_cache.values()]
            assert blocks
        finally:
            runtime.close()
        for block in blocks:
            with pytest.raises(FileNotFoundError):
                shm_mod.attach(block)

    def test_resident_session_releases_segments_on_close(self):
        with Runtime("processes", max_workers=2, persistent=True) as runtime:
            session = StreamingSession([8, 8], np.eye(3, dtype=np.int64),
                                       seed=1, runtime=runtime)
            arena = session._resident.arena
            assert arena.names  # shard + sketch buffers exist
            blocks = [
                shm_mod.ShmBlock(name, (1,), "<i8") for name in arena.names
            ]
            session.ingest(0, [0, 1], np.ones((2, 3), dtype=np.int64))
            session.close()
            for block in blocks:
                with pytest.raises(FileNotFoundError):
                    shm_mod.attach(block)

    def test_segments_survive_a_worker_crash_until_owner_closes(self):
        # A dying worker must not take the owner's segments with it (the
        # attach-side registration is untracked/deduped); only the owning
        # arena unlinks, in close().
        with shm_mod.ShmArena() as arena:
            view, block = arena.allocate((4,), np.float64)
            runtime = Runtime("processes", max_workers=1)
            pool = runtime.resident_pool(_init_counter, [(0,)])
            pool.submit(0, _crash)
            with pytest.raises(WorkerCrashedError):
                pool.drain(0)
            runtime.close()
            mapped, seg = shm_mod.attach(block)  # still alive
            del mapped
            seg.close()
        with pytest.raises(FileNotFoundError):
            shm_mod.attach(block)


class TestResidentPools:
    @pytest.mark.parametrize("executor", ["serial", "threads", "processes"])
    def test_state_persists_across_calls_per_slot(self, executor):
        with Runtime(executor, max_workers=2) as runtime:
            pool = runtime.resident_pool(_init_counter, [(10,), (100,)])
            assert pool.call(0, _bump, 1) == 11
            assert pool.call(1, _bump, 5) == 105
            assert pool.call(0, _bump, 1) == 12  # slot 0 kept its state
            assert pool.call(1, _read) == 105

    @pytest.mark.parametrize("executor", ["serial", "threads", "processes"])
    def test_submit_results_come_back_fifo(self, executor):
        with Runtime(executor, max_workers=2) as runtime:
            pool = runtime.resident_pool(_init_counter, [(0,)])
            for by in (1, 2, 3):
                pool.submit(0, _bump, by)
            assert pool.pending(0) == 3
            assert [pool.result(0) for _ in range(3)] == [1, 3, 6]
            assert pool.pending(0) == 0

    def test_crashed_worker_raises_with_exit_code(self):
        with Runtime("processes", max_workers=1) as runtime:
            pool = runtime.resident_pool(_init_counter, [(0,)])
            pool.submit(0, _crash)
            with pytest.raises(WorkerCrashedError, match="13"):
                pool.drain(0)

    @pytest.mark.skipif(not os.path.exists("/proc/self/maps"), reason="needs /proc")
    @pytest.mark.parametrize("caller_setting", [None, "2"])
    def test_process_workers_run_blas_single_threaded(
        self, monkeypatch, caller_setting
    ):
        """Forked workers must not each start one BLAS thread per core;
        an ``OPENBLAS_NUM_THREADS`` the caller set is left alone."""
        if caller_setting is None:
            monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        else:
            monkeypatch.setenv("OPENBLAS_NUM_THREADS", caller_setting)
        square = np.ones((64, 64))
        square @ square  # loads and starts BLAS in the parent
        parent = _blas_thread_counts()
        if not parent:
            pytest.skip("no OpenBLAS loaded")
        with Runtime("processes", max_workers=1) as runtime:
            pool = runtime.resident_pool(_init_counter, [(0,)])
            workers = pool.call(0, _blas_thread_counts)
        assert workers == ([1] * len(parent) if caller_setting is None else parent)

    @pytest.mark.parametrize("executor", ["threads", "processes"])
    def test_pool_close_is_idempotent_and_runtime_close_covers_it(self, executor):
        runtime = Runtime(executor, max_workers=1)
        pool = runtime.resident_pool(_init_counter, [(0,)])
        assert pool.call(0, _read) == 0
        pool.close()
        pool.close()
        runtime.close()  # already-closed pool is fine


class TestResidentStreamingSession:
    def run_session(self, runtime):
        rng = np.random.default_rng(99)
        b = rng.integers(0, 3, size=(4, 3))
        session = StreamingSession(
            [12, 12], b, seed=7, runtime=runtime, refresh="every-epoch"
        )
        offsets = (0, 12)
        for _ in range(3):
            for site in range(2):
                rows = rng.integers(offsets[site], offsets[site] + 12, size=9)
                deltas = rng.integers(-4, 5, size=(9, 4))
                session.ingest(site, rows, deltas)
            session.end_epoch()
        session.sync()
        return session

    def collect(self, session):
        return (
            [(r.shipped, r.upload_bytes, r.total_bytes) for r in session.history],
            session.network.total_bits,
            {
                key: sketch.state_array().tobytes()
                for key, sketch in session.merged.items()
            },
            [shard.copy() for shard in session.shards()],
        )

    @pytest.mark.parametrize("executor", ["threads", "processes"])
    def test_resident_sessions_are_bit_identical_to_serial(self, executor):
        reference = self.collect(self.run_session(None))
        with Runtime(executor, max_workers=2, persistent=True) as runtime:
            session = self.run_session(runtime)
            pool = session._resident.pool
            assert pool in runtime._resident_pools  # really ran on workers
            got = self.collect(session)
            session.close()
            assert pool.closed and pool not in runtime._resident_pools
        assert got[0] == reference[0]
        assert got[1] == reference[1]
        assert got[2] == reference[2]
        for mine, theirs in zip(got[3], reference[3]):
            np.testing.assert_array_equal(mine, theirs)

    def test_closed_session_still_answers_queries_but_refuses_ingest(self):
        with Runtime("processes", max_workers=2, persistent=True) as runtime:
            session = self.run_session(runtime)
            live = session.live_lp_norm(2.0)
            shards = [shard.copy() for shard in session.shards()]
            session.close()
            session.close()  # idempotent
            assert session.live_lp_norm(2.0) == live
            for mine, theirs in zip(session.shards(), shards):
                np.testing.assert_array_equal(mine, theirs)
            with pytest.raises(RuntimeError):
                session.ingest(0, [0], np.ones((1, 4), dtype=np.int64))
            with pytest.raises(RuntimeError):
                session.end_epoch()

    def test_session_context_manager_closes(self):
        with Runtime("threads", max_workers=2, persistent=True) as runtime:
            with StreamingSession(
                [6, 6], np.eye(2, dtype=np.int64), seed=3, runtime=runtime
            ) as session:
                pool = session._resident.pool
                assert pool in runtime._resident_pools
                arena = session._resident.arena
            assert session._resident is None
            assert pool.closed and pool not in runtime._resident_pools
            assert not arena.names

    @pytest.mark.parametrize(
        "runtime_args", [None, ("serial", True), ("threads", False), ("processes", False)]
    )
    def test_inline_slots_are_not_registered_with_the_runtime(self, runtime_args):
        runtime = None if runtime_args is None else Runtime(
            runtime_args[0], max_workers=2, persistent=runtime_args[1]
        )
        try:
            session = self.run_session(runtime)
            assert session._resident.arena is None
            if runtime is not None:
                assert runtime.resident_pool_count == 0
                assert runtime._adopted_arenas == []
            pool = session._resident.pool
            session.close()
            assert pool.closed
        finally:
            if runtime is not None:
                runtime.close()

    def test_dropped_site_backlog_ships_after_restore(self):
        reference = self.collect(self.run_session(None))

        rng = np.random.default_rng(99)
        b = rng.integers(0, 3, size=(4, 3))
        with Runtime("processes", max_workers=2, persistent=True) as runtime:
            session = StreamingSession(
                [12, 12], b, seed=7, runtime=runtime, refresh="every-epoch"
            )
            offsets = (0, 12)
            session.drop_site(1)  # site 1 queues its deltas locally
            for _ in range(3):
                for site in range(2):
                    rows = rng.integers(offsets[site], offsets[site] + 12, size=9)
                    deltas = rng.integers(-4, 5, size=(9, 4))
                    session.ingest(site, rows, deltas)
                session.end_epoch()
            session.restore_site(1)
            session.sync()  # backlog ships; summaries catch up exactly
            got_states = {
                key: sketch.state_array().tobytes()
                for key, sketch in session.merged.items()
            }
            session.close()
        assert got_states == reference[2]
