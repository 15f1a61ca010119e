"""Runtime/session lifecycle: atexit pairing, shm hygiene, the close state machine.

The ISSUE 8 satellite bugfixes, pinned as regression tests:

* ``Runtime`` registers its interpreter-shutdown hook exactly once per
  open period — warm→close cycles must not stack duplicate ``atexit``
  entries (each would pin the runtime for the life of the process);
* a warm→ingest→close loop leaves ``/dev/shm`` exactly as it found it —
  no dangling segment from any cycle (the leak check the issue asks for);
* a closed :class:`StreamingSession` is a real state machine: every
  mutation raises :class:`SessionClosedError` while the accumulated data
  stays queryable, ``close`` is idempotent, and queued deltas — including
  a *dropped* site's — never survive close;
* close ordering is safe both ways round (session-then-runtime and
  runtime-then-session).
"""

from __future__ import annotations

import atexit
import os

import numpy as np
import pytest

from repro.engine.runtime import Runtime
from repro.engine.streaming import SessionClosedError, StreamingSession

N, M = 12, 3


@pytest.fixture()
def b() -> np.ndarray:
    return np.random.default_rng(1).integers(0, 4, size=(N, M))


def _ingest_some(session: StreamingSession, seed: int = 0) -> None:
    rng = np.random.default_rng(seed)
    for site in range(len(session.sites)):
        low = session.sites[site].row_offset
        rows = rng.integers(low, low + session.sites[site].num_rows, size=5)
        session.ingest(site, rows, rng.integers(-2, 3, size=(5, N)))


class _AtexitSpy:
    """Counts register/unregister calls for one specific callback."""

    def __init__(self, monkeypatch):
        self.registered: list = []
        real_register, real_unregister = atexit.register, atexit.unregister

        def register(fn, *args, **kwargs):
            self.registered.append(fn)
            return real_register(fn, *args, **kwargs)

        def unregister(fn):
            while fn in self.registered:
                self.registered.remove(fn)
            return real_unregister(fn)

        monkeypatch.setattr(atexit, "register", register)
        monkeypatch.setattr(atexit, "unregister", unregister)

    def live_hooks_for(self, fn) -> int:
        return self.registered.count(fn)


class TestAtexitPairing:
    def test_ten_warm_close_cycles_keep_exactly_one_live_hook(
        self, b, monkeypatch
    ):
        spy = _AtexitSpy(monkeypatch)
        runtime = Runtime("threads", max_workers=2)
        for _ in range(10):
            runtime.warm()
            assert spy.live_hooks_for(runtime.close) == 1
            with StreamingSession([6, 6], b, seed=3, runtime=runtime) as session:
                _ingest_some(session)
                session.sync()
            runtime.close()
            assert spy.live_hooks_for(runtime.close) == 0
        runtime.close()
        assert spy.live_hooks_for(runtime.close) == 0

    def test_persistent_runtime_registers_once(self, b, monkeypatch):
        spy = _AtexitSpy(monkeypatch)
        with Runtime("threads", max_workers=2, persistent=True) as runtime:
            for _ in range(3):
                with StreamingSession([6, 6], b, seed=3, runtime=runtime) as session:
                    _ingest_some(session)
                    session.sync()
                assert spy.live_hooks_for(runtime.close) == 1
        assert spy.live_hooks_for(runtime.close) == 0


@pytest.mark.skipif(not os.path.isdir("/dev/shm"), reason="no /dev/shm")
class TestShmHygiene:
    def test_warm_ingest_close_loop_leaks_no_segments(self, b):
        before = set(os.listdir("/dev/shm"))
        for cycle in range(10):
            runtime = Runtime("threads", max_workers=2, persistent=True)
            session = StreamingSession([6, 6], b, seed=cycle, runtime=runtime)
            _ingest_some(session, seed=cycle)
            session.sync()
            session.close()
            runtime.close()
        leaked = set(os.listdir("/dev/shm")) - before
        assert not leaked, f"dangling /dev/shm segments: {sorted(leaked)}"

    def test_abandoned_session_segments_die_with_the_runtime(self, b):
        """A session never closed must not dangle past Runtime.close()."""
        before = set(os.listdir("/dev/shm"))
        runtime = Runtime("threads", max_workers=2, persistent=True)
        session = StreamingSession([6, 6], b, seed=1, runtime=runtime)
        _ingest_some(session)
        session.sync()
        runtime.close()  # session deliberately not closed first
        leaked = set(os.listdir("/dev/shm")) - before
        assert not leaked, f"dangling /dev/shm segments: {sorted(leaked)}"
        session.close()  # and the late close is still safe


class TestCloseStateMachine:
    def test_mutations_after_close_raise(self, b):
        session = StreamingSession([6, 6], b, seed=3)
        _ingest_some(session)
        session.sync()
        session.close()
        assert session.closed
        rng = np.random.default_rng(0)
        with pytest.raises(SessionClosedError, match="ingest"):
            session.ingest(0, [0], rng.integers(-1, 2, size=(1, N)))
        with pytest.raises(SessionClosedError, match="epoch"):
            session.end_epoch()
        with pytest.raises(SessionClosedError, match="drop"):
            session.drop_site(0)
        with pytest.raises(SessionClosedError, match="restore"):
            session.restore_site(0)

    def test_closed_session_remains_queryable(self, b):
        session = StreamingSession([6, 6], b, seed=3)
        _ingest_some(session)
        session.sync()
        live_before = session.live_lp_norm(p=2.0)
        result_before = session.lp_norm(p=2.0, epsilon=0.3)
        session.close()
        assert session.live_lp_norm(p=2.0) == live_before
        later = StreamingSession([6, 6], b, seed=3)
        _ingest_some(later)
        later.sync()
        later.close()
        assert later.lp_norm(p=2.0, epsilon=0.3).value == result_before.value

    def test_close_is_idempotent(self, b):
        session = StreamingSession([6, 6], b, seed=3)
        _ingest_some(session)
        session.close()
        session.close()
        with Runtime("threads", max_workers=2, persistent=True) as runtime:
            resident = StreamingSession([6, 6], b, seed=3, runtime=runtime)
            _ingest_some(resident)
            resident.sync()
            resident.close()
            resident.close()

    def test_pending_deltas_do_not_survive_close(self, b):
        session = StreamingSession([6, 6], b, seed=3, refresh="threshold",
                                   threshold=float("inf"))
        _ingest_some(session)
        assert sum(s.pending_updates for s in session.sites) > 0
        session.close()
        for site in session.sites:
            assert site.pending_updates == 0
            assert site.pending_mass == 0.0

    def test_dropped_site_queue_is_cleared_on_close(self, b):
        session = StreamingSession([6, 6], b, seed=3, dropout="exclude")
        _ingest_some(session)
        session.drop_site(0)
        session.sync()  # site 0 cannot ship; its deltas stay queued
        assert session.sites[0].pending_updates > 0
        session.close()
        assert session.sites[0].pending_updates == 0
        assert session.sites[0].pending_mass == 0.0

    def test_shipped_counters_survive_close(self, b):
        session = StreamingSession([6, 6], b, seed=3)
        _ingest_some(session)
        session.sync()
        shipped = session.total_upload_bytes
        assert shipped > 0
        session.close()
        assert session.total_upload_bytes == shipped


class TestCloseOrdering:
    def test_runtime_close_then_session_close(self, b):
        runtime = Runtime("threads", max_workers=2, persistent=True)
        session = StreamingSession([6, 6], b, seed=3, runtime=runtime)
        _ingest_some(session)
        session.sync()
        runtime.close()
        session.close()  # must not raise on the dead pool/arena
        assert session.closed

    def test_session_close_detaches_from_the_runtime(self, b):
        with Runtime("threads", max_workers=2, persistent=True) as runtime:
            sessions = [
                StreamingSession([6, 6], b, seed=i, runtime=runtime)
                for i in range(3)
            ]
            assert runtime.resident_pool_count == 3
            assert len(runtime._adopted_arenas) == 3
            for session in sessions:
                _ingest_some(session)
                session.sync()
                session.close()
            # No pool or arena left behind in the shared runtime's tracking.
            assert runtime.resident_pool_count == 0
            assert runtime._resident_pools == []
            assert runtime._adopted_arenas == []

    def test_closed_pool_result_raises_not_indexerror(self, b):
        runtime = Runtime("processes", max_workers=2, persistent=True)
        try:
            session = StreamingSession([6, 6], b, seed=3, runtime=runtime)
            _ingest_some(session)
            session.sync()
            pool = session._resident.pool
            assert pool in runtime._resident_pools  # a worker pool, not inline
            runtime.close()
            with pytest.raises(RuntimeError, match="closed"):
                pool.result(0)
            session.close()
            assert pool not in runtime._resident_pools
        finally:
            runtime.close()
