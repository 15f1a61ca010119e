"""Site-agent processes and the client-side query proxy.

:class:`SiteAgent` is the whole site process: a synchronous blocking-socket
loop that registers its shard with the coordinator and then serves the
protocol traffic — acking downstream pushes with the byte count it observed
on its socket, echoing upstream payloads so their bytes physically travel
site -> coordinator, and executing fanned-out engine tasks
(``repro.``-module functions only) on its own CPU.

:func:`connect` opens a :class:`ServiceClient`: a thin synchronous proxy
whose attribute calls (``client.lp_norm(p=2.0)``) become ``query`` messages
and whose answers unpickle into the same
:class:`~repro.comm.protocol.ProtocolResult` objects the in-process facade
returns, alongside the coordinator's service metering report
(:attr:`ServiceClient.last_service`).

:func:`local_cluster` wires the whole thing on localhost: one
:class:`~repro.service.server.CoordinatorServer` in this process and one
``repro-site`` OS process per shard — the harness behind the service tests,
the quickstart example and the service benchmark leg.
"""

from __future__ import annotations

import hashlib
import importlib
import os
import socket
import subprocess
import sys
import tempfile
import time
import traceback
from collections import deque
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterator, Sequence

import numpy as np

from repro.comm.framing import FrameDecoder, encode_frame
from repro.service.messages import (
    PAYLOAD_TAG_BYTES,
    Message,
    ServiceError,
    decode_message,
    decode_payload,
    encode_message,
    encode_payload,
)

__all__ = [
    "AggregatorAgent",
    "ServiceClient",
    "SiteAgent",
    "connect",
    "local_cluster",
    "read_port_file",
]


class _SocketStream:
    """Blocking frame/message IO over one TCP socket."""

    def __init__(self, sock: socket.socket) -> None:
        self._sock = sock
        self._decoder = FrameDecoder()
        self._bodies: deque[bytes] = deque()

    def send(self, message: Message) -> None:
        self._sock.sendall(encode_frame(encode_message(message)))

    def send_frame(self, frame: bytes) -> None:
        """Send pre-encoded frame bytes (encode-once fan-out)."""
        self._sock.sendall(frame)

    def next(self) -> Message | None:
        while not self._bodies:
            chunk = self._sock.recv(65536)
            self._bodies.extend(self._decoder.feed(chunk))
            if not chunk:
                if self._bodies:
                    break
                self._decoder.close()  # truncated tail raises FramingError
                return None
        return decode_message(self._bodies.popleft())

    def close(self) -> None:
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()


def _dial(host: str, port: int, *, retries: int = 40, delay: float = 0.25) -> socket.socket:
    """Connect with retries (the server may still be binding)."""
    last: Exception | None = None
    for _ in range(retries):
        try:
            sock = socket.create_connection((host, port))
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            return sock
        except OSError as exc:
            last = exc
            time.sleep(delay)
    raise ConnectionError(f"could not reach coordinator at {host}:{port}: {last}")


def read_port_file(path: str, *, timeout: float = 60.0, poll: float = 0.05) -> int:
    """Wait for a port file (written by an aggregator agent) and read it.

    Aggregator agents bind port 0 and publish the resolved port by writing
    it to a file (atomic rename); leaf sites behind them poll that file
    instead of taking a ``--port``.
    """
    deadline = time.monotonic() + timeout
    path_obj = Path(path)
    while time.monotonic() < deadline:
        try:
            text = path_obj.read_text().strip()
            if text:
                return int(text)
        except (OSError, ValueError):
            pass
        time.sleep(poll)
    raise TimeoutError(f"no port published at {path} after {timeout}s")


# ---------------------------------------------------------------------- site
class SiteAgent:
    """One site of the cluster, running as its own OS process.

    The agent uploads its shard at registration, then answers the
    coordinator's traffic until it reads ``bye`` (or EOF).  The engine's
    protocol logic never runs here except through explicit ``task``
    messages — the site is deliberately a dumb, auditable endpoint: every
    byte it acknowledges or echoes was measured on its own socket.

    Chaos knobs (all default off) turn the agent into a fault injector for
    the coordinator's hardening paths — real sockets, declarative faults:

    ``delay``
        Sleep this many real seconds before answering each protocol
        request (``msg``/``relay``), starting after ``delay_after``
        requests, for at most ``delay_count`` requests (None = forever).
        With a coordinator ``deadline`` below the delay this makes the
        site a *straggler* (timeout → degraded answer).
    ``corrupt_upstream``
        Flip one byte of every upstream echo's payload, so the
        coordinator's digest check trips (corrupt frame → quarantine).
    ``flaky``
        Answer the first ``flaky`` protocol requests with a transient
        ``retry`` refusal (coordinator retries with backoff).
    """

    def __init__(
        self,
        host: str,
        port: int,
        index: int,
        shard: np.ndarray,
        *,
        delay: float = 0.0,
        delay_after: int = 0,
        delay_count: int | None = None,
        corrupt_upstream: bool = False,
        flaky: int = 0,
    ) -> None:
        self.host = host
        self.port = int(port)
        self.index = int(index)
        self.shard = np.asarray(shard)
        self.name = f"site-{self.index}"
        self.delay = float(delay)
        self.delay_after = int(delay_after)
        self.delay_count = None if delay_count is None else int(delay_count)
        self.corrupt_upstream = bool(corrupt_upstream)
        self.flaky = int(flaky)
        self._protocol_requests = 0
        self._delays_applied = 0
        self._refusals = 0

    def run(self) -> None:
        """Register, then serve until the coordinator says ``bye``."""
        stream = _SocketStream(_dial(self.host, self.port))
        try:
            stream.send(
                Message(
                    "hello",
                    {"role": "site", "index": self.index, "rows": int(self.shard.shape[0])},
                    encode_payload(self.shard),
                )
            )
            assign = stream.next()
            if assign is None or assign.type == "error":
                raise ServiceError(
                    f"registration refused: {assign.meta if assign else 'connection closed'}"
                )
            if assign.type != "assign":
                raise ServiceError(f"expected assign, got {assign.type!r}")
            self.name = assign.meta.get("name", self.name)
            while True:
                message = stream.next()
                if message is None or message.type == "bye":
                    return
                reply = self._handle(message)
                if reply is not None:
                    stream.send(reply)
        finally:
            stream.close()

    def _handle(self, message: Message) -> Message | None:
        """Answer one coordinator message; *every* failure becomes a reply.

        The coordinator's request/reply discipline is strict FIFO, so a
        handler that raised instead of replying would kill the whole agent
        loop and strand the coordinator's in-flight request — one malformed
        payload (``decode_payload`` on a ``msg``/``relay``) used to take
        the site down exactly that way.  Decode errors are answered like
        task errors: with an ``error`` message the server reports to the
        client, while the site lives on.
        """
        try:
            return self._handle_inner(message)
        except Exception as exc:  # noqa: BLE001 - reported to the server
            return Message(
                "error",
                {
                    "error": type(exc).__name__,
                    "message": str(exc),
                    "traceback": traceback.format_exc(),
                },
            )

    def _chaos(self, message: Message) -> Message | None:
        """Apply the configured fault injection to one protocol request.

        Returns a substitute reply (transient refusal) or ``None`` to
        proceed normally (possibly after a straggler sleep).
        """
        self._protocol_requests += 1
        if self._refusals < self.flaky:
            self._refusals += 1
            return Message("retry", {"reason": "flaky", "attempt": self._refusals})
        if (
            self.delay > 0
            and self._protocol_requests > self.delay_after
            and (self.delay_count is None or self._delays_applied < self.delay_count)
        ):
            self._delays_applied += 1
            time.sleep(self.delay)
        return None

    def _handle_inner(self, message: Message) -> Message | None:
        if message.type == "round":
            return Message("ack", {"round": message.meta.get("round")})
        if message.type in ("msg", "relay"):
            refusal = self._chaos(message)
            if refusal is not None:
                return refusal
        if message.type == "msg":
            # Downstream push: ack with the byte count observed on this
            # socket (codec body; the 1-byte tag is envelope) and a digest,
            # after proving the payload decodes.
            decode_payload(message.payload)
            return Message(
                "ack",
                {
                    "observed": len(message.payload) - PAYLOAD_TAG_BYTES,
                    "digest": hashlib.sha256(message.payload).hexdigest(),
                    "round": message.meta.get("round"),
                },
            )
        if message.type == "relay":
            # Upstream: this site is the sender of record — push the payload
            # bytes back so they physically travel site -> coordinator.
            decode_payload(message.payload)
            payload = message.payload
            if self.corrupt_upstream and len(payload) > 1:
                # A Byzantine echo: one flipped byte past the codec tag.
                # The coordinator's digest check must catch this.
                payload = payload[:-1] + bytes([payload[-1] ^ 0xFF])
            return Message("msg", dict(message.meta), payload)
        if message.type == "task":
            fn = _resolve_task(message.meta.get("fn", ""))
            args = decode_payload(message.payload)
            return Message("task_result", {}, encode_payload(fn(*args)))
        return Message("error", {"error": "ServiceError", "message": f"unexpected {message.type!r}"})


def _resolve_task(spec: str):
    """Import ``module:qualname``, restricted to this package's modules."""
    module_name, _, qualname = spec.partition(":")
    if not module_name.startswith("repro.") or not qualname:
        raise ServiceError(f"refusing to resolve task function {spec!r}")
    target: Any = importlib.import_module(module_name)
    for part in qualname.split("."):
        target = getattr(target, part)
    return target


# --------------------------------------------------------------- aggregator
class AggregatorAgent:
    """One interior aggregator of a depth-2 tree, as its own OS process.

    The agent is a tiny switchboard with sockets on both sides:

    * **down**: it listens on its own port (bound to 0, published via
      ``port_file``) and accepts the registrations of the leaf sites it
      fronts — ordinary :class:`SiteAgent` processes that dialed the
      aggregator instead of the coordinator;
    * **up**: it registers the whole subtree with the coordinator in one
      ``hello`` (role ``aggregator``, the children's shards as payload) and
      then serves the subtree's protocol traffic over that single
      connection.

    Traffic handling mirrors the tree semantics exactly:

    * a downstream ``msg`` (optionally carrying a ``forward`` list) is
      acked with this edge's observed bytes, and the *same frame bytes* are
      encoded once and fanned to the targeted children, whose acks are
      aggregated into the reply (``children`` meta);
    * a routed ``relay`` (``to`` meta) makes the target leaf echo its
      payload to *this* process — the bytes are counted off the
      aggregator's socket and only the count/digest travel further up,
      which is the whole fan-in point of the tree;
    * an un-routed ``relay`` is this aggregator's own upstream edge: the
      (already merged, coordinator-side) payload echoes up like a site's;
    * ``task`` messages execute locally or forward to the routed leaf.

    Like the :class:`SiteAgent`, the aggregator never runs protocol logic:
    every byte it reports was measured on one of its own sockets.
    """

    def __init__(
        self,
        host: str,
        port: int,
        name: str,
        indices: Sequence[int],
        *,
        listen_host: str = "127.0.0.1",
        port_file: str | None = None,
    ) -> None:
        self.host = host
        self.port = int(port)
        self.name = str(name)
        self.indices = [int(i) for i in indices]
        if not self.indices:
            raise ValueError("an aggregator must front at least one site")
        self.listen_host = listen_host
        self.port_file = port_file
        self.listen_port: int | None = None

    # ------------------------------------------------------------ lifecycle
    def run(self) -> None:
        """Accept the leaves, register the subtree, serve until ``bye``."""
        streams, shards = self._accept_children()
        up = _SocketStream(_dial(self.host, self.port))
        try:
            up.send(
                Message(
                    "hello",
                    {"role": "aggregator", "name": self.name, "indices": self.indices},
                    encode_payload([shards[i] for i in self.indices]),
                )
            )
            assign = up.next()
            if assign is None or assign.type == "error":
                raise ServiceError(
                    f"registration refused: {assign.meta if assign else 'connection closed'}"
                )
            if assign.type != "assign":
                raise ServiceError(f"expected assign, got {assign.type!r}")
            while True:
                message = up.next()
                if message is None or message.type == "bye":
                    return
                reply = self._handle(message, streams)
                if reply is not None:
                    up.send(reply)
        finally:
            for stream in streams.values():
                try:
                    stream.send(Message("bye"))
                except OSError:
                    pass
                stream.close()
            up.close()

    def _accept_children(self) -> tuple[dict[str, _SocketStream], dict[int, np.ndarray]]:
        """Listen, publish the port, and register every expected leaf."""
        server_sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        server_sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        server_sock.bind((self.listen_host, 0))
        server_sock.listen(len(self.indices))
        self.listen_port = server_sock.getsockname()[1]
        if self.port_file is not None:
            # Atomic publish: leaves poll for the file, so it must never be
            # observable half-written.
            tmp = Path(f"{self.port_file}.tmp")
            tmp.write_text(f"{self.listen_port}\n")
            tmp.replace(self.port_file)
        expected = set(self.indices)
        streams: dict[str, _SocketStream] = {}
        shards: dict[int, np.ndarray] = {}
        try:
            while len(shards) < len(self.indices):
                sock, _ = server_sock.accept()
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                stream = _SocketStream(sock)
                hello = stream.next()
                if hello is None:
                    stream.close()
                    continue
                try:
                    if hello.type != "hello" or hello.meta.get("role") != "site":
                        raise ServiceError(f"expected a site hello, got {hello.type!r}")
                    index = int(hello.meta.get("index", -1))
                    if index not in expected:
                        raise ServiceError(
                            f"site index {index} is not fronted by aggregator "
                            f"{self.name!r} (expected {sorted(expected)})"
                        )
                    if index in shards:
                        raise ServiceError(f"site-{index} is already registered")
                    shard = np.asarray(decode_payload(hello.payload))
                except (ServiceError, ValueError) as exc:
                    stream.send(
                        Message(
                            "error",
                            {"error": type(exc).__name__, "message": str(exc)},
                        )
                    )
                    stream.close()
                    continue
                shards[index] = shard
                streams[f"site-{index}"] = stream
                stream.send(
                    Message(
                        "assign",
                        {
                            "name": f"site-{index}",
                            "index": index,
                            "k": len(self.indices),
                            "registered": len(shards),
                        },
                    )
                )
        finally:
            server_sock.close()
        return streams, shards

    # ------------------------------------------------------------- handlers
    def _handle(
        self, message: Message, streams: dict[str, _SocketStream]
    ) -> Message | None:
        """Answer one coordinator message; every failure becomes a reply."""
        try:
            return self._handle_inner(message, streams)
        except Exception as exc:  # noqa: BLE001 - reported to the server
            return Message(
                "error",
                {
                    "error": type(exc).__name__,
                    "message": str(exc),
                    "traceback": traceback.format_exc(),
                },
            )

    def _handle_inner(
        self, message: Message, streams: dict[str, _SocketStream]
    ) -> Message | None:
        meta = dict(message.meta)
        to = meta.pop("to", None)
        if message.type == "round":
            return Message("ack", {"round": message.meta.get("round")})
        if message.type == "msg":
            forward = meta.pop("forward", [])
            decode_payload(message.payload)
            children: dict[str, dict] = {}
            if forward:
                # Encode-once fan-out: one frame, sendall per child socket.
                frame = encode_frame(
                    encode_message(Message("msg", meta, message.payload))
                )
                for child in forward:
                    self._child(streams, child).send_frame(frame)
                for child in forward:
                    ack = self._child(streams, child).next()
                    if ack is None or ack.type != "ack":
                        raise ServiceError(
                            f"leaf {child!r} answered a forwarded msg with "
                            f"{ack.type if ack else 'EOF'!r}: "
                            f"{ack.meta if ack else {}}"
                        )
                    children[child] = {
                        "observed": ack.meta.get("observed"),
                        "digest": ack.meta.get("digest"),
                    }
            reply_meta = {
                "observed": len(message.payload) - PAYLOAD_TAG_BYTES,
                "digest": hashlib.sha256(message.payload).hexdigest(),
                "round": message.meta.get("round"),
            }
            if children:
                reply_meta["children"] = children
            return Message("ack", reply_meta)
        if message.type == "relay":
            if to is None:
                # This aggregator's own upstream edge: echo the (merged)
                # payload so its bytes travel aggregator -> coordinator.
                decode_payload(message.payload)
                return Message("msg", dict(message.meta), message.payload)
            # Routed leaf edge: the leaf echoes to *us*; we count its bytes
            # off our socket and report only count + digest upstream.
            stream = self._child(streams, to)
            stream.send(Message("relay", meta, message.payload))
            echo = stream.next()
            if echo is None or echo.type != "msg":
                raise ServiceError(
                    f"leaf {to!r} answered a relay with "
                    f"{echo.type if echo else 'EOF'!r}: {echo.meta if echo else {}}"
                )
            return Message(
                "ack",
                {
                    "observed": len(echo.payload) - PAYLOAD_TAG_BYTES,
                    "digest": hashlib.sha256(echo.payload).hexdigest(),
                    "round": message.meta.get("round"),
                },
            )
        if message.type == "task":
            if to is None:
                fn = _resolve_task(meta.get("fn", ""))
                args = decode_payload(message.payload)
                return Message("task_result", {}, encode_payload(fn(*args)))
            stream = self._child(streams, to)
            stream.send(Message("task", meta, message.payload))
            reply = stream.next()
            if reply is None:
                raise ServiceError(f"leaf {to!r} closed mid-task")
            return reply  # task_result (or the leaf's error) verbatim
        return Message(
            "error",
            {"error": "ServiceError", "message": f"unexpected {message.type!r}"},
        )

    @staticmethod
    def _child(streams: dict[str, _SocketStream], name: str) -> _SocketStream:
        stream = streams.get(name)
        if stream is None:
            raise ServiceError(f"no such fronted leaf {name!r}")
        return stream


# -------------------------------------------------------------------- client
class ServiceClient:
    """Synchronous query proxy to a served cluster.

    Any estimator method (``lp_norm``, ``l0_sample``, ``heavy_hitters``,
    ...) and any ``stream_*`` session method is available as a
    keyword-argument call; the answer's pickled result is returned and the
    coordinator's service metering report (observed socket bytes vs the
    wire and simulated meters, per link per round) lands in
    :attr:`last_service`.
    """

    def __init__(self, host: str, port: int) -> None:
        self._stream = _SocketStream(_dial(host, port))
        self.last_service: dict | None = None
        #: Degradation report of the most recent answer (None = clean).
        self.last_degraded: dict | None = None
        self._stream.send(Message("hello", {"role": "client"}))
        assign = self._stream.next()
        if assign is None or assign.type != "assign":
            raise ServiceError(
                f"handshake failed: {assign.type if assign else 'connection closed'}"
            )
        #: Cluster shape as reported at handshake (k, ready, b_shape).
        self.cluster = dict(assign.meta)

    def query(self, method: str, **kwargs) -> Any:
        """Run one named query on the coordinator; return its result.

        A *degraded* answer (the coordinator excluded failed sites and
        renormalized) is still returned normally — its structured report
        lands in :attr:`last_degraded` (``None`` for clean answers).  An
        error carrying a degradation report (e.g. a streaming boundary
        that dropped a timed-out site) raises :class:`ServiceError` with
        the report attached as ``exc.degradation``.
        """
        self._stream.send(Message("query", {"method": method}, encode_payload(kwargs)))
        answer = self._stream.next()
        if answer is None:
            raise ConnectionError("coordinator closed the connection mid-query")
        if answer.type == "error":
            exc = ServiceError(
                f"{answer.meta.get('error')}: {answer.meta.get('message')}"
            )
            degradation = answer.meta.get("degradation")
            if degradation is not None:
                exc.degradation = degradation
            raise exc
        if answer.type != "answer":
            raise ServiceError(f"expected answer, got {answer.type!r}")
        envelope = decode_payload(answer.payload)
        self.last_service = envelope.get("service")
        self.last_degraded = answer.meta.get("degraded")
        return envelope["result"]

    def __getattr__(self, name: str):
        if name.startswith("_"):
            raise AttributeError(name)

        def _call(**kwargs):
            return self.query(name, **kwargs)

        _call.__name__ = name
        return _call

    def shutdown_server(self) -> None:
        """Ask the coordinator to shut the whole cluster down."""
        self._stream.send(Message("bye", {"shutdown": True}))
        self._stream.next()  # ack (or EOF)
        self.close()

    def close(self) -> None:
        try:
            self._stream.send(Message("bye"))
        except OSError:
            pass
        self._stream.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def connect(host: str, port: int) -> ServiceClient:
    """Open a client connection to a coordinator server."""
    return ServiceClient(host, port)


# ------------------------------------------------------------- local cluster
@contextmanager
def local_cluster(
    shards: Sequence[np.ndarray],
    b: np.ndarray,
    *,
    seed: int | None = None,
    conditions=None,
    host: str = "127.0.0.1",
    ready_timeout: float = 60.0,
    site_args: Sequence[Sequence[str]] | None = None,
    tree=None,
    **server_kwargs,
) -> Iterator[tuple[Any, ServiceClient]]:
    """A real k-site cluster on localhost: server here, sites as processes.

    Spawns one ``repro-site`` OS process per shard (shards travel via
    ``.npy`` files in a temp directory), waits until all have registered,
    and yields ``(server, client)``.  Everything is torn down on exit —
    sites get ``bye``, processes are reaped, the temp dir is removed.

    ``tree`` (a depth-2 :class:`~repro.comm.tree.TreeSpec` over
    ``site-0..k-1``, or an integer fan-out) stands the cluster up as a real
    aggregation tree: one ``repro.service.cli aggregate`` OS process per
    interior aggregator (listening on its own port, published via a port
    file), with the leaves behind it dialing the *aggregator* instead of
    the coordinator — every tree edge is its own socket.

    ``site_args`` appends extra CLI flags to site ``i``'s process (e.g.
    ``[["--delay", "5"], [], ...]`` for chaos drills); remaining keyword
    arguments (``deadline=``, ``retries=``, ``quorum=``, ...) pass through
    to :class:`~repro.service.server.CoordinatorServer`.
    """
    from repro.service.server import CoordinatorServer

    shards = [np.asarray(shard) for shard in shards]
    if site_args is not None and len(site_args) != len(shards):
        raise ValueError(f"{len(site_args)} site_args lists for {len(shards)} shards")
    server = CoordinatorServer(
        b,
        num_sites=len(shards),
        expected_row_counts=[shard.shape[0] for shard in shards],
        seed=seed,
        conditions=conditions,
        host=host,
        port=0,
        tree=tree,
        **server_kwargs,
    ).start()
    spec = server.tree  # normalized (int fan-out -> TreeSpec), or None
    processes: list[subprocess.Popen] = []
    client: ServiceClient | None = None
    try:
        with tempfile.TemporaryDirectory(prefix="repro-cluster-") as tmp:
            env = dict(os.environ)
            src = str(Path(__file__).resolve().parents[2])
            env["PYTHONPATH"] = os.pathsep.join(
                [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
            )
            # A cluster's parallelism is its process count: one BLAS thread
            # per site/aggregator process unless the caller chose otherwise.
            env.setdefault("OPENBLAS_NUM_THREADS", "1")
            python = [sys.executable, "-m", "repro.service.cli"]
            port_files: dict[str, Path] = {}
            if spec is not None:
                for agg in spec.aggregators:
                    port_file = Path(tmp) / f"{agg}.port"
                    port_files[agg] = port_file
                    indices = [
                        child.rsplit("-", 1)[-1] for child in spec.children[agg]
                    ]
                    processes.append(
                        subprocess.Popen(
                            python
                            + [
                                "aggregate",
                                "--host", host,
                                "--port", str(server.port),
                                "--name", agg,
                                "--indices", ",".join(indices),
                                "--listen-host", host,
                                "--port-file", str(port_file),
                            ],
                            env=env,
                        )
                    )
            for index, shard in enumerate(shards):
                shard_path = Path(tmp) / f"shard-{index}.npy"
                np.save(shard_path, shard)
                argv = python + [
                    "site",
                    "--host",
                    host,
                    "--index",
                    str(index),
                    "--shard",
                    str(shard_path),
                ]
                parent = (
                    spec.parent[f"site-{index}"] if spec is not None else None
                )
                if parent is not None and parent != spec.root:
                    # A leaf behind an aggregator dials the aggregator's
                    # published port, not the coordinator's.
                    argv += ["--port-file", str(port_files[parent])]
                else:
                    argv += ["--port", str(server.port)]
                if site_args is not None:
                    argv.extend(str(arg) for arg in site_args[index])
                processes.append(subprocess.Popen(argv, env=env))
            if not server.wait_ready(ready_timeout):
                for process in processes:
                    if process.poll() is not None:
                        raise ServiceError(
                            f"site process {process.args} exited with "
                            f"{process.returncode} before registering"
                        )
                raise TimeoutError(
                    f"cluster not ready after {ready_timeout}s "
                    f"({len(shards)} sites expected)"
                )
            client = connect(host, server.port)
            yield server, client
    finally:
        if client is not None:
            client.close()
        server.stop()
        for process in processes:
            try:
                process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                process.terminate()
                try:
                    process.wait(timeout=5)
                except subprocess.TimeoutExpired:
                    process.kill()
                    process.wait()
