"""Transport adapters that put the engine on real sockets.

Three pieces turn an in-process protocol execution into a distributed one
without touching a line of protocol code:

:class:`RemoteNetwork` / :class:`RemoteTreeNetwork`
    The in-process star and aggregation tree
    (:class:`~repro.comm.network.Network`,
    :class:`~repro.comm.network.TreeNetwork`), whose every metered message
    *also* crosses a real socket.  Both hand each crossing to one private
    carrier, ``_SocketEdges``, that treats a star as a tree whose edges
    are all direct links.  Downstream payloads are pushed to the child
    (which acks with the byte count it observed on its socket); upstream
    payloads are pushed back by the *sender* — the server hands it a
    control copy (``relay``) and the sender emits the actual ``msg``
    frame, so the payload bytes physically travel up the edge.  Every
    crossing is digest-checked, so a transport that corrupted or dropped a
    single byte fails loudly.

    The networks keep **three** independent meters:

    * the inherited simulated meter — the paper-convention formula bits,
      bit-identical to an in-process run of the same protocol;
    * a *wire meter* (same round structure) charging 8 bits per actually
      encoded payload byte — the service's billing convention, and the
      convention the streaming runtime already uses in-process;
    * *observed* byte counters per edge per round, measured at the socket
      (the receiver's reads, reported back in acks where that is not the
      server).

    The service invariant, asserted in ``tests/service/``:
    ``observed_bytes * 8 == wire-meter bits`` on every edge and in every
    round — and for streaming payloads (already encoded bytes, charged
    8 bits/byte in-process too) all three meters coincide exactly.

:class:`RemoteRuntime`
    A :class:`~repro.engine.runtime.Runtime` whose :meth:`map` fans the
    engine's picklable per-site tasks out to the site processes (round
    robin, pipelined) instead of a local pool.  Results return in task
    order and generators round-trip exactly as under the ``processes``
    executor, so outputs stay bit-identical.

:class:`SocketTransport`
    The :class:`~repro.comm.transport.Transport` gluing them to a set of
    live site links; plugged into the estimator facades via their
    ``transport=`` parameter.

The :class:`SiteLink` interface is the thin seam to the event loop: the
asyncio server implements it with ``run_coroutine_threadsafe`` bridges
(queries execute on a worker thread while the loop owns the sockets).
"""

from __future__ import annotations

import hashlib
import time
from collections import Counter
from typing import Any, Callable, Mapping, Sequence

from repro.comm.accounting import MessageLog
from repro.comm.conditions import NetworkConditions
from repro.comm.network import DOWNSTREAM, UPSTREAM, Network, TreeNetwork
from repro.comm.transport import Transport
from repro.comm.tree import TreeSpec
from repro.engine.runtime import QuorumPolicy, Runtime
from repro.service.messages import (
    PAYLOAD_TAG_BYTES,
    CorruptFrameError,
    Message,
    ServiceError,
    SiteTimeoutError,
    decode_payload,
    encode_payload,
)

__all__ = [
    "RemoteNetwork",
    "RemoteTreeNetwork",
    "RemoteRuntime",
    "SiteLink",
    "SocketTransport",
]


def payload_digest(blob: bytes) -> str:
    """Digest used to verify payload bytes across a socket crossing."""
    return hashlib.sha256(blob).hexdigest()


class SiteLink:
    """One live coordinator<->site connection, as the adapters see it.

    Implementations (the asyncio server) provide a thread-safe, FIFO
    request/reply primitive plus the socket-observed byte counters for
    *upstream* ``msg`` frames (the server counts those off its own reads;
    downstream observations come back in the site's acks and are recorded
    by the network's carrier).
    """

    site_name: str

    def request(self, message: Message, timeout: float | None = None) -> Message:
        """Send one message and block for its reply (FIFO per link).

        ``timeout`` bounds the wait in real seconds; expiry raises
        :class:`TimeoutError` (the caller classifies it — see
        :func:`request_with_retry`)."""
        raise NotImplementedError

    def submit(self, message: Message, *, flush: bool = True):
        """Send one message, return a future for its reply (pipelined).

        ``flush=False`` *stages* the frame: implementations may hold it
        until the next flushing submit and write the whole batch with one
        ``sendall`` (coalescing a round open with its first burst into a
        single syscall and, on the receiving side, one socket read).
        Implementations without staging may ignore the flag — replies are
        FIFO either way.
        """
        raise NotImplementedError

    def take_observed_upstream(self) -> list[tuple[int, int]]:
        """Drain ``(round, payload_bytes)`` records of upstream ``msg``
        frames counted off the server's socket since the last call."""
        raise NotImplementedError


def request_with_retry(
    site: str,
    link: SiteLink,
    message: Message,
    *,
    deadline: float | None,
    retries: int,
    backoff: float,
    on_retry: Callable[[str], None] | None = None,
) -> Message:
    """One deadline-bounded request with retry/backoff on transients.

    A ``retry`` reply is the site saying "healthy but busy": the FIFO
    pairing is intact (the refusal answered the refused request), so the
    coordinator backs off exponentially and resends, up to the budget.  A
    missed deadline is different — the reply may still be in flight, so
    resending would desync the FIFO; it escalates as
    :class:`~repro.service.messages.SiteTimeoutError` for the server's
    degradation path to handle.
    """
    attempt = 0
    while True:
        try:
            reply = link.request(message, timeout=deadline)
        except TimeoutError:
            raise SiteTimeoutError(
                f"site {site!r} missed the {deadline}s response "
                f"deadline answering a {message.type!r}",
                site=site,
            ) from None
        if reply.type != "retry":
            return reply
        attempt += 1
        if attempt > retries:
            raise ServiceError(
                f"site {site!r} still refusing after {retries} "
                f"retries: {reply.meta}"
            )
        if on_retry is not None:
            on_retry(site)
        time.sleep(backoff * (2 ** (attempt - 1)))


class _SocketEdges:
    """The socket crossings of one network's edges, with their meters.

    Every edge is keyed by its child endpoint and hangs off ``parent[edge]``.
    A *direct* edge hangs off the root: its child holds a live connection.
    Any other edge is a leaf behind an aggregator, reached through a routed
    link over the aggregator's connection.  A star is the case where every
    edge is direct; a depth-2 tree mixes both.

    :meth:`push` carries one downstream payload, :meth:`pull` one upstream
    payload.  Both digest-check every crossing, so a transport that
    corrupted or dropped a single byte raises
    :class:`~repro.service.messages.CorruptFrameError`.  Before its first
    burst of an aggregate round, each direct link gets a staged ``round``
    open, so both endpoints attribute observed bytes to the same round.

    Meters, keyed by edge: a wire meter charging 8 bits per encoded payload
    body byte (same round structure as the simulated log), and the
    socket-observed body bytes per edge and per (edge, round).
    """

    def __init__(
        self,
        links: Mapping[str, SiteLink],
        parent: Mapping[str, str],
        root: str,
        *,
        deadline: float | None,
        retries: int,
        backoff: float,
        on_retry: Callable[[str], None] | None,
    ) -> None:
        missing = [edge for edge in parent if edge not in links]
        if missing:
            raise ServiceError(
                f"no live connection or route for {missing}; registered "
                f"links: {sorted(links)}"
            )
        self.links = {edge: links[edge] for edge in parent}
        self.parent = dict(parent)
        self.root = root
        #: Per-request reply deadline (real seconds; None = wait forever).
        self.deadline = deadline
        #: Retry budget for transient refusals (a site's ``retry`` reply).
        self.retries = int(retries)
        #: Base backoff between retries, doubled per attempt.
        self.backoff = float(backoff)
        self.on_retry = on_retry
        self.wire_log = MessageLog()
        self.wire_links: dict[str, MessageLog] = {edge: MessageLog() for edge in parent}
        self.observed_link_bytes: Counter[str] = Counter()
        self.observed_round_bytes: dict[str, Counter[int]] = {
            edge: Counter() for edge in parent
        }
        self._opened_round: dict[str, int] = {}

    # ------------------------------------------------------------- crossings
    def push(
        self,
        children: Sequence[str],
        payload: Any,
        label: str,
        round_index: int,
        blob: bytes | None = None,
    ) -> None:
        """Carry one downstream payload to every edge in ``children``.

        One frame per direct link; its ``forward`` list names the targeted
        leaves behind it, and the aggregator forwards the same bytes to
        each.  ``blob`` is the payload already encoded (a broadcast encodes
        once for every link).
        """
        if blob is None:
            blob = encode_payload(payload)
        body_bytes, digest = len(blob) - PAYLOAD_TAG_BYTES, payload_digest(blob)
        forward: dict[str, list[str]] = {}
        for child in children:
            top = self._top(child)
            targets = forward.setdefault(top, [])
            if child != top:
                targets.append(child)
        for top, targets in forward.items():
            meta: dict[str, Any] = {
                "label": label,
                "round": round_index,
                "digest": digest,
            }
            if targets:
                meta["forward"] = targets
            reply = self._request(top, round_index, Message("msg", meta, blob))
            if reply.type != "ack":
                raise ServiceError(
                    f"site {top!r} answered a downstream msg with "
                    f"{reply.type!r}: {reply.meta}"
                )
            children_meta = reply.meta.get("children", {})
            acks = [(top, reply.meta)]
            acks += [(child, children_meta.get(child)) for child in targets]
            for edge, ack in acks:
                self._check_ack(edge, "downstream", ack, body_bytes, digest)
                self._observe(edge, round_index, body_bytes)
                self._wire(edge, DOWNSTREAM, label, body_bytes)

    def pull(self, child: str, payload: Any, label: str, round_index: int) -> None:
        """Make one upstream payload physically travel ``child``'s edge.

        The server hands the sender a control copy (``relay``) and the
        sender pushes the bytes back.  On a direct edge the echo arrives
        here, counted off the coordinator's own socket.  On a routed leaf
        edge the aggregator counts the echo off its socket and acks with
        the count and digest only; the payload goes no further.
        """
        blob = encode_payload(payload)
        body_bytes, digest = len(blob) - PAYLOAD_TAG_BYTES, payload_digest(blob)
        meta = {"label": label, "round": round_index, "digest": digest}
        reply = self._request(child, round_index, Message("relay", meta, blob))
        if self.parent[child] != self.root:
            if reply.type != "ack":
                raise ServiceError(
                    f"aggregated relay for {child!r} answered with "
                    f"{reply.type!r}: {reply.meta}"
                )
            self._check_ack(child, "upstream", reply.meta, body_bytes, digest)
            self._observe(child, round_index, body_bytes)
        else:
            if reply.type != "msg":
                raise ServiceError(
                    f"site {child!r} answered a relay with {reply.type!r}: "
                    f"{reply.meta}"
                )
            if payload_digest(reply.payload) != digest:
                raise CorruptFrameError(
                    f"upstream payload from {child!r} corrupted in transit "
                    f"(digest mismatch over {len(reply.payload)} echoed bytes)",
                    site=child,
                )
            # The payload decoded from the socket bytes must reconstruct
            # the value bit-exactly; a codec that silently lost precision
            # would otherwise hide behind the server-side original.
            decode_payload(reply.payload)
            for rnd, nbytes in self.links[child].take_observed_upstream():
                self._observe(child, rnd, nbytes)
        self._wire(child, UPSTREAM, label, body_bytes)

    # --------------------------------------------------------------- helpers
    def _top(self, edge: str) -> str:
        """The direct edge whose connection carries ``edge``'s frames."""
        while self.parent[edge] != self.root:
            edge = self.parent[edge]
        return edge

    def _request(self, edge: str, round_index: int, message: Message) -> Message:
        """One request on ``edge``, opening the round on its direct link.

        The open is *staged* (``flush=False``): the request flushes both
        frames in one coalesced write, and FIFO order guarantees the open's
        ack arrives before the request's reply.
        """
        top = self._top(edge)
        opened = None
        if self._opened_round.get(top, 0) != round_index:
            self._opened_round[top] = round_index
            opened = self.links[top].submit(
                Message("round", {"round": round_index}), flush=False
            )
        reply = request_with_retry(
            edge,
            self.links[edge],
            message,
            deadline=self.deadline,
            retries=self.retries,
            backoff=self.backoff,
            on_retry=self.on_retry,
        )
        if opened is not None:
            ack = opened.result(self.deadline)
            if ack.type != "ack":
                raise ServiceError(
                    f"site {top!r} answered a round open with {ack.type!r}"
                )
        return reply

    @staticmethod
    def _check_ack(
        edge: str,
        crossing: str,
        ack: Mapping[str, Any] | None,
        body_bytes: int,
        digest: str,
    ) -> None:
        """An ack must report exactly the bytes and digest that were sent."""
        ack = ack or {}
        observed = int(ack.get("observed", -1))
        if observed != body_bytes or ack.get("digest") != digest:
            raise CorruptFrameError(
                f"{crossing} payload on edge {edge!r} corrupted in transit: "
                f"sent {body_bytes} bytes ({digest[:12]}...), observed "
                f"{observed} ({str(ack.get('digest'))[:12]}...)",
                site=edge,
            )

    def _observe(self, edge: str, round_index: int, nbytes: int) -> None:
        self.observed_link_bytes[edge] += nbytes
        self.observed_round_bytes[edge][round_index] += nbytes

    def _wire(self, edge: str, direction: str, label: str, body_bytes: int) -> None:
        parent = self.parent[edge]
        sender, receiver = (edge, parent) if direction == UPSTREAM else (parent, edge)
        # The wire meter flips rounds on the same direction changes as the
        # simulated log, so both meters share one round structure.
        self.wire_log.record(
            sender,
            receiver,
            None,
            label=label,
            bits=8 * body_bytes,
            direction_key=direction,
        )
        self.wire_links[edge].record(
            sender, receiver, None, label=label, bits=8 * body_bytes
        )

    # ------------------------------------------------------------ accounting
    def report(self, network: Network) -> dict[str, Any]:
        """The observed-vs-metered summary shipped with every answer."""
        return {
            "rounds": network.rounds,
            "simulated_bits": network.total_bits,
            "simulated_link_bits": network.link_bits(),
            "wire_bits": self.wire_log.total_bits,
            "wire_link_bits": {
                edge: log.total_bits for edge, log in self.wire_links.items()
            },
            "wire_round_bits": self.wire_log.bits_per_round(),
            "observed_bytes": sum(self.observed_link_bytes.values()),
            "observed_link_bytes": dict(self.observed_link_bytes),
            "observed_round_bytes": {
                edge: dict(rounds) for edge, rounds in self.observed_round_bytes.items()
            },
        }

    def reset(self) -> None:
        self.wire_log.reset()
        for log in self.wire_links.values():
            log.reset()
        self.observed_link_bytes.clear()
        for rounds in self.observed_round_bytes.values():
            rounds.clear()
        self._opened_round.clear()


class RemoteNetwork(Network):
    """A metered star whose messages additionally travel over real sockets."""

    def __init__(
        self,
        site_names: Sequence[str],
        coordinator_name: str = "coordinator",
        *,
        conditions: NetworkConditions | None = None,
        links: Mapping[str, SiteLink],
        deadline: float | None = None,
        retries: int = 0,
        backoff: float = 0.05,
        on_retry: Callable[[str], None] | None = None,
    ) -> None:
        super().__init__(site_names, coordinator_name, conditions=conditions)
        self._edges = _SocketEdges(
            links,
            dict.fromkeys(self.site_names, coordinator_name),
            coordinator_name,
            deadline=deadline,
            retries=retries,
            backoff=backoff,
            on_retry=on_retry,
        )
        self._broadcast_blob: bytes | None = None

    def send(
        self,
        sender: str,
        receiver: str,
        payload: Any,
        *,
        label: str = "",
        bits: int | None = None,
        universe: int | None = None,
    ) -> Any:
        result = super().send(
            sender, receiver, payload, label=label, bits=bits, universe=universe
        )
        round_index = self.log.messages[-1].round_index
        if sender == self.coordinator_name:
            self._edges.push(
                [receiver], payload, label, round_index, self._broadcast_blob
            )
        else:
            self._edges.pull(sender, payload, label, round_index)
        return result

    def broadcast(self, payload, *, label: str = "", bits=None, sites=None):
        """Push one payload to every site, encoding it exactly once.

        The star still transmits one copy per link, but the codec runs once
        — the shared blob is reused for every ``send`` of the loop (the
        meters are unchanged: each link is charged the same bits either
        way).
        """
        self._broadcast_blob = encode_payload(payload)
        try:
            return super().broadcast(payload, label=label, bits=bits, sites=sites)
        finally:
            self._broadcast_blob = None

    def service_report(self) -> dict[str, Any]:
        """The observed-vs-metered summary shipped with every answer."""
        return self._edges.report(self)

    def reset(self) -> None:
        super().reset()
        self._edges.reset()


class RemoteTreeNetwork(TreeNetwork):
    """A metered aggregation tree whose every edge is a real socket hop.

    The shape is a depth-<=2 :class:`~repro.comm.tree.TreeSpec`: the
    root's children are live connections (aggregator agents and/or direct
    site agents), and each aggregator fronts its leaf children over its
    own sockets.  Message routing mirrors :class:`~repro.comm.network
    .TreeNetwork` exactly — same staged merges, same simulated meters, so
    estimates stay bit-identical to the in-process tree — but every edge
    additionally carries the payload's encoded bytes:

    * **downstream**, one frame per root-child subtree: the aggregator
      observes the frame off its own socket, forwards the *same* payload
      bytes once per targeted child (encode-once at every level), and its
      ack aggregates the children's observed counts and digests;
    * **upstream leaf edge** (leaf behind an aggregator): a routed
      ``relay`` — the leaf echoes its payload to the aggregator, which
      counts the bytes off its socket and reports them upstream *without*
      forwarding the payload (the whole point of the tree);
    * **upstream interior edge**: the merged payload computed at drain
      time travels aggregator -> coordinator via the standard relay echo,
      counted off the coordinator's socket.

    Accounting: per-*edge* wire meters (8 bits per encoded payload byte)
    and observed socket bytes, with the service invariant
    ``observed * 8 == wire bits`` holding per edge per round.  Aggregator
    merges for the metered transcript are computed coordinator-side (the
    edges relay the resulting bytes); dispatching merge closures through
    the task fan-out would double-meter, so :attr:`merge_runtime` is
    pinned to ``None``.
    """

    def __init__(
        self,
        tree: TreeSpec,
        *,
        conditions: NetworkConditions | None = None,
        links: Mapping[str, SiteLink],
        deadline: float | None = None,
        retries: int = 0,
        backoff: float = 0.05,
        on_retry: Callable[[str], None] | None = None,
    ) -> None:
        deep = [
            name for name in tree.site_names if tree.node_depth(name) > 2
        ]
        if deep or any(tree.node_depth(agg) > 1 for agg in tree.aggregators):
            raise ServiceError(
                "the socket transport supports aggregation trees of depth "
                f"<= 2 (aggregators as root children); got depth {tree.depth}"
            )
        super().__init__(tree, conditions=conditions)
        self._edges = _SocketEdges(
            links,
            {edge: tree.parent[edge] for edge in [*tree.site_names, *tree.aggregators]},
            tree.root,
            deadline=deadline,
            retries=retries,
            backoff=backoff,
            on_retry=on_retry,
        )

    # Merges stay coordinator-side: TreeTopology assigns the protocol
    # runtime here, but a RemoteRuntime would ship merge closures to the
    # sites as unmetered tasks — swallow the assignment.
    @property
    def merge_runtime(self):
        return None

    @merge_runtime.setter
    def merge_runtime(self, value) -> None:
        pass

    def _record_hop(
        self, child: str, direction: str, payload: Any, label: str, bits: int
    ) -> None:
        super()._record_hop(child, direction, payload, label, bits)
        if direction == UPSTREAM:
            self._edges.pull(child, payload, label, self.log.messages[-1].round_index)

    def _deliver_downstream(
        self, edge_children: Sequence[str], payload: Any, label: str, bits: int
    ) -> None:
        super()._deliver_downstream(edge_children, payload, label, bits)
        round_index = self.log.messages[-1].round_index
        self._edges.push(edge_children, payload, label, round_index)

    def service_report(self) -> dict[str, Any]:
        """The star's summary plus the tree shape and the root's fan-in."""
        return {
            **self._edges.report(self),
            "tree": self.tree.describe(),
            "root_link_bits": self.root_link_bits(),
        }

    def reset(self) -> None:
        super().reset()
        self._edges.reset()


class RemoteRuntime(Runtime):
    """Fans the engine's per-site tasks out to the site processes.

    The sends/merges of every protocol stay serial on the coordinator (the
    runtime contract), so the only difference from the ``processes``
    executor is *where* the fan-out tasks run: task arguments pickle out to
    a site agent over TCP and results pickle back, in task order, with the
    generator round-tripping of :meth:`~repro.engine.runtime.Runtime
    .map_sites` working unchanged.  Outputs are therefore bit-identical to
    every other executor (the pinned PR 5 contract).
    """

    def __init__(
        self,
        transport: "SocketTransport",
        *,
        dropout: str = "fail",
        quorum: "QuorumPolicy | tuple | int | None" = None,
    ) -> None:
        super().__init__("serial", dropout=dropout, quorum=quorum)
        self._transport = transport

    def map(self, fn: Callable[..., Any], tasks: Sequence[tuple]) -> list[Any]:
        if not tasks:
            return []
        return self._transport.run_tasks(fn, tasks)


class SocketTransport(Transport):
    """Builds :class:`RemoteNetwork` instances over a set of live links.

    ``links`` maps canonical site names (``site-0`` ... ``site-{k-1}``) to
    their connections.  One transport serves many protocol runs; each run
    builds a fresh network (fresh meters) over the same connections, and a
    dropout-excluded run simply passes the surviving subset of names.
    """

    def __init__(
        self,
        links: Mapping[str, SiteLink],
        *,
        deadline: float | None = None,
        retries: int = 0,
        backoff: float = 0.05,
        on_retry: Callable[[str], None] | None = None,
    ) -> None:
        self._links = dict(links)
        #: Hardening knobs forwarded to every network this transport builds
        #: (per-request reply deadline, transient-retry budget + backoff).
        self.deadline = deadline
        self.retries = int(retries)
        self.backoff = float(backoff)
        self.on_retry = on_retry
        #: The most recently built network — the server reads its
        #: :meth:`RemoteNetwork.service_report` after each query (queries
        #: are serialized on one worker, so "last" is unambiguous).
        self.last_network: RemoteNetwork | RemoteTreeNetwork | None = None

    @property
    def links(self) -> dict[str, SiteLink]:
        return dict(self._links)

    def runtime(
        self,
        *,
        dropout: str = "fail",
        quorum: "QuorumPolicy | tuple | int | None" = None,
    ) -> RemoteRuntime:
        """A runtime fanning per-site tasks out over these links."""
        return RemoteRuntime(self, dropout=dropout, quorum=quorum)

    def build_network(
        self,
        site_names: Sequence[str],
        coordinator_name: str,
        conditions: NetworkConditions | None = None,
        *,
        tree: TreeSpec | None = None,
    ) -> RemoteNetwork | RemoteTreeNetwork:
        network: RemoteNetwork | RemoteTreeNetwork
        if tree is not None:
            self.check_tree(tree, site_names, coordinator_name)
            network = RemoteTreeNetwork(
                tree,
                conditions=conditions,
                links=self._links,
                deadline=self.deadline,
                retries=self.retries,
                backoff=self.backoff,
                on_retry=self.on_retry,
            )
        else:
            network = RemoteNetwork(
                site_names,
                coordinator_name,
                conditions=conditions,
                links=self._links,
                deadline=self.deadline,
                retries=self.retries,
                backoff=self.backoff,
                on_retry=self.on_retry,
            )
        self.last_network = network
        return network

    # ------------------------------------------------------------- fan-out
    def run_tasks(self, fn: Callable[..., Any], tasks: Sequence[tuple]) -> list[Any]:
        """Run ``fn(*task)`` for every task on the site agents, in order.

        Tasks are dealt round-robin across the live links and pipelined
        (all submitted before any reply is awaited); replies are collected
        in task order.
        """
        if not getattr(fn, "__module__", "").startswith("repro."):
            raise ServiceError(
                f"refusing to dispatch non-repro task function {fn!r} to a "
                f"site agent"
            )
        spec = f"{fn.__module__}:{fn.__qualname__}"
        ordered_links = [self._links[name] for name in sorted(self._links)]
        futures = [
            ordered_links[index % len(ordered_links)].submit(
                Message("task", {"fn": spec}, encode_payload(tuple(task)))
            )
            for index, task in enumerate(tasks)
        ]
        results = []
        for future in futures:
            reply = future.result()
            if reply.type == "error":
                raise ServiceError(
                    f"site task {spec} failed remotely: "
                    f"{reply.meta.get('error')}: {reply.meta.get('message')}"
                )
            if reply.type != "task_result":
                raise ServiceError(
                    f"site answered a task with {reply.type!r}: {reply.meta}"
                )
            results.append(decode_payload(reply.payload))
        return results
