"""The socket carrier behind both remote networks, without sockets.

In-memory :class:`~repro.service.transport.SiteLink` endpoints answer the
way the site and aggregator agents answer over TCP, so the carrier's
crossings, round opens, digest checks and meters run unchanged.  Pinned:

* a real protocol over a star and over a depth-2 tree with one direct leaf
  gives the in-process estimate and simulated meters, and
  ``observed × 8 == wire`` per edge, per aggregate round and per
  (edge, round);
* each direct link gets one staged round open per aggregate round, ahead
  of its first burst;
* one flipped byte in any of the four crossings raises
  :class:`~repro.service.messages.CorruptFrameError` naming the edge:
  the direct echo, the routed leaf's ack, the downstream ack and the ack
  of a child the aggregator forwarded to.
"""

from __future__ import annotations

import concurrent.futures
import hashlib
from collections import Counter, defaultdict

import numpy as np
import pytest

from repro.comm.tree import TreeSpec
from repro.multiparty import ClusterEstimator
from repro.service.messages import (
    PAYLOAD_TAG_BYTES,
    CorruptFrameError,
    Message,
)
from repro.service.transport import (
    RemoteNetwork,
    RemoteTreeNetwork,
    SiteLink,
    SocketTransport,
)


def _flip(blob: bytes) -> bytes:
    """One flipped byte past the codec tag."""
    return blob[:-1] + bytes([blob[-1] ^ 0xFF])


def _receipt(blob: bytes, round_index) -> dict:
    return {
        "observed": len(blob) - PAYLOAD_TAG_BYTES,
        "digest": hashlib.sha256(blob).hexdigest(),
        "round": round_index,
    }


class MemorySite:
    """Answers like ``SiteAgent``; ``corrupt_down``/``corrupt_up`` flip a
    byte of what it receives downstream / echoes upstream."""

    def __init__(self, *, corrupt_down=False, corrupt_up=False):
        self.corrupt_down = corrupt_down
        self.corrupt_up = corrupt_up

    def handle(self, message: Message) -> Message:
        if message.type == "round":
            return Message("ack", {"round": message.meta.get("round")})
        payload = _flip(message.payload) if self.corrupt_down else message.payload
        if message.type == "msg":
            return Message("ack", _receipt(payload, message.meta.get("round")))
        assert message.type == "relay", message.type
        echo = _flip(message.payload) if self.corrupt_up else message.payload
        return Message("msg", dict(message.meta), echo)


class MemoryAggregator(MemorySite):
    """Answers like ``AggregatorAgent`` for the leaves it fronts."""

    def __init__(self, leaves: dict[str, MemorySite], **kwargs):
        super().__init__(**kwargs)
        self.leaves = leaves

    def handle(self, message: Message) -> Message:
        meta = dict(message.meta)
        to = meta.pop("to", None)
        if message.type == "msg":
            forward = meta.pop("forward", [])
            reply = super().handle(message)
            children = {}
            for child in forward:
                ack = self.leaves[child].handle(Message("msg", meta, message.payload))
                children[child] = {
                    "observed": ack.meta["observed"],
                    "digest": ack.meta["digest"],
                }
            if children:
                reply.meta["children"] = children
            return reply
        if message.type == "relay" and to is not None:
            echo = self.leaves[to].handle(Message("relay", meta, message.payload))
            return Message("ack", _receipt(echo.payload, message.meta.get("round")))
        return super().handle(message)


class MemoryLink(SiteLink):
    """A direct link: synchronous replies, upstream echoes counted on
    arrival (as the server counts them off its socket)."""

    def __init__(self, name: str, endpoint: MemorySite):
        self.site_name = name
        self.endpoint = endpoint
        self.frames: list[Message] = []
        self._observed: list[tuple[int, int]] = []

    def submit(self, message, *, flush=True):
        self.frames.append(message)
        reply = self.endpoint.handle(message)
        if reply.type == "msg":
            self._observed.append(
                (int(reply.meta["round"]), len(reply.payload) - PAYLOAD_TAG_BYTES)
            )
        future = concurrent.futures.Future()
        future.set_result(reply)
        return future

    def request(self, message, timeout=None):
        return self.submit(message).result(timeout)

    def take_observed_upstream(self):
        drained, self._observed = self._observed, []
        return drained


class RoutedLink(SiteLink):
    """A leaf behind an aggregator: frames travel the aggregator's link."""

    def __init__(self, name: str, via: MemoryLink):
        self.site_name = name
        self.via = via

    def submit(self, message, *, flush=True):
        meta = dict(message.meta, to=self.site_name)
        return self.via.submit(Message(message.type, meta, message.payload), flush=flush)

    def request(self, message, timeout=None):
        return self.submit(message).result(timeout)

    def take_observed_upstream(self):
        return []


LEAVES = ("site-0", "site-1")
MIXED_TREE = {"coordinator": ["agg-0-0", "site-2"], "agg-0-0": list(LEAVES)}


def _star_links(k=3, **corrupt):
    """``corrupt`` maps a site name to MemorySite flags."""
    return {
        f"site-{i}": MemoryLink(f"site-{i}", MemorySite(**corrupt.get(f"site-{i}", {})))
        for i in range(k)
    }


def _tree_links(**corrupt):
    leaves = {name: MemorySite(**corrupt.get(name, {})) for name in LEAVES}
    agg = MemoryLink("agg-0-0", MemoryAggregator(leaves, **corrupt.get("agg-0-0", {})))
    return {
        "agg-0-0": agg,
        "site-0": RoutedLink("site-0", agg),
        "site-1": RoutedLink("site-1", agg),
        "site-2": MemoryLink("site-2", MemorySite(**corrupt.get("site-2", {}))),
    }


def _data(k=3):
    rng = np.random.default_rng(23)
    a = rng.integers(0, 3, size=(12 * k, 16))
    b = rng.integers(0, 3, size=(16, 10))
    return np.array_split(a, k, axis=0), b


def _edge_of(network, record):
    """The edge (keyed by its child endpoint) a wire record crossed."""
    parent = network._edges.parent
    upstream = parent.get(record.sender) == record.receiver
    return record.sender if upstream else record.receiver


def _assert_meters_agree(network):
    """observed × 8 == wire: per edge, per aggregate round, per (edge, round)."""
    report = network.service_report()
    assert report["wire_bits"] > 0
    assert report["observed_bytes"] * 8 == report["wire_bits"]
    for edge, wire_bits in report["wire_link_bits"].items():
        assert report["observed_link_bytes"].get(edge, 0) * 8 == wire_bits, edge
    for round_index, wire_bits in report["wire_round_bits"].items():
        observed = sum(
            rounds.get(round_index, 0)
            for rounds in report["observed_round_bytes"].values()
        )
        assert observed * 8 == wire_bits, round_index
    wire_edge_round: Counter[tuple[str, int]] = Counter()
    for record in network._edges.wire_log.messages:
        wire_edge_round[(_edge_of(network, record), record.round_index)] += record.bits
    observed_edge_round = Counter(
        {
            (edge, round_index): 8 * nbytes
            for edge, rounds in report["observed_round_bytes"].items()
            for round_index, nbytes in rounds.items()
        }
    )
    assert +observed_edge_round == +wire_edge_round
    return report


def _assert_round_opens(links, network):
    """Every direct link opens each round it carries, before its first burst."""
    rounds_by_link = defaultdict(list)
    for record in network._edges.wire_log.messages:
        rounds_by_link[network._edges._top(_edge_of(network, record))].append(
            record.round_index
        )
    for name, link in links.items():
        if not isinstance(link, MemoryLink):
            continue
        opened = [m.meta["round"] for m in link.frames if m.type == "round"]
        assert opened == sorted(set(rounds_by_link[name])), name
        current = None
        for frame in link.frames:
            if frame.type == "round":
                current = frame.meta["round"]
            else:
                assert frame.meta["round"] == current, (name, frame)


class TestProtocolsOverMemoryLinks:
    @pytest.mark.parametrize(
        "query, kwargs",
        [
            ("lp_norm", {"p": 2.0, "epsilon": 0.3}),
            ("heavy_hitters", {"phi": 0.3, "epsilon": 0.2}),
        ],
    )
    def test_star(self, query, kwargs):
        shards, b = _data()
        links = _star_links()
        transport = SocketTransport(links)
        remote = ClusterEstimator(shards, b, seed=5, transport=transport)
        value = getattr(remote, query)(**kwargs)
        local = getattr(ClusterEstimator(shards, b, seed=5), query)(**kwargs)
        network = transport.last_network
        assert isinstance(network, RemoteNetwork)
        assert value.value == local.value
        report = _assert_meters_agree(network)
        assert report["simulated_bits"] == local.cost.total_bits
        assert report["rounds"] == local.cost.rounds
        _assert_round_opens(links, network)

    def test_tree_with_direct_leaf(self):
        shards, b = _data()
        tree = TreeSpec(MIXED_TREE)
        links = _tree_links()
        transport = SocketTransport(links)
        remote = ClusterEstimator(shards, b, seed=5, transport=transport, tree=tree)
        local = ClusterEstimator(shards, b, seed=5, tree=tree)
        for query, kwargs in [("lp_norm", {"p": 2.0, "epsilon": 0.3}), ("l0_sample", {})]:
            value = getattr(remote, query)(**kwargs)
            reference = getattr(local, query)(**kwargs)
            network = transport.last_network
            assert isinstance(network, RemoteTreeNetwork)
            assert value.value == reference.value
            report = _assert_meters_agree(network)
            assert report["simulated_bits"] == reference.cost.total_bits
            assert report["tree"] == tree.describe()
            assert set(report["root_link_bits"]) == {"agg-0-0", "site-2"}
            # Both routed leaves and both direct edges carried bytes.
            assert {e for e, n in report["observed_link_bytes"].items() if n} == {
                "agg-0-0",
                "site-0",
                "site-1",
                "site-2",
            }
            _assert_round_opens(links, network)
            for name in ("agg-0-0", "site-2"):
                links[name].frames.clear()

    def test_reset_clears_every_meter(self):
        links = _star_links(k=2)
        network = RemoteNetwork(["site-0", "site-1"], links=links)
        network.send("site-0", "coordinator", np.arange(4))
        network.reset()
        report = network.service_report()
        assert report["wire_bits"] == report["observed_bytes"] == 0
        assert report["wire_round_bits"] == {}
        network.send("site-1", "coordinator", np.arange(4))
        assert [m.type for m in links["site-1"].frames] == ["round", "relay"]
        _assert_meters_agree(network)


def _tree_network(**corrupt):
    return RemoteTreeNetwork(TreeSpec(MIXED_TREE), links=_tree_links(**corrupt))


PAYLOAD = np.arange(32, dtype=np.int64)


class TestCorruptionInEveryCrossing:
    def test_direct_echo_on_the_star(self):
        network = RemoteNetwork(
            ["site-0", "site-1", "site-2"],
            links=_star_links(**{"site-1": {"corrupt_up": True}}),
        )
        network.send("site-0", "coordinator", PAYLOAD)
        with pytest.raises(CorruptFrameError) as caught:
            network.send("site-1", "coordinator", PAYLOAD)
        assert caught.value.site == "site-1"

    def test_direct_echo_on_the_tree(self):
        network = _tree_network(**{"site-2": {"corrupt_up": True}})
        with pytest.raises(CorruptFrameError) as caught:
            network.send("site-2", "coordinator", PAYLOAD)
        assert caught.value.site == "site-2"

    def test_aggregator_echo_of_a_merged_upload(self):
        network = _tree_network(**{"agg-0-0": {"corrupt_up": True}})
        network.send("site-0", "coordinator", PAYLOAD)
        network.send("site-1", "coordinator", PAYLOAD)
        with pytest.raises(CorruptFrameError) as caught:
            network.total_bits  # the drain ships the merged payload
        assert caught.value.site == "agg-0-0"

    def test_routed_leaf_ack(self):
        network = _tree_network(**{"site-1": {"corrupt_up": True}})
        network.send("site-0", "coordinator", PAYLOAD)
        with pytest.raises(CorruptFrameError, match="'site-1'") as caught:
            network.send("site-1", "coordinator", PAYLOAD)
        assert caught.value.site == "site-1"

    def test_downstream_ack_on_the_star(self):
        links = _star_links(k=2, **{"site-1": {"corrupt_down": True}})
        network = RemoteNetwork(["site-0", "site-1"], links=links)
        with pytest.raises(CorruptFrameError) as caught:
            network.broadcast(PAYLOAD)
        assert caught.value.site == "site-1"

    @pytest.mark.parametrize("edge", ["agg-0-0", "site-2"])
    def test_downstream_ack_on_a_direct_edge(self, edge):
        network = _tree_network(**{edge: {"corrupt_down": True}})
        with pytest.raises(CorruptFrameError) as caught:
            network.broadcast(PAYLOAD)
        assert caught.value.site == edge

    @pytest.mark.parametrize("leaf", ["site-0", "site-1"])
    def test_forwarded_child_ack(self, leaf):
        network = _tree_network(**{leaf: {"corrupt_down": True}})
        with pytest.raises(CorruptFrameError) as caught:
            network.send("coordinator", leaf, PAYLOAD)
        assert caught.value.site == leaf

    def test_clean_links_raise_nothing(self):
        network = _tree_network()
        for site in ("site-0", "site-1", "site-2"):
            network.send(site, "coordinator", PAYLOAD)
        network.broadcast(PAYLOAD)
        _assert_meters_agree(network)
