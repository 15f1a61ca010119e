"""Tests for the shared MessageLog accounting base."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm.accounting import MessageLog
from repro.comm.channel import Channel
from repro.comm.network import Network, TreeNetwork
from repro.comm.tree import TreeSpec


class TestMessageLog:
    def test_round_flips_on_sender_by_default(self):
        log = MessageLog()
        log.record("a", "b", None, bits=1)
        log.record("a", "b", None, bits=2)
        log.record("b", "a", None, bits=4)
        log.record("a", "b", None, bits=8)
        assert log.rounds == 3
        assert log.total_bits == 15

    def test_direction_key_overrides_sender(self):
        log = MessageLog()
        log.record("s0", "coord", None, bits=1, direction_key="up")
        log.record("s1", "coord", None, bits=1, direction_key="up")
        log.record("coord", "s0", None, bits=1, direction_key="down")
        assert log.rounds == 2

    def test_negative_bits_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            MessageLog().record("a", "b", None, bits=-1)

    def test_bits_per_round(self):
        log = MessageLog()
        log.record("a", "b", None, bits=3)
        log.record("a", "b", None, bits=5)
        log.record("b", "a", None, bits=7)
        assert log.bits_per_round() == {1: 8, 2: 7}
        assert sum(log.bits_per_round().values()) == log.total_bits

    def test_bits_per_round_keys_ascending(self):
        log = MessageLog()
        for sender in ["a", "b", "a", "b", "a"]:
            log.record(sender, "x" if sender != "x" else "y", None, bits=1)
        assert list(log.bits_per_round()) == sorted(log.bits_per_round())

    def test_bits_by_label_accumulates(self):
        log = MessageLog()
        log.record("a", "b", None, label="x", bits=1)
        log.record("b", "a", None, label="y", bits=2)
        log.record("a", "b", None, label="x", bits=4)
        assert log.bits_by_label() == {"x": 5, "y": 2}

    def test_reset(self):
        log = MessageLog()
        log.record("a", "b", None, bits=1)
        log.reset()
        assert log.rounds == 0
        assert log.total_bits == 0
        assert log.messages == []
        # After a reset the first message opens round 1 again.
        log.record("b", "a", None, bits=1)
        assert log.rounds == 1


class TestChannelInheritsAccounting:
    def test_channel_bits_per_round(self):
        channel = Channel()
        channel.send("alice", "bob", 1, bits=10, label="r1")
        channel.send("bob", "alice", 1, bits=20, label="r2")
        channel.send("bob", "alice", 1, bits=30, label="r2")
        assert channel.bits_per_round() == {1: 10, 2: 50}
        assert channel.bits_by_label() == {"r1": 10, "r2": 50}


def _assert_counters_match_messages(logs: list[MessageLog], names: list[str]) -> None:
    for log in logs:
        assert log.total_bits == sum(m.bits for m in log.messages)
        for name in names + ["nobody"]:
            recount = sum(m.bits for m in log.messages if m.sender == name)
            assert log.bits_sent_by(name) == recount


_SITES = [f"site-{i}" for i in range(5)]
_STEPS = st.lists(
    st.tuples(
        st.sampled_from(["up", "down", "broadcast", "reset"]),
        st.integers(0, 4),
        st.integers(0, 1000),
    ),
    max_size=30,
)


class TestRunningBitCounters:
    """``total_bits``/``bits_sent_by`` are running counters: they must equal a
    recount over ``messages`` after any record/reset sequence."""

    @settings(max_examples=60, deadline=None)
    @given(_STEPS)
    def test_channel(self, steps):
        channel = Channel()
        for kind, _, bits in steps:
            if kind == "reset":
                channel.reset()
            elif kind == "up":
                channel.send("alice", "bob", None, bits=bits)
            else:
                channel.send("bob", "alice", None, bits=bits)
            _assert_counters_match_messages(
                [channel.log, *channel.network.links.values()], ["alice", "bob"]
            )

    @settings(max_examples=60, deadline=None)
    @given(_STEPS, st.booleans())
    def test_star_and_tree_networks(self, steps, tree):
        if tree:
            network = TreeNetwork(TreeSpec.regular(_SITES, 2))
        else:
            network = Network(_SITES)
        hub = network.coordinator_name
        for kind, site, bits in steps:
            if kind == "reset":
                network.reset()
            elif kind == "up":
                network.send(_SITES[site], hub, None, label="up", bits=bits)
            elif kind == "down":
                network.send(hub, _SITES[site], None, bits=bits)
            else:
                network.broadcast(None, bits=bits)
            # Reading a meter drains the tree's staged uploads first.
            assert network.total_bits == sum(m.bits for m in network.log.messages)
            _assert_counters_match_messages(
                [network.log, *network.links.values()], list(network.links) + [hub]
            )
