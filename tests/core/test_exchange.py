"""Tests for the per-item index-exchange primitive shared by Algorithms 2/3/5.2.

The primitive runs on a one-site star: the site holds ``A'`` (Alice's side
of the two-party exchange), the coordinator holds ``B`` (Bob's side).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.comm.network import Network
from repro.engine.exchange import star_exchange_item_supports
from repro.engine.topology import Coordinator, Site
from repro.matrices import random_binary_pair


def _one_site_star(a, b):
    network = Network(["site-0"])
    site = Site("site-0", a, network, rng=np.random.default_rng(0))
    coordinator = Coordinator(b, network, rng=np.random.default_rng(1))
    return site, coordinator, network


def _exchange(site, coordinator, a_sub, b, **kwargs):
    """The exchange on the one-site star: ``(site share, coordinator share, info)``."""
    site_shares, c_coord, info = star_exchange_item_supports(
        coordinator, [site], [np.asarray(a_sub)], np.asarray(b), **kwargs
    )
    return site_shares[0], c_coord, info


class TestCorrectness:
    def test_shares_sum_to_product(self):
        a, b = random_binary_pair(40, density=0.15, seed=60)
        site, coordinator, _ = _one_site_star(a, b)
        c_site, c_coord, _ = _exchange(site, coordinator, a, b)
        assert np.array_equal(c_site + c_coord, a @ b)

    def test_subsampled_matrix_respected(self):
        a, b = random_binary_pair(40, density=0.2, seed=61)
        a_sub = a.copy()
        a_sub[:, ::2] = 0
        site, coordinator, _ = _one_site_star(a, b)
        c_site, c_coord, _ = _exchange(site, coordinator, a_sub, b)
        assert np.array_equal(c_site + c_coord, a_sub @ b)

    def test_empty_inputs(self):
        a = np.zeros((8, 8), dtype=np.int64)
        b = np.zeros((8, 8), dtype=np.int64)
        site, coordinator, _ = _one_site_star(a, b)
        c_site, c_coord, info = _exchange(site, coordinator, a, b)
        assert c_site.sum() == 0
        assert c_coord.sum() == 0
        assert info["exchanged_indices"] == 0

    def test_dimension_mismatch_rejected(self):
        a = np.ones((4, 5), dtype=np.int64)
        b = np.ones((4, 4), dtype=np.int64)
        site, coordinator, _ = _one_site_star(a, b)
        with pytest.raises(ValueError):
            _exchange(site, coordinator, a, b)

    def test_rectangular_inputs(self):
        rng = np.random.default_rng(62)
        a = (rng.uniform(size=(20, 30)) < 0.2).astype(np.int64)
        b = (rng.uniform(size=(30, 10)) < 0.2).astype(np.int64)
        site, coordinator, _ = _one_site_star(a, b)
        c_site, c_coord, _ = _exchange(site, coordinator, a, b)
        assert (c_site + c_coord).shape == (20, 10)
        assert np.array_equal(c_site + c_coord, a @ b)


class TestCostAccounting:
    def test_exchanged_volume_is_min_side(self):
        a, b = random_binary_pair(32, density=0.2, seed=63)
        site, coordinator, _ = _one_site_star(a, b)
        _, _, info = _exchange(site, coordinator, a, b)
        u = a.sum(axis=0)
        v = b.sum(axis=1)
        active = (u > 0) & (v > 0)
        assert info["exchanged_indices"] == int(np.minimum(u, v)[active].sum())

    def test_channel_records_both_directions(self):
        a, b = random_binary_pair(32, density=0.2, seed=64)
        site, coordinator, network = _one_site_star(a, b)
        _exchange(site, coordinator, a, b, label_prefix="x/")
        labels = {message.label for message in network.log.messages}
        assert "x/coordinator-item-lists" in labels
        assert "x/site-item-lists" in labels

    def test_send_u_counts_flag_controls_first_message(self):
        a, b = random_binary_pair(32, density=0.2, seed=65)
        site, coordinator, network = _one_site_star(a, b)
        _exchange(site, coordinator, a, b, send_u_counts=False)
        labels = {message.label for message in network.log.messages}
        assert not any("item-counts" in label for label in labels)

    def test_items_split_between_parties(self):
        a, b = random_binary_pair(48, density=0.25, seed=66)
        site, coordinator, _ = _one_site_star(a, b)
        _, _, info = _exchange(site, coordinator, a, b)
        u = a.sum(axis=0)
        v = b.sum(axis=1)
        active = int(np.count_nonzero((u > 0) & (v > 0)))
        assert info["site_owned_items"] + info["coordinator_owned_items"] == active
