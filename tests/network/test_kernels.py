"""Tests for the stage-1 path of the batched network engine.

Covers its draw and two perf-sensitive correctness fixes:

* the CSR gather + inverse-CDF pick agrees with a per-agent walk of each
  neighbour list (the ``per_agent_stage_one`` fixture), pick for pick;
* the inverse-CDF boundary clamp (``u == 1.0`` must never index out of the
  option range);
* the int64 key-space guard on the flattened ``(replicate, agent, option)``
  bincount keys.
"""

from __future__ import annotations

from dataclasses import dataclass

import networkx as nx
import numpy as np
import pytest

from repro.network.topology import SocialNetwork
from repro.network.vectorized import (
    _check_key_space,
    _inverse_cdf_rows,
    committed_neighbor_counts,
)


@pytest.fixture(scope="module")
def network() -> SocialNetwork:
    return SocialNetwork.watts_strogatz(
        60, nearest_neighbors=4, rewiring_probability=0.2, rng=0
    )


def _partly_isolated() -> SocialNetwork:
    graph = nx.path_graph(12)
    graph.add_nodes_from(range(12, 20))  # eight agents with no neighbour
    return SocialNetwork(graph, name="partly-isolated")


NETWORKS = {
    "watts_strogatz": lambda: SocialNetwork.watts_strogatz(
        60, nearest_neighbors=4, rewiring_probability=0.2, rng=0
    ),
    "star": lambda: SocialNetwork.star(40),
    "partly_isolated": _partly_isolated,
}


def _engine_stage_one(network, choices, uniforms, num_options):
    counts = committed_neighbor_counts(network, choices, num_options)
    return _inverse_cdf_rows(counts, uniforms)


class TestStageOneMatchesThePerAgentWalk:
    """The engine's two passes must match the per-agent walk bit for bit."""

    @pytest.mark.parametrize(
        "topology, seed",
        [
            ("watts_strogatz", 0),
            ("watts_strogatz", 1),
            ("watts_strogatz", 2),
            ("star", 3),
            ("partly_isolated", 4),
        ],
    )
    def test_batched_picks_and_totals_match_the_walk(
        self, per_agent_stage_one, topology, seed
    ):
        network = NETWORKS[topology]()
        rng = np.random.default_rng(seed)
        num_options = 4
        # Include -1 (sitting out) entries so zero-total rows are exercised.
        choices = rng.integers(-1, num_options, size=(5, network.size))
        uniforms = rng.random((5, network.size))
        picks, totals = _engine_stage_one(network, choices, uniforms, num_options)
        walk_picks, walk_totals = per_agent_stage_one.pick(
            network, choices, uniforms, num_options
        )
        np.testing.assert_array_equal(totals, walk_totals)
        np.testing.assert_array_equal(picks, walk_picks)

    def test_single_replicate_row_matches_the_walk(
        self, network, per_agent_stage_one
    ):
        rng = np.random.default_rng(7)
        num_options = 3
        choices = rng.integers(-1, num_options, size=(1, network.size))
        uniforms = rng.random((1, network.size))
        picks, totals = _engine_stage_one(network, choices, uniforms, num_options)
        assert picks.shape == (1, network.size)
        walk_picks, walk_totals = per_agent_stage_one.pick(
            network, choices, uniforms, num_options
        )
        np.testing.assert_array_equal(totals, walk_totals)
        np.testing.assert_array_equal(picks, walk_picks)

    def test_all_sitting_out_reports_zero_totals_and_clamped_picks(
        self, network, per_agent_stage_one
    ):
        choices = np.full((2, network.size), -1)
        uniforms = np.zeros((2, network.size))
        for stage_one in (_engine_stage_one, per_agent_stage_one.pick):
            picks, totals = stage_one(network, choices, uniforms, 3)
            assert not totals.any()
            assert (picks == 2).all()


class TestInverseCdfBoundaryClamp:
    """Regression: ``u == 1.0`` used to produce the out-of-range pick ``m``."""

    @pytest.mark.parametrize("dtype", [np.int64, np.int32])
    def test_boundary_uniform_clamps_to_the_last_option(self, dtype):
        counts = np.array([[2, 1, 0]], dtype=dtype)
        picks, totals = _inverse_cdf_rows(counts, np.array([1.0]))
        assert totals[0] == 3
        assert picks[0] == 2  # clamped into range, never m == 3

    def test_boundary_lands_in_the_last_nonzero_bucket_support(self):
        counts = np.array([[0, 5, 0, 0]])
        picks, _ = _inverse_cdf_rows(counts, np.array([1.0]))
        # Clamped pick may exceed the support; interior uniforms never do.
        assert picks[0] <= 3
        interior, _ = _inverse_cdf_rows(counts, np.array([0.999999]))
        assert interior[0] == 1

    def test_interior_uniforms_hit_exact_proportions(self):
        counts = np.array([[2, 1, 1]])
        uniforms = np.array([0.0, 0.49, 0.5, 0.74, 0.75, 0.99])
        picks, _ = _inverse_cdf_rows(
            np.repeat(counts, uniforms.size, axis=0), uniforms
        )
        np.testing.assert_array_equal(picks, [0, 0, 1, 1, 2, 2])

    def test_zero_total_rows_report_the_clamp_and_zero_total(self):
        picks, totals = _inverse_cdf_rows(
            np.zeros((3, 4), dtype=np.int64), np.array([0.0, 0.5, 1.0])
        )
        assert not totals.any()
        assert (picks == 3).all()


@dataclass
class _FakeHugeNetwork:
    """Duck-typed network whose advertised size overflows the key space.

    The CSR arrays are tiny — the guard must fire on the *declared*
    ``R * N * m`` product before any array arithmetic touches them.
    """

    size: int

    @property
    def csr_indptr(self):  # pragma: no cover - guard fires first
        raise AssertionError("guard must fire before CSR access")

    @property
    def csr_indices(self):
        return np.zeros(1, dtype=np.int64)

    @property
    def csr_edge_rows(self):
        return np.zeros(1, dtype=np.int64)


class TestKeySpaceOverflowGuard:
    def test_check_key_space_accepts_the_int64_limit(self):
        _check_key_space(1, 2**31, 2**31)  # exactly 2**62 — fine

    def test_check_key_space_rejects_past_the_limit(self):
        with pytest.raises(OverflowError, match="overflows int64"):
            _check_key_space(2, 2**40, 2**25)  # 2**66

    def test_single_replicate_gather_guards_n_times_m(self):
        fake = _FakeHugeNetwork(size=2**40)
        choices = np.zeros((1, 4), dtype=np.int64)
        with pytest.raises(OverflowError, match="shard the"):
            committed_neighbor_counts(fake, choices, 2**25)

    def test_batched_gather_guards_the_full_product(self):
        fake = _FakeHugeNetwork(size=2**40)
        choices = np.zeros((2, 4), dtype=np.int64)
        with pytest.raises(OverflowError, match="overflows int64"):
            committed_neighbor_counts(fake, choices, 2**25)

    def test_gather_promotes_narrow_choice_dtypes(self, network):
        """int32 choices must not wrap the ``row * m + choice`` keys."""
        rng = np.random.default_rng(11)
        wide = rng.integers(-1, 3, size=(1, network.size), dtype=np.int64)
        narrow = wide.astype(np.int32)
        np.testing.assert_array_equal(
            committed_neighbor_counts(network, narrow, 3),
            committed_neighbor_counts(network, wide, 3),
        )
