"""Tests for the replicate-batched sparse network engine.

Covers the CSR matvec helper and the batched engine: API validation, the
stage-1 fallback branches, the complete-graph reduction, and consistency
between the batched engine and its per-replicate views.  Distributional
equivalence with the per-agent loop is gated separately in
``tests/integration/test_cross_validation.py``.
"""

import networkx as nx
import numpy as np
import pytest

from repro.core.adoption import AlwaysAdoptRule, GeneralAdoptionRule, SymmetricAdoptionRule
from repro.core.batched import BatchedPopulationState, BatchedTrajectory
from repro.core.dynamics import FinitePopulationDynamics
from repro.core.sampling import MixtureSampling, default_exploration_rate
from repro.environments import BernoulliEnvironment
from repro.network import (
    BatchedNetworkDynamics,
    SocialNetwork,
    committed_neighbor_counts,
    simulate_batched_network_dynamics,
)


class TestCommittedNeighborCounts:
    """The CSR sparse matvec ``S = A @ onehot(choices)``."""

    def test_matches_dense_matvec(self):
        network = SocialNetwork.watts_strogatz(40, 4, 0.3, rng=0)
        choices = np.random.default_rng(1).integers(-1, 3, size=(1, 40))
        adjacency = nx.to_numpy_array(network.graph)
        onehot = np.zeros((40, 3))
        for agent, choice in enumerate(choices[0]):
            if choice >= 0:
                onehot[agent, choice] = 1.0
        expected = (adjacency @ onehot).astype(np.int64)
        np.testing.assert_array_equal(
            committed_neighbor_counts(network, choices, 3), expected[None]
        )

    def test_batched_rows_match_single_calls(self):
        network = SocialNetwork.barabasi_albert(30, 2, rng=0)
        choices = np.random.default_rng(2).integers(-1, 4, size=(5, 30))
        batched = committed_neighbor_counts(network, choices, 4)
        assert batched.shape == (5, 30, 4)
        for replicate in range(5):
            np.testing.assert_array_equal(
                batched[replicate : replicate + 1],
                committed_neighbor_counts(
                    network, choices[replicate : replicate + 1], 4
                ),
            )

    def test_sitting_out_neighbours_do_not_count(self):
        network = SocialNetwork.ring(6, neighbors_each_side=1)
        choices = np.full((1, 6), -1, dtype=np.int64)
        np.testing.assert_array_equal(
            committed_neighbor_counts(network, choices, 2), np.zeros((1, 6, 2))
        )

    def test_isolated_graph_gives_zero_counts(self):
        network = SocialNetwork(nx.empty_graph(4), name="isolated")
        choices = np.array([[0, 1, 1, 0]])
        np.testing.assert_array_equal(
            committed_neighbor_counts(network, choices, 2), np.zeros((1, 4, 2))
        )


class TestBatchedNetworkDynamics:
    def test_state_is_batched_population_state(self):
        dynamics = BatchedNetworkDynamics(SocialNetwork.ring(40), 3, 5, rng=0)
        state = dynamics.state()
        assert isinstance(state, BatchedPopulationState)
        assert state.counts.shape == (5, 3)
        assert state.population_size == 40
        assert np.all(state.committed <= 40)

    def test_step_advances_all_replicates(self):
        dynamics = BatchedNetworkDynamics(SocialNetwork.ring(30), 2, 4, rng=0)
        state = dynamics.step(np.ones((4, 2), dtype=np.int64))
        assert state.time == 1
        assert dynamics.time == 1
        assert dynamics.choices().shape == (4, 30)

    def test_shared_reward_vector_broadcasts(self):
        dynamics = BatchedNetworkDynamics(SocialNetwork.ring(30), 2, 4, rng=0)
        state = dynamics.step(np.array([1, 0]))
        assert state.counts.shape == (4, 2)

    def test_rejects_bad_rewards(self):
        dynamics = BatchedNetworkDynamics(SocialNetwork.ring(10), 2, 3, rng=0)
        with pytest.raises(ValueError):
            dynamics.step(np.ones((2, 2)))
        with pytest.raises(ValueError):
            dynamics.step(np.full((3, 2), 2))

    def test_rejects_non_network(self):
        with pytest.raises(TypeError):
            BatchedNetworkDynamics("graph", 2, 3)

    def test_set_choices_validates_shape_and_range(self):
        dynamics = BatchedNetworkDynamics(SocialNetwork.ring(6), 3, 2, rng=0)
        with pytest.raises(ValueError):
            dynamics.set_choices(np.zeros(6, dtype=np.int64))
        with pytest.raises(ValueError):
            dynamics.set_choices(np.full((2, 6), 3, dtype=np.int64))
        with pytest.raises(ValueError):
            dynamics.set_choices(np.full((2, 6), -2, dtype=np.int64))
        dynamics.set_choices(np.full((2, 6), 1, dtype=np.int64))
        np.testing.assert_array_equal(dynamics.state().counts, [[0, 6, 0], [0, 6, 0]])

    def test_replicates_evolve_independently(self):
        """Different replicates on the same graph follow different paths."""
        dynamics = BatchedNetworkDynamics(SocialNetwork.ring(100), 2, 6, rng=0)
        for _ in range(5):
            dynamics.step(np.array([1, 0]))
        counts = dynamics.state().counts
        assert len({tuple(row) for row in counts.tolist()}) > 1

    def test_run_returns_batched_trajectory_with_replicate_views(self):
        network = SocialNetwork.watts_strogatz(60, 4, 0.2, rng=0)
        env = BernoulliEnvironment([0.8, 0.4], rng=1)
        trajectory = simulate_batched_network_dynamics(
            env, network, 20, 5, beta=0.65, mu=0.05, rng=2
        )
        assert isinstance(trajectory, BatchedTrajectory)
        assert trajectory.num_replicates == 5
        assert trajectory.horizon == 20
        view = trajectory.replicate(3)
        assert view.horizon == 20
        np.testing.assert_array_equal(
            view.final_state().counts, trajectory.final_state().counts[3]
        )

    def test_run_rejects_mismatched_environment(self):
        env = BernoulliEnvironment([0.9, 0.3, 0.1], rng=0)
        dynamics = BatchedNetworkDynamics(SocialNetwork.ring(10), 2, 3, rng=0)
        with pytest.raises(ValueError):
            dynamics.run(env, 5)

    def test_all_sitting_out_uniform_fallback(self):
        size, replicates = 300, 3
        dynamics = BatchedNetworkDynamics(
            SocialNetwork.ring(size, neighbors_each_side=2),
            2,
            replicates,
            adoption_rule=AlwaysAdoptRule(),
            exploration_rate=0.0,
            rng=5,
        )
        dynamics.set_choices(np.full((replicates, size), -1, dtype=np.int64))
        state = dynamics.step(np.ones((replicates, 2), dtype=np.int64))
        assert np.all(state.committed == size)
        assert np.all(state.counts > size // 4)

    def test_seeded_runs_are_reproducible(self):
        network = SocialNetwork.barabasi_albert(50, 3, rng=0)
        results = []
        for _ in range(2):
            generator = np.random.default_rng(11)
            env = BernoulliEnvironment([0.8, 0.4], rng=generator)
            trajectory = simulate_batched_network_dynamics(
                env, network, 15, 4, beta=0.65, rng=generator
            )
            results.append(trajectory.final_state().counts)
        np.testing.assert_array_equal(results[0], results[1])

    def test_exposes_configuration(self):
        network = SocialNetwork.ring(12)
        rule = SymmetricAdoptionRule(0.7)
        dynamics = BatchedNetworkDynamics(
            network, 2, 3, adoption_rule=rule, exploration_rate=0.2, rng=0
        )
        assert dynamics.network is network
        assert dynamics.num_options == 2
        assert dynamics.num_replicates == 3
        assert dynamics.adoption_rule is rule
        assert dynamics.exploration_rate == pytest.approx(0.2)

    def test_time_advances_and_choices_reflect_state(self):
        dynamics = BatchedNetworkDynamics(SocialNetwork.complete(30), 2, 2, rng=0)
        dynamics.step(np.array([1, 1]))
        dynamics.step(np.array([0, 1]))
        assert dynamics.time == 2
        committed = (dynamics.choices() >= 0).sum(axis=1)
        np.testing.assert_array_equal(committed, dynamics.state().committed)

    def test_no_neighbour_fallback_considers_uniformly(self):
        """Isolated agents fall back to uniform consideration, never imitation."""
        size = 400
        network = SocialNetwork(nx.empty_graph(size), name="isolated")
        dynamics = BatchedNetworkDynamics(
            network, 2, 1, adoption_rule=AlwaysAdoptRule(), exploration_rate=0.0, rng=7
        )
        dynamics.set_choices(np.zeros((1, size), dtype=np.int64))
        state = dynamics.step(np.array([1, 1]))
        assert state.committed[0] == size
        assert state.counts[0, 0] > size // 4
        assert state.counts[0, 1] > size // 4

    def test_pure_imitation_copies_unanimous_neighbourhood(self):
        """With mu=0 and a unanimous committed group, imitation is deterministic."""
        size = 60
        dynamics = BatchedNetworkDynamics(
            SocialNetwork.ring(size, neighbors_each_side=3),
            3,
            1,
            adoption_rule=AlwaysAdoptRule(),
            exploration_rate=0.0,
            rng=9,
        )
        dynamics.set_choices(np.full((1, size), 2, dtype=np.int64))
        state = dynamics.step(np.array([1, 1, 1]))
        np.testing.assert_array_equal(state.counts, [[0, 0, size]])

    def test_never_adopting_group_stays_sitting_out(self):
        dynamics = BatchedNetworkDynamics(
            SocialNetwork.ring(20), 2, 1,
            adoption_rule=GeneralAdoptionRule(0.0, 0.0), exploration_rate=0.0, rng=9,
        )
        env = BernoulliEnvironment([0.9, 0.1], rng=10)
        trajectory = dynamics.run(env, 5)
        for state in trajectory.states:
            assert np.all(state.committed == 0)
        assert np.allclose(dynamics.popularity(), [[0.5, 0.5]])

    def test_complete_graph_one_step_matches_core_dynamics(self):
        """On the complete graph the per-step transition law matches the
        original exchangeable dynamics (mean counts over many replicates)."""
        size, replicates = 300, 200
        rewards = np.array([1, 0])
        rule = SymmetricAdoptionRule(0.7)
        network = SocialNetwork.complete(size)

        batched = BatchedNetworkDynamics(
            network, 2, replicates, adoption_rule=rule, exploration_rate=0.1, rng=0
        )
        batched_counts = batched.step(rewards).counts.sum(axis=0)
        core_counts = np.zeros(2)
        for seed in range(replicates):
            core = FinitePopulationDynamics(
                size, 2, adoption_rule=rule,
                sampling_rule=MixtureSampling(0.1), rng=seed + 100_000,
            )
            core_counts += core.step(rewards).counts
        # Monte Carlo SE of each mean count is ~0.6; tolerance 3 is ~5 sigma.
        assert np.all(
            np.abs(batched_counts / replicates - core_counts / replicates) < 3.0
        )

    def test_helper_default_mu_is_shared_theorem_default(self):
        env = BernoulliEnvironment([0.8, 0.4], rng=0)
        network = SocialNetwork.ring(10)
        trajectory = simulate_batched_network_dynamics(
            env, network, 3, 1, beta=0.6, rng=1
        )
        assert trajectory.horizon == 3
        # The loop and batched helpers share default_exploration_rate.
        rule = SymmetricAdoptionRule(0.6)
        dynamics = BatchedNetworkDynamics(network, 2, 1, rule, rng=1)
        assert default_exploration_rate(rule) == pytest.approx(
            min(1.0, rule.delta**2 / 6.0)
        )
        assert dynamics.exploration_rate == pytest.approx(0.05)


class TestSingleReplicateNetworkDynamics:
    """The batched engine at ``R = 1``: the single-replicate path."""

    def test_state_counts_bounded_by_population(self):
        dynamics = BatchedNetworkDynamics(SocialNetwork.ring(50), 3, 1, rng=0)
        state = dynamics.step(np.array([1, 0, 1]))
        assert state.counts.shape == (1, 3)
        assert state.counts.sum() <= 50
        assert state.population_size == 50

    def test_rejects_bad_rewards(self):
        dynamics = BatchedNetworkDynamics(SocialNetwork.complete(10), 2, 1, rng=0)
        with pytest.raises(ValueError):
            dynamics.step(np.array([2, 0]))
        with pytest.raises(ValueError):
            dynamics.step(np.array([1]))

    def test_all_neighbours_sitting_out_falls_back_to_uniform(self):
        size = 400
        dynamics = BatchedNetworkDynamics(
            SocialNetwork.ring(size, neighbors_each_side=2),
            2,
            1,
            adoption_rule=AlwaysAdoptRule(),
            exploration_rate=0.0,
            rng=8,
        )
        dynamics.set_choices(np.full((1, size), -1, dtype=np.int64))
        state = dynamics.step(np.array([1, 1]))
        assert state.committed[0] == size
        assert state.counts[0, 0] > size // 4
        assert state.counts[0, 1] > size // 4

    def test_seeded_runs_are_reproducible(self):
        """Environment seed and engine seed re-run one replicate exactly."""
        network = SocialNetwork.watts_strogatz(80, 4, 0.2, rng=0)
        results = []
        for _ in range(2):
            env = BernoulliEnvironment([0.8, 0.4], rng=3)
            trajectory = simulate_batched_network_dynamics(
                env, network, 30, 1, beta=0.65, rng=4
            )
            results.append(trajectory.popularity_tensor())
        np.testing.assert_array_equal(results[0], results[1])
