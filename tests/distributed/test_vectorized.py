"""Unit tests for the batched protocol engine."""

import numpy as np
import pytest

from repro.core.adoption import SymmetricAdoptionRule
from repro.distributed import BatchedProtocol
from repro.environments import BernoulliEnvironment


class TestBatchedProtocolBasics:
    def test_initialisation(self):
        protocol = BatchedProtocol(40, 3, num_replicates=5, rng=0)
        assert protocol.num_nodes == 40
        assert protocol.num_options == 3
        assert protocol.num_replicates == 5
        assert protocol.choices().shape == (5, 40)
        assert np.all(protocol.alive_counts() == 40)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            BatchedProtocol(0, 2, num_replicates=1)
        with pytest.raises(ValueError):
            BatchedProtocol(10, 2, num_replicates=1, exploration_rate=-0.1)
        with pytest.raises(ValueError):
            BatchedProtocol(10, 2, num_replicates=1, max_query_attempts=0)
        with pytest.raises(ValueError):
            BatchedProtocol(10, 2, num_replicates=0)
        with pytest.raises(ValueError):
            BatchedProtocol(10, 2, num_replicates=2, loss_rate=-0.2)
        with pytest.raises(ValueError):
            BatchedProtocol(10, 2, num_replicates=2, mass_failure_round=-1)
        with pytest.raises(ValueError):
            BatchedProtocol(10, 2, num_replicates=2, mass_failure_fraction=1.2)

    def test_rewards_shapes_and_broadcast(self):
        protocol = BatchedProtocol(20, 2, num_replicates=3, rng=0)
        protocol.run_round(np.array([1, 0]))  # shared (m,) vector broadcasts
        protocol.run_round(np.ones((3, 2), dtype=np.int64))
        assert protocol.round_number == 2
        with pytest.raises(ValueError):
            protocol.run_round(np.ones((2, 2), dtype=np.int64))
        with pytest.raises(ValueError):
            protocol.run_round(np.full((3, 2), 0.5))

    def test_run_result_shapes_and_metrics(self):
        env = BernoulliEnvironment([0.85, 0.45], rng=1)
        protocol = BatchedProtocol(60, 2, num_replicates=4, loss_rate=0.1, rng=2)
        result = protocol.run(env, 25)
        assert result.rounds == 25
        assert result.num_replicates == 4
        assert result.trajectory.popularity_tensor().shape == (25, 4, 2)
        assert result.alive_matrix.shape == (25, 4)
        assert result.regret().shape == (4,)
        assert result.best_option_share().shape == (4,)
        assert np.all(result.best_option_share() >= 0)
        assert np.all(result.best_option_share() <= 1)

    def test_run_rejects_mismatched_environment(self):
        env = BernoulliEnvironment([0.8, 0.4, 0.2], rng=1)
        protocol = BatchedProtocol(30, 2, num_replicates=2, rng=2)
        with pytest.raises(ValueError):
            protocol.run(env, 5)

    def test_replicates_evolve_independently(self):
        protocol = BatchedProtocol(50, 2, num_replicates=8, rng=0)
        env = BernoulliEnvironment([0.9, 0.2], rng=1)
        result = protocol.run(env, 40)
        terminal = result.trajectory.popularity_tensor()[-1, :, 0]
        # Independent replicates should not all land on the same popularity.
        assert len(np.unique(terminal)) > 1

    def test_batched_fleet_learns_best_option(self):
        env = BernoulliEnvironment([0.9, 0.2], rng=3)
        protocol = BatchedProtocol(
            300,
            2,
            num_replicates=6,
            adoption_rule=SymmetricAdoptionRule(0.62),
            exploration_rate=0.03,
            loss_rate=0.1,
            rng=4,
        )
        result = protocol.run(env, 250)
        assert result.best_option_share().mean() > 0.6

    def test_per_round_crashes_thin_every_replicate(self):
        protocol = BatchedProtocol(
            200, 2, num_replicates=4, per_round_crash_probability=0.1, rng=5
        )
        env = BernoulliEnvironment([0.8, 0.4], rng=6)
        result = protocol.run(env, 20)
        assert np.all(result.alive_matrix[-1] < 200)
        assert np.all(np.diff(result.alive_matrix.astype(int), axis=0) <= 0)

    def test_survivors_keep_learning_after_mass_failure(self):
        env = BernoulliEnvironment([0.9, 0.2], rng=3)
        protocol = BatchedProtocol(
            400,
            2,
            num_replicates=4,
            exploration_rate=0.03,
            mass_failure_round=50,
            mass_failure_fraction=0.5,
            rng=5,
        )
        result = protocol.run(env, 300)
        late_share = result.trajectory.popularity_tensor()[-30:, :, 0].mean()
        assert late_share > 0.6

    def test_single_node_always_explores(self):
        protocol = BatchedProtocol(1, 3, num_replicates=1, exploration_rate=0.0, rng=0)
        for _ in range(5):
            protocol.run_round(np.array([1, 1, 1]))
        # A lone node has no peer; it must explore rather than deadlock,
        # without counting as a communication fallback.
        assert protocol.fallback_explorations == 0
        assert protocol.transport_stats()["sent"] == 0

    def test_all_nodes_crashed_is_handled(self):
        env = BernoulliEnvironment([0.8, 0.4], rng=6)
        protocol = BatchedProtocol(
            20, 2, num_replicates=2, per_round_crash_probability=1.0, rng=8
        )
        result = protocol.run(env, 5)
        assert np.all(protocol.alive_counts() == 0)
        assert result.rounds == 5
        # Popularity is uniform once nobody is alive.
        np.testing.assert_allclose(
            result.trajectory.popularity_tensor()[-1], [[0.5, 0.5], [0.5, 0.5]]
        )

    def test_loss_triggers_fallback_exploration(self):
        env = BernoulliEnvironment([0.8, 0.4], rng=0)
        protocol = BatchedProtocol(100, 2, num_replicates=1, loss_rate=0.5, rng=2)
        result = protocol.run(env, 30)
        assert result.fallback_explorations > 0
        assert result.transport_stats["dropped"] > 0


class TestSingleReplicateProtocol:
    """The batched engine at ``R = 1``: the single-replicate path."""

    def test_initialisation(self):
        protocol = BatchedProtocol(50, 3, num_replicates=1, rng=0)
        assert protocol.num_nodes == 50
        assert protocol.num_options == 3
        np.testing.assert_array_equal(protocol.alive_counts(), [50])
        np.testing.assert_allclose(protocol.state().popularity().sum(axis=1), 1.0)
        # Every node starts committed, like the loop engine's nodes.
        assert np.all(protocol.choices() >= 0)
        assert np.all(protocol.alive())

    def test_round_counter_advances(self):
        protocol = BatchedProtocol(20, 2, num_replicates=1, rng=0)
        protocol.run_round(np.array([1, 0]))
        protocol.run_round(np.array([0, 1]))
        assert protocol.round_number == 2

    def test_rewards_validated(self):
        protocol = BatchedProtocol(20, 2, num_replicates=1, rng=0)
        with pytest.raises(ValueError):
            protocol.run_round(np.array([1, 0, 1]))
        with pytest.raises(ValueError):
            protocol.run_round(np.array([1, 0.5]))

    def test_run_result_shapes(self):
        env = BernoulliEnvironment([0.8, 0.4], rng=1)
        protocol = BatchedProtocol(100, 2, num_replicates=1, rng=2)
        result = protocol.run(env, 40)
        assert result.rounds == 40
        assert result.num_replicates == 1
        assert result.trajectory.popularity_tensor().shape == (40, 1, 2)
        assert result.alive_matrix.shape == (40, 1)
        assert result.regret().shape == (1,)

    def test_run_rejects_mismatched_environment(self):
        env = BernoulliEnvironment([0.8, 0.4, 0.2], rng=1)
        protocol = BatchedProtocol(50, 2, num_replicates=1, rng=2)
        with pytest.raises(ValueError):
            protocol.run(env, 5)

    def test_protocol_learns_best_option(self):
        env = BernoulliEnvironment([0.9, 0.2], rng=5)
        protocol = BatchedProtocol(
            400, 2, num_replicates=1, exploration_rate=0.03, rng=6
        )
        result = protocol.run(env, 300)
        assert result.best_option_share()[0] > 0.6
        assert result.regret()[0] < 0.35
