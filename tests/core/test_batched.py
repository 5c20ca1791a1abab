"""Tests for the replicate-axis batched simulation engine."""

import numpy as np
import pytest

from repro.core.adoption import AlwaysAdoptRule, GeneralAdoptionRule, SymmetricAdoptionRule
from repro.core.batched import (
    BatchedDynamics,
    BatchedPopulationState,
    BatchedTrajectory,
    simulate_batched_population,
)
from repro.core.dynamics import FinitePopulationDynamics, simulate_finite_population
from repro.core.sampling import MixtureSampling, UniformSampling
from repro.core.state import PopulationState
from repro.environments import (
    BernoulliEnvironment,
    PiecewiseConstantDriftEnvironment,
    RandomWalkDriftEnvironment,
    RecordedRewardSequence,
)


class TestBatchedPopulationState:
    def test_uniform_rows_match_scalar_uniform(self):
        batched = BatchedPopulationState.uniform(4, 103, 5)
        scalar = PopulationState.uniform(103, 5)
        assert batched.num_replicates == 4
        for index in range(4):
            np.testing.assert_array_equal(batched.counts[index], scalar.counts)

    def test_rejects_1d_counts(self):
        with pytest.raises(ValueError):
            BatchedPopulationState(counts=np.array([1, 2, 3]), population_size=6)

    def test_rejects_negative_counts(self):
        with pytest.raises(ValueError):
            BatchedPopulationState(counts=np.array([[1, -1]]), population_size=10)

    def test_rejects_overfull_replicate(self):
        counts = np.array([[5, 5], [8, 5]])
        with pytest.raises(ValueError, match="replicate 1"):
            BatchedPopulationState(counts=counts, population_size=10)

    def test_popularity_uniform_fallback_per_row(self):
        counts = np.array([[0, 0, 0], [3, 0, 0]])
        state = BatchedPopulationState(counts=counts, population_size=10)
        popularity = state.popularity()
        np.testing.assert_allclose(popularity[0], 1.0 / 3)
        np.testing.assert_allclose(popularity[1], [1.0, 0.0, 0.0])

    def test_batched_accessors_match_scalar_views(self):
        counts = np.array([[4, 6, 0], [2, 2, 2], [0, 0, 9]])
        state = BatchedPopulationState(counts=counts, population_size=12, time=3)
        for index in range(3):
            view = state.replicate(index)
            assert isinstance(view, PopulationState)
            assert view.time == 3
            np.testing.assert_allclose(
                state.popularity()[index], view.popularity()
            )
            assert state.entropy()[index] == pytest.approx(view.entropy())
            assert state.min_popularity()[index] == pytest.approx(view.min_popularity())
            assert state.leader()[index] == view.leader()
            assert state.committed[index] == view.committed

    def test_replicate_index_out_of_range(self):
        state = BatchedPopulationState.uniform(2, 10, 2)
        with pytest.raises(IndexError):
            state.replicate(2)


class TestBatchedDynamics:
    def test_initial_popularity_uniform(self):
        dynamics = BatchedDynamics(8, 100, 4, rng=0)
        np.testing.assert_allclose(dynamics.popularity(), 0.25)

    def test_step_preserves_population_size_per_replicate(self):
        dynamics = BatchedDynamics(16, 200, 3, rng=0)
        state = dynamics.step(np.array([1, 0, 1]))
        assert state.counts.shape == (16, 3)
        assert np.all(state.counts.sum(axis=1) <= 200)
        assert state.population_size == 200

    def test_step_accepts_per_replicate_rewards(self):
        dynamics = BatchedDynamics(4, 100, 2, rng=0)
        rewards = np.array([[1, 0], [0, 1], [1, 1], [0, 0]])
        state = dynamics.step(rewards)
        assert state.time == 1

    def test_step_rejects_bad_shapes_and_values(self):
        dynamics = BatchedDynamics(4, 100, 2, rng=0)
        with pytest.raises(ValueError):
            dynamics.step(np.array([1, 0, 1]))
        with pytest.raises(ValueError):
            dynamics.step(np.ones((3, 2), dtype=int))
        with pytest.raises(ValueError):
            dynamics.step(np.array([0.5, 0.5]))

    def test_always_adopt_commits_everyone_in_every_replicate(self):
        dynamics = BatchedDynamics(6, 100, 3, adoption_rule=AlwaysAdoptRule(), rng=0)
        state = dynamics.step(np.zeros(3, dtype=int))
        np.testing.assert_array_equal(state.counts.sum(axis=1), 100)

    def test_never_adopt_on_bad_signals_empties_every_replicate(self):
        dynamics = BatchedDynamics(
            6, 100, 3, adoption_rule=GeneralAdoptionRule(alpha=0.0, beta=1.0), rng=0
        )
        state = dynamics.step(np.zeros(3, dtype=int))
        assert state.counts.sum() == 0
        np.testing.assert_allclose(state.popularity(), 1.0 / 3)

    def test_initial_state_tiled_from_population_state(self):
        initial = PopulationState.from_counts([70, 30], population_size=100)
        dynamics = BatchedDynamics(5, 100, 2, initial_state=initial, rng=0)
        np.testing.assert_allclose(dynamics.popularity(), [[0.7, 0.3]] * 5)

    def test_initial_state_validation(self):
        wrong_replicates = BatchedPopulationState.uniform(3, 100, 2)
        with pytest.raises(ValueError):
            BatchedDynamics(4, 100, 2, initial_state=wrong_replicates)
        wrong_options = BatchedPopulationState.uniform(4, 100, 3)
        with pytest.raises(ValueError):
            BatchedDynamics(4, 100, 2, initial_state=wrong_options)
        wrong_population = BatchedPopulationState.uniform(4, 50, 2)
        with pytest.raises(ValueError):
            BatchedDynamics(4, 100, 2, initial_state=wrong_population)

    def test_default_mu_matches_sequential_engine(self):
        batched = BatchedDynamics(2, 100, 2, adoption_rule=SymmetricAdoptionRule(0.6))
        sequential = FinitePopulationDynamics(100, 2, adoption_rule=SymmetricAdoptionRule(0.6))
        assert batched.sampling_rule == sequential.sampling_rule

    def test_run_records_batched_trajectory(self):
        env = BernoulliEnvironment([0.8, 0.4], rng=1)
        dynamics = BatchedDynamics(10, 500, 2, rng=2)
        trajectory = dynamics.run(env, 50)
        assert trajectory.horizon == 50
        assert trajectory.popularity_tensor().shape == (50, 10, 2)
        assert trajectory.reward_tensor().shape == (50, 10, 2)
        assert trajectory.final_state().num_replicates == 10

    def test_run_rejects_mismatched_environment(self):
        env = BernoulliEnvironment([0.8, 0.4, 0.3], rng=1)
        dynamics = BatchedDynamics(4, 100, 2, rng=2)
        with pytest.raises(ValueError):
            dynamics.run(env, 10)

    def test_reset_without_rng_keeps_advanced_generator(self):
        dynamics = BatchedDynamics(8, 300, 2, rng=9)
        rewards = np.ones(2, dtype=int)
        first = np.stack([dynamics.step(rewards).counts for _ in range(5)])
        dynamics.reset()
        assert dynamics.state.time == 0
        second = np.stack([dynamics.step(rewards).counts for _ in range(5)])
        assert not np.array_equal(first, second)

    def test_reset_with_original_seed_reproduces_run(self):
        dynamics = BatchedDynamics(8, 300, 2, rng=9)
        rewards = np.ones(2, dtype=int)
        first = np.stack([dynamics.step(rewards).counts for _ in range(5)])
        dynamics.reset(rng=9)
        second = np.stack([dynamics.step(rewards).counts for _ in range(5)])
        np.testing.assert_array_equal(first, second)

    def test_replicates_diverge(self):
        """Replicates share a generator but evolve independently."""
        env = BernoulliEnvironment([0.7, 0.5], rng=0)
        trajectory = simulate_batched_population(env, 1000, 20, 20, rng=1)
        final_counts = trajectory.final_state().counts
        assert len({tuple(row) for row in final_counts}) > 1


class TestExactSeedEquivalence:
    """With R=1 and identical seeds the batched engine is bit-identical."""

    def test_single_replicate_matches_sequential_run(self):
        env_sequential = BernoulliEnvironment([0.8, 0.5, 0.4], rng=7)
        env_batched = BernoulliEnvironment([0.8, 0.5, 0.4], rng=7)
        sequential = simulate_finite_population(
            env_sequential, 500, 60, beta=0.65, mu=0.05, rng=11
        )
        batched = simulate_batched_population(
            env_batched, 500, 60, 1, beta=0.65, mu=0.05, rng=11
        )
        np.testing.assert_array_equal(
            sequential.reward_matrix(), batched.reward_tensor()[:, 0, :]
        )
        np.testing.assert_array_equal(
            sequential.popularity_matrix(), batched.popularity_tensor()[:, 0, :]
        )
        for state_seq, state_batched in zip(sequential.states, batched.states):
            np.testing.assert_array_equal(state_seq.counts, state_batched.counts[0])

    def test_single_replicate_step_stream_matches(self):
        sequential = FinitePopulationDynamics(
            300,
            4,
            adoption_rule=SymmetricAdoptionRule(0.7),
            sampling_rule=MixtureSampling(0.1),
            rng=123,
        )
        batched = BatchedDynamics(
            1,
            300,
            4,
            adoption_rule=SymmetricAdoptionRule(0.7),
            sampling_rule=MixtureSampling(0.1),
            rng=123,
        )
        rng = np.random.default_rng(0)
        for _ in range(25):
            rewards = rng.integers(0, 2, size=4)
            state_seq = sequential.step(rewards)
            state_batched = batched.step(rewards[None, :])
            np.testing.assert_array_equal(state_seq.counts, state_batched.counts[0])

    def test_replicate_view_equals_sequential_trajectory(self):
        env_sequential = BernoulliEnvironment([0.9, 0.3], rng=5)
        env_batched = BernoulliEnvironment([0.9, 0.3], rng=5)
        sequential = simulate_finite_population(env_sequential, 200, 30, rng=6)
        batched = simulate_batched_population(env_batched, 200, 30, 1, rng=6)
        view = batched.replicate(0)
        assert view.horizon == sequential.horizon
        np.testing.assert_array_equal(
            view.popularity_matrix(), sequential.popularity_matrix()
        )
        np.testing.assert_array_equal(view.reward_matrix(), sequential.reward_matrix())


class TestBatchedTrajectoryMetrics:
    def _trajectory(self):
        env = BernoulliEnvironment([0.85, 0.45], rng=0)
        return simulate_batched_population(env, 800, 80, 12, beta=0.65, mu=0.05, rng=1)

    def test_expected_regret_matches_per_replicate_computation(self):
        from repro.core.regret import expected_regret

        trajectory = self._trajectory()
        batched_regret = trajectory.expected_regret([0.85, 0.45])
        assert batched_regret.shape == (12,)
        for index in range(12):
            view = trajectory.replicate(index)
            assert batched_regret[index] == pytest.approx(
                expected_regret(view.popularity_matrix(), [0.85, 0.45])
            )

    def test_empirical_regret_matches_per_replicate_computation(self):
        from repro.core.regret import empirical_regret

        trajectory = self._trajectory()
        batched_regret = trajectory.empirical_regret(0.85)
        for index in range(12):
            view = trajectory.replicate(index)
            assert batched_regret[index] == pytest.approx(
                empirical_regret(view.popularity_matrix(), view.reward_matrix(), 0.85)
            )

    def test_best_option_share_matches_per_replicate_computation(self):
        from repro.core.regret import best_option_share

        trajectory = self._trajectory()
        shares = trajectory.best_option_share(0)
        for index in range(12):
            view = trajectory.replicate(index)
            assert shares[index] == pytest.approx(
                best_option_share(view.popularity_matrix(), 0)
            )

    def test_entropy_series_shape(self):
        trajectory = self._trajectory()
        assert trajectory.entropy_series().shape == (80, 12)

    def test_metrics_require_recorded_steps(self):
        empty = BatchedTrajectory(initial_state=BatchedPopulationState.uniform(3, 10, 2))
        with pytest.raises(ValueError):
            empty.expected_regret([0.5, 0.5])
        with pytest.raises(ValueError):
            empty.empirical_regret(0.5)
        with pytest.raises(ValueError):
            empty.best_option_share(0)
        assert empty.popularity_tensor().shape == (0, 3, 2)
        assert empty.entropy_series().shape == (0, 3)

    def test_best_option_share_validates_index(self):
        trajectory = self._trajectory()
        with pytest.raises(ValueError):
            trajectory.best_option_share(5)

    def test_expected_regret_validates_qualities(self):
        """Same input guard as the scalar expected_regret."""
        trajectory = self._trajectory()
        with pytest.raises(ValueError):
            trajectory.expected_regret([1.5, 0.4])


class TestEnvironmentSampleBatch:
    def test_bernoulli_batch_shape_and_frequencies(self):
        env = BernoulliEnvironment([0.9, 0.1], rng=0)
        rewards = env.sample_batch(4000)
        assert rewards.shape == (4000, 2)
        assert env.time == 1
        assert rewards[:, 0].mean() == pytest.approx(0.9, abs=0.03)
        assert rewards[:, 1].mean() == pytest.approx(0.1, abs=0.03)

    def test_bernoulli_batch_of_one_matches_sample_stream(self):
        env_scalar = BernoulliEnvironment([0.6, 0.4, 0.7], rng=13)
        env_batch = BernoulliEnvironment([0.6, 0.4, 0.7], rng=13)
        for _ in range(20):
            np.testing.assert_array_equal(
                env_scalar.sample(), env_batch.sample_batch(1)[0]
            )

    def test_piecewise_drift_batch_uses_current_phase(self):
        env = PiecewiseConstantDriftEnvironment(
            phases=[[1.0, 0.0], [0.0, 1.0]], phase_length=2, rng=0
        )
        first = env.sample_batch(50)
        np.testing.assert_array_equal(first, np.tile([1, 0], (50, 1)))
        env.sample_batch(50)
        third = env.sample_batch(50)
        np.testing.assert_array_equal(third, np.tile([0, 1], (50, 1)))

    def test_random_walk_batch_advances_walk_once(self):
        env = RandomWalkDriftEnvironment([0.5, 0.5], step_scale=0.05, rng=0)
        before = env.qualities
        env.sample_batch(100)
        after = env.qualities
        assert not np.allclose(before, after)
        assert env.time == 1

    def test_recorded_sequence_batch_broadcasts_row(self):
        matrix = np.array([[1, 0], [0, 1], [1, 1]], dtype=np.int8)
        env = RecordedRewardSequence(matrix)
        first = env.sample_batch(7)
        np.testing.assert_array_equal(first, np.tile([1, 0], (7, 1)))
        second = env.sample_batch(7)
        np.testing.assert_array_equal(second, np.tile([0, 1], (7, 1)))

    def test_sample_batch_rejects_bad_count(self):
        env = BernoulliEnvironment([0.5], rng=0)
        with pytest.raises(ValueError):
            env.sample_batch(0)


class TestSamplingBatch:
    def test_mixture_batch_matches_rowwise_scalar(self):
        rule = MixtureSampling(0.2)
        rng = np.random.default_rng(0)
        raw = rng.random((6, 4))
        popularities = raw / raw.sum(axis=1, keepdims=True)
        batch = rule.consideration_probabilities_batch(popularities)
        for index in range(6):
            np.testing.assert_array_equal(
                batch[index], rule.consideration_probabilities(popularities[index])
            )

    def test_uniform_sampling_batch_is_uniform(self):
        rule = UniformSampling()
        popularities = np.array([[0.9, 0.1], [0.2, 0.8]])
        np.testing.assert_allclose(
            rule.consideration_probabilities_batch(popularities), 0.5
        )

    def test_batch_rejects_1d_input(self):
        rule = MixtureSampling(0.2)
        with pytest.raises(ValueError):
            rule.consideration_probabilities_batch(np.array([0.5, 0.5]))

    def test_batch_rejects_non_distribution_rows(self):
        rule = MixtureSampling(0.2)
        with pytest.raises(ValueError):
            rule.consideration_probabilities_batch(np.array([[0.9, 0.5]]))

    def test_base_class_default_applies_scalar_rule_rowwise(self):
        from repro.core.sampling import SamplingRule

        class ReverseSampling(SamplingRule):
            """Toy rule: consider options with reversed popularity."""

            @property
            def exploration_rate(self):
                return 0.0

            def consideration_probabilities(self, popularity):
                return np.asarray(popularity)[::-1].copy()

        rule = ReverseSampling()
        popularities = np.array([[0.7, 0.3], [0.1, 0.9]])
        batch = rule.consideration_probabilities_batch(popularities)
        np.testing.assert_allclose(batch, [[0.3, 0.7], [0.9, 0.1]])
        with pytest.raises(ValueError):
            rule.consideration_probabilities_batch(np.array([0.5, 0.5]))


class TestRowwiseAdoptionRule:
    def test_symmetric_classmethod(self):
        from repro.core.adoption import RowwiseAdoptionRule

        rule = RowwiseAdoptionRule.symmetric(np.array([0.6, 0.8]))
        np.testing.assert_allclose(rule.alpha, [0.4, 0.2])
        np.testing.assert_allclose(rule.beta, [0.6, 0.8])
        assert rule.num_rows == 2
        assert rule.is_informative()

    def test_symmetric_rejects_below_half(self):
        from repro.core.adoption import RowwiseAdoptionRule

        with pytest.raises(ValueError):
            RowwiseAdoptionRule.symmetric(np.array([0.6, 0.4]))

    def test_rejects_alpha_above_beta(self):
        from repro.core.adoption import RowwiseAdoptionRule

        with pytest.raises(ValueError, match="row 1"):
            RowwiseAdoptionRule(np.array([0.2, 0.9]), np.array([0.6, 0.7]))

    def test_rejects_out_of_range(self):
        from repro.core.adoption import RowwiseAdoptionRule

        with pytest.raises(ValueError):
            RowwiseAdoptionRule(np.array([-0.1]), np.array([0.5]))
        with pytest.raises(ValueError):
            RowwiseAdoptionRule(np.array([0.5]), np.array([1.1]))

    def test_delta_per_row_with_infinite_rows(self):
        from repro.core.adoption import RowwiseAdoptionRule

        rule = RowwiseAdoptionRule(np.array([0.0, 0.3]), np.array([0.5, 0.6]))
        delta = rule.delta
        assert np.isinf(delta[0])
        assert delta[1] == pytest.approx(np.log(2.0))

    def test_shared_signal_vector_broadcasts(self):
        from repro.core.adoption import RowwiseAdoptionRule

        rule = RowwiseAdoptionRule(np.array([0.3, 0.2]), np.array([0.6, 0.9]))
        probabilities = rule.adopt_probabilities(np.array([1, 0]))
        np.testing.assert_allclose(probabilities, [[0.6, 0.3], [0.9, 0.2]])

    def test_row_view_and_scalar_signal(self):
        from repro.core.adoption import RowwiseAdoptionRule

        rule = RowwiseAdoptionRule(np.array([0.3, 0.2]), np.array([0.6, 0.9]))
        scalar = rule.row(1)
        assert isinstance(scalar, GeneralAdoptionRule)
        assert scalar.alpha == pytest.approx(0.2)
        np.testing.assert_allclose(rule.adopt_probability(1), [0.6, 0.9])
        with pytest.raises(IndexError):
            rule.row(2)
        with pytest.raises(ValueError):
            rule.adopt_probability(2)

    def test_equality_and_scalar_rules_never_equal(self):
        from repro.core.adoption import RowwiseAdoptionRule

        rowwise = RowwiseAdoptionRule.symmetric(np.array([0.6, 0.6]))
        assert rowwise == RowwiseAdoptionRule.symmetric(np.array([0.6, 0.6]))
        assert rowwise != RowwiseAdoptionRule.symmetric(np.array([0.6, 0.7]))
        assert rowwise != SymmetricAdoptionRule(0.6)
        assert SymmetricAdoptionRule(0.6) != rowwise


class TestPerRowPopulationSizes:
    def test_stack_heterogeneous_states(self):
        states = [PopulationState.uniform(60, 3), PopulationState.uniform(90, 3)]
        batched = BatchedPopulationState.stack(states)
        assert batched.num_replicates == 2
        np.testing.assert_array_equal(batched.population_sizes, [60, 90])
        np.testing.assert_array_equal(batched.counts[0], states[0].counts)
        np.testing.assert_array_equal(batched.counts[1], states[1].counts)

    def test_stack_collapses_equal_sizes_to_int(self):
        states = [PopulationState.uniform(60, 3), PopulationState.uniform(60, 3)]
        batched = BatchedPopulationState.stack(states)
        assert isinstance(batched.population_size, int)
        np.testing.assert_array_equal(batched.population_sizes, [60, 60])

    def test_stack_rejects_mixed_options_or_times(self):
        with pytest.raises(ValueError):
            BatchedPopulationState.stack(
                [PopulationState.uniform(60, 3), PopulationState.uniform(60, 2)]
            )
        with pytest.raises(ValueError):
            BatchedPopulationState.stack(
                [PopulationState.uniform(60, 3), PopulationState.uniform(60, 3, time=1)]
            )
        with pytest.raises(ValueError):
            BatchedPopulationState.stack([])

    def test_per_row_bound_enforced(self):
        with pytest.raises(ValueError, match="replicate 1"):
            BatchedPopulationState(
                counts=np.array([[10, 10], [40, 40]]),
                population_size=np.array([50, 60]),
            )

    def test_replicate_view_carries_its_own_size(self):
        batched = BatchedPopulationState(
            counts=np.array([[10, 10], [40, 40]]),
            population_size=np.array([50, 100]),
        )
        assert batched.replicate(0).population_size == 50
        assert batched.replicate(1).population_size == 100

    def test_dynamics_defaults_to_per_row_uniform_start(self):
        dynamics = BatchedDynamics(2, np.array([60, 90]), 3, rng=0)
        np.testing.assert_array_equal(
            dynamics.state.counts[0], PopulationState.uniform(60, 3).counts
        )
        np.testing.assert_array_equal(
            dynamics.state.counts[1], PopulationState.uniform(90, 3).counts
        )

    def test_dynamics_step_respects_per_row_sizes(self):
        sizes = np.array([40, 4000])
        dynamics = BatchedDynamics(2, sizes, 2, rng=1)
        state = dynamics.step(np.array([[1, 0], [1, 0]]))
        assert state.counts[0].sum() <= 40
        assert state.counts[1].sum() <= 4000
        # The large row cannot have been truncated to the small row's size.
        assert state.counts[1].sum() > 40

    def test_simulate_helper_accepts_arrays(self):
        env = BernoulliEnvironment([0.8, 0.5], rng=0)
        trajectory = simulate_batched_population(
            env, np.array([50, 80, 110]), 5, 3,
            beta=np.array([0.6, 0.7, 0.8]), mu=np.array([0.05, 0.1, 0.2]),
            alpha=np.array([0.3, 0.2, 0.1]), rng=2,
        )
        final = trajectory.final_state()
        np.testing.assert_array_equal(final.population_sizes, [50, 80, 110])
        assert np.all(final.counts.sum(axis=1) <= [50, 80, 110])


class TestPerRowTrajectoryMetrics:
    def _trajectory(self):
        generator = np.random.default_rng(3)
        from repro.environments import RowwiseBernoulliEnvironment

        qualities = np.array([[0.9, 0.2], [0.3, 0.8]])
        env = RowwiseBernoulliEnvironment(qualities, rng=generator)
        trajectory = simulate_batched_population(
            env, 200, 12, 2, beta=0.65, mu=0.1, rng=generator
        )
        return trajectory, qualities

    def test_expected_regret_per_row_qualities(self):
        trajectory, qualities = self._trajectory()
        per_row = trajectory.expected_regret(qualities)
        assert per_row.shape == (2,)
        # Row r's regret against its own qualities equals the shared-vector
        # computation restricted to that row.
        for row in range(2):
            shared = trajectory.expected_regret(qualities[row])
            assert per_row[row] == pytest.approx(shared[row])

    def test_expected_regret_rejects_bad_shapes(self):
        trajectory, _ = self._trajectory()
        with pytest.raises(ValueError):
            trajectory.expected_regret(np.full((3, 2), 0.5))
        with pytest.raises(ValueError):
            trajectory.expected_regret(np.full((2, 2), 1.5))

    def test_best_option_share_per_row_indices(self):
        trajectory, qualities = self._trajectory()
        per_row = trajectory.best_option_share(qualities.argmax(axis=1))
        assert per_row.shape == (2,)
        assert per_row[0] == pytest.approx(trajectory.best_option_share(0)[0])
        assert per_row[1] == pytest.approx(trajectory.best_option_share(1)[1])

    def test_best_option_share_rejects_bad_indices(self):
        trajectory, _ = self._trajectory()
        with pytest.raises(ValueError):
            trajectory.best_option_share(np.array([0, 5]))
        with pytest.raises(ValueError):
            trajectory.best_option_share(np.array([0, 1, 0]))
        with pytest.raises(ValueError):
            trajectory.best_option_share(np.array([0.5, 1.0]))

    def test_empirical_regret_per_row_best_quality(self):
        trajectory, qualities = self._trajectory()
        per_row = trajectory.empirical_regret(qualities.max(axis=1))
        shared = trajectory.empirical_regret(float(qualities[0].max()))
        assert per_row.shape == (2,)
        assert per_row[0] == pytest.approx(shared[0])
        with pytest.raises(ValueError):
            trajectory.empirical_regret(np.array([0.9, 0.8, 0.7]))


class TestPerRowNaNRejection:
    """Per-row parameter paths must reject NaN as loudly as the scalar paths."""

    def test_rowwise_rule_rejects_nan(self):
        from repro.core.adoption import RowwiseAdoptionRule

        with pytest.raises(ValueError, match="finite"):
            RowwiseAdoptionRule(np.array([np.nan]), np.array([0.6]))
        with pytest.raises(ValueError, match="finite"):
            RowwiseAdoptionRule(np.array([0.3]), np.array([np.nan]))

    def test_rowwise_mu_rejects_nan(self):
        with pytest.raises(ValueError, match="finite"):
            MixtureSampling(np.array([np.nan, 0.1]))

    def test_rowwise_environment_rejects_nan(self):
        from repro.environments import RowwiseBernoulliEnvironment

        with pytest.raises(ValueError, match="finite"):
            RowwiseBernoulliEnvironment(np.array([[0.5, np.nan]]))

    def test_per_row_regret_rejects_nan_qualities(self):
        env = BernoulliEnvironment([0.8, 0.5], rng=0)
        trajectory = simulate_batched_population(env, 100, 5, 2, rng=1)
        with pytest.raises(ValueError, match="finite"):
            trajectory.expected_regret(np.array([[0.8, np.nan], [0.8, 0.5]]))
