"""Tests for the finite-population dynamics (vectorised and agent-based)."""

import numpy as np
import pytest

from repro.agents import Population
from repro.core.adoption import AlwaysAdoptRule, GeneralAdoptionRule, SymmetricAdoptionRule
from repro.core.dynamics import (
    AgentBasedDynamics,
    FinitePopulationDynamics,
    simulate_finite_population,
)
from repro.core.sampling import MixtureSampling, PopularityOnlySampling
from repro.core.state import PopulationState
from repro.environments import BernoulliEnvironment, RecordedRewardSequence


class TestFinitePopulationDynamics:
    def test_initial_state_is_uniform(self):
        dynamics = FinitePopulationDynamics(100, 4, rng=0)
        np.testing.assert_allclose(dynamics.popularity(), 0.25)

    def test_step_preserves_population_size(self):
        dynamics = FinitePopulationDynamics(200, 3, rng=0)
        state = dynamics.step(np.array([1, 0, 1]))
        assert state.counts.sum() <= 200
        assert state.population_size == 200

    def test_step_advances_time(self):
        dynamics = FinitePopulationDynamics(50, 2, rng=0)
        dynamics.step(np.array([1, 0]))
        dynamics.step(np.array([0, 1]))
        assert dynamics.state.time == 2

    def test_rewards_shape_validated(self):
        dynamics = FinitePopulationDynamics(50, 2, rng=0)
        with pytest.raises(ValueError):
            dynamics.step(np.array([1, 0, 1]))

    def test_rewards_binary_validated(self):
        dynamics = FinitePopulationDynamics(50, 2, rng=0)
        with pytest.raises(ValueError):
            dynamics.step(np.array([0.5, 0.5]))

    def test_always_adopt_commits_everyone(self):
        dynamics = FinitePopulationDynamics(
            100, 3, adoption_rule=AlwaysAdoptRule(), rng=0
        )
        state = dynamics.step(np.array([0, 0, 0]))
        assert state.counts.sum() == 100

    def test_never_adopt_on_bad_signals_empties_population(self):
        dynamics = FinitePopulationDynamics(
            100, 3, adoption_rule=GeneralAdoptionRule(alpha=0.0, beta=1.0), rng=0
        )
        state = dynamics.step(np.array([0, 0, 0]))
        assert state.counts.sum() == 0
        # Uniform fallback keeps the process alive on the next step.
        np.testing.assert_allclose(state.popularity(), 1.0 / 3)

    def test_expected_adopters_match_stage_probabilities(self):
        """Monte-Carlo check of E[D^{t+1}_j] = ((1-mu)Q + mu/m) N beta^R (1-beta)^(1-R)."""
        population = 1000
        mu = 0.1
        beta = 0.7
        rewards = np.array([1, 0])
        replications = 400
        totals = np.zeros(2)
        for seed in range(replications):
            dynamics = FinitePopulationDynamics(
                population,
                2,
                adoption_rule=SymmetricAdoptionRule(beta),
                sampling_rule=MixtureSampling(mu),
                initial_state=PopulationState.from_counts([750, 250], population),
                rng=seed,
            )
            totals += dynamics.step(rewards).counts
        observed = totals / replications
        popularity = np.array([0.75, 0.25])
        consideration = (1 - mu) * popularity + mu / 2
        expected = consideration * population * np.array([beta, 1 - beta])
        np.testing.assert_allclose(observed, expected, rtol=0.05)

    def test_reset_restores_initial_state(self):
        dynamics = FinitePopulationDynamics(60, 3, rng=0)
        dynamics.step(np.array([1, 0, 0]))
        dynamics.reset()
        assert dynamics.state.time == 0
        np.testing.assert_allclose(dynamics.popularity(), 1.0 / 3)

    def test_reset_without_rng_keeps_advanced_generator(self):
        """reset() rewinds only the state: the next run draws fresh randomness."""
        env_rewards = np.ones(3, dtype=np.int8)
        dynamics = FinitePopulationDynamics(500, 3, rng=42)
        first = np.stack([dynamics.step(env_rewards).counts for _ in range(5)])
        dynamics.reset()
        second = np.stack([dynamics.step(env_rewards).counts for _ in range(5)])
        assert dynamics.state.time == 5
        assert not np.array_equal(first, second)

    def test_reset_with_original_seed_reproduces_run(self):
        """reset(rng=seed) replays the run bit-for-bit from the original seed."""
        env_rewards = np.ones(3, dtype=np.int8)
        dynamics = FinitePopulationDynamics(500, 3, rng=42)
        first = np.stack([dynamics.step(env_rewards).counts for _ in range(5)])
        dynamics.reset(rng=42)
        second = np.stack([dynamics.step(env_rewards).counts for _ in range(5)])
        np.testing.assert_array_equal(first, second)

    def test_run_records_trajectory(self):
        env = BernoulliEnvironment([0.8, 0.4], rng=1)
        dynamics = FinitePopulationDynamics(500, 2, rng=2)
        trajectory = dynamics.run(env, 50)
        assert trajectory.horizon == 50
        assert trajectory.popularity_matrix().shape == (50, 2)

    @pytest.mark.parametrize("num_options", [2, 12])
    def test_run_draws_what_step_calls_draw(self, num_options):
        # run() thins with one scalar binomial per option, step() with one
        # array call; numpy makes the same per-element draws either way.
        qualities = np.linspace(0.8, 0.3, num_options)
        trajectory = FinitePopulationDynamics(40, num_options, rng=2).run(
            BernoulliEnvironment(qualities, rng=1), 15
        )
        dynamics = FinitePopulationDynamics(40, num_options, rng=2)
        environment = BernoulliEnvironment(qualities, rng=1)
        counts = [dynamics.step(environment.sample()).counts for _ in range(15)]
        np.testing.assert_array_equal(
            [state.counts for state in trajectory.states], counts
        )

    def test_run_trajectory_records_further_steps(self):
        environment = BernoulliEnvironment([0.8, 0.4], rng=1)
        dynamics = FinitePopulationDynamics(50, 2, rng=2)
        trajectory = dynamics.run(environment, 5)
        popularity = dynamics.popularity()
        rewards = environment.sample()
        trajectory.record(popularity, rewards, dynamics.step(rewards))
        assert trajectory.horizon == 6
        assert trajectory.popularity_matrix().shape == (6, 2)
        np.testing.assert_array_equal(trajectory.reward_matrix()[-1], rewards)

    def test_a_failed_run_stops_after_its_last_completed_step(self):
        # As step() calls would leave it: the state and the generator stand
        # after the three steps the recording covers.
        rewards = BernoulliEnvironment([0.7, 0.4], rng=4).sample_many(3)
        failed_rng = np.random.default_rng(5)
        failed = FinitePopulationDynamics(15, 2, rng=failed_rng)
        with pytest.raises(RuntimeError, match="exhausted"):
            failed.run(RecordedRewardSequence(rewards), 5)
        reference_rng = np.random.default_rng(5)
        reference = FinitePopulationDynamics(15, 2, rng=reference_rng)
        for row in rewards:
            reference.step(row)
        assert failed.state.time == 3
        np.testing.assert_array_equal(failed.state.counts, reference.state.counts)
        assert failed_rng.bit_generator.state == reference_rng.bit_generator.state

    def test_run_rejects_mismatched_environment(self):
        env = BernoulliEnvironment([0.8, 0.4, 0.3], rng=1)
        dynamics = FinitePopulationDynamics(100, 2, rng=2)
        with pytest.raises(ValueError):
            dynamics.run(env, 10)

    def test_initial_state_validation(self):
        wrong_options = PopulationState.uniform(100, 3)
        with pytest.raises(ValueError):
            FinitePopulationDynamics(100, 2, initial_state=wrong_options)
        wrong_population = PopulationState.uniform(50, 2)
        with pytest.raises(ValueError):
            FinitePopulationDynamics(100, 2, initial_state=wrong_population)

    def test_default_mu_respects_theorem_cap(self):
        dynamics = FinitePopulationDynamics(
            100, 2, adoption_rule=SymmetricAdoptionRule(0.6)
        )
        delta = SymmetricAdoptionRule(0.6).delta
        assert dynamics.sampling_rule.exploration_rate == pytest.approx(delta**2 / 6)

    def test_best_option_dominates_with_clear_gap(self):
        env = BernoulliEnvironment([0.9, 0.2], rng=3)
        trajectory = simulate_finite_population(
            env, population_size=3000, horizon=300, beta=0.65, rng=4
        )
        final_share = trajectory.popularity_matrix()[-50:, 0].mean()
        assert final_share > 0.8

    def test_popularity_only_sampling_can_lose_options(self):
        """Without exploration (mu = 0) an option that empties never recovers."""
        dynamics = FinitePopulationDynamics(
            50,
            2,
            adoption_rule=AlwaysAdoptRule(),
            sampling_rule=PopularityOnlySampling(),
            initial_state=PopulationState.from_counts([50, 0]),
            rng=0,
        )
        for _ in range(20):
            state = dynamics.step(np.array([0, 1]))
        assert state.counts[1] == 0


class TestAgentBasedDynamics:
    def test_step_updates_all_agents(self):
        population = Population.homogeneous(30, 3, beta=0.6, rng=0)
        dynamics = AgentBasedDynamics(population, exploration_rate=0.1, rng=1)
        state = dynamics.step(np.array([1, 0, 1]))
        assert state.population_size == 30
        assert dynamics.time == 1

    def test_run_produces_trajectory(self):
        population = Population.homogeneous(40, 2, beta=0.6, rng=0)
        dynamics = AgentBasedDynamics(population, exploration_rate=0.05, rng=1)
        env = BernoulliEnvironment([0.8, 0.3], rng=2)
        trajectory = dynamics.run(env, 30)
        assert trajectory.horizon == 30

    def test_heterogeneous_population_supported(self):
        population = Population.with_beta_distribution(30, 2, rng=0)
        dynamics = AgentBasedDynamics(population, rng=1)
        state = dynamics.step(np.array([1, 0]))
        assert state.num_options == 2

    def test_custom_companion_selector_used(self):
        population = Population.homogeneous(20, 2, beta=0.6, rng=0)
        calls = []

        def selector(agent_id, pop, rng):
            calls.append(agent_id)
            return 0

        dynamics = AgentBasedDynamics(
            population, exploration_rate=0.0, companion_selector=selector, rng=1
        )
        dynamics.step(np.array([1, 1]))
        assert len(calls) == 20

    def test_fallback_to_uniform_when_nobody_committed(self):
        population = Population.homogeneous(20, 2, beta=0.6, seed_options=False, rng=0)
        dynamics = AgentBasedDynamics(population, exploration_rate=0.0, rng=1)
        state = dynamics.step(np.array([1, 1]))
        # With beta=0.6 and all-good signals most agents should commit.
        assert state.committed > 0

    def test_rejects_invalid_rewards(self):
        population = Population.homogeneous(10, 2, beta=0.6, rng=0)
        dynamics = AgentBasedDynamics(population, rng=1)
        with pytest.raises(ValueError):
            dynamics.step(np.array([1, 2]))

    def test_rejects_non_population(self):
        with pytest.raises(TypeError):
            AgentBasedDynamics("population")

    def test_rejects_invalid_exploration_rate(self):
        population = Population.homogeneous(10, 2, beta=0.6, rng=0)
        with pytest.raises(ValueError):
            AgentBasedDynamics(population, exploration_rate=1.5)

    def test_best_option_gains_share(self):
        population = Population.homogeneous(300, 2, beta=0.7, rng=0)
        dynamics = AgentBasedDynamics(population, exploration_rate=0.05, rng=1)
        env = BernoulliEnvironment([0.9, 0.2], rng=2)
        trajectory = dynamics.run(env, 150)
        assert trajectory.popularity_matrix()[-30:, 0].mean() > 0.7


class TestSimulateHelper:
    def test_returns_trajectory_of_requested_horizon(self):
        env = BernoulliEnvironment([0.7, 0.4], rng=0)
        trajectory = simulate_finite_population(env, 200, 40, beta=0.6, rng=1)
        assert trajectory.horizon == 40

    def test_explicit_mu_honoured(self):
        env = BernoulliEnvironment([0.7, 0.4], rng=0)
        trajectory = simulate_finite_population(env, 100, 5, beta=0.6, mu=0.5, rng=1)
        assert trajectory.horizon == 5
