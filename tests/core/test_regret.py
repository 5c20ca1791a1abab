"""Tests for regret accounting."""

import numpy as np
import pytest

from repro.core.regret import (
    RegretAccumulator,
    best_option_share,
    empirical_regret,
    expected_regret,
    expected_step_rewards,
    step_rewards,
)


class TestStepRewards:
    def test_inner_product_per_step(self):
        popularities = np.array([[0.5, 0.5], [1.0, 0.0]])
        rewards = np.array([[1, 0], [0, 1]])
        np.testing.assert_allclose(step_rewards(popularities, rewards), [0.5, 0.0])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            step_rewards(np.zeros((3, 2)), np.zeros((2, 2)))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            step_rewards(np.zeros((0, 2)), np.zeros((0, 2)))


class TestEmpiricalRegret:
    def test_perfect_play_zero_regret(self):
        popularities = np.array([[1.0, 0.0]] * 10)
        rewards = np.array([[1, 0]] * 10)
        assert empirical_regret(popularities, rewards, best_quality=1.0) == pytest.approx(0.0)

    def test_worst_play_full_regret(self):
        popularities = np.array([[0.0, 1.0]] * 10)
        rewards = np.array([[1, 0]] * 10)
        assert empirical_regret(popularities, rewards, best_quality=1.0) == pytest.approx(1.0)

    def test_uniform_play(self):
        popularities = np.array([[0.5, 0.5]] * 4)
        rewards = np.array([[1, 0]] * 4)
        assert empirical_regret(popularities, rewards, best_quality=1.0) == pytest.approx(0.5)


class TestExpectedRegret:
    def test_matches_hand_computation(self):
        popularities = np.array([[0.5, 0.5], [0.8, 0.2]])
        qualities = [0.9, 0.4]
        expected_reward = np.mean([0.5 * 0.9 + 0.5 * 0.4, 0.8 * 0.9 + 0.2 * 0.4])
        assert expected_regret(popularities, qualities) == pytest.approx(0.9 - expected_reward)

    def test_expected_step_rewards_vector(self):
        popularities = np.array([[1.0, 0.0], [0.0, 1.0]])
        np.testing.assert_allclose(
            expected_step_rewards(popularities, [0.9, 0.4]), [0.9, 0.4]
        )

    def test_non_negative_for_any_distribution(self):
        rng = np.random.default_rng(0)
        popularities = rng.dirichlet(np.ones(4), size=50)
        qualities = [0.8, 0.6, 0.4, 0.2]
        assert expected_regret(popularities, qualities) >= 0.0

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            expected_step_rewards(np.zeros((5, 3)), [0.5, 0.5])


class TestBestOptionShare:
    def test_average_of_column(self):
        popularities = np.array([[0.2, 0.8], [0.4, 0.6]])
        assert best_option_share(popularities, 0) == pytest.approx(0.3)
        assert best_option_share(popularities, 1) == pytest.approx(0.7)

    def test_out_of_range_option_rejected(self):
        with pytest.raises(ValueError):
            best_option_share(np.array([[0.5, 0.5]]), 2)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            best_option_share(np.zeros((0, 2)), 0)


class TestRegretAccumulator:
    def test_online_matches_batch(self):
        rng = np.random.default_rng(0)
        popularities = rng.dirichlet(np.ones(3), size=30)
        rewards = rng.integers(0, 2, size=(30, 3))
        accumulator = RegretAccumulator(best_quality=0.8)
        for popularity, reward in zip(popularities, rewards):
            accumulator.update(popularity, reward)
        assert accumulator.regret() == pytest.approx(
            empirical_regret(popularities, rewards, best_quality=0.8)
        )
        assert accumulator.steps == 30

    def test_regret_series_prefix_averages(self):
        accumulator = RegretAccumulator(best_quality=1.0)
        accumulator.update([1.0, 0.0], [1, 0])  # reward 1
        accumulator.update([1.0, 0.0], [0, 0])  # reward 0
        series = accumulator.regret_series()
        np.testing.assert_allclose(series, [0.0, 0.5])

    def test_empty_accumulator_raises(self):
        accumulator = RegretAccumulator(best_quality=0.5)
        with pytest.raises(ValueError):
            accumulator.average_reward()
        assert accumulator.regret_series().size == 0

    def test_invalid_best_quality_rejected(self):
        with pytest.raises(ValueError):
            RegretAccumulator(best_quality=1.5)

    def test_update_validates_shapes(self):
        accumulator = RegretAccumulator(best_quality=0.5)
        with pytest.raises(ValueError):
            accumulator.update([0.5, 0.5], [1, 0, 1])
