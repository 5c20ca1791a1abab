"""Tests for the Ellison-Fudenberg continuous-reward environment and its reduction."""

import numpy as np
import pytest
from scipy import stats

from repro.environments import EllisonFudenbergEnvironment


class TestEllisonFudenbergEnvironment:
    def test_qualities_sum_to_one(self):
        env = EllisonFudenbergEnvironment.gaussian(mean_gap=0.5, rng=0)
        np.testing.assert_allclose(env.qualities.sum(), 1.0)

    def test_better_mean_gives_higher_quality(self):
        env = EllisonFudenbergEnvironment.gaussian(mean_gap=1.0, rng=0)
        assert env.qualities[0] > env.qualities[1]
        assert env.best_option == 0

    def test_rewards_are_one_hot(self):
        env = EllisonFudenbergEnvironment.gaussian(mean_gap=0.5, rng=0)
        rewards = env.sample_many(50)
        np.testing.assert_array_equal(rewards.sum(axis=1), np.ones(50))

    def test_implied_adoption_parameters_ordered(self):
        env = EllisonFudenbergEnvironment.gaussian(mean_gap=0.5, shock_scale=1.0, rng=0)
        alpha, beta = env.implied_adoption_parameters()
        assert 0.0 <= alpha < beta <= 1.0

    def test_zero_gap_gives_even_odds(self):
        env = EllisonFudenbergEnvironment.gaussian(mean_gap=0.0, rng=0)
        assert env.qualities[0] == pytest.approx(0.5, abs=0.02)

    def test_empirical_win_rate_matches_quality(self):
        env = EllisonFudenbergEnvironment.gaussian(mean_gap=0.7, rng=2)
        rewards = env.sample_many(4000)
        assert rewards[:, 0].mean() == pytest.approx(env.qualities[0], abs=0.03)

    def test_rejects_non_distribution(self):
        with pytest.raises(TypeError):
            EllisonFudenbergEnvironment(object(), stats.norm(), stats.norm())

    def test_gaussian_rejects_bad_scales(self):
        with pytest.raises(ValueError):
            EllisonFudenbergEnvironment.gaussian(reward_scale=-1.0)
