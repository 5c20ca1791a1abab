"""Tests for the executable theory bounds."""

import math

import pytest

from repro.core.theory import (
    BETA_UPPER_LIMIT,
    TheoryBounds,
    beta_from_delta,
    delta_from_beta,
    optimal_beta,
)


class TestDeltaConversions:
    def test_delta_formula(self):
        assert delta_from_beta(0.6) == pytest.approx(math.log(1.5))

    def test_beta_upper_limit_gives_delta_one(self):
        assert delta_from_beta(BETA_UPPER_LIMIT) == pytest.approx(1.0)

    def test_round_trip(self):
        for beta in (0.55, 0.6, 0.7):
            assert beta_from_delta(delta_from_beta(beta)) == pytest.approx(beta)

    def test_rejects_beta_at_or_below_half(self):
        with pytest.raises(ValueError):
            delta_from_beta(0.5)

    def test_rejects_beta_one(self):
        with pytest.raises(ValueError):
            delta_from_beta(1.0)

    def test_beta_from_delta_rejects_non_positive(self):
        with pytest.raises(ValueError):
            beta_from_delta(0.0)


class TestOptimalBeta:
    def test_decreases_with_horizon(self):
        short = optimal_beta(100, 10)
        long = optimal_beta(100_000, 10)
        assert long < short

    def test_clipped_to_admissible_range(self):
        beta = optimal_beta(2, 1000)
        assert 0.5 < beta <= BETA_UPPER_LIMIT

    def test_single_option_degenerate(self):
        assert optimal_beta(100, 1) > 0.5


class TestTheoryBounds:
    def make(self, **overrides) -> TheoryBounds:
        defaults = dict(num_options=10, beta=0.6, mu=0.02, population_size=100_000)
        defaults.update(overrides)
        return TheoryBounds(**defaults)

    def test_strict_rejects_beta_out_of_range(self):
        with pytest.raises(ValueError):
            TheoryBounds(num_options=5, beta=0.9, mu=0.01)

    def test_strict_rejects_mu_too_large(self):
        with pytest.raises(ValueError):
            TheoryBounds(num_options=5, beta=0.6, mu=0.2)

    def test_non_strict_allows_out_of_range(self):
        bounds = TheoryBounds(num_options=5, beta=0.9, mu=0.5, strict=False)
        assert bounds.delta > 1.0

    def test_minimum_horizon_formula(self):
        bounds = self.make()
        assert bounds.minimum_horizon() == pytest.approx(
            math.log(10) / bounds.delta**2
        )

    def test_infinite_regret_bound_headline(self):
        bounds = self.make()
        assert bounds.infinite_regret_bound() == pytest.approx(3 * bounds.delta)

    def test_infinite_regret_bound_with_horizon(self):
        bounds = self.make()
        horizon = 500
        expected = math.log(10) / (bounds.delta * horizon) + 2 * bounds.delta
        assert bounds.infinite_regret_bound(horizon) == pytest.approx(expected)

    def test_finite_regret_bound_is_six_delta(self):
        bounds = self.make()
        assert bounds.finite_regret_bound() == pytest.approx(6 * bounds.delta)

    def test_best_option_share_bound(self):
        bounds = self.make()
        assert bounds.best_option_share_bound(0.5) == pytest.approx(
            max(0.0, 1 - 3 * bounds.delta / 0.5)
        )
        assert bounds.best_option_share_bound(1e-9) == 0.0
        assert bounds.best_option_share_bound(-1.0) == 0.0

    def test_nonuniform_minimum_horizon(self):
        bounds = self.make()
        zeta = bounds.occupancy_floor()
        assert bounds.nonuniform_minimum_horizon(zeta) == pytest.approx(
            math.log(1 / zeta) / bounds.delta**2
        )
        assert bounds.nonuniform_minimum_horizon(zeta) == pytest.approx(
            bounds.epoch_length()
        )

    def test_concentration_formulas(self):
        bounds = self.make()
        n = bounds.population_size
        m = bounds.num_options
        expected_prime = math.sqrt(30 * m * math.log(n) / (bounds.mu * n))
        expected_double = math.sqrt(
            60 * m * math.log(n) / ((1 - bounds.beta) * bounds.mu * n)
        )
        assert bounds.sampling_concentration() == pytest.approx(expected_prime)
        assert bounds.adoption_concentration() == pytest.approx(expected_double)
        assert bounds.single_step_closeness() == pytest.approx(1 + 6 * expected_double)
        assert bounds.sampling_concentration() < bounds.adoption_concentration()

    def test_occupancy_floor(self):
        bounds = self.make()
        assert bounds.occupancy_floor() == pytest.approx(
            bounds.mu * (1 - bounds.beta) / (4 * bounds.num_options)
        )

    def test_coupling_factor_grows_like_five_to_t(self):
        bounds = self.make()
        dpp = bounds.adoption_concentration()
        assert bounds.coupling_factor(1) == pytest.approx(1 + 5 * dpp)
        assert bounds.coupling_factor(3) == pytest.approx(1 + 125 * dpp)

    def test_coupling_failure_probability_monotone_in_time(self):
        bounds = self.make()
        assert bounds.coupling_failure_probability(
            1
        ) < bounds.coupling_failure_probability(10)

    def test_coupling_valid_horizon_positive_for_large_n(self):
        bounds = self.make(population_size=10**9)
        assert bounds.coupling_valid_horizon() >= 1

    def test_coupling_valid_horizon_zero_for_tiny_n(self):
        bounds = TheoryBounds(
            num_options=10, beta=0.6, mu=0.02, population_size=50, strict=False
        )
        assert bounds.coupling_valid_horizon() == 0

    def test_maximum_horizon_scales_with_population(self):
        small = self.make(population_size=1000).maximum_horizon()
        large = self.make(population_size=10_000).maximum_horizon()
        assert large > small

    def test_population_size_condition_keys(self):
        report = self.make().population_size_condition()
        assert {
            "condition1_lhs",
            "condition1_rhs",
            "condition1_holds",
            "condition2_lhs",
            "condition2_rhs",
            "condition2_holds",
        } <= set(report)

    def test_population_requirements_error_without_n(self):
        bounds = TheoryBounds(num_options=5, beta=0.6, mu=0.02)
        with pytest.raises(ValueError):
            bounds.adoption_concentration()

    def test_summary_contains_population_fields_when_available(self):
        summary = self.make().summary()
        assert "delta_double_prime" in summary
        assert "N" in summary

    def test_summary_without_population(self):
        summary = TheoryBounds(num_options=5, beta=0.6, mu=0.02).summary()
        assert "delta_double_prime" not in summary
        assert summary["m"] == 5
