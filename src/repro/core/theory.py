"""Executable versions of every constant and bound in the paper's theorems.

Keeping all of the paper's expressions in one module means tests and
benchmarks compare simulation output against *exactly* the quantities stated
in the paper rather than re-derived (and possibly mistyped) copies.

Covered statements
------------------
* ``delta = ln(beta / (1 - beta))`` and the admissible range
  ``1/2 < beta <= e/(e+1)`` (so ``0 < delta <= 1``);
* the exploration constraint ``6 * mu <= delta^2`` (Theorems 4.3/4.4);
* Theorem 4.3 — ``Regret_inf(T) <= ln(m)/(delta*T) + 2*delta`` for any ``T``
  and hence ``<= 3*delta`` for ``T >= ln(m)/delta^2``; best-option share
  ``>= 1 - 3*delta/(eta_1 - eta_2)``;
* Theorem 4.6 — the non-uniform-start variant with ``ln(1/zeta)`` in place of
  ``ln m``;
* Proposition 4.1 — ``delta' = sqrt(30 m ln N / (mu N))`` concentration of the
  sampling stage;
* Propositions 4.2/4.3 — ``delta'' = sqrt(60 m ln N / ((1-beta) mu N))``
  concentration of the adoption stage and the combined ``1 + 6 delta''``
  closeness, plus the occupancy floor ``Q^t_j >= mu (1-beta) / (4m)``;
* Lemma 4.5 — the coupling factor ``1 + delta_t`` with ``delta_t = 5^t delta''``
  and failure probability ``6 t m / N^10``;
* Theorem 4.4 — the finite-population regret bound ``6*delta``, the epoch
  length ``ln(4m/(mu(1-beta)))/delta^2`` and the two N-threshold conditions;
* the conclusion's remark that tuning ``beta`` recovers the classic
  ``O(sqrt(ln m / T))`` MWU regret (:func:`optimal_beta`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.utils.validation import check_in_range, check_positive_int, check_probability

#: Upper end of the admissible beta range, e / (e + 1) ≈ 0.7311.
BETA_UPPER_LIMIT = math.e / (math.e + 1.0)


def delta_from_beta(beta: float) -> float:
    """The paper's rate parameter ``delta = ln(beta / (1 - beta))``."""
    beta = check_probability(beta, "beta")
    if beta <= 0.5:
        raise ValueError(f"delta is only positive for beta > 1/2, got beta={beta}")
    if beta >= 1.0:
        raise ValueError("beta must be strictly less than 1 for delta to be finite")
    return math.log(beta / (1.0 - beta))


def beta_from_delta(delta: float) -> float:
    """Inverse of :func:`delta_from_beta`: ``beta = e^delta / (1 + e^delta)``."""
    if delta <= 0:
        raise ValueError(f"delta must be positive, got {delta}")
    return math.exp(delta) / (1.0 + math.exp(delta))


def optimal_beta(horizon: int, num_options: int) -> float:
    """The ``beta`` minimising the Theorem 4.3 bound ``ln(m)/(delta T) + 2 delta``.

    Minimising over ``delta`` gives ``delta* = sqrt(ln(m) / (2T))`` and hence a
    regret bound of ``2*sqrt(2 ln(m)/T) ~ O(sqrt(ln m / T))`` — the classic MWU
    rate the conclusion says an algorithm designer could target by optimising
    ``beta``.  The returned ``beta`` is clipped into the admissible range
    ``(1/2, e/(e+1)]``.
    """
    horizon = check_positive_int(horizon, "horizon")
    num_options = check_positive_int(num_options, "num_options")
    if num_options == 1:
        return 0.5 + 1e-6
    delta_star = math.sqrt(math.log(num_options) / (2.0 * horizon))
    delta_star = min(max(delta_star, 1e-6), 1.0)
    beta = beta_from_delta(delta_star)
    return min(beta, BETA_UPPER_LIMIT)


@dataclass(frozen=True)
class TheoryBounds:
    """All paper bounds for a given parameterisation of the dynamics.

    Parameters
    ----------
    num_options:
        Number of options ``m``.
    beta:
        Adoption probability on a good signal, with ``alpha = 1 - beta``.
    mu:
        Exploration rate of the sampling stage.
    population_size:
        Group size ``N`` (optional; only needed for the finite-population
        quantities).
    strict:
        If true (default), reject parameters outside the theorem ranges
        (``1/2 < beta <= e/(e+1)``, ``6 mu <= delta^2``).  Set to false to
        compute the formulas for out-of-range parameters in ablation studies.
    """

    num_options: int
    beta: float
    mu: float
    population_size: int | None = None
    strict: bool = True

    def __post_init__(self) -> None:
        check_positive_int(self.num_options, "num_options")
        check_probability(self.beta, "beta")
        check_probability(self.mu, "mu")
        if self.population_size is not None:
            check_positive_int(self.population_size, "population_size")
        if self.strict:
            check_in_range(
                self.beta,
                "beta",
                0.5,
                BETA_UPPER_LIMIT,
                inclusive_low=False,
                inclusive_high=True,
            )
            if 6.0 * self.mu > self.delta**2 + 1e-12:
                raise ValueError(
                    f"theorem range requires 6*mu <= delta^2; got mu={self.mu}, "
                    f"delta^2={self.delta ** 2:.6f}"
                )

    # ------------------------------------------------------------ parameters
    @property
    def delta(self) -> float:
        """``delta = ln(beta / (1 - beta))``."""
        return delta_from_beta(self.beta)

    @property
    def alpha(self) -> float:
        """``alpha = 1 - beta`` under the exposition convention."""
        return 1.0 - self.beta

    # --------------------------------------------------- Theorem 4.3 and 4.6
    def minimum_horizon(self) -> float:
        """``T >= ln(m) / delta^2`` required by Theorem 4.3."""
        return math.log(self.num_options) / self.delta**2

    def infinite_regret_bound(self, horizon: int | None = None) -> float:
        """Theorem 4.3 regret bound for the infinite-population dynamics.

        With an explicit ``horizon`` the sharper intermediate form
        ``ln(m)/(delta*T) + 2*delta`` is returned; without it the headline
        ``3*delta`` (valid for ``T >= ln(m)/delta^2``) is returned.
        """
        if horizon is None:
            return 3.0 * self.delta
        horizon = check_positive_int(horizon, "horizon")
        return math.log(self.num_options) / (self.delta * horizon) + 2.0 * self.delta

    def best_option_share_bound(self, quality_gap: float) -> float:
        """Theorem 4.3 part 2: lower bound on the best option's average share.

        ``avg_t E[P^{t-1}_1] >= 1 - 3*delta / (eta_1 - eta_2)``; clipped at 0
        because the bound is vacuous when the gap is small.
        """
        if quality_gap <= 0:
            return 0.0
        return max(0.0, 1.0 - 3.0 * self.delta / quality_gap)

    def nonuniform_minimum_horizon(self, zeta: float) -> float:
        """Theorem 4.6: horizon ``ln(1/zeta)/delta^2`` for a start with ``P^0_j >= zeta``."""
        zeta = check_in_range(zeta, "zeta", 0.0, 1.0, inclusive_low=False)
        return math.log(1.0 / zeta) / self.delta**2

    # -------------------------------------------------- Propositions 4.1-4.3
    def sampling_concentration(self) -> float:
        """Proposition 4.1's ``delta' = sqrt(30 m ln N / (mu N))``."""
        self._require_population()
        n = self.population_size
        return math.sqrt(30.0 * self.num_options * math.log(n) / (self.mu * n))

    def adoption_concentration(self) -> float:
        """Propositions 4.2/4.3's ``delta'' = sqrt(60 m ln N / ((1-beta) mu N))``."""
        self._require_population()
        n = self.population_size
        return math.sqrt(
            60.0
            * self.num_options
            * math.log(n)
            / ((1.0 - self.beta) * self.mu * n)
        )

    def single_step_closeness(self) -> float:
        """Proposition 4.3's combined one-step closeness factor ``1 + 6*delta''``."""
        return 1.0 + 6.0 * self.adoption_concentration()

    def occupancy_floor(self) -> float:
        """The popularity floor ``zeta = mu (1 - beta) / (4 m)`` used for epochs."""
        return self.mu * (1.0 - self.beta) / (4.0 * self.num_options)

    def per_step_failure_probability(self) -> float:
        """Proposition 4.3's failure probability ``6 m / N^10``."""
        self._require_population()
        return min(1.0, 6.0 * self.num_options / float(self.population_size) ** 10)

    # ------------------------------------------------------------- Lemma 4.5
    def coupling_factor(self, time: int) -> float:
        """Lemma 4.5's multiplicative closeness ``1 + 5^t * delta''`` at time ``t``."""
        time = check_positive_int(time, "time") if time != 0 else 0
        return 1.0 + 5.0**time * self.adoption_concentration()

    def coupling_failure_probability(self, time: int) -> float:
        """Lemma 4.5's failure probability ``6 t m / N^10`` at time ``t``."""
        self._require_population()
        return min(
            1.0, 6.0 * time * self.num_options / float(self.population_size) ** 10
        )

    def coupling_valid_horizon(self) -> int:
        """Largest ``t`` for which the Lemma 4.5 factor ``5^t delta''`` stays below 1.

        Beyond this horizon the lemma's multiplicative guarantee is vacuous;
        the paper notes the closeness "becomes uninteresting after about
        ``log N`` time steps".
        """
        dpp = self.adoption_concentration()
        if dpp >= 1.0:
            return 0
        return int(math.floor(math.log(1.0 / dpp) / math.log(5.0)))

    # ----------------------------------------------------------- Theorem 4.4
    def finite_regret_bound(self) -> float:
        """Theorem 4.4's headline bound ``6*delta`` on the finite-population regret."""
        return 6.0 * self.delta

    def epoch_length(self) -> float:
        """Length ``ln(4m / (mu (1-beta))) / delta^2`` of the epochs in the large-T proof."""
        return math.log(1.0 / self.occupancy_floor()) / self.delta**2

    def maximum_horizon(self) -> float:
        """Theorem 4.4's upper limit ``N^10 / (m * delta)`` on the horizon."""
        self._require_population()
        return float(self.population_size) ** 10 / (self.num_options * self.delta)

    def population_size_condition(self) -> dict:
        """Evaluate Theorem 4.4's two conditions on ``N`` for the current parameters.

        Returns a dict with the left/right sides of each condition and whether
        it holds.  The conditions are extremely conservative (they come from a
        union bound over ``N^10`` events); simulations typically exhibit the
        regret bound for far smaller ``N``, which experiment E3 demonstrates.
        """
        self._require_population()
        n = float(self.population_size)
        c = 240.0 * self.num_options / ((1.0 - self.beta) * self.mu)
        dpp = self.adoption_concentration()
        base = c * 4.0 * self.num_options / (self.mu * (1.0 - self.beta))
        exponent = 2.0 * math.log(5.0) / self.delta**2
        condition1_rhs = base**exponent * dpp**2
        condition1_lhs = n / math.log(n)
        condition2_lhs = n**10
        condition2_rhs = (
            24.0
            * self.num_options
            * math.log(self.num_options)
            / (self.mu * (1.0 - self.beta) * self.delta**3)
        )
        return {
            "condition1_lhs": condition1_lhs,
            "condition1_rhs": condition1_rhs,
            "condition1_holds": condition1_lhs >= condition1_rhs,
            "condition2_lhs": condition2_lhs,
            "condition2_rhs": condition2_rhs,
            "condition2_holds": condition2_lhs >= condition2_rhs,
        }

    # -------------------------------------------------------------- plumbing
    def _require_population(self) -> None:
        if self.population_size is None:
            raise ValueError(
                "this quantity needs population_size; construct TheoryBounds with "
                "population_size=N"
            )

    def summary(self) -> dict:
        """All scalar bounds as a plain dict (used by benchmarks for reporting)."""
        summary = {
            "m": self.num_options,
            "beta": self.beta,
            "mu": self.mu,
            "delta": self.delta,
            "min_horizon": self.minimum_horizon(),
            "infinite_regret_bound": self.infinite_regret_bound(),
            "finite_regret_bound": self.finite_regret_bound(),
            "occupancy_floor": self.occupancy_floor(),
            "epoch_length": self.epoch_length(),
        }
        if self.population_size is not None:
            summary.update(
                {
                    "N": self.population_size,
                    "delta_prime": self.sampling_concentration(),
                    "delta_double_prime": self.adoption_concentration(),
                    "single_step_closeness": self.single_step_closeness(),
                    "coupling_valid_horizon": self.coupling_valid_horizon(),
                    "max_horizon": self.maximum_horizon(),
                }
            )
        return summary
