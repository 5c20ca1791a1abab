"""Regret accounting for both the finite and infinite population dynamics.

The paper's central quantity (Section 2.2) is the average regret

    ``Regret_N(T) = eta_1 - (1/T) * sum_{t=1}^T sum_j E[Q^{t-1}_j R^t_j]``

(and identically ``Regret_inf`` with ``P`` in place of ``Q``).  Two empirical
estimators are provided:

* :func:`empirical_regret` uses the realised rewards ``R^t`` — the in-sample
  quantity whose expectation is the paper's regret;
* :func:`expected_step_rewards` replaces ``R^t`` by the true qualities
  ``eta_j``, which is an unbiased lower-variance estimator because ``R^t`` is
  independent of ``Q^{t-1}`` (the signal at step ``t`` is drawn after the
  popularity was formed).

Averaging either estimator over independent replications estimates the
expectation in the definition.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.utils.validation import check_quality_vector


def _validate_matrices(
    popularities: np.ndarray, rewards: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    popularities = np.asarray(popularities, dtype=float)
    rewards = np.asarray(rewards, dtype=float)
    if popularities.ndim != 2 or rewards.ndim != 2:
        raise ValueError("popularities and rewards must be 2-D (T, m) matrices")
    if popularities.shape != rewards.shape:
        raise ValueError(
            f"popularities {popularities.shape} and rewards {rewards.shape} must "
            "have the same shape"
        )
    if popularities.shape[0] == 0:
        raise ValueError("need at least one time step")
    return popularities, rewards


def step_rewards(popularities: np.ndarray, rewards: np.ndarray) -> np.ndarray:
    """Per-step group reward ``sum_j Q^{t-1}_j R^t_j`` as a length-``T`` vector."""
    popularities, rewards = _validate_matrices(popularities, rewards)
    return np.einsum("tj,tj->t", popularities, rewards)


def empirical_regret(
    popularities: np.ndarray,
    rewards: np.ndarray,
    best_quality: float,
) -> float:
    """Realised average regret ``eta_1 - (1/T) sum_t <Q^{t-1}, R^t>``."""
    per_step = step_rewards(popularities, rewards)
    return float(best_quality - per_step.mean())


def expected_step_rewards(
    popularities: np.ndarray, qualities: Sequence[float]
) -> np.ndarray:
    """Per-step conditionally-expected group reward ``sum_j Q^{t-1}_j eta_j``."""
    qualities = check_quality_vector(qualities, "qualities")
    popularities = np.asarray(popularities, dtype=float)
    if popularities.ndim != 2 or popularities.shape[1] != qualities.size:
        raise ValueError(
            f"popularities must have shape (T, {qualities.size}), got {popularities.shape}"
        )
    return popularities @ qualities


def expected_regret(popularities: np.ndarray, qualities: Sequence[float]) -> float:
    """Average regret with rewards replaced by their expectations (lower variance)."""
    qualities = check_quality_vector(qualities, "qualities")
    per_step = expected_step_rewards(popularities, qualities)
    return float(qualities.max() - per_step.mean())


def best_option_share(popularities: np.ndarray, best_option: int) -> float:
    """Average pre-step popularity of the best option, ``(1/T) sum_t Q^{t-1}_1``.

    Theorem 4.3's second claim lower-bounds this by
    ``1 - 3*delta / (eta_1 - eta_2)``.
    """
    popularities = np.asarray(popularities, dtype=float)
    if popularities.ndim != 2 or popularities.shape[0] == 0:
        raise ValueError("popularities must be a non-empty (T, m) matrix")
    if not 0 <= best_option < popularities.shape[1]:
        raise ValueError(
            f"best_option {best_option} out of range for m={popularities.shape[1]}"
        )
    return float(popularities[:, best_option].mean())


@dataclass
class RegretAccumulator:
    """Online regret accounting for streaming simulations.

    Feed one step at a time via :meth:`update`; query the running average
    regret at any point.  Useful for long-horizon runs where storing the full
    ``(T, m)`` matrices would be wasteful, e.g. the distributed protocol
    simulations.

    Parameters
    ----------
    best_quality:
        ``eta_1``, the benchmark the group is compared against.
    """

    best_quality: float
    _total_reward: float = field(default=0.0, init=False)
    _steps: int = field(default=0, init=False)
    _per_step: list = field(default_factory=list, init=False)

    def __post_init__(self) -> None:
        if not 0.0 <= self.best_quality <= 1.0:
            raise ValueError(
                f"best_quality must be in [0, 1], got {self.best_quality}"
            )

    def update(self, popularity: Sequence[float], rewards: Sequence[int]) -> float:
        """Record one step; returns the step's group reward ``<Q^{t-1}, R^t>``."""
        popularity = np.asarray(popularity, dtype=float)
        rewards = np.asarray(rewards, dtype=float)
        if popularity.shape != rewards.shape or popularity.ndim != 1:
            raise ValueError(
                "popularity and rewards must be 1-D vectors of equal length"
            )
        reward = float(popularity @ rewards)
        self._total_reward += reward
        self._steps += 1
        self._per_step.append(reward)
        return reward

    @property
    def steps(self) -> int:
        """Number of steps accumulated so far."""
        return self._steps

    def average_reward(self) -> float:
        """Running average group reward ``(1/T) sum_t <Q^{t-1}, R^t>``."""
        if self._steps == 0:
            raise ValueError("no steps accumulated yet")
        return self._total_reward / self._steps

    def regret(self) -> float:
        """Running average regret ``eta_1 - average_reward()``."""
        return self.best_quality - self.average_reward()

    def regret_series(self) -> np.ndarray:
        """Regret after each prefix of steps (length ``T``), for convergence plots."""
        if self._steps == 0:
            return np.zeros(0)
        cumulative = np.cumsum(self._per_step)
        prefix_average = cumulative / np.arange(1, self._steps + 1)
        return self.best_quality - prefix_average
