"""Environments with dependence across options (Section 6 future work).

The paper notes that its independence assumption is across *time*; within a
time step the signals may be correlated (footnote 3: in the Ellison–Fudenberg
example exactly one of ``R^t_1, R^t_2`` is 1 each step).  These environments
let experiments probe that regime for general ``m``:

* :class:`ExactlyOneGoodEnvironment` — exactly one option is good each step,
  option ``j`` with probability ``win_probabilities[j]`` (a softmax-style
  "winner take all" signal structure, e.g. stocks where one asset outperforms);
* :class:`CorrelatedOptionsEnvironment` — a Gaussian-copula model with a
  common-factor correlation ``rho`` between option signals, with marginal
  qualities exactly ``eta_j``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.environments.base import RewardEnvironment
from repro.utils.rng import RngLike
from repro.utils.validation import (
    check_in_range,
    check_probability_vector,
    check_quality_vector,
)


class ExactlyOneGoodEnvironment(RewardEnvironment):
    """Each step exactly one option emits a good signal.

    ``R^t`` is a one-hot vector; option ``j`` is the winner with probability
    ``win_probabilities[j]``, independently across time.  The marginal quality
    of option ``j`` is therefore ``eta_j = win_probabilities[j]``.

    Parameters
    ----------
    win_probabilities:
        Probability vector over options (must sum to 1).
    rng:
        Seed or generator.
    """

    def __init__(self, win_probabilities: Sequence[float], rng: RngLike = None) -> None:
        probabilities = check_probability_vector(win_probabilities, "win_probabilities")
        super().__init__(num_options=probabilities.size, rng=rng)
        self._win_probabilities = probabilities.copy()

    @property
    def qualities(self) -> np.ndarray:
        return self._win_probabilities.copy()

    def _draw(self) -> np.ndarray:
        winner = self._rng.choice(self._num_options, p=self._win_probabilities)
        rewards = np.zeros(self._num_options, dtype=np.int8)
        rewards[winner] = 1
        return rewards

    def _draw_batch(self, num_replicates: int) -> np.ndarray:
        winners = self._rng.choice(
            self._num_options, size=num_replicates, p=self._win_probabilities
        )
        rewards = np.zeros((num_replicates, self._num_options), dtype=np.int8)
        rewards[np.arange(num_replicates), winners] = 1
        return rewards


class CorrelatedOptionsEnvironment(RewardEnvironment):
    """Gaussian-copula correlated binary signals with exact marginals ``eta_j``.

    A latent vector ``Z^t = sqrt(rho) * F^t + sqrt(1-rho) * U^t_j`` (common
    factor ``F^t`` plus idiosyncratic noise) is thresholded so that
    ``P[R^t_j = 1] = eta_j`` exactly, while ``corr(Z_j, Z_k) = rho`` induces
    positive dependence between signals within a step.  Signals remain
    independent across time, which is the assumption the paper's analysis
    actually needs (footnote 3).

    Parameters
    ----------
    qualities:
        Marginal success probabilities ``eta_j``.
    correlation:
        Common-factor correlation ``rho`` in ``[0, 1)``.
    rng:
        Seed or generator.
    """

    def __init__(
        self,
        qualities: Sequence[float],
        correlation: float = 0.5,
        rng: RngLike = None,
    ) -> None:
        qualities = check_quality_vector(qualities, "qualities")
        super().__init__(num_options=qualities.size, rng=rng)
        self._qualities = qualities.copy()
        self._correlation = check_in_range(
            correlation, "correlation", 0.0, 1.0, inclusive_high=False
        )
        from scipy import stats  # not at module level: slow to import

        # Threshold such that P[Z > z_j] = eta_j for standard normal Z.
        self._thresholds = stats.norm.isf(np.clip(self._qualities, 1e-12, 1 - 1e-12))

    @property
    def correlation(self) -> float:
        """Common-factor correlation between latent signal variables."""
        return self._correlation

    @property
    def qualities(self) -> np.ndarray:
        return self._qualities.copy()

    def _draw(self) -> np.ndarray:
        common = self._rng.normal()
        idiosyncratic = self._rng.normal(size=self._num_options)
        latent = (
            np.sqrt(self._correlation) * common
            + np.sqrt(1.0 - self._correlation) * idiosyncratic
        )
        rewards = (latent > self._thresholds).astype(np.int8)
        # Degenerate qualities (0 or 1) must be honoured exactly.
        rewards = np.where(self._qualities >= 1.0, 1, rewards)
        rewards = np.where(self._qualities <= 0.0, 0, rewards)
        return rewards.astype(np.int8)

    def _draw_batch(self, num_replicates: int) -> np.ndarray:
        # One common factor per replicate: correlation acts within a step,
        # while distinct replicates stay independent of each other.
        common = self._rng.normal(size=(num_replicates, 1))
        idiosyncratic = self._rng.normal(size=(num_replicates, self._num_options))
        latent = (
            np.sqrt(self._correlation) * common
            + np.sqrt(1.0 - self._correlation) * idiosyncratic
        )
        rewards = (latent > self._thresholds).astype(np.int8)
        rewards = np.where(self._qualities >= 1.0, 1, rewards)
        rewards = np.where(self._qualities <= 0.0, 0, rewards)
        return rewards.astype(np.int8)
