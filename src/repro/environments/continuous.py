"""The Ellison–Fudenberg continuous-reward model and its binary reduction.

Section 2.1's second worked example (after Ellison & Fudenberg, 1995) shows a
two-option learning model with continuous rewards ``r^t_j ~ F_j`` and
player-specific shocks ``eps^t_{ij} ~ G``.  The reduction to the paper's
binary framework is:

* ``R^t_1`` is the indicator that ``r^t_1 > r^t_2``, which happens with some
  probability ``p`` — so ``eta_1 = p`` and ``eta_2 = 1 - p``;
* the shock differences collapse to a zero-mean symmetric random variable
  ``xi``, and the adoption probabilities become
  ``beta = P[xi > r^t_2 - r^t_1 | r^t_1 > r^t_2]`` and
  ``alpha = P[xi > r^t_2 - r^t_1 | r^t_2 > r^t_1]`` with ``alpha < beta``.

:class:`EllisonFudenbergEnvironment` is the faithful two-option comparison
model, exposing the implied ``eta`` and ``(alpha, beta)`` so experiments can
run the binary dynamics with exactly the parameters the reduction prescribes.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.environments.base import RewardEnvironment
from repro.utils.rng import RngLike
from repro.utils.validation import check_positive_int


class EllisonFudenbergEnvironment(RewardEnvironment):
    """The two-option word-of-mouth model of Ellison & Fudenberg (1995).

    Raw rewards ``r^t_1 ~ F_1`` and ``r^t_2 ~ F_2`` are drawn each step; the
    binary signals are the (perfectly anti-correlated) indicators
    ``R^t_1 = 1{r^t_1 > r^t_2}`` and ``R^t_2 = 1 - R^t_1``.  Player shocks are
    i.i.d. draws from ``shock_distribution``; the paper's reduction collapses
    the four shocks into ``xi = eps_{i1} + eps_{i'1} - eps_{i2} - eps_{i'2}``.

    The class exposes the reduction targets:

    * :attr:`qualities` — ``(p, 1 - p)`` with ``p = P[r_1 > r_2]``;
    * :meth:`implied_adoption_parameters` — Monte-Carlo estimates of
      ``beta = P[xi > r_2 - r_1 | r_1 > r_2]`` and
      ``alpha = P[xi > r_2 - r_1 | r_2 > r_1]``.

    Parameters
    ----------
    reward_distribution_1, reward_distribution_2:
        Frozen scipy distributions ``F_1`` and ``F_2``.
    shock_distribution:
        Frozen scipy distribution ``G`` for individual shocks (zero mean is
        not required here; the reduction's symmetric ``xi`` arises from the
        difference of i.i.d. shocks).
    comparison_samples:
        Monte-Carlo sample count used to estimate ``p``, ``alpha`` and ``beta``.
    """

    def __init__(
        self,
        reward_distribution_1,
        reward_distribution_2,
        shock_distribution,
        *,
        comparison_samples: int = 200_000,
        rng: RngLike = None,
    ) -> None:
        for name, dist in (
            ("reward_distribution_1", reward_distribution_1),
            ("reward_distribution_2", reward_distribution_2),
            ("shock_distribution", shock_distribution),
        ):
            if not hasattr(dist, "rvs"):
                raise TypeError(f"{name} must be a frozen scipy.stats distribution")
        super().__init__(num_options=2, rng=rng)
        self._f1 = reward_distribution_1
        self._f2 = reward_distribution_2
        self._shock = shock_distribution
        self._comparison_samples = check_positive_int(
            comparison_samples, "comparison_samples"
        )
        self._estimation_cache: Optional[dict] = None

    def _estimate(self) -> dict:
        """Monte-Carlo estimate of ``p``, ``alpha`` and ``beta`` (cached)."""
        if self._estimation_cache is not None:
            return self._estimation_cache
        estimator_rng = np.random.default_rng(0xE11150)
        n = self._comparison_samples
        r1 = np.asarray(self._f1.rvs(size=n, random_state=estimator_rng), dtype=float)
        r2 = np.asarray(self._f2.rvs(size=n, random_state=estimator_rng), dtype=float)
        shocks = np.asarray(
            self._shock.rvs(size=(n, 4), random_state=estimator_rng), dtype=float
        )
        xi = shocks[:, 0] + shocks[:, 1] - shocks[:, 2] - shocks[:, 3]
        option1_better = r1 > r2
        adopt1 = xi > (r2 - r1)
        p = float(option1_better.mean())
        if 0 < option1_better.sum() < n:
            beta = float(adopt1[option1_better].mean())
            alpha = float(adopt1[~option1_better].mean())
        else:  # degenerate comparison (one option always wins)
            beta = float(adopt1.mean())
            alpha = 1.0 - beta
        self._estimation_cache = {"p": p, "alpha": alpha, "beta": beta}
        return self._estimation_cache

    @property
    def qualities(self) -> np.ndarray:
        p = self._estimate()["p"]
        return np.array([p, 1.0 - p])

    def implied_adoption_parameters(self) -> tuple[float, float]:
        """Return ``(alpha, beta)`` implied by the shock reduction."""
        estimate = self._estimate()
        return estimate["alpha"], estimate["beta"]

    def _draw(self) -> np.ndarray:
        r1 = float(self._f1.rvs(random_state=self._rng))
        r2 = float(self._f2.rvs(random_state=self._rng))
        first_wins = int(r1 > r2)
        return np.array([first_wins, 1 - first_wins], dtype=np.int8)

    @classmethod
    def gaussian(
        cls,
        mean_gap: float = 0.5,
        reward_scale: float = 1.0,
        shock_scale: float = 1.0,
        rng: RngLike = None,
    ) -> "EllisonFudenbergEnvironment":
        """Gaussian instance: ``F_1 = N(mean_gap, s)``, ``F_2 = N(0, s)``, shocks ``N(0, shock_scale)``."""
        if reward_scale <= 0 or shock_scale <= 0:
            raise ValueError("reward_scale and shock_scale must be positive")
        from scipy import stats  # not at module level: slow to import

        return cls(
            stats.norm(loc=mean_gap, scale=reward_scale),
            stats.norm(loc=0.0, scale=reward_scale),
            stats.norm(loc=0.0, scale=shock_scale),
            rng=rng,
        )
