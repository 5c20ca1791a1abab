"""Abstract interface shared by all reward environments."""

from __future__ import annotations

import abc
from typing import Optional

import numpy as np

from repro.utils.rng import RngLike, ensure_rng
from repro.utils.validation import check_positive_int


class RewardEnvironment(abc.ABC):
    """A stochastic process emitting one binary quality signal per option per step.

    Subclasses implement :meth:`_draw` which returns the vector
    ``(R^t_1, ..., R^t_m)`` of indicator signals for the current time step.
    The public :meth:`sample` method advances the internal clock, so a single
    environment instance produces one well-defined reward stream — share the
    instance (or a :class:`~repro.environments.replay.RecordedRewardSequence`)
    across learners to compare them on identical reward realisations.

    Parameters
    ----------
    num_options:
        Number of options ``m`` (positive).
    rng:
        Seed or generator driving the reward process.
    """

    def __init__(self, num_options: int, rng: RngLike = None) -> None:
        self._num_options = check_positive_int(num_options, "num_options")
        self._rng = ensure_rng(rng)
        self._time = 0

    @property
    def num_options(self) -> int:
        """Number of options ``m``."""
        return self._num_options

    @property
    def time(self) -> int:
        """Number of reward vectors sampled so far."""
        return self._time

    @property
    @abc.abstractmethod
    def qualities(self) -> np.ndarray:
        """Current vector of success probabilities ``(eta_1, ..., eta_m)``.

        For stationary environments this is constant; drifting environments
        return the value that applies to the *next* sampled step.
        """

    @property
    def best_option(self) -> int:
        """Index of the currently-best option (ties broken toward lower index)."""
        return int(np.argmax(self.qualities))

    @property
    def best_quality(self) -> float:
        """Quality ``eta_1`` of the currently-best option."""
        return float(np.max(self.qualities))

    def quality_gap(self) -> float:
        """Gap ``eta_(1) - eta_(2)`` between the two best options (0 if ``m == 1``)."""
        qualities = np.sort(self.qualities)[::-1]
        if qualities.size < 2:
            return 0.0
        return float(qualities[0] - qualities[1])

    @abc.abstractmethod
    def _draw(self) -> np.ndarray:
        """Draw the reward vector for the current time step (shape ``(m,)``).

        A boolean array is binary by its type, so :meth:`sample` checks the
        values of any other dtype only.
        """

    def sample(self) -> np.ndarray:
        """Sample and return the next reward vector ``R^{t+1}`` as a 0/1 int array."""
        rewards = np.asarray(self._draw())
        if rewards.shape != (self._num_options,):
            raise RuntimeError(
                f"environment produced rewards of shape {rewards.shape}, "
                f"expected ({self._num_options},)"
            )
        # Validate before the int8 cast so non-binary values (0.7, 256, ...)
        # raise instead of being silently truncated to something that passes.
        if _non_binary(rewards):
            raise RuntimeError("environment produced non-binary rewards")
        self._time += 1
        return rewards.astype(np.int8)

    def sample_many(self, horizon: int) -> np.ndarray:
        """Sample ``horizon`` consecutive reward vectors; shape ``(horizon, m)``."""
        horizon = check_positive_int(horizon, "horizon")
        return np.stack([self.sample() for _ in range(horizon)])

    def _draw_batch(self, num_replicates: int) -> np.ndarray:
        """Draw ``num_replicates`` independent reward vectors for the current step.

        The default stacks repeated :meth:`_draw` calls, which is correct for
        environments whose ``_draw`` does not mutate internal state (the signal
        at a fixed time step is then i.i.d. across replicates).  Environments
        with per-step state evolution (e.g. random-walk drift) or vectorisable
        draws override this.
        """
        return np.stack([self._draw() for _ in range(num_replicates)])

    def sample_batch(self, num_replicates: int) -> np.ndarray:
        """Sample the next step's rewards for ``num_replicates`` independent replicates.

        Returns an ``(R, m)`` 0/1 matrix: row ``r`` is the reward realisation
        replicate ``r`` observes at time ``t+1``.  Replicate draws are
        conditionally independent given the environment's current quality
        state; for drifting environments the quality *path* is shared across
        replicates (each replicate sees its own rewards along one common
        quality trajectory).  The internal clock advances by one step, exactly
        as a single :meth:`sample` call would.

        With ``num_replicates == 1`` this consumes the generator identically
        to :meth:`sample`, which the exact-seed equivalence tests between the
        batched and sequential engines rely on.
        """
        num_replicates = check_positive_int(num_replicates, "num_replicates")
        rewards = np.asarray(self._draw_batch(num_replicates))
        if rewards.shape != (num_replicates, self._num_options):
            raise RuntimeError(
                f"environment produced batch rewards of shape {rewards.shape}, "
                f"expected ({num_replicates}, {self._num_options})"
            )
        if _non_binary(rewards):
            raise RuntimeError("environment produced non-binary rewards")
        self._time += 1
        return rewards.astype(np.int8)

    def reset(self, rng: Optional[RngLike] = None) -> None:
        """Reset the time counter (and optionally reseed the generator)."""
        self._time = 0
        if rng is not None:
            self._rng = ensure_rng(rng)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        qualities = np.array2string(np.asarray(self.qualities), precision=3)
        return f"{type(self).__name__}(m={self._num_options}, qualities={qualities})"


def _non_binary(rewards: np.ndarray) -> bool:
    """Whether any reward is neither 0 nor 1; a boolean array never is."""
    return rewards.dtype != np.bool_ and bool(((rewards != 0) & (rewards != 1)).any())
