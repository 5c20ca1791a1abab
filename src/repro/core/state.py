"""Population state and trajectory recording.

:class:`PopulationState` is an immutable snapshot of the finite-population
dynamics at one time step: the per-option adoption counts ``D^t_j`` (from
which the popularity ``Q^t``, entropy, occupancy floor, etc. derive).
:class:`Trajectory` accumulates snapshots plus the rewards observed between
them and offers the aggregate views the regret and coupling analyses need.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from repro.utils.validation import check_positive_int


@dataclass(frozen=True)
class PopulationState:
    """Snapshot of the group at one time step.

    Attributes
    ----------
    counts:
        Per-option adoption counts ``D^t_j`` (length ``m``); agents sitting
        out are not counted.
    population_size:
        Total number of individuals ``N`` (committed + sitting out).
    time:
        The time step index this snapshot corresponds to.
    """

    counts: np.ndarray
    population_size: int
    time: int = 0

    def __post_init__(self) -> None:
        counts = np.asarray(self.counts, dtype=np.int64)
        if counts.ndim != 1 or counts.size == 0:
            raise ValueError("counts must be a non-empty 1-D array")
        if (counts < 0).any():
            raise ValueError("counts must be non-negative")
        object.__setattr__(self, "counts", counts)
        check_positive_int(self.population_size, "population_size")
        committed = counts.sum()
        if committed > self.population_size:
            raise ValueError(
                f"committed count {committed} exceeds population size "
                f"{self.population_size}"
            )

    @property
    def num_options(self) -> int:
        """Number of options ``m``."""
        return int(self.counts.size)

    @property
    def committed(self) -> int:
        """Number of committed individuals ``sum_j D^t_j``."""
        return int(self.counts.sum())

    @property
    def sitting_out(self) -> int:
        """Number of individuals not holding any option this step."""
        return self.population_size - self.committed

    def popularity(self) -> np.ndarray:
        """Popularity distribution ``Q^t``; uniform if nobody is committed."""
        total = self.counts.sum()
        if total == 0:
            return np.full(self.num_options, 1.0 / self.num_options)
        return self.counts / total

    def min_popularity(self) -> float:
        """The occupancy floor ``min_j Q^t_j`` tracked by Proposition 4.3."""
        return float(self.popularity().min())

    def entropy(self) -> float:
        """Shannon entropy (nats) of the popularity distribution."""
        popularity = self.popularity()
        nonzero = popularity[popularity > 0]
        return float(-(nonzero * np.log(nonzero)).sum())

    def leader(self) -> int:
        """Most popular option (ties broken toward lower index)."""
        return int(np.argmax(self.counts))

    @classmethod
    def uniform(
        cls, population_size: int, num_options: int, time: int = 0
    ) -> "PopulationState":
        """Near-uniform initial state: ``N`` individuals spread evenly over ``m`` options.

        Matches the paper's initialisation ``Q^0_j = 1/m`` as closely as an
        integer assignment allows (remainders go to the lowest-index options).
        """
        population_size = check_positive_int(population_size, "population_size")
        num_options = check_positive_int(num_options, "num_options")
        base, remainder = divmod(population_size, num_options)
        counts = np.full(num_options, base, dtype=np.int64)
        counts[:remainder] += 1
        return cls(counts=counts, population_size=population_size, time=time)

    @classmethod
    def from_counts(
        cls, counts: Sequence[int], population_size: Optional[int] = None, time: int = 0
    ) -> "PopulationState":
        """Build a state from explicit counts (``population_size`` defaults to their sum)."""
        counts = np.asarray(counts, dtype=np.int64)
        if population_size is None:
            population_size = int(counts.sum())
        return cls(counts=counts, population_size=population_size, time=time)


@dataclass
class Trajectory:
    """Time series of population states, rewards and the distributions they induce.

    The trajectory stores, for each step ``t = 1..T``:

    * the popularity ``Q^{t-1}`` *before* the step (used in the regret sum
      ``E[Q^{t-1}_j R^t_j]``),
    * the reward vector ``R^t`` observed during the step, and
    * the resulting state after the step.
    """

    initial_state: PopulationState
    states: List[PopulationState] = field(default_factory=list)
    rewards: List[np.ndarray] = field(default_factory=list)
    pre_step_popularities: List[np.ndarray] = field(default_factory=list)

    def record(
        self,
        pre_step_popularity: np.ndarray,
        rewards: np.ndarray,
        new_state: PopulationState,
    ) -> None:
        """Append one step's observations to the trajectory."""
        self.pre_step_popularities.append(np.asarray(pre_step_popularity, dtype=float))
        self.rewards.append(np.asarray(rewards, dtype=np.int8))
        self.states.append(new_state)

    @property
    def horizon(self) -> int:
        """Number of recorded steps ``T``."""
        return len(self.states)

    @property
    def num_options(self) -> int:
        """Number of options ``m``."""
        return self.initial_state.num_options

    def popularity_matrix(self) -> np.ndarray:
        """Matrix of pre-step popularities ``Q^{t-1}``, shape ``(T, m)``."""
        if not self.pre_step_popularities:
            return np.zeros((0, self.num_options))
        return np.stack(self.pre_step_popularities)

    def reward_matrix(self) -> np.ndarray:
        """Matrix of rewards ``R^t``, shape ``(T, m)``."""
        if not self.rewards:
            return np.zeros((0, self.num_options), dtype=np.int8)
        return np.stack(self.rewards)

    def final_state(self) -> PopulationState:
        """The last recorded state (the initial state if no steps recorded)."""
        return self.states[-1] if self.states else self.initial_state

    def best_option_popularity(self, best_option: int) -> np.ndarray:
        """Time series of the best option's pre-step popularity ``Q^{t-1}_1``."""
        matrix = self.popularity_matrix()
        if matrix.shape[0] == 0:
            return np.zeros(0)
        return matrix[:, best_option]

    def min_popularity_series(self) -> np.ndarray:
        """Time series of ``min_j Q^t_j`` after each step (occupancy floor, Prop 4.3)."""
        return np.array([state.min_popularity() for state in self.states])

    def leader_series(self) -> np.ndarray:
        """Time series of the most popular option after each step."""
        return np.array([state.leader() for state in self.states], dtype=np.int64)
