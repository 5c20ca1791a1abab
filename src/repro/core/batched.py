"""Replicate-axis batched simulation of the finite-population dynamics.

The CelisKV17 dynamics are exchangeable: the whole population evolves as one
multinomial draw (stage 1, Eq. 2) followed by per-option binomial thinning
(stage 2, Eq. 3).  Independent replicates of the same experiment are therefore
just one more array axis — :class:`BatchedDynamics` advances an ``(R, m)``
count matrix for ``R`` replicates in a single NumPy pass per step instead of
looping a :class:`~repro.core.dynamics.FinitePopulationDynamics` instance per
seed.  At ``N = 10^5`` and ``R = 100`` this is more than an order of magnitude
faster than the sequential loop (see ``benchmarks/test_bench_batched.py``).

Equivalence guarantees (enforced by the test suite):

* **exact-seed**: with ``R = 1`` and the same seed, :class:`BatchedDynamics`
  consumes the random stream identically to
  :class:`~repro.core.dynamics.FinitePopulationDynamics`, producing
  bit-identical trajectories;
* **statistical**: for any ``R`` the per-replicate marginals match the
  sequential engine's distribution (KS / chi-squared cross-validation in
  ``tests/integration/test_cross_validation.py``).

:class:`BatchedTrajectory` records the whole batch and exposes per-replicate
:class:`~repro.core.state.Trajectory` views, so downstream consumers (regret
accounting, convergence analysis, plotting) work unchanged on any single
replicate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Union

import numpy as np

from repro.backends import PrecisionLike, resolve_precision
from repro.core.adoption import (
    AdoptionRule,
    GeneralAdoptionRule,
    RowwiseAdoptionRule,
    SymmetricAdoptionRule,
)
from repro.core.sampling import (
    MixtureSampling,
    SamplingRule,
    check_popularity_rows,
    default_exploration_rate,
)
from repro.core.state import PopulationState, Trajectory
from repro.environments.base import RewardEnvironment
from repro.utils.rng import RngLike, ensure_rng
from repro.utils.validation import check_positive_int, check_quality_vector


def choice_counts(choices: np.ndarray, num_options: int) -> np.ndarray:
    """Per-row counts of options ``0..m-1`` in an ``(R, N)`` choices matrix.

    One bincount over ``m + 1`` slots per row, slot 0 collecting the ``-1``
    (sitting-out) entries, so no mask or compress of the matrix is needed.
    """
    rows, slots = choices.shape[0], num_options + 1
    keys = np.arange(1, rows * slots, slots)[:, None] + choices
    counts = np.bincount(keys.ravel(), minlength=rows * slots)
    return counts.reshape(rows, slots)[:, 1:]


def row_lookup(table: np.ndarray, columns: np.ndarray) -> np.ndarray:
    """``table[r, columns[r, i]]`` for an ``(R, k)`` table, as one flat take.

    A column of ``-1`` reads some entry of the table; callers mask those cells.
    """
    offsets = np.arange(0, table.size, table.shape[1])[:, None]
    return table.ravel().take(columns + offsets, mode="clip")


@dataclass(frozen=True)
class BatchedPopulationState:
    """Snapshot of ``R`` independent replicate populations at one time step.

    Attributes
    ----------
    counts:
        Per-replicate, per-option adoption counts, shape ``(R, m)``.
    population_size:
        Number of individuals ``N`` — a single int shared by every replicate,
        or a shape-``(R,)`` array of per-replicate sizes (the sweep-axis mode,
        where rows belong to different grid points).
    time:
        The time step index this snapshot corresponds to.
    """

    counts: np.ndarray
    population_size: Union[int, np.ndarray]
    time: int = 0

    @classmethod
    def _of_checked(
        cls, counts: np.ndarray, population_size: Union[int, np.ndarray], time: int
    ) -> "BatchedPopulationState":
        """A state from integer counts and a normalised population size.

        The caller checks the counts itself (:meth:`BatchedDynamics.run`
        checks a run's record once); ``population_size`` is an int or a
        read-only int64 ``(R,)`` array, as ``__post_init__`` leaves it.
        """
        state = object.__new__(cls)
        object.__setattr__(state, "counts", counts)
        object.__setattr__(state, "population_size", population_size)
        object.__setattr__(state, "time", time)
        return state

    def __post_init__(self) -> None:
        # Integer dtypes are preserved (the Precision discipline stores int32
        # counts); anything else is normalised to the historical int64.
        counts = np.asarray(self.counts)
        if not np.issubdtype(counts.dtype, np.integer):
            counts = counts.astype(np.int64)
        if counts.ndim != 2 or counts.shape[0] == 0 or counts.shape[1] == 0:
            raise ValueError("counts must be a non-empty 2-D (R, m) array")
        if np.any(counts < 0):
            raise ValueError("counts must be non-negative")
        object.__setattr__(self, "counts", counts)
        if np.ndim(self.population_size) == 0:
            check_positive_int(
                self.population_size, "population_size"
            )
            object.__setattr__(self, "population_size", int(self.population_size))
        else:
            sizes = np.asarray(self.population_size, dtype=np.int64)
            if sizes.ndim != 1 or sizes.shape[0] != counts.shape[0]:
                raise ValueError(
                    f"per-replicate population_size must have shape "
                    f"({counts.shape[0]},), got {sizes.shape}"
                )
            if np.any(sizes <= 0):
                raise ValueError("every population size must be positive")
            sizes = sizes.copy()
            sizes.setflags(write=False)
            object.__setattr__(self, "population_size", sizes)
        row_totals = counts.sum(axis=1)
        if np.any(row_totals > self.population_size):
            worst = int((row_totals - self.population_sizes).argmax())
            raise ValueError(
                f"replicate {worst} has committed count {int(row_totals[worst])} "
                f"exceeding population size {int(self.population_sizes[worst])}"
            )

    @property
    def population_sizes(self) -> np.ndarray:
        """Per-replicate population sizes, shape ``(R,)`` (scalar broadcast)."""
        if np.ndim(self.population_size) == 0:
            return np.full(self.num_replicates, self.population_size, dtype=np.int64)
        return self.population_size

    @property
    def num_replicates(self) -> int:
        """Number of replicates ``R``."""
        return int(self.counts.shape[0])

    @property
    def num_options(self) -> int:
        """Number of options ``m``."""
        return int(self.counts.shape[1])

    @property
    def committed(self) -> np.ndarray:
        """Per-replicate number of committed individuals, shape ``(R,)``."""
        return self.counts.sum(axis=1)

    def popularity(self, dtype: Optional[np.dtype] = None) -> np.ndarray:
        """Per-replicate popularity ``Q^t``, shape ``(R, m)``; uniform rows where nobody is committed.

        The division always runs in float64 (so the sampling stage consumes
        identical values at every precision); ``dtype`` only down-casts the
        *returned* matrix, which is how the float32 precision stores its
        trajectory without perturbing the dynamics.
        """
        totals = self.counts.sum(axis=1, keepdims=True)
        uniform = 1.0 / self.num_options
        with np.errstate(divide="ignore", invalid="ignore"):
            popularity = self.counts / totals
        popularity = np.where(totals == 0, uniform, popularity)
        if dtype is not None:
            popularity = popularity.astype(dtype, copy=False)
        return popularity

    def min_popularity(self) -> np.ndarray:
        """Per-replicate occupancy floor ``min_j Q^t_j``, shape ``(R,)``."""
        return self.popularity().min(axis=1)

    def entropy(self) -> np.ndarray:
        """Per-replicate Shannon entropy (nats) of the popularity, shape ``(R,)``."""
        popularity = self.popularity()
        contributions = np.where(
            popularity > 0,
            popularity * np.log(np.where(popularity > 0, popularity, 1.0)),
            0.0,
        )
        return -contributions.sum(axis=1)

    def leader(self) -> np.ndarray:
        """Per-replicate most popular option (ties toward lower index), shape ``(R,)``."""
        return self.counts.argmax(axis=1)

    def replicate(self, index: int) -> PopulationState:
        """The single-replicate :class:`PopulationState` view of row ``index``."""
        if not 0 <= index < self.num_replicates:
            raise IndexError(
                f"replicate index {index} out of range for R={self.num_replicates}"
            )
        return PopulationState(
            counts=self.counts[index].copy(),
            population_size=int(self.population_sizes[index]),
            time=self.time,
        )

    @classmethod
    def uniform(
        cls,
        num_replicates: int,
        population_size: int,
        num_options: int,
        time: int = 0,
    ) -> "BatchedPopulationState":
        """Every replicate starts from the near-uniform split of :meth:`PopulationState.uniform`."""
        num_replicates = check_positive_int(num_replicates, "num_replicates")
        template = PopulationState.uniform(population_size, num_options, time=time)
        return cls.from_state(template, num_replicates)

    @classmethod
    def from_state(
        cls, state: PopulationState, num_replicates: int
    ) -> "BatchedPopulationState":
        """Tile one :class:`PopulationState` across ``num_replicates`` replicates."""
        num_replicates = check_positive_int(num_replicates, "num_replicates")
        return cls(
            counts=np.tile(state.counts, (num_replicates, 1)),
            population_size=state.population_size,
            time=state.time,
        )

    @classmethod
    def stack(cls, states: Sequence[PopulationState]) -> "BatchedPopulationState":
        """Stack heterogeneous single-replicate states into one batch.

        All states must share the number of options and the time index; the
        population sizes may differ per row (they collapse to a single int
        when they all agree, preserving the homogeneous fast path).
        """
        if len(states) == 0:
            raise ValueError("need at least one state to stack")
        options = {state.num_options for state in states}
        if len(options) != 1:
            raise ValueError("all stacked states must share the number of options")
        times = {state.time for state in states}
        if len(times) != 1:
            raise ValueError("all stacked states must share the time index")
        sizes = np.array([state.population_size for state in states], dtype=np.int64)
        population_size: Union[int, np.ndarray]
        if np.all(sizes == sizes[0]):
            population_size = int(sizes[0])
        else:
            population_size = sizes
        return cls(
            counts=np.stack([state.counts for state in states]),
            population_size=population_size,
            time=states[0].time,
        )


@dataclass
class BatchedTrajectory:
    """Time series of batched states, rewards and pre-step popularities.

    The layout mirrors :class:`~repro.core.state.Trajectory` with one extra
    leading replicate axis on every recorded array: for each step ``t``,
    ``pre_step_popularities[t]`` and ``rewards[t]`` have shape ``(R, m)``.
    :meth:`replicate` slices out one replicate as a plain
    :class:`~repro.core.state.Trajectory`, so existing consumers (regret,
    convergence detection, plotting) need no changes.
    """

    initial_state: BatchedPopulationState
    states: List[BatchedPopulationState] = field(default_factory=list)
    rewards: List[np.ndarray] = field(default_factory=list)
    pre_step_popularities: List[np.ndarray] = field(default_factory=list)

    def record(
        self,
        pre_step_popularity: np.ndarray,
        rewards: np.ndarray,
        new_state: BatchedPopulationState,
    ) -> None:
        """Append one batched step's observations to the trajectory.

        Floating popularity matrices keep their dtype (float32 under the
        reduced precision); anything else is normalised to float64.
        """
        popularity = np.asarray(pre_step_popularity)
        if not np.issubdtype(popularity.dtype, np.floating):
            popularity = popularity.astype(float)
        self.pre_step_popularities.append(popularity)
        self.rewards.append(np.asarray(rewards, dtype=np.int8))
        self.states.append(new_state)

    @property
    def horizon(self) -> int:
        """Number of recorded steps ``T``."""
        return len(self.pre_step_popularities)

    @property
    def num_replicates(self) -> int:
        """Number of replicates ``R``."""
        return self.initial_state.num_replicates

    @property
    def num_options(self) -> int:
        """Number of options ``m``."""
        return self.initial_state.num_options

    def popularity_tensor(self) -> np.ndarray:
        """Pre-step popularities ``Q^{t-1}``, shape ``(T, R, m)``."""
        if not self.pre_step_popularities:
            return np.zeros((0, self.num_replicates, self.num_options))
        return np.stack(self.pre_step_popularities)

    def reward_tensor(self) -> np.ndarray:
        """Observed rewards ``R^t``, shape ``(T, R, m)``."""
        if not self.rewards:
            return np.zeros((0, self.num_replicates, self.num_options), dtype=np.int8)
        return np.stack(self.rewards)

    def final_state(self) -> BatchedPopulationState:
        """The last recorded batched state (the initial state if no steps recorded)."""
        return self.states[-1] if self.states else self.initial_state

    def rows(self, start: int, stop: int) -> "BatchedTrajectory":
        """Rows ``start:stop`` laid out as a launch holding those rows alone.

        The initial state, pre-step popularities and rewards are cut, so
        every metric reduces over the same arrays, down to the summation
        order, as in that launch.  The per-step states are not cut (no
        metric reads them), so ``states`` is empty.
        """
        rows = slice(start, stop)
        initial = self.initial_state
        population = initial.population_size
        if np.ndim(population):
            population = population[rows]
        return BatchedTrajectory(
            initial_state=BatchedPopulationState(
                counts=initial.counts[rows],
                population_size=population,
                time=initial.time,
            ),
            rewards=[rewards[rows] for rewards in self.rewards],
            pre_step_popularities=[
                popularity[rows] for popularity in self.pre_step_popularities
            ],
        )

    def replicate(self, index: int) -> Trajectory:
        """Per-replicate :class:`Trajectory` view of replicate ``index``."""
        trajectory = Trajectory(initial_state=self.initial_state.replicate(index))
        for popularity, rewards, state in zip(
            self.pre_step_popularities, self.rewards, self.states
        ):
            trajectory.record(popularity[index], rewards[index], state.replicate(index))
        return trajectory

    # -------------------------------------------------- per-replicate metrics
    def expected_regret(self, qualities) -> np.ndarray:
        """Per-replicate average regret with rewards replaced by expectations, shape ``(R,)``.

        The batched analogue of :func:`repro.core.regret.expected_regret`:
        ``eta_1 - (1/T) sum_t <Q^{t-1}_r, eta>`` for each replicate ``r``.
        ``qualities`` is either one shared ``(m,)`` vector or an ``(R, m)``
        matrix giving each row its own quality vector (the sweep-axis mode).
        """
        popularity = self.popularity_tensor()
        if popularity.shape[0] == 0:
            raise ValueError("need at least one recorded step")
        qualities = np.asarray(qualities, dtype=float)
        if qualities.ndim == 1:
            qualities = check_quality_vector(qualities, "qualities")
            per_step = popularity @ qualities  # (T, R)
            return float(qualities.max()) - per_step.mean(axis=0)
        if qualities.shape != (self.num_replicates, self.num_options):
            raise ValueError(
                f"qualities must have shape ({self.num_options},) or "
                f"({self.num_replicates}, {self.num_options}), got {qualities.shape}"
            )
        if not np.all(np.isfinite(qualities)):
            raise ValueError("every quality must be finite")
        if np.any(qualities < 0) or np.any(qualities > 1):
            raise ValueError("every quality must lie in [0, 1]")
        per_step = np.einsum("trj,rj->tr", popularity, qualities)
        return qualities.max(axis=1) - per_step.mean(axis=0)

    def empirical_regret(self, best_quality) -> np.ndarray:
        """Per-replicate realised regret ``eta_1 - (1/T) sum_t <Q^{t-1}_r, R^t_r>``, shape ``(R,)``.

        ``best_quality`` is a scalar or a shape-``(R,)`` array of per-row best
        qualities.
        """
        popularity = self.popularity_tensor()
        if popularity.shape[0] == 0:
            raise ValueError("need at least one recorded step")
        best_quality = np.asarray(best_quality, dtype=float)
        if best_quality.ndim not in (0, 1) or (
            best_quality.ndim == 1 and best_quality.shape != (self.num_replicates,)
        ):
            raise ValueError(
                f"best_quality must be a scalar or shape ({self.num_replicates},), "
                f"got shape {best_quality.shape}"
            )
        per_step = np.einsum(
            "trj,trj->tr", popularity, self.reward_tensor().astype(float)
        )
        return best_quality - per_step.mean(axis=0)

    def best_option_share(self, best_option) -> np.ndarray:
        """Per-replicate average pre-step popularity of ``best_option``, shape ``(R,)``.

        ``best_option`` is one shared option index or a shape-``(R,)`` array
        of per-row indices (each row tracks its own best option).
        """
        popularity = self.popularity_tensor()
        if popularity.shape[0] == 0:
            raise ValueError("need at least one recorded step")
        best_option = np.asarray(best_option)
        if not np.issubdtype(best_option.dtype, np.integer):
            raise ValueError("best_option must be an integer or integer array")
        if np.any(best_option < 0) or np.any(best_option >= self.num_options):
            raise ValueError(
                f"best_option {best_option} out of range for m={self.num_options}"
            )
        if best_option.ndim == 0:
            return popularity[:, :, int(best_option)].mean(axis=0)
        if best_option.shape != (self.num_replicates,):
            raise ValueError(
                f"per-row best_option must have shape ({self.num_replicates},), "
                f"got {best_option.shape}"
            )
        per_row = np.take_along_axis(
            popularity, best_option[None, :, None], axis=2
        )[:, :, 0]
        return per_row.mean(axis=0)

    def entropy_series(self) -> np.ndarray:
        """Post-step popularity entropy per replicate, shape ``(T, R)``."""
        if not self.states:
            return np.zeros((0, self.num_replicates))
        return np.stack([state.entropy() for state in self.states])


class BatchedDynamics:
    """Replicate-axis vectorised simulator of the two-stage dynamics.

    Advances ``R`` statistically independent copies of the finite-population
    dynamics in lock-step: stage 1 is one row-wise multinomial draw over the
    ``(R, m)`` consideration matrix, stage 2 one broadcast binomial thinning.
    All replicates share one generator, so a batch is reproducible from a
    single seed; per-replicate streams are *not* individually re-runnable (use
    :class:`~repro.core.dynamics.FinitePopulationDynamics` with per-seed loops
    when that is required).  A :class:`~repro.utils.rng.RowBlockGenerator`
    instead gives each block of rows its own generator, so each block
    reproduces the launch that holds it alone.

    The rows of a batch need not share one experiment configuration: the
    adoption parameters (via :class:`~repro.core.adoption.RowwiseAdoptionRule`),
    the exploration rate (a shape-``(R,)`` ``mu`` in
    :class:`~repro.core.sampling.MixtureSampling`) and the population size (a
    shape-``(R,)`` int array) may all vary per row, which is how ``run_sweep``
    flattens an entire parameter grid times its replicates into one launch.
    Scalars everywhere reproduce the original homogeneous behaviour exactly.

    Parameters
    ----------
    num_replicates:
        Number of independent replicates ``R``.
    population_size:
        Number of individuals ``N`` — one int shared by all replicates, or a
        shape-``(R,)`` array of per-row sizes.
    num_options:
        Number of options ``m``.
    adoption_rule:
        The shared adoption function ``f`` (or a per-row
        :class:`~repro.core.adoption.RowwiseAdoptionRule`); defaults to the
        paper's symmetric rule with ``beta = 0.6``.
    sampling_rule:
        The sampling stage; same default policy as
        :class:`~repro.core.dynamics.FinitePopulationDynamics` (applied
        per-row when the adoption rule is per-row).
    initial_state:
        Starting counts — a single :class:`PopulationState` tiled across the
        batch, or a full :class:`BatchedPopulationState`.  Defaults to the
        near-uniform split in every replicate.
    rng:
        Seed, generator or :class:`~repro.utils.rng.RowBlockGenerator`.
        With ``num_replicates == 1`` the stream is consumed exactly as the
        sequential engine consumes it.
    precision:
        Storage :class:`~repro.backends.Precision` (name or instance).  The
        default float64/int64 is bit-identical to the historical behaviour;
        ``"float32"`` stores int32 counts and records float32 popularities
        while every random draw still consumes the stream in float64 (see
        :mod:`repro.backends.precision` for the full dtype contract).
    """

    def __init__(
        self,
        num_replicates: int,
        population_size: Union[int, np.ndarray],
        num_options: int,
        adoption_rule: Optional[AdoptionRule] = None,
        sampling_rule: Optional[SamplingRule] = None,
        initial_state: Optional[Union[PopulationState, BatchedPopulationState]] = None,
        rng: RngLike = None,
        precision: PrecisionLike = None,
    ) -> None:
        self._precision = resolve_precision(precision)
        self._num_replicates = check_positive_int(num_replicates, "num_replicates")
        if np.ndim(population_size) == 0:
            self._population_size: Union[int, np.ndarray] = check_positive_int(
                population_size, "population_size"
            )
        else:
            sizes = np.asarray(population_size, dtype=np.int64)
            if sizes.shape != (num_replicates,):
                raise ValueError(
                    f"per-replicate population_size must have shape "
                    f"({num_replicates},), got {sizes.shape}"
                )
            if np.any(sizes <= 0):
                raise ValueError("every population size must be positive")
            self._population_size = sizes.copy()
            self._population_size.setflags(write=False)
        self._num_options = check_positive_int(num_options, "num_options")
        self._adoption_rule = adoption_rule or SymmetricAdoptionRule(0.6)
        rule_rows = np.ndim(self._adoption_rule.alpha) and np.size(
            self._adoption_rule.alpha
        )
        if rule_rows and rule_rows != num_replicates:
            raise ValueError(
                f"per-row adoption rule has {rule_rows} rows but the batch has "
                f"{num_replicates} replicates"
            )
        if sampling_rule is None:
            sampling_rule = MixtureSampling(
                default_exploration_rate(self._adoption_rule)
            )
        mu_rows = np.ndim(sampling_rule.exploration_rate) and np.size(
            sampling_rule.exploration_rate
        )
        if mu_rows and mu_rows != num_replicates:
            raise ValueError(
                f"per-row sampling rule has {mu_rows} rows but the batch has "
                f"{num_replicates} replicates"
            )
        self._sampling_rule = sampling_rule
        if initial_state is None:
            if np.ndim(self._population_size) == 0:
                initial_state = BatchedPopulationState.uniform(
                    num_replicates, self._population_size, num_options
                )
            else:
                initial_state = BatchedPopulationState.stack(
                    [
                        PopulationState.uniform(int(size), num_options)
                        for size in self._population_size
                    ]
                )
        elif isinstance(initial_state, PopulationState):
            initial_state = BatchedPopulationState.from_state(
                initial_state, num_replicates
            )
        if initial_state.num_replicates != num_replicates:
            raise ValueError("initial_state has the wrong number of replicates")
        if initial_state.num_options != num_options:
            raise ValueError("initial_state has the wrong number of options")
        expected_sizes = (
            np.full(num_replicates, self._population_size, dtype=np.int64)
            if np.ndim(self._population_size) == 0
            else self._population_size
        )
        if not np.array_equal(initial_state.population_sizes, expected_sizes):
            raise ValueError("initial_state has the wrong population size")
        # An int32 engine must be able to count its largest population.
        self._precision.check_count_value(
            int(np.max(initial_state.population_sizes)), "population_size"
        )
        if not self._precision.is_default:
            initial_state = BatchedPopulationState(
                counts=initial_state.counts.astype(self._precision.int_dtype),
                population_size=initial_state.population_size,
                time=initial_state.time,
            )
        self._initial_state = initial_state
        self._state = initial_state
        self._rng = ensure_rng(rng)

    # ------------------------------------------------------------ properties
    @property
    def num_replicates(self) -> int:
        """Number of independent replicates ``R``."""
        return self._num_replicates

    @property
    def population_size(self) -> Union[int, np.ndarray]:
        """Number of individuals ``N`` per replicate (int, or ``(R,)`` array per-row)."""
        return self._population_size

    @property
    def num_options(self) -> int:
        """Number of options ``m``."""
        return self._num_options

    @property
    def adoption_rule(self) -> AdoptionRule:
        """The shared adoption function ``f``."""
        return self._adoption_rule

    @property
    def sampling_rule(self) -> SamplingRule:
        """The sampling stage rule."""
        return self._sampling_rule

    @property
    def precision(self):
        """The storage :class:`~repro.backends.Precision` of the hot state."""
        return self._precision

    @property
    def state(self) -> BatchedPopulationState:
        """Current batched population state."""
        return self._state

    def popularity(self) -> np.ndarray:
        """Current per-replicate popularity ``Q^t``, shape ``(R, m)``."""
        return self._state.popularity()

    def reset(self, rng: RngLike = None) -> None:
        """Return every replicate to the initial state.

        Same contract as :meth:`FinitePopulationDynamics.reset
        <repro.core.dynamics.FinitePopulationDynamics.reset>`: with
        ``rng=None`` the (already advanced) generator is kept, so a
        subsequent run draws fresh randomness; pass the original seed to
        reproduce the first run exactly.
        """
        self._state = self._initial_state
        if rng is not None:
            self._rng = ensure_rng(rng)

    # ------------------------------------------------------------------ step
    def step(self, rewards: np.ndarray) -> BatchedPopulationState:
        """Advance every replicate one step given the rewards ``R^{t+1}``.

        Parameters
        ----------
        rewards:
            Either an ``(R, m)`` matrix of per-replicate binary reward
            realisations (the usual case — each replicate observes its own
            draw of the environment) or a single ``(m,)`` vector shared by
            all replicates (the coupled / common-rewards regime).
        """
        rewards = np.asarray(rewards)
        if rewards.shape == (self._num_options,):
            rewards = np.broadcast_to(
                rewards, (self._num_replicates, self._num_options)
            )
        elif rewards.shape != (self._num_replicates, self._num_options):
            raise ValueError(
                f"rewards must have shape ({self._num_replicates}, "
                f"{self._num_options}) or ({self._num_options},), got {rewards.shape}"
            )
        if np.any((rewards != 0) & (rewards != 1)):
            raise ValueError("rewards must be binary")

        # The sampling/adoption math and both draws run in float64 at every
        # precision — the storage dtype is applied only to the new counts —
        # so all precisions consume the random stream identically.
        popularity = self._state.popularity()
        consideration = self._sampling_rule.consideration_probabilities_batch(
            popularity
        )
        selected = self._rng.multinomial(self._population_size, consideration)
        adopt_probabilities = self._adoption_rule.adopt_probabilities(rewards)
        new_counts = self._rng.binomial(selected, adopt_probabilities)
        self._state = BatchedPopulationState(
            counts=new_counts.astype(self._precision.int_dtype),
            population_size=self._population_size,
            time=self._state.time + 1,
        )
        return self._state

    def run(
        self,
        environment: RewardEnvironment,
        horizon: int,
    ) -> BatchedTrajectory:
        """Simulate ``horizon`` steps of every replicate against ``environment``.

        Each step draws one ``(R, m)`` reward batch via
        :meth:`~repro.environments.base.RewardEnvironment.sample_batch`, so
        replicates observe independent reward realisations from the same
        environment instance (sharing its quality path, if it drifts).
        """
        horizon = check_positive_int(horizon, "horizon")
        if environment.num_options != self._num_options:
            raise ValueError(
                "environment and dynamics disagree on the number of options"
            )
        shape = (horizon, self._num_replicates, self._num_options)
        popularities = np.empty(shape, dtype=self._precision.float_dtype)
        counts = np.empty(shape, dtype=self._precision.int_dtype)
        trajectory = BatchedTrajectory(initial_state=self._state)
        population_size = self._population_size
        consider = self._sampling_rule._consider_batch
        adopt_probabilities = self._adoption_rule.adopt_probabilities
        multinomial = self._rng.multinomial
        binomial = self._rng.binomial
        state = self._state
        try:
            for step in range(horizon):
                # What step() does, on rewards sample_batch has checked; the
                # math and both draws run in float64 at every precision.
                popularity = state.popularity()
                popularities[step] = popularity
                rewards = environment.sample_batch(self._num_replicates)
                selected = multinomial(population_size, consider(popularity))
                counts[step] = binomial(selected, adopt_probabilities(rewards))
                state = BatchedPopulationState._of_checked(
                    counts[step], population_size, state.time + 1
                )
                trajectory.record(popularities[step], rewards, state)
        except Exception:
            # A bad count drawn by an earlier step is what makes a later
            # draw fail, so its error is the one to report.
            self._check_record(counts[:step], popularities[:step])
            if step:
                # Where step() calls would have left it: the state after the
                # last completed step, matching the generator's position.
                self._state = BatchedPopulationState._of_checked(
                    counts[step - 1], population_size, self._state.time + step
                )
            raise
        self._check_record(counts, popularities)
        self._state = state
        return trajectory

    def _check_record(self, counts: np.ndarray, popularities: np.ndarray) -> None:
        """The per-step checks of :meth:`step`, over a run's record at once.

        ``popularities`` are the recorded ones, at the storage precision.
        """
        if len(counts) == 0:
            return
        if counts.min() < 0 or np.any(counts.sum(axis=2) > self._population_size):
            for step_counts in counts:
                BatchedPopulationState(
                    counts=step_counts, population_size=self._population_size
                )
        check_popularity_rows(popularities)


def simulate_batched_population(
    environment: RewardEnvironment,
    population_size: Union[int, np.ndarray],
    horizon: int,
    num_replicates: int,
    *,
    beta: Union[float, np.ndarray] = 0.6,
    mu: Union[None, float, np.ndarray] = None,
    alpha: Union[None, float, np.ndarray] = None,
    rng: RngLike = None,
    precision: PrecisionLike = None,
) -> BatchedTrajectory:
    """One-call helper: run ``num_replicates`` replicates with paper defaults.

    The batched counterpart of
    :func:`~repro.core.dynamics.simulate_finite_population`; with
    ``num_replicates=1`` and matching seeds the two produce bit-identical
    trajectories.

    ``population_size``, ``beta``, ``alpha`` and ``mu`` each accept either a
    scalar (shared by all replicates, today's API) or a shape-``(R,)`` array
    giving every row its own value — the sweep-axis mode.  ``alpha`` defaults
    to the symmetric convention ``1 - beta``.
    """
    if np.ndim(beta) == 0 and alpha is None:
        adoption_rule: AdoptionRule = SymmetricAdoptionRule(float(beta))
    elif alpha is None:
        adoption_rule = RowwiseAdoptionRule.symmetric(beta)
    elif np.ndim(beta) == 0 and np.ndim(alpha) == 0:
        adoption_rule = GeneralAdoptionRule(float(alpha), float(beta))
    else:
        adoption_rule = RowwiseAdoptionRule(alpha, beta)
    dynamics = BatchedDynamics(
        num_replicates=num_replicates,
        population_size=population_size,
        num_options=environment.num_options,
        adoption_rule=adoption_rule,
        sampling_rule=MixtureSampling(mu) if mu is not None else None,
        rng=rng,
        precision=precision,
    )
    return dynamics.run(environment, horizon)
