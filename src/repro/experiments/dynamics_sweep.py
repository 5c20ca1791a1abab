"""Canonical replication functions for sweeping the paper's dynamics.

These are the workloads behind benchmark tables and the ``repro sweep`` CLI:
the finite-population dynamics on Bernoulli qualities, swept over any subset
of ``(qualities, N, T, alpha, beta, mu)``.  Two interchangeable execution
engines share one parameter convention:

* :func:`dynamics_point_replication` — the per-seed loop
  (:class:`~repro.core.dynamics.FinitePopulationDynamics`, one run per
  replicate);
* :func:`dynamics_grid_replication` — the sweep-axis batched engine: the
  ``G x R`` grid-times-replicates workload flattens into one ``(G·R, m)``
  :class:`~repro.core.batched.BatchedDynamics` launch with per-row
  parameters (one per ``(T, m, dtype)`` group), then unflattens into
  per-point results.  Each point draws from its own generator, so the fused
  launch gives the rows of ``G`` one-point launches.

Parameter convention (per grid point, merged with ``base_parameters``):

``qualities``
    Sequence of option qualities ``eta_j`` (required).
``N``
    Population size (required).
``T``
    Horizon (required).
``beta``
    Good-signal adoption probability (default 0.6).
``alpha``
    Bad-signal adoption probability (default ``1 - beta``, the paper's
    symmetric convention).
``mu``
    Exploration rate (default: the theorem maximum ``min(1, delta^2/6)``
    evaluated at that point's own ``(alpha, beta)``).
``dtype``
    Optional storage precision (grid engine only; the loop engine refuses
    non-default values) — see :mod:`repro.experiments.engine_options`.

Both engines report the same metrics per replicate — ``regret`` (expected
regret over the trajectory) and ``best_option_share`` — and both derive their
randomness from the per-point seed lists that
:func:`~repro.experiments.sweep.run_sweep` hands them, so a sweep is
reproducible from ``(grid, replications, seed)`` alone on either engine.

Memory note: the flattened batch keeps, for every one of the ``T`` steps,
three ``(G·R, m)`` matrices — int64 counts, float64 pre-step popularities and
int8 rewards, ~17 bytes per cell-step in total — i.e. ``O(T · G · R · m)``
memory independent of ``N``.  A 20-point x 50-replicate x 300-step sweep over
5 options is ~25 MB — far below the cost of the per-point trajectories it
replaces — but for very large ``G·R·T`` consider splitting the grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.adoption import GeneralAdoptionRule, RowwiseAdoptionRule
from repro.core.batched import (
    BatchedDynamics,
    BatchedPopulationState,
    BatchedTrajectory,
)
from repro.core.dynamics import FinitePopulationDynamics
from repro.core.regret import best_option_share, expected_regret
from repro.core.sampling import MixtureSampling, default_exploration_rate
from repro.environments import BernoulliEnvironment, RowwiseBernoulliEnvironment
from repro.experiments.engine_options import engine_dtype, require_default_dtype
from repro.experiments.runner import grid_batched_replication
from repro.utils.rng import RowBlockGenerator


def _point_parameters(
    parameters: Dict[str, Any],
) -> Tuple[np.ndarray, int, int, float, float, Any]:
    """Extract and validate one grid point's ``(qualities, N, T, alpha, beta, mu)``."""
    try:
        qualities = np.asarray(parameters["qualities"], dtype=float)
        population = int(parameters["N"])
        horizon = int(parameters["T"])
    except KeyError as error:
        raise KeyError(
            f"dynamics sweep points need 'qualities', 'N' and 'T'; missing {error}"
        ) from None
    beta = float(parameters.get("beta", 0.6))
    alpha_value = parameters.get("alpha")
    alpha = float(alpha_value) if alpha_value is not None else 1.0 - beta
    mu = parameters.get("mu")  # None means "derive the theorem default"
    return qualities, population, horizon, alpha, beta, mu


@dataclass(frozen=True)
class FlatGrid:
    """The ``G x R`` grid flattened to per-row parameter arrays.

    Row layout: rows ``g * R .. (g+1) * R - 1`` are the ``R`` replicates of
    grid point ``g`` — the exact inverse of the unflattening performed by
    :func:`dynamics_grid_replication`.
    """

    qualities: np.ndarray  # (G*R, m)
    population_sizes: Union[int, np.ndarray]  # int or (G*R,)
    alpha: np.ndarray  # (G*R,)
    beta: np.ndarray  # (G*R,)
    mu: np.ndarray  # (G*R,)
    horizon: int
    replications: int
    dtype: Optional[str] = None  # storage precision name, None = float64

    @property
    def num_rows(self) -> int:
        """Total number of flattened rows ``G * R``."""
        return int(self.qualities.shape[0])

    @property
    def num_options(self) -> int:
        """Number of options ``m`` (shared by every grid point)."""
        return int(self.qualities.shape[1])

    def build(self, rng) -> Tuple[BatchedDynamics, RowwiseBernoulliEnvironment]:
        """Construct the single engine launch realising this flattened grid.

        Both the environment and the dynamics draw from ``rng`` — one
        generator, or a :class:`~repro.utils.rng.RowBlockGenerator` giving
        each grid point's rows their own — so a sweep row is
        bit-reproducible by rebuilding this pair with an equal generator.
        """
        environment = RowwiseBernoulliEnvironment(
            self.qualities, rng=rng, precision=self.dtype
        )
        dynamics = BatchedDynamics(
            num_replicates=self.num_rows,
            population_size=self.population_sizes,
            num_options=self.num_options,
            adoption_rule=RowwiseAdoptionRule(self.alpha, self.beta),
            sampling_rule=MixtureSampling(self.mu),
            rng=rng,
            precision=self.dtype,
        )
        return dynamics, environment


def flatten_grid(points: Sequence[Dict[str, Any]], replications: int) -> FlatGrid:
    """Expand per-point parameter dicts into the per-row arrays of one batch.

    Every point's ``qualities`` must have the same length and every point the
    same horizon ``T`` (the batch advances all rows in lock-step); population
    sizes, ``alpha``/``beta`` and ``mu`` may all differ per point.
    """
    if len(points) == 0:
        raise ValueError("need at least one grid point")
    if replications <= 0:
        raise ValueError(f"replications must be positive, got {replications}")

    quality_rows: List[np.ndarray] = []
    sizes: List[int] = []
    alphas: List[float] = []
    betas: List[float] = []
    mus: List[float] = []
    horizons = set()
    dtypes = {engine_dtype(parameters) for parameters in points}
    if len(dtypes) != 1:
        raise ValueError(
            "the flattened batch runs at one precision, so every grid point "
            f"must share the same dtype; got {sorted(dtypes, key=repr)}"
        )
    dtype = dtypes.pop()
    for parameters in points:
        qualities, population, horizon, alpha, beta, mu = _point_parameters(parameters)
        if mu is None:
            mu = default_exploration_rate(GeneralAdoptionRule(alpha, beta))
        quality_rows.append(qualities)
        sizes.append(population)
        alphas.append(alpha)
        betas.append(beta)
        mus.append(float(mu))
        horizons.add(horizon)
    option_counts = {row.size for row in quality_rows}
    if len(option_counts) != 1:
        raise ValueError(
            f"every grid point must have the same number of options, got {sorted(option_counts)}"
        )
    if len(horizons) != 1:
        raise ValueError(
            "the batched sweep advances all grid points in lock-step, so every "
            f"point must share one horizon T; got {sorted(horizons)}"
        )

    size_array = np.repeat(np.asarray(sizes, dtype=np.int64), replications)
    population_sizes: Union[int, np.ndarray]
    if np.all(size_array == size_array[0]):
        population_sizes = int(size_array[0])
    else:
        population_sizes = size_array
    return FlatGrid(
        # from_points is the one canonical definition of the grid-point ->
        # flattened-row layout; deriving the matrix through it (rather than
        # repeating np.repeat here) keeps the two from drifting apart and
        # validates the qualities at flatten time.
        qualities=RowwiseBernoulliEnvironment.from_points(
            quality_rows, replications
        ).qualities,
        population_sizes=population_sizes,
        alpha=np.repeat(np.asarray(alphas), replications),
        beta=np.repeat(np.asarray(betas), replications),
        mu=np.repeat(np.asarray(mus), replications),
        horizon=horizons.pop(),
        replications=replications,
        dtype=dtype,
    )


def _metric_row(regret: float, share: float) -> Dict[str, float]:
    return {"regret": float(regret), "best_option_share": float(share)}


def _point_rows(
    trajectory: BatchedTrajectory, flat: FlatGrid, point: int
) -> List[Dict[str, float]]:
    """Metric rows of grid point ``point`` of a launch over ``flat``.

    The point's rows are cut out into a trajectory of their own before the
    metrics reduce over time, so the arithmetic, down to the summation
    order, is that of a launch holding this point alone.
    """
    rows = slice(point * flat.replications, (point + 1) * flat.replications)
    initial = trajectory.initial_state
    block = BatchedTrajectory(
        initial_state=BatchedPopulationState(
            counts=initial.counts[rows],
            population_size=initial.population_sizes[rows],
        ),
        pre_step_popularities=[
            popularity[rows] for popularity in trajectory.pre_step_popularities
        ],
    )
    qualities = flat.qualities[rows]
    regrets = block.expected_regret(qualities)
    shares = block.best_option_share(qualities.argmax(axis=1))
    return [_metric_row(regret, share) for regret, share in zip(regrets, shares)]


@grid_batched_replication
def dynamics_grid_replication(
    seed_blocks: Sequence[Sequence[int]], points: Sequence[Dict[str, Any]]
) -> List[List[Dict[str, float]]]:
    """Run a dynamics sweep in as few flattened engine launches as its points allow.

    Points that share ``(T, m, dtype)`` run as one ``(G·R, m)`` launch.
    Inside a launch, point ``g``'s rows take every draw from
    ``np.random.default_rng(seed_blocks[g])`` (a
    :class:`~repro.utils.rng.RowBlockGenerator`), which is the generator a
    one-point call uses.  A point's rows therefore depend only on its own
    seeds and parameters: any split of a grid into calls, and any sharding
    of a sweep, gives the same rows (see
    ``tests/property/test_engine_invariants.py``).
    """
    if len(seed_blocks) != len(points):
        raise ValueError(
            f"got {len(seed_blocks)} seed blocks for {len(points)} grid points"
        )
    launches: Dict[Tuple[Any, ...], List[int]] = {}
    for index, parameters in enumerate(points):
        qualities, _, horizon, *_ = _point_parameters(parameters)
        key = (horizon, qualities.size, engine_dtype(parameters))
        launches.setdefault(key, []).append(index)
    rows: List[List[Dict[str, float]]] = [[] for _ in points]
    for indices in launches.values():
        blocks = [seed_blocks[index] for index in indices]
        flat = flatten_grid([points[index] for index in indices], len(blocks[0]))
        if any(len(block) != flat.replications for block in blocks):
            raise ValueError(
                "every grid point must contribute the same number of seeds; "
                f"got {sorted({len(block) for block in blocks})}"
            )
        generator = (
            np.random.default_rng(list(blocks[0]))
            if len(blocks) == 1
            else RowBlockGenerator(blocks)
        )
        dynamics, environment = flat.build(generator)
        trajectory = dynamics.run(environment, flat.horizon)
        for position, index in enumerate(indices):
            rows[index] = _point_rows(trajectory, flat, position)
    return rows


def dynamics_point_replication(
    seed: int, parameters: Dict[str, Any]
) -> Dict[str, float]:
    """Per-seed loop engine for the same workload (the ``--engine loop`` fallback).

    One :class:`~repro.core.dynamics.FinitePopulationDynamics` run per
    replicate, with the environment seeded at ``seed`` and the dynamics at
    ``seed + 1`` (the repository's per-seed convention).
    """
    require_default_dtype(parameters, "loop")
    qualities, population, horizon, alpha, beta, mu = _point_parameters(parameters)
    rule = GeneralAdoptionRule(alpha, beta)
    if mu is None:
        mu = default_exploration_rate(rule)
    environment = BernoulliEnvironment(qualities, rng=seed)
    dynamics = FinitePopulationDynamics(
        population_size=population,
        num_options=int(qualities.size),
        adoption_rule=rule,
        sampling_rule=MixtureSampling(float(mu)),
        rng=seed + 1,
    )
    trajectory = dynamics.run(environment, horizon)
    matrix = trajectory.popularity_matrix()
    return _metric_row(
        expected_regret(matrix, qualities),
        best_option_share(matrix, int(qualities.argmax())),
    )
