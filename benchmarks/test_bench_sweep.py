"""Grid-throughput benchmark: the fully batched sweep vs the per-point loop.

PR 1 collapsed the replicate axis; this benchmark measures collapsing the
*sweep* axis as well.  A 20-point ``(beta x mu)`` grid at ``N = 10^4`` with
50 replicates per point runs three ways through the same ``run_sweep`` entry
point:

* ``loop`` — the per-point per-seed loop (one
  :class:`FinitePopulationDynamics` launch per replicate, ``G * R`` launches);
* ``point-batched`` — a grid function that runs each point alone (one
  ``(R, m)`` :class:`BatchedDynamics` launch per grid point, ``G`` launches);
* ``grid-batched`` — the sweep-axis path (a single ``(G*R, m)`` launch with
  per-row parameters, each grid point drawing from its own generator).

The grid-batched engine must deliver at least the ISSUE's 5x throughput floor
over the per-point loop, and its result table must agree with the loop
engine's metric means at equal seeds (same per-point seed lists, independent
random streams).
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.core.batched import simulate_batched_population
from repro.environments import BernoulliEnvironment
from repro.experiments import (
    ParameterGrid,
    ResultTable,
    dynamics_grid_replication,
    dynamics_point_replication,
    grid_batched_replication,
    run_sweep,
)

QUALITIES = (0.8, 0.5, 0.5, 0.5, 0.5)
POPULATION = 10_000
REPLICATES = 50
HORIZON = 25
GRID = ParameterGrid(
    {
        "beta": (0.55, 0.6, 0.65, 0.7, 0.75),
        "mu": (0.02, 0.05, 0.1, 0.2),
    }
)
BASE_PARAMETERS = {"qualities": QUALITIES, "N": POPULATION, "T": HORIZON}

REQUIRED_SPEEDUP = 5.0


@grid_batched_replication
def _point_batched_replication(seed_blocks, points):
    """One ``(R, m)`` launch per grid point, each from its own seed list."""
    rows = []
    for seeds, parameters in zip(seed_blocks, points):
        generator = np.random.default_rng(seeds)
        env = BernoulliEnvironment(list(parameters["qualities"]), rng=generator)
        trajectory = simulate_batched_population(
            env,
            parameters["N"],
            parameters["T"],
            len(seeds),
            beta=parameters["beta"],
            mu=parameters["mu"],
            rng=generator,
        )
        regrets = trajectory.expected_regret(list(parameters["qualities"]))
        rows.append([{"regret": float(value)} for value in regrets])
    return rows


def _time_sweep(replication, rounds: int):
    """Best-of-``rounds`` wall time of one full run_sweep call, plus its results."""
    timings, results, table = [], None, None
    for _ in range(rounds):
        start = time.perf_counter()
        results, table = run_sweep(
            "bench-sweep",
            GRID,
            replication,
            replications=REPLICATES,
            seed=0,
            base_parameters=BASE_PARAMETERS,
        )
        timings.append(time.perf_counter() - start)
        assert len(results) == len(GRID)
        assert all(len(result.metrics) == REPLICATES for result in results)
    return min(timings), results, table


@pytest.mark.benchmark(group="throughput")
def test_grid_batched_sweep_throughput(save_results):
    """One (G*R, m) launch beats G*R sequential launches by >= 5x."""
    # Warm the grid path once so allocator / import effects don't bias it.
    _time_sweep(dynamics_grid_replication, rounds=1)
    grid_seconds, grid_results, grid_table = _time_sweep(dynamics_grid_replication, rounds=3)
    point_seconds, _, _ = _time_sweep(_point_batched_replication, rounds=2)
    loop_seconds, loop_results, loop_table = _time_sweep(dynamics_point_replication, rounds=1)

    grid_steps = len(GRID) * REPLICATES * HORIZON
    rows = []
    for engine, seconds in (
        ("loop", loop_seconds),
        ("point-batched", point_seconds),
        ("grid-batched", grid_seconds),
    ):
        rows.append(
            {
                "engine": engine,
                "seconds": seconds,
                "grid_replicate_steps_per_s": grid_steps / seconds,
                "speedup_vs_loop": loop_seconds / seconds,
            }
        )
    table = ResultTable(rows)
    save_results(table, "bench_sweep")

    speedup = loop_seconds / grid_seconds
    assert speedup >= REQUIRED_SPEEDUP, (
        f"grid-batched sweep speedup {speedup:.1f}x below the required "
        f"{REQUIRED_SPEEDUP:.0f}x on a {len(GRID)}-point x {REPLICATES}-replicate "
        f"grid at N={POPULATION}"
    )

    # A throughput win is worthless if the fast path simulates a different
    # process: the two engines' per-point metric means must agree at equal
    # seeds (identical seed derivation, independent random streams).  The
    # tolerance is noise-aware — 5 standard errors of the mean difference,
    # estimated from the per-replicate spreads — so slow-mixing low-mu points
    # (whose per-replicate std reaches ~0.17) don't trip on Monte Carlo noise
    # while a broadcasting bug (a systematic shift) still fails loudly.
    for grid_row, loop_row, grid_result, loop_result in zip(
        grid_table.rows, loop_table.rows, grid_results, loop_results
    ):
        assert grid_row["beta"] == loop_row["beta"]
        assert grid_row["mu"] == loop_row["mu"]
        for metric in ("regret", "best_option_share"):
            spread = float(
                np.hypot(
                    grid_result.metric_values(metric).std() / np.sqrt(REPLICATES),
                    loop_result.metric_values(metric).std() / np.sqrt(REPLICATES),
                )
            )
            assert grid_row[metric] == pytest.approx(
                loop_row[metric], abs=max(0.01, 5.0 * spread)
            ), f"{metric} diverges at beta={grid_row['beta']}, mu={grid_row['mu']}"
