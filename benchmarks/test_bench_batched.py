"""Replicate-throughput benchmark: batched engine vs the sequential loop.

The replicate-axis engine (:class:`repro.core.batched.BatchedDynamics`)
advances all ``R`` replicates as one ``(R, m)`` count matrix per step, so the
per-replicate Python overhead of the sequential ``run_replications`` loop
(one :class:`FinitePopulationDynamics` instance, environment, and trajectory
per seed) disappears.  This benchmark measures both paths through the same
``run_replications`` entry point at the ISSUE's target configuration —
``N = 10^5``, ``R = 100`` — and asserts the batched path is at least 10x
faster per replicate-step.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.core.batched import simulate_batched_population
from repro.core.dynamics import simulate_finite_population
from repro.core.regret import expected_regret
from repro.environments import BernoulliEnvironment
from repro.experiments import (
    ExperimentConfig,
    ResultTable,
    grid_batched_replication,
    run_replications,
)

QUALITIES = [0.8, 0.5, 0.5, 0.5, 0.5]
POPULATION = 100_000
REPLICATES = 100
HORIZON = 50
BETA = 0.65
MU = 0.05

REQUIRED_SPEEDUP = 10.0


def _loop_replication(seed, parameters):
    env = BernoulliEnvironment(QUALITIES, rng=seed)
    trajectory = simulate_finite_population(
        env, POPULATION, HORIZON, beta=BETA, mu=MU, rng=seed + 1
    )
    return {"regret": expected_regret(trajectory.popularity_matrix(), QUALITIES)}


def _batched_rows(seeds, population):
    """One ``(R, m)`` launch of ``len(seeds)`` replicates, seeded by ``seeds``."""
    generator = np.random.default_rng(seeds)
    env = BernoulliEnvironment(QUALITIES, rng=generator)
    trajectory = simulate_batched_population(
        env, population, HORIZON, len(seeds), beta=BETA, mu=MU, rng=generator
    )
    return [{"regret": float(value)} for value in trajectory.expected_regret(QUALITIES)]


@grid_batched_replication
def _batched_replication(seed_blocks, points):
    return [_batched_rows(seeds, POPULATION) for seeds in seed_blocks]


def _time(replication, rounds: int) -> float:
    """Best-of-``rounds`` wall time of one full run_replications call."""
    config = ExperimentConfig(name="bench-batched", replications=REPLICATES, seed=0)
    timings = []
    for _ in range(rounds):
        start = time.perf_counter()
        result = run_replications(config, replication)
        timings.append(time.perf_counter() - start)
        assert len(result.metrics) == REPLICATES
    return min(timings)


@pytest.mark.benchmark(group="throughput")
def test_batched_engine_replicate_throughput(save_results, traced_peak):
    """The batched engine delivers >= 10x replicate-throughput over the loop."""
    # Warm both paths once so allocator / import effects don't bias either side.
    _time(_batched_replication, rounds=1)
    batched_seconds = _time(_batched_replication, rounds=3)
    loop_seconds = _time(_loop_replication, rounds=2)

    # Peak memory in a separate tracemalloc pass (tracing skews wall time).
    config = ExperimentConfig(name="bench-batched-mem", replications=REPLICATES, seed=0)
    _, loop_peak = traced_peak(lambda: run_replications(config, _loop_replication))
    _, batched_peak = traced_peak(
        lambda: run_replications(config, _batched_replication)
    )

    replicate_steps = REPLICATES * HORIZON
    speedup = loop_seconds / batched_seconds
    table = ResultTable(
        [
            {
                "engine": "loop",
                "seconds": loop_seconds,
                "replicate_steps_per_s": replicate_steps / loop_seconds,
                "peak_mb": loop_peak / 2**20,
                "speedup": 1.0,
            },
            {
                "engine": "batched",
                "seconds": batched_seconds,
                "replicate_steps_per_s": replicate_steps / batched_seconds,
                "peak_mb": batched_peak / 2**20,
                "speedup": speedup,
            },
        ]
    )
    save_results(table, "bench_batched")

    assert speedup >= REQUIRED_SPEEDUP, (
        f"batched engine speedup {speedup:.1f}x below the required "
        f"{REQUIRED_SPEEDUP:.0f}x at N={POPULATION}, R={REPLICATES}"
    )


@pytest.mark.benchmark(group="throughput")
def test_batched_and_loop_agree_on_mean_regret():
    """Both paths estimate the same mean regret at the benchmark configuration.

    A throughput win is worthless if the fast path simulates a different
    process; this cross-checks the replication means at smaller scale.
    """
    config = ExperimentConfig(name="bench-batched-agree", replications=40, seed=7)

    def small_loop(seed, parameters):
        env = BernoulliEnvironment(QUALITIES, rng=seed)
        trajectory = simulate_finite_population(
            env, 2000, HORIZON, beta=BETA, mu=MU, rng=seed + 1
        )
        return {"regret": expected_regret(trajectory.popularity_matrix(), QUALITIES)}

    @grid_batched_replication
    def small_batched(seed_blocks, points):
        return [_batched_rows(seeds, 2000) for seeds in seed_blocks]

    loop_mean = run_replications(config, small_loop).metric_values("regret").mean()
    batched_mean = run_replications(config, small_batched).metric_values("regret").mean()
    assert batched_mean == pytest.approx(loop_mean, abs=0.02)
