"""Precision benchmark: float32 storage on the flattened sweep.

Three claims of the storage-precision knob, measured on a 10^5-row
flattened dynamics sweep (20 grid points x 5000 replications) advanced in
lock-step:

1. **Throughput floor**: the default float64/int64 path sustains the
   throughput floor, and the float32 path costs no more wall time than the
   default (they run the same float64 draw math and differ only in storage
   dtype).
2. **float32 memory**: opting into ``dtype=float32`` cuts the peak traced
   allocation of the sweep by at least 40% (the recorded trajectory —
   popularity + counts + rewards per step — dominates, and its float/int
   cells halve).
3. **Statistical equivalence**: the float32 sweep's per-row regrets agree
   with the float64 sweep's under a two-sample KS test — precision is a
   storage choice, not a different process.
"""

from __future__ import annotations

import time

import numpy as np
import pytest
from scipy.stats import ks_2samp

from repro.experiments import ResultTable
from repro.experiments.dynamics_sweep import flatten_grid

GRID_POINTS = 20
REPLICATIONS = 5_000  # 20 x 5000 = 1e5 flattened rows
ROWS = GRID_POINTS * REPLICATIONS
POPULATION = 100
HORIZON = 20
QUALITIES = [0.8, 0.5, 0.5]

REQUIRED_MEMORY_SAVINGS = 0.40
REQUIRED_ROW_STEPS_PER_S = 50_000.0
KS_PVALUE_FLOOR = 0.01


def _flat_grid(dtype):
    point = {"qualities": QUALITIES, "N": POPULATION, "T": HORIZON, "beta": 0.65}
    if dtype is not None:
        point = {**point, "dtype": dtype}
    return flatten_grid([dict(point) for _ in range(GRID_POINTS)], REPLICATIONS)


def _run_sweep(dtype):
    flat = _flat_grid(dtype)
    dynamics, environment = flat.build(np.random.default_rng(0))
    trajectory = dynamics.run(environment, flat.horizon)
    return trajectory.expected_regret(flat.qualities)


def _time_sweep(dtype, rounds: int) -> float:
    timings = []
    for _ in range(rounds):
        start = time.perf_counter()
        regrets = _run_sweep(dtype)
        timings.append(time.perf_counter() - start)
        assert regrets.shape == (ROWS,)
    return min(timings)


@pytest.mark.benchmark(group="precision")
def test_default_throughput_and_float32_memory(save_results, traced_peak):
    """Default path holds the throughput floor; float32 saves >= 40% peak memory."""
    # Warm once so allocator/import effects don't bias the first timed round.
    _time_sweep(None, rounds=1)
    default_seconds = _time_sweep(None, rounds=2)
    float32_seconds = _time_sweep("float32", rounds=2)

    # Memory in a separate tracemalloc pass — tracing skews wall time.
    _, default_peak = traced_peak(lambda: _run_sweep(None))
    _, float32_peak = traced_peak(lambda: _run_sweep("float32"))
    savings = 1.0 - float32_peak / default_peak

    row_steps = ROWS * HORIZON
    table = ResultTable(
        [
            {
                "dtype": "float64",
                "seconds": default_seconds,
                "row_steps_per_s": row_steps / default_seconds,
                "peak_mb": default_peak / 2**20,
                "memory_savings": 0.0,
            },
            {
                "dtype": "float32",
                "seconds": float32_seconds,
                "row_steps_per_s": row_steps / float32_seconds,
                "peak_mb": float32_peak / 2**20,
                "memory_savings": savings,
            },
        ]
    )
    save_results(table, "bench_backends")

    default_rate = row_steps / default_seconds
    assert default_rate >= REQUIRED_ROW_STEPS_PER_S, (
        f"default float64 path regressed to {default_rate:,.0f} row-steps/s, "
        f"below the {REQUIRED_ROW_STEPS_PER_S:,.0f} floor"
    )
    # Same draw math at both precisions -> float32 must not cost extra time
    # (generous factor: only storage casts differ).
    assert float32_seconds <= 1.6 * default_seconds, (
        f"float32 path took {float32_seconds:.2f}s vs float64 "
        f"{default_seconds:.2f}s — storage dtype should not slow the engine"
    )
    assert savings >= REQUIRED_MEMORY_SAVINGS, (
        f"float32 peak memory savings {savings:.1%} below the required "
        f"{REQUIRED_MEMORY_SAVINGS:.0%} ({default_peak / 2**20:.0f} MB -> "
        f"{float32_peak / 2**20:.0f} MB)"
    )


@pytest.mark.benchmark(group="precision")
def test_float32_regrets_statistically_match_float64():
    """Per-row regrets at the two precisions pass a two-sample KS test."""
    default_regrets = _run_sweep(None)
    float32_regrets = _run_sweep("float32")
    result = ks_2samp(default_regrets, float32_regrets)
    assert result.pvalue >= KS_PVALUE_FLOOR, (
        f"float32 regret distribution diverged from float64 "
        f"(KS statistic {result.statistic:.4f}, p={result.pvalue:.4f})"
    )

