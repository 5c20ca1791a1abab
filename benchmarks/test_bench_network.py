"""Network-engine throughput: the batched sparse engine vs the per-agent loop.

The per-agent reference loop (:class:`repro.network.dynamics.NetworkDynamics`)
pays Python-interpreter cost per agent per step, so at ``N = 10^4`` a single
step is tens of milliseconds.  The batched engine
(:class:`repro.network.vectorized.BatchedNetworkDynamics`) replaces the loop
with one CSR sparse matvec plus bulk inverse-CDF sampling per replicate, and
at ``R > 1`` amortises even the per-step Python overhead across replicates
sharing one graph.  This benchmark measures the loop, the batched engine at
``R = 1`` (one replicate, the per-seed path) and at ``R = 16`` on the same
Watts–Strogatz graph at ``N = 10^4``, and asserts the batched engine at
``R = 1`` is at least 10x faster than the loop.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.core.adoption import SymmetricAdoptionRule
from repro.environments import BernoulliEnvironment
from repro.experiments import ResultTable
from repro.network import BatchedNetworkDynamics, NetworkDynamics, SocialNetwork

QUALITIES = [0.8, 0.5, 0.5]
SIZE = 10_000
HORIZON = 6
BATCH_REPLICATES = 16
BETA = 0.65
MU = 0.05

REQUIRED_SPEEDUP = 10.0


@pytest.fixture(scope="module")
def network() -> SocialNetwork:
    return SocialNetwork.watts_strogatz(
        SIZE, nearest_neighbors=6, rewiring_probability=0.1, rng=0
    )


def _run_loop(network: SocialNetwork) -> None:
    environment = BernoulliEnvironment(QUALITIES, rng=0)
    dynamics = NetworkDynamics(
        network=network,
        num_options=len(QUALITIES),
        adoption_rule=SymmetricAdoptionRule(BETA),
        exploration_rate=MU,
        rng=1,
    )
    dynamics.run(environment, HORIZON)


def _run_batched(network: SocialNetwork, replicates: int) -> None:
    environment = BernoulliEnvironment(QUALITIES, rng=0)
    dynamics = BatchedNetworkDynamics(
        network=network,
        num_options=len(QUALITIES),
        num_replicates=replicates,
        adoption_rule=SymmetricAdoptionRule(BETA),
        exploration_rate=MU,
        rng=1,
    )
    dynamics.run(environment, HORIZON)


def _timed(run, *args) -> float:
    start = time.perf_counter()
    run(*args)
    return time.perf_counter() - start


@pytest.mark.benchmark(group="network-throughput")
def test_single_replicate_network_engine_throughput(
    network, save_results, traced_peak
):
    """The batched engine at R = 1 delivers >= 10x over the per-agent loop."""
    # Warm the CSR cache and both code paths once so neither side pays
    # one-off allocation/import costs inside the timed region.
    network.csr_indices
    _timed(_run_batched, network, 1)

    single_seconds = min(_timed(_run_batched, network, 1) for _ in range(3))
    loop_seconds = _timed(_run_loop, network)
    batched_seconds = min(
        _timed(_run_batched, network, BATCH_REPLICATES) for _ in range(2)
    )

    # Peak memory in a separate tracemalloc pass (tracing skews wall time).
    _, loop_peak = traced_peak(lambda: _run_loop(network))
    _, single_peak = traced_peak(lambda: _run_batched(network, 1))
    _, batched_peak = traced_peak(lambda: _run_batched(network, BATCH_REPLICATES))

    agent_steps = SIZE * HORIZON
    speedup = loop_seconds / single_seconds
    batched_speedup = (loop_seconds * BATCH_REPLICATES) / batched_seconds
    table = ResultTable(
        [
            {
                "engine": "loop",
                "replicates": 1,
                "seconds": loop_seconds,
                "agent_steps_per_s": agent_steps / loop_seconds,
                "peak_mb": loop_peak / 2**20,
                "speedup_per_replicate": 1.0,
            },
            {
                "engine": "batched",
                "replicates": 1,
                "seconds": single_seconds,
                "agent_steps_per_s": agent_steps / single_seconds,
                "peak_mb": single_peak / 2**20,
                "speedup_per_replicate": speedup,
            },
            {
                "engine": "batched",
                "replicates": BATCH_REPLICATES,
                "seconds": batched_seconds,
                "agent_steps_per_s": agent_steps * BATCH_REPLICATES / batched_seconds,
                "peak_mb": batched_peak / 2**20,
                "speedup_per_replicate": batched_speedup,
            },
        ]
    )
    save_results(table, "bench_network")

    assert speedup >= REQUIRED_SPEEDUP, (
        f"batched network engine speedup at R=1 {speedup:.1f}x below the "
        f"required {REQUIRED_SPEEDUP:.0f}x at N={SIZE}"
    )


@pytest.mark.benchmark(group="network-throughput")
def test_engines_agree_on_mean_regret(network):
    """A throughput win is worthless if the fast engines simulate a different process.

    Cross-checks the replicate-mean terminal best-option popularity of the
    loop and the batched engine, per seed at R = 1 and as one launch, at a
    smaller size (the loop engine is the bottleneck).
    The full distributional gate lives in
    ``tests/integration/test_cross_validation.py``; this is a cheap smoke
    that the benchmark configuration itself is simulated consistently.
    """
    small = SocialNetwork.watts_strogatz(300, 6, 0.1, rng=0)
    replicates, horizon = 30, 40

    def loop_terminal():
        values = []
        for seed in range(replicates):
            environment = BernoulliEnvironment(QUALITIES, rng=seed)
            dynamics = NetworkDynamics(
                small, len(QUALITIES), SymmetricAdoptionRule(BETA), MU, rng=seed + 1
            )
            values.append(dynamics.run(environment, horizon).final_state().popularity()[0])
        return np.mean(values)

    def single_replicate_terminal():
        values = []
        for seed in range(replicates):
            environment = BernoulliEnvironment(QUALITIES, rng=seed)
            dynamics = BatchedNetworkDynamics(
                small, len(QUALITIES), 1, SymmetricAdoptionRule(BETA), MU, rng=seed + 1
            )
            final = dynamics.run(environment, horizon).final_state()
            values.append(final.popularity()[0, 0])
        return np.mean(values)

    def batched_terminal():
        environment = BernoulliEnvironment(QUALITIES, rng=7)
        dynamics = BatchedNetworkDynamics(
            small, len(QUALITIES), replicates, SymmetricAdoptionRule(BETA), MU, rng=8
        )
        return float(dynamics.run(environment, horizon).final_state().popularity()[:, 0].mean())

    loop_mean = loop_terminal()
    assert single_replicate_terminal() == pytest.approx(loop_mean, abs=0.08)
    assert batched_terminal() == pytest.approx(loop_mean, abs=0.08)
