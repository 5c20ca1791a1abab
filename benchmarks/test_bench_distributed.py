"""Distributed-protocol throughput: the batched engine vs the message loop.

The message-passing loop (:class:`repro.distributed.DistributedLearningProtocol`)
pays Python-interpreter cost per node *and* per message object per round, so
at ``N = 10^4`` a single round costs hundreds of milliseconds.  The batched
engine (:class:`repro.distributed.BatchedProtocol`) replaces the
node/message loop with whole-population array operations, and at ``R > 1``
amortises the remaining per-round Python overhead across replicate fleets.
This benchmark measures the loop, the batched engine at ``R = 1`` (one
replicate, the per-seed path) and at ``R = 16`` on a lossy network at
``N = 10^4``, and asserts the batched engine at ``R = 1`` is at least 10x
faster than the loop.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.core.adoption import SymmetricAdoptionRule
from repro.distributed import (
    BatchedProtocol,
    DistributedLearningProtocol,
    LossyTransport,
)
from repro.environments import BernoulliEnvironment
from repro.experiments import ResultTable

QUALITIES = [0.9, 0.6, 0.6, 0.5]
NUM_NODES = 10_000
ROUNDS = 5
BATCH_REPLICATES = 16
BETA = 0.62
MU = 0.03
LOSS = 0.1

REQUIRED_SPEEDUP = 10.0


def _run_loop() -> None:
    environment = BernoulliEnvironment(QUALITIES, rng=0)
    protocol = DistributedLearningProtocol(
        NUM_NODES,
        len(QUALITIES),
        adoption_rule=SymmetricAdoptionRule(BETA),
        exploration_rate=MU,
        transport=LossyTransport(loss_rate=LOSS, rng=1),
        rng=2,
    )
    protocol.run(environment, ROUNDS)


def _run_batched(replicates: int) -> None:
    environment = BernoulliEnvironment(QUALITIES, rng=0)
    protocol = BatchedProtocol(
        NUM_NODES,
        len(QUALITIES),
        num_replicates=replicates,
        adoption_rule=SymmetricAdoptionRule(BETA),
        exploration_rate=MU,
        loss_rate=LOSS,
        rng=2,
    )
    protocol.run(environment, ROUNDS)


def _timed(run, *args) -> float:
    start = time.perf_counter()
    run(*args)
    return time.perf_counter() - start


@pytest.mark.benchmark(group="distributed-throughput")
def test_single_replicate_protocol_throughput(save_results, traced_peak):
    """The batched protocol engine at R = 1 delivers >= 10x over the message loop."""
    # Warm both code paths once so neither side pays one-off import or
    # allocation costs inside the timed region.
    _timed(_run_batched, 1)

    single_seconds = min(_timed(_run_batched, 1) for _ in range(3))
    loop_seconds = _timed(_run_loop)
    batched_seconds = min(_timed(_run_batched, BATCH_REPLICATES) for _ in range(2))

    # Peak memory in a separate tracemalloc pass (tracing skews wall time).
    _, loop_peak = traced_peak(_run_loop)
    _, single_peak = traced_peak(lambda: _run_batched(1))
    _, batched_peak = traced_peak(lambda: _run_batched(BATCH_REPLICATES))

    node_rounds = NUM_NODES * ROUNDS
    speedup = loop_seconds / single_seconds
    batched_speedup = (loop_seconds * BATCH_REPLICATES) / batched_seconds
    table = ResultTable(
        [
            {
                "engine": "loop",
                "replicates": 1,
                "seconds": loop_seconds,
                "node_rounds_per_s": node_rounds / loop_seconds,
                "peak_mb": loop_peak / 2**20,
                "speedup_per_replicate": 1.0,
            },
            {
                "engine": "batched",
                "replicates": 1,
                "seconds": single_seconds,
                "node_rounds_per_s": node_rounds / single_seconds,
                "peak_mb": single_peak / 2**20,
                "speedup_per_replicate": speedup,
            },
            {
                "engine": "batched",
                "replicates": BATCH_REPLICATES,
                "seconds": batched_seconds,
                "node_rounds_per_s": node_rounds * BATCH_REPLICATES / batched_seconds,
                "peak_mb": batched_peak / 2**20,
                "speedup_per_replicate": batched_speedup,
            },
        ]
    )
    save_results(table, "bench_distributed")

    assert speedup >= REQUIRED_SPEEDUP, (
        f"batched protocol engine speedup at R=1 {speedup:.1f}x below the "
        f"required {REQUIRED_SPEEDUP:.0f}x at N={NUM_NODES}"
    )


@pytest.mark.benchmark(group="distributed-throughput")
def test_engines_agree_on_mean_terminal_share(save_results):
    """A throughput win is worthless if the fast engines simulate a different protocol.

    Cross-checks the replicate-mean terminal best-option popularity of the
    loop and the batched engine, per seed at R = 1 and as one launch, at a
    smaller size (the loop engine is the bottleneck).
    The full distributional gate lives in
    ``tests/integration/test_cross_validation.py``; this is a cheap smoke
    that the benchmark configuration itself is simulated consistently.
    """
    nodes, rounds, replicates = 300, 40, 30

    def loop_terminal():
        values = []
        for seed in range(replicates):
            environment = BernoulliEnvironment(QUALITIES, rng=seed)
            protocol = DistributedLearningProtocol(
                nodes,
                len(QUALITIES),
                adoption_rule=SymmetricAdoptionRule(BETA),
                exploration_rate=MU,
                transport=LossyTransport(loss_rate=LOSS, rng=seed + 500),
                rng=seed + 1000,
            )
            values.append(protocol.run(environment, rounds).popularity_matrix[-1, 0])
        return float(np.mean(values))

    def single_replicate_terminal():
        values = []
        for seed in range(replicates):
            environment = BernoulliEnvironment(QUALITIES, rng=seed)
            protocol = BatchedProtocol(
                nodes,
                len(QUALITIES),
                num_replicates=1,
                adoption_rule=SymmetricAdoptionRule(BETA),
                exploration_rate=MU,
                loss_rate=LOSS,
                rng=seed + 1000,
            )
            result = protocol.run(environment, rounds)
            values.append(result.trajectory.popularity_tensor()[-1, 0, 0])
        return float(np.mean(values))

    def batched_terminal():
        environment = BernoulliEnvironment(QUALITIES, rng=7)
        protocol = BatchedProtocol(
            nodes,
            len(QUALITIES),
            num_replicates=replicates,
            adoption_rule=SymmetricAdoptionRule(BETA),
            exploration_rate=MU,
            loss_rate=LOSS,
            rng=8,
        )
        result = protocol.run(environment, rounds)
        return float(result.trajectory.popularity_tensor()[-1, :, 0].mean())

    loop_mean = loop_terminal()
    assert single_replicate_terminal() == pytest.approx(loop_mean, abs=0.08)
    assert batched_terminal() == pytest.approx(loop_mean, abs=0.08)
