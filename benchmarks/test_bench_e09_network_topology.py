"""E9 — network-restricted sampling (Section 6 open problem).

Paper question: if individuals can only sample their neighbours in a social
graph, "whether, and to what extent, the efficiency of the group remains as a
function of the network topology."

The benchmark runs the network-restricted dynamics over a suite of standard
topologies at equal size and identical reward processes and reports regret,
best-option share and graph statistics.  Expected shape: the complete graph
(the paper's base model) is the most efficient; well-mixed sparse graphs
(Erdős–Rényi, small-world, preferential attachment) come close; poorly mixing
graphs (ring, grid) and the star are noticeably worse.

Runs one replicate per seed on the batched sparse engine
(``simulate_batched_network_dynamics`` with ``num_replicates=1``) — the
per-agent loop makes this same sweep an order of magnitude slower (see
``benchmarks/test_bench_network.py`` for the measured engine comparison).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import BernoulliEnvironment, best_option_share, expected_regret
from repro.experiments import ResultTable
from repro.network import SocialNetwork, simulate_batched_network_dynamics

POPULATION = 300
NUM_OPTIONS = 3
HORIZON = 300
BETA = 0.62
REPLICATIONS = 3
QUALITIES = [0.85, 0.5, 0.5]


def run_experiment() -> ResultTable:
    table = ResultTable()
    networks = SocialNetwork.standard_suite(POPULATION, rng=0)
    for network in networks:
        regrets, shares = [], []
        for seed in range(REPLICATIONS):
            env = BernoulliEnvironment(QUALITIES, rng=seed)
            trajectory = simulate_batched_network_dynamics(
                env, network, HORIZON, 1, beta=BETA, rng=seed + 50
            )
            matrix = trajectory.replicate(0).popularity_matrix()
            regrets.append(expected_regret(matrix, QUALITIES))
            shares.append(best_option_share(matrix, 0))
        metrics = network.metrics()
        table.add_row(
            {
                "topology": metrics["name"],
                "avg_degree": metrics["average_degree"],
                "spectral_gap": metrics["spectral_gap"],
                "regret": float(np.mean(regrets)),
                "best_option_share": float(np.mean(shares)),
            }
        )
    return table


@pytest.mark.benchmark(group="E9-network-topology")
def test_topology_controls_group_efficiency(benchmark, save_results):
    table = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    save_results(table, "E9_network_topology")
    regret = {row["topology"].split("(")[0]: row["regret"] for row in table.rows}
    # The complete graph is (weakly) the best of the suite.
    assert regret["complete"] <= min(regret.values()) + 0.02
    # Well-mixed sparse graphs stay close to the complete graph...
    assert regret["erdos_renyi"] <= regret["complete"] + 0.08
    assert regret["watts_strogatz"] <= regret["complete"] + 0.1
    # ...while the star (all information routed through one hub) is clearly worse.
    assert regret["star"] >= regret["complete"] + 0.05
