"""Tests for the canonical network replication functions and their wiring."""

import numpy as np
import pytest

from repro.core.adoption import SymmetricAdoptionRule
from repro.core.regret import expected_regret
from repro.environments import BernoulliEnvironment
from repro.experiments import (
    NETWORK_ENGINES,
    NETWORK_REPLICATIONS,
    ExperimentConfig,
    ParameterGrid,
    build_network,
    network_batched_replication,
    network_point_replication,
    run_replications,
    run_sweep,
)
from repro.network import BatchedNetworkDynamics, NetworkDynamics

PARAMETERS = {
    "qualities": (0.85, 0.45),
    "topology": "ring",
    "N": 60,
    "T": 25,
    "beta": 0.65,
    "mu": 0.05,
}


class TestBuildNetwork:
    def test_every_topology_family_builds(self):
        for topology in (
            "complete",
            "ring",
            "star",
            "erdos_renyi",
            "barabasi_albert",
            "watts_strogatz",
        ):
            network = build_network({"topology": topology, "N": 30})
            assert network.size == 30
        grid = build_network({"topology": "grid", "N": 30})
        assert grid.size == 25  # nearest side*side square

    def test_random_families_are_deterministic_in_graph_seed(self):
        import networkx as nx

        first = build_network({"topology": "erdos_renyi", "N": 40, "graph_seed": 3})
        second = build_network({"topology": "erdos_renyi", "N": 40, "graph_seed": 3})
        other = build_network({"topology": "erdos_renyi", "N": 40, "graph_seed": 4})
        assert nx.utils.graphs_equal(first.graph, second.graph)
        assert not nx.utils.graphs_equal(first.graph, other.graph)

    def test_topology_parameters_respected(self):
        network = build_network({"topology": "ring", "N": 20, "ring_k": 3})
        assert network.degree(0) == 6
        ws = build_network({"topology": "watts_strogatz", "N": 20, "ws_k": 4, "ws_p": 0.0})
        assert ws.degree(0) == 4

    def test_missing_keys_and_unknown_topology_raise(self):
        with pytest.raises(KeyError):
            build_network({"N": 10})
        with pytest.raises(KeyError):
            build_network({"topology": "ring"})
        with pytest.raises(ValueError):
            build_network({"topology": "moebius", "N": 10})


class TestReplicationFunctions:
    def test_engine_registry_is_complete(self):
        assert set(NETWORK_ENGINES) == set(NETWORK_REPLICATIONS)
        assert NETWORK_REPLICATIONS["loop"] is network_point_replication
        assert NETWORK_REPLICATIONS["batched"] is network_batched_replication

    def test_batched_function_is_marked_for_fast_path(self):
        assert getattr(network_batched_replication, "grid_replications", False)
        assert not getattr(network_point_replication, "grid_replications", False)

    @pytest.mark.parametrize("engine", NETWORK_ENGINES)
    def test_run_replications_produces_metrics(self, engine):
        config = ExperimentConfig(
            name=f"net-{engine}", parameters=dict(PARAMETERS), replications=4, seed=9
        )
        result = run_replications(config, NETWORK_REPLICATIONS[engine])
        assert len(result.metrics) == 4
        assert result.metric_names() == ["best_option_share", "regret"]
        assert np.all(np.isfinite(result.metric_values("regret")))

    def test_point_engines_share_seeding_convention(self):
        """The loop engine runs (env=seed, dynamics=seed+1); batched row r
        is the R = 1 run of seed r, one generator seeded by [seed] driving
        its environment and its dynamics."""
        qualities = np.asarray(PARAMETERS["qualities"])
        network = build_network(PARAMETERS)
        rule = SymmetricAdoptionRule(PARAMETERS["beta"])
        horizon, mu = PARAMETERS["T"], PARAMETERS["mu"]

        loop = NetworkDynamics(network, 2, rule, exploration_rate=mu, rng=3 + 1)
        matrix = loop.run(BernoulliEnvironment(qualities, rng=3), horizon)
        assert network_point_replication(3, dict(PARAMETERS))["regret"] == float(
            expected_regret(matrix.popularity_matrix(), qualities)
        )

        regrets = []
        for seed in (3, 4):
            generator = np.random.default_rng([seed])
            batched = BatchedNetworkDynamics(
                network, 2, 1, rule, exploration_rate=mu, rng=generator
            )
            trajectory = batched.run(
                BernoulliEnvironment(qualities, rng=generator), horizon
            )
            regrets.extend(trajectory.expected_regret(qualities).tolist())
        (rows,) = network_batched_replication([[3, 4]], [dict(PARAMETERS)])
        assert [row["regret"] for row in rows] == regrets

    def test_engines_are_deterministic_per_seed(self):
        """Equal seeds give equal rows on the loop and the batched engine."""
        loop = network_point_replication(3, dict(PARAMETERS))
        batched = network_batched_replication([[3]], [dict(PARAMETERS)])
        assert loop == network_point_replication(3, dict(PARAMETERS))
        assert batched == network_batched_replication([[3]], [dict(PARAMETERS)])

    def test_a_two_point_call_gives_each_point_its_one_point_rows(self):
        other = dict(PARAMETERS, topology="star", N=40, T=12)
        alone = [
            network_batched_replication([[3, 4]], [dict(PARAMETERS)])[0],
            network_batched_replication([[5, 6, 7]], [dict(other)])[0],
        ]
        pair = network_batched_replication(
            [[3, 4], [5, 6, 7]], [dict(PARAMETERS), dict(other)]
        )
        assert pair == alone
        assert [len(rows) for rows in pair] == [2, 3]

    def test_engines_agree_on_mean_share(self):
        """Both engines estimate the same mean best-option share."""
        replications = 24
        means = {}
        for engine in NETWORK_ENGINES:
            config = ExperimentConfig(
                name=f"agree-{engine}",
                parameters=dict(PARAMETERS),
                replications=replications,
                seed=2,
            )
            result = run_replications(config, NETWORK_REPLICATIONS[engine])
            means[engine] = result.metric_values("best_option_share").mean()
        assert means["batched"] == pytest.approx(means["loop"], abs=0.1)

    def test_default_mu_is_derived_from_beta(self):
        parameters = dict(PARAMETERS)
        del parameters["mu"]
        ((metrics,),) = network_batched_replication([[0]], [parameters])
        assert 0.0 <= metrics["best_option_share"] <= 1.0

    def test_missing_required_keys_raise(self):
        with pytest.raises(KeyError):
            network_point_replication(0, {"topology": "ring", "N": 10, "T": 5})
        with pytest.raises(KeyError):
            network_batched_replication(
                [[0, 1]], [{"qualities": (0.8, 0.4), "topology": "ring", "N": 10}]
            )


class TestTopologySweep:
    def test_sweep_over_topologies_one_row_each(self):
        grid = ParameterGrid({"topology": ["complete", "ring", "star"]})
        results, table = run_sweep(
            "topology-sweep",
            grid,
            network_batched_replication,
            replications=5,
            seed=0,
            base_parameters={"qualities": (0.85, 0.45), "N": 50, "T": 20, "beta": 0.65},
        )
        assert len(results) == 3
        assert table.column("topology") == ["complete", "ring", "star"]
        for result in results:
            assert len(result.metrics) == 5
