"""Property tests shared by the two network engines.

Both network engines — the per-agent loop :class:`NetworkDynamics` and the
replicate-axis :class:`BatchedNetworkDynamics` (at ``R = 1`` and above) —
simulate the same neighbourhood-restricted two-stage process, so the same
invariants must hold for each:

* per-step choices lie in ``{-1, 0, .., m-1}`` and committed counts are
  non-negative and sum to at most ``N``;
* the popularity distribution always lies on the probability simplex;
* the committed-neighbour matvec equals the dense ``A @ onehot`` product on
  arbitrary graphs and choice vectors;
* :func:`run_replications` outputs are a pure function of the config seed on
  every engine.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.adoption import SymmetricAdoptionRule
from repro.experiments import (
    NETWORK_ENGINES,
    NETWORK_REPLICATIONS,
    ExperimentConfig,
    run_replications,
)
from repro.network import (
    BatchedNetworkDynamics,
    NetworkDynamics,
    SocialNetwork,
    committed_neighbor_counts,
)


def _random_network(size: int, edge_probability: float, seed: int) -> SocialNetwork:
    return SocialNetwork.erdos_renyi(size, edge_probability, rng=seed)


class TestStepInvariants:
    @given(
        size=st.integers(min_value=2, max_value=40),
        options=st.integers(min_value=1, max_value=4),
        edge_probability=st.floats(min_value=0.0, max_value=1.0),
        beta=st.floats(min_value=0.5, max_value=1.0),
        mu=st.floats(min_value=0.0, max_value=1.0),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=25, deadline=None)
    def test_loop_counts_bounded_and_popularity_on_simplex(
        self, size, options, edge_probability, beta, mu, seed
    ):
        network = _random_network(size, edge_probability, seed)
        dynamics = NetworkDynamics(
            network,
            options,
            adoption_rule=SymmetricAdoptionRule(beta),
            exploration_rate=mu,
            rng=seed,
        )
        rewards_rng = np.random.default_rng(seed + 1)
        for _ in range(3):
            state = dynamics.step(rewards_rng.integers(0, 2, size=options))
            assert np.all(state.counts >= 0)
            assert state.counts.sum() <= size
            choices = dynamics.choices()
            assert np.all(choices >= -1) and np.all(choices < options)
            popularity = state.popularity()
            assert np.all(popularity >= 0)
            assert popularity.sum() == pytest.approx(1.0)

    @given(
        size=st.integers(min_value=2, max_value=30),
        options=st.integers(min_value=1, max_value=4),
        replicates=st.integers(min_value=1, max_value=5),
        edge_probability=st.floats(min_value=0.0, max_value=1.0),
        mu=st.floats(min_value=0.0, max_value=1.0),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=25, deadline=None)
    def test_batched_counts_bounded_per_replicate(
        self, size, options, replicates, edge_probability, mu, seed
    ):
        network = _random_network(size, edge_probability, seed)
        dynamics = BatchedNetworkDynamics(
            network, options, replicates, exploration_rate=mu, rng=seed
        )
        rewards_rng = np.random.default_rng(seed + 1)
        for _ in range(3):
            state = dynamics.step(rewards_rng.integers(0, 2, size=(replicates, options)))
            assert state.counts.shape == (replicates, options)
            assert np.all(state.counts >= 0)
            assert np.all(state.committed <= size)
            popularity = state.popularity()
            assert np.all(popularity >= 0)
            np.testing.assert_allclose(popularity.sum(axis=1), 1.0)


class TestMatvecAgainstDense:
    @given(
        size=st.integers(min_value=1, max_value=25),
        options=st.integers(min_value=1, max_value=4),
        edge_probability=st.floats(min_value=0.0, max_value=1.0),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=30, deadline=None)
    def test_sparse_matvec_equals_dense_product(
        self, size, options, edge_probability, seed
    ):
        import networkx as nx

        network = _random_network(size, edge_probability, seed)
        choices = np.random.default_rng(seed).integers(-1, options, size=(1, size))
        adjacency = nx.to_numpy_array(network.graph)
        onehot = np.zeros((size, options))
        for agent, choice in enumerate(choices[0]):
            if choice >= 0:
                onehot[agent, choice] = 1.0
        np.testing.assert_array_equal(
            committed_neighbor_counts(network, choices, options),
            (adjacency @ onehot).astype(np.int64)[None],
        )


class TestSeededDeterminism:
    @pytest.mark.parametrize("engine", NETWORK_ENGINES)
    def test_run_replications_deterministic(self, engine):
        parameters = {
            "qualities": (0.8, 0.5),
            "topology": "watts_strogatz",
            "N": 40,
            "T": 10,
            "beta": 0.65,
            "graph_seed": 1,
        }
        results = []
        for _ in range(2):
            config = ExperimentConfig(
                name=f"det-{engine}", parameters=dict(parameters), replications=3, seed=5
            )
            results.append(run_replications(config, NETWORK_REPLICATIONS[engine]))
        assert results[0].metrics == results[1].metrics
        assert results[0].seeds == results[1].seeds

    def test_different_seeds_change_metrics(self):
        parameters = {
            "qualities": (0.8, 0.5),
            "topology": "ring",
            "N": 40,
            "T": 10,
        }
        outputs = []
        for seed in (0, 1):
            config = ExperimentConfig(
                name="seeded", parameters=dict(parameters), replications=3, seed=seed
            )
            outputs.append(
                run_replications(config, NETWORK_REPLICATIONS["batched"]).metrics
            )
        assert outputs[0] != outputs[1]
