"""Cross-validation between the independent implementations of the dynamics.

The vectorised count-based simulator, the agent-based simulator, the
network-restricted simulator on the complete graph, the message-passing
protocol with perfect communication, and the replicate-axis batched engine
are five implementations of the same process.  These tests check they agree
statistically on aggregate behaviour (regret, best-option share, terminal
popularity) when run with the same parameters — and that the batched engine
with ``R = 1`` agrees with the sequential engine *bit-for-bit* at equal seeds.
"""

import numpy as np
import pytest
from scipy import stats

from repro import (
    AgentBasedDynamics,
    BernoulliEnvironment,
    Population,
    best_option_share,
    expected_regret,
    simulate_batched_population,
    simulate_finite_population,
)
from repro.distributed import DistributedLearningProtocol
from repro.network import (
    SocialNetwork,
    simulate_batched_network_dynamics,
    simulate_network_dynamics,
)

QUALITIES = [0.85, 0.45]
BETA = 0.65
MU = 0.05
POPULATION = 400
HORIZON = 250


def vectorised_metrics(seed: int) -> tuple[float, float]:
    env = BernoulliEnvironment(QUALITIES, rng=seed)
    trajectory = simulate_finite_population(
        env, POPULATION, HORIZON, beta=BETA, mu=MU, rng=seed + 1000
    )
    matrix = trajectory.popularity_matrix()
    return expected_regret(matrix, QUALITIES), best_option_share(matrix, 0)


def agent_based_metrics(seed: int) -> tuple[float, float]:
    env = BernoulliEnvironment(QUALITIES, rng=seed)
    population = Population.homogeneous(POPULATION, 2, beta=BETA, rng=seed + 2000)
    dynamics = AgentBasedDynamics(population, exploration_rate=MU, rng=seed + 3000)
    trajectory = dynamics.run(env, HORIZON)
    matrix = trajectory.popularity_matrix()
    return expected_regret(matrix, QUALITIES), best_option_share(matrix, 0)


def network_metrics(seed: int) -> tuple[float, float]:
    env = BernoulliEnvironment(QUALITIES, rng=seed)
    network = SocialNetwork.complete(POPULATION)
    trajectory = simulate_network_dynamics(env, network, HORIZON, beta=BETA, mu=MU, rng=seed + 4000)
    matrix = trajectory.popularity_matrix()
    return expected_regret(matrix, QUALITIES), best_option_share(matrix, 0)


def protocol_metrics(seed: int) -> tuple[float, float]:
    env = BernoulliEnvironment(QUALITIES, rng=seed)
    from repro.core.adoption import SymmetricAdoptionRule

    protocol = DistributedLearningProtocol(
        POPULATION, 2, adoption_rule=SymmetricAdoptionRule(BETA), exploration_rate=MU, rng=seed + 5000
    )
    result = protocol.run(env, HORIZON)
    return result.regret, result.best_option_share


def average(metric_function, replications=4):
    values = np.array([metric_function(seed) for seed in range(replications)])
    return values.mean(axis=0)


class TestImplementationsAgree:
    def test_agent_based_matches_vectorised(self):
        vec_regret, vec_share = average(vectorised_metrics)
        agent_regret, agent_share = average(agent_based_metrics)
        assert agent_regret == pytest.approx(vec_regret, abs=0.06)
        assert agent_share == pytest.approx(vec_share, abs=0.12)

    def test_complete_graph_network_matches_vectorised(self):
        vec_regret, vec_share = average(vectorised_metrics)
        net_regret, net_share = average(network_metrics)
        assert net_regret == pytest.approx(vec_regret, abs=0.06)
        assert net_share == pytest.approx(vec_share, abs=0.12)

    def test_perfect_protocol_matches_vectorised(self):
        vec_regret, vec_share = average(vectorised_metrics)
        proto_regret, proto_share = average(protocol_metrics)
        assert proto_regret == pytest.approx(vec_regret, abs=0.06)
        assert proto_share == pytest.approx(vec_share, abs=0.12)

    def test_all_implementations_prefer_best_option(self):
        for metric_function in (
            vectorised_metrics,
            agent_based_metrics,
            network_metrics,
            protocol_metrics,
            batched_metrics,
        ):
            _, share = average(metric_function, replications=3)
            assert share > 0.5


def batched_metrics(seed: int) -> tuple[float, float]:
    env = BernoulliEnvironment(QUALITIES, rng=seed)
    trajectory = simulate_batched_population(
        env, POPULATION, HORIZON, 1, beta=BETA, mu=MU, rng=seed + 1000
    )
    return (
        float(trajectory.expected_regret(QUALITIES)[0]),
        float(trajectory.best_option_share(0)[0]),
    )


class TestBatchedEngineEquivalence:
    """The replicate-axis batched engine against the reference paths."""

    def test_exact_seed_identity_with_sequential_engine(self):
        """R=1 at equal seeds: identical rewards, popularities and counts."""
        env_sequential = BernoulliEnvironment(QUALITIES, rng=3)
        env_batched = BernoulliEnvironment(QUALITIES, rng=3)
        sequential = simulate_finite_population(
            env_sequential, POPULATION, 120, beta=BETA, mu=MU, rng=1003
        )
        batched = simulate_batched_population(
            env_batched, POPULATION, 120, 1, beta=BETA, mu=MU, rng=1003
        )
        np.testing.assert_array_equal(
            sequential.reward_matrix(), batched.reward_tensor()[:, 0, :]
        )
        np.testing.assert_array_equal(
            sequential.popularity_matrix(), batched.popularity_tensor()[:, 0, :]
        )
        for state_seq, state_batched in zip(sequential.states, batched.states):
            np.testing.assert_array_equal(state_seq.counts, state_batched.counts[0])

    @staticmethod
    def _sequential_terminal_popularities(replications, population, horizon):
        terminal = []
        for seed in range(replications):
            env = BernoulliEnvironment(QUALITIES, rng=seed)
            trajectory = simulate_finite_population(
                env, population, horizon, beta=BETA, mu=MU, rng=seed + 1000
            )
            terminal.append(trajectory.final_state().popularity()[0])
        return np.asarray(terminal)

    @staticmethod
    def _batched_terminal_popularities(replications, population, horizon):
        env = BernoulliEnvironment(QUALITIES, rng=777)
        trajectory = simulate_batched_population(
            env, population, horizon, replications, beta=BETA, mu=MU, rng=778
        )
        return trajectory.final_state().popularity()[:, 0]

    @staticmethod
    def _agent_based_terminal_popularities(replications, population, horizon):
        terminal = []
        for seed in range(replications):
            env = BernoulliEnvironment(QUALITIES, rng=seed)
            group = Population.homogeneous(population, 2, beta=BETA, rng=seed + 2000)
            dynamics = AgentBasedDynamics(group, exploration_rate=MU, rng=seed + 3000)
            trajectory = dynamics.run(env, horizon)
            terminal.append(trajectory.final_state().popularity()[0])
        return np.asarray(terminal)

    def test_terminal_popularity_ks_batched_vs_sequential(self):
        """KS two-sample test on the terminal best-option popularity."""
        sequential = self._sequential_terminal_popularities(80, POPULATION, 150)
        batched = self._batched_terminal_popularities(80, POPULATION, 150)
        result = stats.ks_2samp(sequential, batched)
        assert result.pvalue > 0.01

    def test_terminal_popularity_ks_batched_vs_agent_based(self):
        """KS two-sample test against the faithful agent-by-agent simulator."""
        agent_based = self._agent_based_terminal_popularities(25, 150, 60)
        batched = self._batched_terminal_popularities(25, 150, 60)
        result = stats.ks_2samp(agent_based, batched)
        assert result.pvalue > 0.005

    def test_terminal_popularity_chi_squared_batched_vs_sequential(self):
        """Chi-squared homogeneity test on quartile-binned terminal popularity."""
        sequential = self._sequential_terminal_popularities(80, POPULATION, 150)
        batched = self._batched_terminal_popularities(80, POPULATION, 150)
        edges = np.quantile(np.concatenate([sequential, batched]), [0.25, 0.5, 0.75])
        bins = np.concatenate([[-np.inf], edges, [np.inf]])
        table = np.array(
            [
                np.histogram(sequential, bins=bins)[0],
                np.histogram(batched, bins=bins)[0],
            ]
        )
        result = stats.chi2_contingency(table)
        assert result.pvalue > 0.01


# --------------------------------------------------------------------------
# Network engines: the per-agent loop vs the replicate-batched engine, run
# per seed at R = 1 and as one R-replicate launch, on a sparse graph.
# --------------------------------------------------------------------------

NETWORK_SIZE = 150
NETWORK_HORIZON = 60
NETWORK_REPLICATES = 70


class TestNetworkEngineEquivalence:
    """The batched network engine against the per-agent loop.

    The batched engine runs twice: once per seed at ``R = 1`` (the per-seed
    re-run path, seeded like the loop) and once as a single ``R``-replicate
    launch.  The gate runs on a genuinely sparse topology (a small-world
    graph, not the complete graph), so it exercises the neighbourhood
    restriction the engine vectorises: the CSR matvec, the
    committed-neighbour inverse-CDF draw, and the uniform fallbacks.  The
    engines consume the random stream differently, so the comparison is
    distributional — KS and chi-squared on the terminal best-option
    popularity across replicates — mirroring the cross-validation pattern
    for the core engines.
    """

    # Fully seeded runs are deterministic, so the samples are computed once
    # and shared across the KS / chi-squared / sanity tests (the loop engine
    # alone costs ~N*T*R Python iterations per computation).
    _cache: dict = {}

    @staticmethod
    def _network() -> SocialNetwork:
        return SocialNetwork.watts_strogatz(
            NETWORK_SIZE, nearest_neighbors=6, rewiring_probability=0.1, rng=0
        )

    @classmethod
    def _per_seed_terminal_popularities(cls, engine: str) -> np.ndarray:
        if engine not in cls._cache:
            network = cls._network()
            terminal = []
            for seed in range(NETWORK_REPLICATES):
                env = BernoulliEnvironment(QUALITIES, rng=seed)
                if engine == "loop":
                    trajectory = simulate_network_dynamics(
                        env, network, NETWORK_HORIZON, beta=BETA, mu=MU,
                        rng=seed + 1000,
                    )
                    terminal.append(trajectory.final_state().popularity()[0])
                else:
                    trajectory = simulate_batched_network_dynamics(
                        env, network, NETWORK_HORIZON, 1, beta=BETA, mu=MU,
                        rng=seed + 1000,
                    )
                    terminal.append(trajectory.final_state().popularity()[0, 0])
            cls._cache[engine] = np.asarray(terminal)
        return cls._cache[engine]

    @classmethod
    def _batched_terminal_popularities(cls) -> np.ndarray:
        if "launch" not in cls._cache:
            env = BernoulliEnvironment(QUALITIES, rng=777)
            trajectory = simulate_batched_network_dynamics(
                env,
                cls._network(),
                NETWORK_HORIZON,
                NETWORK_REPLICATES,
                beta=BETA,
                mu=MU,
                rng=778,
            )
            cls._cache["launch"] = trajectory.final_state().popularity()[:, 0]
        return cls._cache["launch"]

    def test_single_replicate_batched_matches_loop_ks(self):
        """KS two-sample test: batched engine at R = 1 per seed vs the loop."""
        loop = self._per_seed_terminal_popularities("loop")
        per_seed = self._per_seed_terminal_popularities("single_replicate")
        result = stats.ks_2samp(loop, per_seed)
        assert result.pvalue > 0.01

    def test_batched_matches_loop_ks(self):
        """KS two-sample test: replicate-batched engine vs the per-agent loop."""
        loop = self._per_seed_terminal_popularities("loop")
        batched = self._batched_terminal_popularities()
        result = stats.ks_2samp(loop, batched)
        assert result.pvalue > 0.01

    def test_single_replicate_batched_matches_loop_chi_squared(self):
        """Chi-squared homogeneity on quartile-binned terminal popularity."""
        loop = self._per_seed_terminal_popularities("loop")
        per_seed = self._per_seed_terminal_popularities("single_replicate")
        edges = np.quantile(np.concatenate([loop, per_seed]), [0.25, 0.5, 0.75])
        bins = np.concatenate([[-np.inf], edges, [np.inf]])
        table = np.array(
            [
                np.histogram(loop, bins=bins)[0],
                np.histogram(per_seed, bins=bins)[0],
            ]
        )
        result = stats.chi2_contingency(table)
        assert result.pvalue > 0.01

    def test_batched_matches_loop_chi_squared(self):
        """Chi-squared homogeneity: batched engine vs the per-agent loop."""
        loop = self._per_seed_terminal_popularities("loop")
        batched = self._batched_terminal_popularities()
        edges = np.quantile(np.concatenate([loop, batched]), [0.25, 0.5, 0.75])
        bins = np.concatenate([[-np.inf], edges, [np.inf]])
        table = np.array(
            [
                np.histogram(loop, bins=bins)[0],
                np.histogram(batched, bins=bins)[0],
            ]
        )
        result = stats.chi2_contingency(table)
        assert result.pvalue > 0.01

    def test_all_network_engines_prefer_best_option(self):
        """Every engine concentrates the sparse-topology group on the best option."""
        loop = self._per_seed_terminal_popularities("loop")
        per_seed = self._per_seed_terminal_popularities("single_replicate")
        batched = self._batched_terminal_popularities()
        for values in (loop, per_seed, batched):
            assert values.mean() > 0.5


# --------------------------------------------------------------------------
# Protocol engines: the message-passing loop vs the replicate-batched engine,
# run per seed at R = 1 and as one R-replicate launch, under genuinely lossy
# communication.
# --------------------------------------------------------------------------

PROTOCOL_NODES = 150
PROTOCOL_ROUNDS = 60
PROTOCOL_REPLICATES = 70
PROTOCOL_LOSS = 0.25


class TestProtocolEngineEquivalence:
    """The batched protocol engine against the message loop.

    The batched engine runs per seed at ``R = 1`` and as a single
    ``R``-replicate launch.  The gate runs with a *lossy* transport (25%
    per-message drop rate), so it exercises exactly what the batched engine
    reimplements as array ops: the Bernoulli loss masks on queries and
    replies, the retry sub-rounds and the uniform fallback.  Under pure loss
    the delivered-message law of the engines is identical; the engines consume
    the random stream differently, so the comparison is distributional — KS
    and chi-squared on the terminal best-option popularity across replicates,
    mirroring the network-engine gate above.
    """

    # Fully seeded runs are deterministic, so the samples are computed once
    # and shared across the KS / chi-squared / sanity tests (the loop engine
    # alone pays ~2 Python message objects per node per round).
    _cache: dict = {}

    @classmethod
    def _terminal_popularities(cls, engine: str) -> np.ndarray:
        if engine in cls._cache:
            return cls._cache[engine]
        from repro.core.adoption import SymmetricAdoptionRule
        from repro.distributed import BatchedProtocol, LossyTransport

        if engine == "launch":
            env = BernoulliEnvironment(QUALITIES, rng=777)
            protocol = BatchedProtocol(
                PROTOCOL_NODES,
                2,
                num_replicates=PROTOCOL_REPLICATES,
                adoption_rule=SymmetricAdoptionRule(BETA),
                exploration_rate=MU,
                loss_rate=PROTOCOL_LOSS,
                rng=778,
            )
            result = protocol.run(env, PROTOCOL_ROUNDS)
            cls._cache[engine] = result.trajectory.popularity_tensor()[-1, :, 0]
            return cls._cache[engine]

        terminal = []
        for seed in range(PROTOCOL_REPLICATES):
            env = BernoulliEnvironment(QUALITIES, rng=seed)
            if engine == "loop":
                protocol = DistributedLearningProtocol(
                    PROTOCOL_NODES,
                    2,
                    adoption_rule=SymmetricAdoptionRule(BETA),
                    exploration_rate=MU,
                    transport=LossyTransport(loss_rate=PROTOCOL_LOSS, rng=seed + 500),
                    rng=seed + 1000,
                )
                result = protocol.run(env, PROTOCOL_ROUNDS)
                terminal.append(result.popularity_matrix[-1, 0])
            else:
                protocol = BatchedProtocol(
                    PROTOCOL_NODES,
                    2,
                    num_replicates=1,
                    adoption_rule=SymmetricAdoptionRule(BETA),
                    exploration_rate=MU,
                    loss_rate=PROTOCOL_LOSS,
                    rng=seed + 1000,
                )
                result = protocol.run(env, PROTOCOL_ROUNDS)
                terminal.append(result.trajectory.popularity_tensor()[-1, 0, 0])
        cls._cache[engine] = np.asarray(terminal)
        return cls._cache[engine]

    @staticmethod
    def _chi_squared_pvalue(first: np.ndarray, second: np.ndarray) -> float:
        edges = np.quantile(np.concatenate([first, second]), [0.25, 0.5, 0.75])
        bins = np.concatenate([[-np.inf], edges, [np.inf]])
        table = np.array(
            [np.histogram(first, bins=bins)[0], np.histogram(second, bins=bins)[0]]
        )
        return float(stats.chi2_contingency(table).pvalue)

    def test_single_replicate_batched_matches_loop_ks(self):
        """KS two-sample test: batched engine at R = 1 per seed vs the loop."""
        loop = self._terminal_popularities("loop")
        per_seed = self._terminal_popularities("single_replicate")
        assert stats.ks_2samp(loop, per_seed).pvalue > 0.01

    def test_batched_matches_loop_ks(self):
        """KS two-sample test: replicate-batched engine vs the message loop."""
        loop = self._terminal_popularities("loop")
        batched = self._terminal_popularities("launch")
        assert stats.ks_2samp(loop, batched).pvalue > 0.01

    def test_single_replicate_batched_matches_loop_chi_squared(self):
        """Chi-squared homogeneity on quartile-binned terminal popularity."""
        loop = self._terminal_popularities("loop")
        per_seed = self._terminal_popularities("single_replicate")
        assert self._chi_squared_pvalue(loop, per_seed) > 0.01

    def test_batched_matches_loop_chi_squared(self):
        """Chi-squared homogeneity: batched engine vs the message loop."""
        loop = self._terminal_popularities("loop")
        batched = self._terminal_popularities("launch")
        assert self._chi_squared_pvalue(loop, batched) > 0.01

    def test_perfect_batched_protocol_matches_shared_memory(self):
        """Lossless, batched R = 1 protocol runs match the shared-memory dynamics."""
        from repro.core.adoption import SymmetricAdoptionRule
        from repro.distributed import BatchedProtocol

        def batched_protocol_metrics(seed: int) -> tuple[float, float]:
            env = BernoulliEnvironment(QUALITIES, rng=seed)
            protocol = BatchedProtocol(
                POPULATION,
                2,
                num_replicates=1,
                adoption_rule=SymmetricAdoptionRule(BETA),
                exploration_rate=MU,
                rng=seed + 5000,
            )
            result = protocol.run(env, HORIZON)
            return float(result.regret()[0]), float(result.best_option_share()[0])

        vec_regret, vec_share = average(vectorised_metrics)
        proto_regret, proto_share = average(batched_protocol_metrics)
        assert proto_regret == pytest.approx(vec_regret, abs=0.06)
        assert proto_share == pytest.approx(vec_share, abs=0.12)

    def test_all_protocol_engines_prefer_best_option(self):
        """Every engine concentrates the lossy fleet on the best option."""
        for engine in ("loop", "single_replicate", "launch"):
            assert self._terminal_popularities(engine).mean() > 0.5
