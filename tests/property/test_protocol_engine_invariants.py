"""Property tests shared by the two distributed-protocol engines.

Both protocol engines — the message-passing loop
:class:`DistributedLearningProtocol` and the replicate-axis
:class:`BatchedProtocol` (at ``R = 1`` and above) — simulate the same lossy
round law, so the same invariants must hold for each:

* the alive mask is monotone: crash-stop failures only ever shrink it;
* messages are conserved under loss: every sent message is delivered,
  dropped, or (loop engine with delay) still pending — and the batched
  engine never queues across rounds;
* the expected regret (popularity against the true qualities) is
  non-negative, because the pre-round popularity lies on the simplex;
* per-round committed counts never exceed the alive count, and choices stay
  in ``{-1, 0, .., m-1}``;
* :func:`run_replications` outputs are a pure function of the config seed on
  every engine.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.adoption import SymmetricAdoptionRule
from repro.distributed import (
    BatchedProtocol,
    DistributedLearningProtocol,
    LossyTransport,
)
from repro.environments import BernoulliEnvironment
from repro.experiments import (
    PROTOCOL_ENGINES,
    PROTOCOL_REPLICATIONS,
    ExperimentConfig,
    run_replications,
)

QUALITIES = (0.8, 0.5)


class TestBatchedInvariants:
    @given(
        num_nodes=st.integers(min_value=1, max_value=40),
        options=st.integers(min_value=1, max_value=4),
        replicates=st.integers(min_value=1, max_value=5),
        loss=st.floats(min_value=0.0, max_value=1.0),
        crash=st.floats(min_value=0.0, max_value=0.3),
        mu=st.floats(min_value=0.0, max_value=1.0),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=25, deadline=None)
    def test_alive_monotone_counts_bounded_messages_conserved(
        self, num_nodes, options, replicates, loss, crash, mu, seed
    ):
        protocol = BatchedProtocol(
            num_nodes,
            options,
            num_replicates=replicates,
            adoption_rule=SymmetricAdoptionRule(0.65),
            exploration_rate=mu,
            loss_rate=loss,
            per_round_crash_probability=crash,
            mass_failure_round=2,
            mass_failure_fraction=0.4,
            max_query_attempts=3,
            rng=seed,
        )
        rewards_rng = np.random.default_rng(seed + 2)
        previous_alive = protocol.alive()
        for _ in range(4):
            protocol.run_round(
                rewards_rng.integers(0, 2, size=(replicates, options))
            )
            alive = protocol.alive()
            choices = protocol.choices()
            assert np.all(alive <= previous_alive)
            previous_alive = alive
            assert np.all(choices >= -1) and np.all(choices < options)
            state = protocol.state()
            assert state.counts.shape == (replicates, options)
            assert np.all(state.counts >= 0)
            assert np.all(state.committed <= protocol.alive_counts())
            popularity = state.popularity()
            assert np.all(popularity >= 0)
            np.testing.assert_allclose(popularity.sum(axis=1), 1.0)
        stats = protocol.transport_stats()
        assert stats["sent"] == stats["delivered"] + stats["dropped"]
        assert stats["delayed"] == 0

    @given(
        num_nodes=st.integers(min_value=2, max_value=30),
        replicates=st.integers(min_value=1, max_value=4),
        loss=st.floats(min_value=0.0, max_value=0.9),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=15, deadline=None)
    def test_expected_regret_non_negative_per_replicate(
        self, num_nodes, replicates, loss, seed
    ):
        env = BernoulliEnvironment(QUALITIES, rng=seed)
        protocol = BatchedProtocol(
            num_nodes,
            2,
            num_replicates=replicates,
            exploration_rate=0.05,
            loss_rate=loss,
            rng=seed + 1,
        )
        result = protocol.run(env, 8)
        regrets = result.trajectory.expected_regret(np.asarray(QUALITIES))
        assert np.all(regrets >= 0)

    def test_full_loss_forces_fallback_everywhere(self):
        """With loss_rate=1 no reply ever arrives: every querier falls back."""
        protocol = BatchedProtocol(
            50,
            2,
            num_replicates=1,
            exploration_rate=0.0,
            loss_rate=1.0,
            max_query_attempts=3,
            rng=0,
        )
        protocol.run_round(np.array([1, 0]))
        assert protocol.fallback_explorations == 50
        stats = protocol.transport_stats()
        # Queries are sent (and all dropped); replies are never sent.
        assert stats["sent"] == 50 * 3
        assert stats["dropped"] == stats["sent"]
        assert stats["delivered"] == 0

    def test_mass_failure_kills_the_scheduled_fraction_per_replicate(self):
        protocol = BatchedProtocol(
            100, 2, num_replicates=6, mass_failure_round=1, mass_failure_fraction=0.3, rng=3
        )
        rewards = np.ones((6, 2), dtype=np.int64)
        protocol.run_round(rewards)  # round 0: nothing scheduled
        assert np.all(protocol.alive_counts() == 100)
        protocol.run_round(rewards)  # round 1: the mass failure
        assert np.all(protocol.alive_counts() == 70)
        protocol.run_round(rewards)  # round 2: one-off, no further crashes
        assert np.all(protocol.alive_counts() == 70)


class TestLoopEngineConservation:
    def test_messages_conserved_with_delay(self):
        """The loop engine may queue delayed messages, never lose track of them."""
        env = BernoulliEnvironment(QUALITIES, rng=0)
        transport = LossyTransport(loss_rate=0.3, delay_rate=0.2, rng=1)
        protocol = DistributedLearningProtocol(
            60, 2, exploration_rate=0.05, transport=transport, rng=2
        )
        protocol.run(env, 20)
        stats = transport.stats.as_dict()
        assert stats["sent"] == stats["delivered"] + stats["dropped"] + transport.pending()


class TestSeededDeterminism:
    @pytest.mark.parametrize("engine", PROTOCOL_ENGINES)
    def test_run_replications_deterministic(self, engine):
        parameters = {
            "qualities": QUALITIES,
            "N": 40,
            "T": 10,
            "beta": 0.65,
            "loss": 0.2,
            "crash": 0.01,
        }
        results = []
        for _ in range(2):
            config = ExperimentConfig(
                name=f"det-{engine}", parameters=dict(parameters), replications=3, seed=5
            )
            results.append(run_replications(config, PROTOCOL_REPLICATIONS[engine]))
        assert results[0].metrics == results[1].metrics
        assert results[0].seeds == results[1].seeds

    def test_different_seeds_change_metrics(self):
        parameters = {"qualities": QUALITIES, "N": 40, "T": 10, "loss": 0.2}
        outputs = []
        for seed in (0, 1):
            config = ExperimentConfig(
                name="seeded", parameters=dict(parameters), replications=3, seed=seed
            )
            outputs.append(
                run_replications(config, PROTOCOL_REPLICATIONS["batched"]).metrics
            )
        assert outputs[0] != outputs[1]
