"""Tests for the protocol replication functions and their engine registry."""

import numpy as np
import pytest

from repro.core.adoption import SymmetricAdoptionRule
from repro.distributed import (
    BatchedProtocol,
    DistributedLearningProtocol,
    LossyTransport,
    NoFailures,
)
from repro.environments import BernoulliEnvironment
from repro.experiments import (
    PROTOCOL_ENGINES,
    PROTOCOL_REPLICATIONS,
    ExperimentConfig,
    ParameterGrid,
    protocol_batched_replication,
    protocol_point_replication,
    run_replications,
    run_sweep,
)

BASE = {
    "qualities": (0.85, 0.45),
    "N": 60,
    "T": 15,
    "beta": 0.65,
    "mu": 0.05,
}


class TestRegistry:
    def test_every_engine_registered(self):
        assert set(PROTOCOL_ENGINES) == set(PROTOCOL_REPLICATIONS)
        assert PROTOCOL_REPLICATIONS["loop"] is protocol_point_replication
        assert PROTOCOL_REPLICATIONS["batched"] is protocol_batched_replication

    def test_batched_is_marked_for_the_fast_path(self):
        assert getattr(protocol_batched_replication, "grid_replications", False)
        assert not getattr(protocol_point_replication, "grid_replications", False)


class TestReplicationFunctions:
    @pytest.mark.parametrize("engine", PROTOCOL_ENGINES)
    def test_metrics_shared_across_engines(self, engine):
        config = ExperimentConfig(
            name=f"protocol-{engine}",
            parameters=dict(BASE, loss=0.2),
            replications=3,
            seed=0,
        )
        result = run_replications(config, PROTOCOL_REPLICATIONS[engine])
        assert result.metric_names() == [
            "alive_fraction",
            "best_option_share",
            "regret",
        ]
        shares = result.metric_values("best_option_share")
        assert np.all(shares >= 0) and np.all(shares <= 1)
        assert np.all(result.metric_values("alive_fraction") == 1.0)

    def test_engines_follow_their_seeding_conventions(self):
        """The loop engine runs (env=seed, transport=seed+3, protocol=seed+4);
        the batched engine draws all of a point's randomness from one
        generator seeded by its seed list."""
        qualities = np.asarray(BASE["qualities"])
        rule = SymmetricAdoptionRule(BASE["beta"])
        parameters = dict(BASE, loss=0.2)

        loop = DistributedLearningProtocol(
            BASE["N"],
            2,
            adoption_rule=rule,
            exploration_rate=BASE["mu"],
            transport=LossyTransport(loss_rate=0.2, rng=3 + 3),
            failure_model=NoFailures(),
            rng=3 + 4,
        )
        result = loop.run(BernoulliEnvironment(qualities, rng=3), BASE["T"])
        assert protocol_point_replication(3, parameters)["regret"] == float(
            result.regret
        )

        generator = np.random.default_rng([3, 4])
        batched = BatchedProtocol(
            BASE["N"],
            2,
            num_replicates=2,
            adoption_rule=rule,
            exploration_rate=BASE["mu"],
            loss_rate=0.2,
            rng=generator,
        )
        batched_result = batched.run(
            BernoulliEnvironment(qualities, rng=generator), BASE["T"]
        )
        (rows,) = protocol_batched_replication([[3, 4]], [parameters])
        assert [row["regret"] for row in rows] == batched_result.regret().tolist()

    def test_a_two_point_call_gives_each_point_its_one_point_rows(self):
        lossy = dict(BASE, loss=0.2)
        crashing = dict(BASE, crash=0.05, mass_crash_round=5, mass_crash_fraction=0.3)
        alone = [
            protocol_batched_replication([[3, 4]], [dict(lossy)])[0],
            protocol_batched_replication([[5, 6, 7]], [dict(crashing)])[0],
        ]
        pair = protocol_batched_replication(
            [[3, 4], [5, 6, 7]], [dict(lossy), dict(crashing)]
        )
        assert pair == alone
        assert [len(rows) for rows in pair] == [2, 3]

    def test_missing_required_parameters_raise(self):
        with pytest.raises(KeyError):
            protocol_point_replication(0, {"qualities": (0.8, 0.4), "N": 10})
        with pytest.raises(KeyError):
            protocol_batched_replication([[0]], [{"N": 10, "T": 5}])

    def test_mu_defaults_to_the_theorem_maximum(self):
        # No mu given: both engines derive the same default, so the point is
        # well-defined on every engine.
        parameters = {"qualities": (0.8, 0.4), "N": 30, "T": 5, "beta": 0.65}
        ((row,),) = protocol_batched_replication([[0]], [parameters])
        assert set(row) == {"regret", "best_option_share", "alive_fraction"}

    def test_batched_engine_rejects_delay(self):
        with pytest.raises(ValueError, match="delay"):
            protocol_batched_replication([[0, 1]], [dict(BASE, delay=0.1)])

    def test_loop_engine_accepts_delay(self):
        row = protocol_point_replication(0, dict(BASE, delay=0.2))
        assert 0 <= row["best_option_share"] <= 1

    def test_crash_parameters_reduce_alive_fraction(self):
        parameters = dict(BASE, mass_crash_round=5, mass_crash_fraction=0.4)
        for engine in PROTOCOL_ENGINES:
            config = ExperimentConfig(
                name=f"crash-{engine}", parameters=dict(parameters), replications=2, seed=1
            )
            result = run_replications(config, PROTOCOL_REPLICATIONS[engine])
            # alive_fraction is read at the start of the final round, after
            # the scheduled 40% mass failure.
            assert np.all(result.metric_values("alive_fraction") <= 0.65)


class TestSweepIntegration:
    def test_loss_crash_grid_sweeps_on_the_batched_engine(self):
        grid = ParameterGrid({"loss": [0.0, 0.3], "crash": [0.0, 0.02]})
        _, table = run_sweep(
            "protocol-grid",
            grid,
            protocol_batched_replication,
            replications=3,
            seed=2,
            base_parameters=dict(BASE),
        )
        assert len(table) == 4
        losses = table.column("loss")
        assert sorted(set(losses)) == [0.0, 0.3]
        for row in table.rows:
            assert 0 <= row["best_option_share"] <= 1
            if row["crash"] > 0:
                assert row["alive_fraction"] < 1.0
