"""Property tests shared by all three simulation engines.

Every engine — the sequential vectorised :class:`FinitePopulationDynamics`,
the faithful :class:`AgentBasedDynamics`, and the replicate-axis
:class:`BatchedDynamics` — simulates the same two-stage process, so the same
invariants must hold for each:

* per-(replicate-)step counts are non-negative and sum to at most ``N``
  (the *row's own* ``N`` in the per-row-parameterised sweep mode);
* the popularity distribution always lies on the probability simplex;
* scalar parameters and all-equal per-row parameter arrays are the *same*
  dynamics, bit for bit;
* :func:`run_replications` / :func:`run_sweep` outputs are a pure function of
  the config seed, on the per-seed loop, a grid function that launches each
  point alone, and the fused whole-grid path — and a grid point's rows are
  those of a standalone one-point :class:`BatchedDynamics` launch from its
  own seeds, however the grid's points are split into launches.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.agents import Population
from repro.core.adoption import RowwiseAdoptionRule, SymmetricAdoptionRule
from repro.core.batched import BatchedDynamics, simulate_batched_population
from repro.core.dynamics import (
    AgentBasedDynamics,
    FinitePopulationDynamics,
    simulate_finite_population,
)
from repro.core.regret import expected_regret
from repro.core.sampling import MixtureSampling, default_exploration_rate
from repro.environments import BernoulliEnvironment, RowwiseBernoulliEnvironment
from repro.experiments import (
    ExperimentConfig,
    ParameterGrid,
    dynamics_grid_replication,
    dynamics_point_replication,
    grid_batched_replication,
    run_replications,
    run_sweep,
)
from repro.utils.rng import seeds_for_replications

ENGINES = ("finite", "agent", "batched")

BATCH_REPLICATES = 3


def _run_engine(engine, population, options, beta, mu, seed, steps):
    """Run ``steps`` steps of ``engine`` and return the visited (counts, popularity) rows.

    For the batched engine every replicate contributes one row per step, so
    the invariant assertions below cover the whole batch.
    """
    reward_rng = np.random.default_rng(seed + 1)
    rewards = [reward_rng.integers(0, 2, size=options) for _ in range(steps)]
    rows = []
    if engine == "finite":
        dynamics = FinitePopulationDynamics(
            population,
            options,
            adoption_rule=SymmetricAdoptionRule(beta),
            sampling_rule=MixtureSampling(mu),
            rng=seed,
        )
        for reward in rewards:
            state = dynamics.step(reward)
            rows.append((state.counts, state.popularity()))
    elif engine == "agent":
        group = Population.homogeneous(population, options, beta=beta, rng=seed)
        dynamics = AgentBasedDynamics(group, exploration_rate=mu, rng=seed + 2)
        for reward in rewards:
            state = dynamics.step(reward)
            rows.append((state.counts, state.popularity()))
    elif engine == "batched":
        dynamics = BatchedDynamics(
            BATCH_REPLICATES,
            population,
            options,
            adoption_rule=SymmetricAdoptionRule(beta),
            sampling_rule=MixtureSampling(mu),
            rng=seed,
        )
        for reward in rewards:
            state = dynamics.step(reward)
            popularity = state.popularity()
            for replicate in range(BATCH_REPLICATES):
                rows.append((state.counts[replicate], popularity[replicate]))
    else:  # pragma: no cover - parametrization guard
        raise ValueError(engine)
    return rows


class TestEngineInvariants:
    @pytest.mark.parametrize("engine", ENGINES)
    @settings(max_examples=15, deadline=None)
    @given(
        population=st.integers(min_value=1, max_value=80),
        options=st.integers(min_value=1, max_value=5),
        beta=st.floats(min_value=0.5, max_value=0.95, allow_nan=False),
        mu=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        seed=st.integers(min_value=0, max_value=10_000),
        steps=st.integers(min_value=1, max_value=5),
    )
    def test_counts_bounded_and_popularity_on_simplex(
        self, engine, population, options, beta, mu, seed, steps
    ):
        for counts, popularity in _run_engine(
            engine, population, options, beta, mu, seed, steps
        ):
            assert np.all(counts >= 0)
            assert 0 <= counts.sum() <= population
            assert np.all(popularity >= 0.0)
            assert abs(popularity.sum() - 1.0) < 1e-9


class TestRowwiseParameterInvariants:
    """The sweep-axis mode: per-row ``(alpha, beta, mu, N)`` arrays."""

    @settings(max_examples=15, deadline=None)
    @given(
        populations=st.lists(st.integers(min_value=1, max_value=80), min_size=1, max_size=4),
        options=st.integers(min_value=1, max_value=4),
        betas=st.lists(
            st.floats(min_value=0.5, max_value=0.95, allow_nan=False),
            min_size=1,
            max_size=4,
        ),
        mu=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        seed=st.integers(min_value=0, max_value=10_000),
        steps=st.integers(min_value=1, max_value=4),
    )
    def test_per_row_counts_bounded_by_each_rows_population(
        self, populations, options, betas, mu, seed, steps
    ):
        """Every row respects its *own* population size and simplex."""
        rows = max(len(populations), len(betas))
        populations = np.resize(np.asarray(populations, dtype=np.int64), rows)
        betas = np.resize(np.asarray(betas), rows)
        mus = np.resize(np.asarray([mu, min(1.0, mu + 0.3)]), rows)
        dynamics = BatchedDynamics(
            rows,
            populations,
            options,
            adoption_rule=RowwiseAdoptionRule.symmetric(betas),
            sampling_rule=MixtureSampling(mus),
            rng=seed,
        )
        reward_rng = np.random.default_rng(seed + 1)
        for _ in range(steps):
            state = dynamics.step(reward_rng.integers(0, 2, size=(rows, options)))
            assert np.all(state.counts >= 0)
            assert np.all(state.counts.sum(axis=1) <= populations)
            popularity = state.popularity()
            assert np.all(popularity >= 0.0)
            assert np.allclose(popularity.sum(axis=1), 1.0, atol=1e-9)

    @settings(max_examples=15, deadline=None)
    @given(
        population=st.integers(min_value=1, max_value=80),
        options=st.integers(min_value=1, max_value=4),
        beta=st.floats(min_value=0.5, max_value=0.95, allow_nan=False),
        mu=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        seed=st.integers(min_value=0, max_value=10_000),
        steps=st.integers(min_value=1, max_value=4),
    )
    def test_scalar_and_all_equal_arrays_are_bit_identical(
        self, population, options, beta, mu, seed, steps
    ):
        """Broadcasting is exact: all-equal (R,) arrays == scalars, same stream."""
        rows = 3
        scalar = BatchedDynamics(
            rows,
            population,
            options,
            adoption_rule=SymmetricAdoptionRule(beta),
            sampling_rule=MixtureSampling(mu),
            rng=seed,
        )
        rowwise = BatchedDynamics(
            rows,
            np.full(rows, population),
            options,
            adoption_rule=RowwiseAdoptionRule.symmetric(np.full(rows, beta)),
            sampling_rule=MixtureSampling(np.full(rows, mu)),
            rng=seed,
        )
        reward_rng = np.random.default_rng(seed + 1)
        for _ in range(steps):
            rewards = reward_rng.integers(0, 2, size=(rows, options))
            state_scalar = scalar.step(rewards)
            state_rowwise = rowwise.step(rewards)
            assert np.array_equal(state_scalar.counts, state_rowwise.counts)

    def test_mixed_scalar_array_broadcasting(self):
        """A scalar alpha against an array beta broadcasts to every row."""
        rule = RowwiseAdoptionRule(0.3, np.array([0.6, 0.7, 0.8]))
        assert np.array_equal(rule.alpha, [0.3, 0.3, 0.3])
        probabilities = rule.adopt_probabilities(np.array([[1, 0], [0, 1], [1, 1]]))
        assert np.array_equal(probabilities, [[0.6, 0.3], [0.3, 0.7], [0.8, 0.8]])
        # per-row defaults derive from each row's own delta
        rates = default_exploration_rate(rule)
        assert rates.shape == (3,)
        assert rates[0] < rates[1] < rates[2]

    def test_rowwise_rule_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            BatchedDynamics(
                4,
                50,
                2,
                adoption_rule=RowwiseAdoptionRule.symmetric(np.array([0.6, 0.7])),
            )
        with pytest.raises(ValueError):
            BatchedDynamics(
                4,
                50,
                2,
                sampling_rule=MixtureSampling(np.array([0.1, 0.2])),
            )
        with pytest.raises(ValueError):
            BatchedDynamics(4, np.array([50, 60]), 2)


QUALITIES = [0.85, 0.45]


def _loop_replication(seed, parameters):
    env = BernoulliEnvironment(QUALITIES, rng=seed)
    trajectory = simulate_finite_population(
        env, parameters["N"], parameters["T"], beta=0.65, mu=0.05, rng=seed + 1
    )
    return {"regret": expected_regret(trajectory.popularity_matrix(), QUALITIES)}


@grid_batched_replication
def _batched_replication_fn(seed_blocks, points):
    """One ``(R, m)`` launch per point, seeded by the point's seed list."""
    rows = []
    for seeds, parameters in zip(seed_blocks, points):
        generator = np.random.default_rng(seeds)
        env = BernoulliEnvironment(QUALITIES, rng=generator)
        trajectory = simulate_batched_population(
            env,
            parameters["N"],
            parameters["T"],
            len(seeds),
            beta=0.65,
            mu=0.05,
            rng=generator,
        )
        regrets = trajectory.expected_regret(QUALITIES)
        rows.append([{"regret": float(value)} for value in regrets])
    return rows


class TestSeededDeterminism:
    @pytest.mark.parametrize(
        "replication", [_loop_replication, _batched_replication_fn], ids=["loop", "batched"]
    )
    def test_run_replications_deterministic(self, replication):
        config = ExperimentConfig(
            name="determinism", parameters={"N": 120, "T": 12}, replications=6, seed=9
        )
        first = run_replications(config, replication)
        second = run_replications(config, replication)
        assert first.seeds == second.seeds
        assert first.metrics == second.metrics

    @pytest.mark.parametrize(
        "replication", [_loop_replication, _batched_replication_fn], ids=["loop", "batched"]
    )
    def test_run_sweep_deterministic(self, replication):
        grid = ParameterGrid({"N": [60, 120]})
        first_results, first_table = run_sweep(
            "determinism",
            grid,
            replication,
            replications=4,
            seed=5,
            base_parameters={"T": 10},
        )
        second_results, second_table = run_sweep(
            "determinism",
            grid,
            replication,
            replications=4,
            seed=5,
            base_parameters={"T": 10},
        )
        assert [result.metrics for result in first_results] == [
            result.metrics for result in second_results
        ]
        assert first_table.rows == second_table.rows

    def test_different_seeds_change_metrics(self):
        base = ExperimentConfig(
            name="determinism", parameters={"N": 120, "T": 12}, replications=4, seed=1
        )
        other = ExperimentConfig(
            name="determinism", parameters={"N": 120, "T": 12}, replications=4, seed=2
        )
        assert (
            run_replications(base, _batched_replication_fn).metrics
            != run_replications(other, _batched_replication_fn).metrics
        )


SWEEP_GRID_AXES = {"N": (60, 90), "beta": (0.6, 0.75)}
SWEEP_BASE = {"qualities": (0.85, 0.45), "T": 8, "mu": 0.05}


class TestSweepAxisBatching:
    """The whole-grid batched path of ``run_sweep``."""

    def test_grid_engine_deterministic_and_seed_compatible_with_loop(self):
        """Grid runs are pure functions of the seed, with loop-identical seed lists."""
        grid = ParameterGrid(SWEEP_GRID_AXES)
        first_results, first_table = run_sweep(
            "grid", grid, dynamics_grid_replication,
            replications=4, seed=5, base_parameters=SWEEP_BASE,
        )
        second_results, second_table = run_sweep(
            "grid", grid, dynamics_grid_replication,
            replications=4, seed=5, base_parameters=SWEEP_BASE,
        )
        loop_results, _ = run_sweep(
            "grid", grid, dynamics_point_replication,
            replications=4, seed=5, base_parameters=SWEEP_BASE,
        )
        assert [result.metrics for result in first_results] == [
            result.metrics for result in second_results
        ]
        assert first_table.rows == second_table.rows
        # Engine choice never changes an experiment's provenance record.
        assert [result.seeds for result in first_results] == [
            result.seeds for result in loop_results
        ]
        changed_results, _ = run_sweep(
            "grid", grid, dynamics_grid_replication,
            replications=4, seed=6, base_parameters=SWEEP_BASE,
        )
        assert [result.metrics for result in first_results] != [
            result.metrics for result in changed_results
        ]

    def test_grid_rows_bit_match_standalone_one_point_launches(self):
        """Each sweep point is reproducible by a hand-built one-point launch.

        This is the exact-seed guarantee of sweep-axis batching: point ``g``
        draws from ``default_rng(seeds_g)`` inside the fused launch, so
        rebuilding that point alone as an ``(R, m)`` launch from its own seed
        list yields the sweep's metrics bit for bit.
        """
        grid = ParameterGrid(SWEEP_GRID_AXES)
        replications = 3
        results, _ = run_sweep(
            "exact", grid, dynamics_grid_replication,
            replications=replications, seed=13, base_parameters=SWEEP_BASE,
        )

        # Hand-build each point's launch (deliberately NOT via flatten_grid,
        # so the test pins the documented construction, not the helper).
        for index, (point, result) in enumerate(zip(grid, results)):
            seeds = seeds_for_replications(13 + index, replications)
            assert result.seeds == seeds
            qualities = np.tile(np.asarray(SWEEP_BASE["qualities"]), (replications, 1))
            betas = np.full(replications, point["beta"])
            generator = np.random.default_rng(seeds)
            environment = RowwiseBernoulliEnvironment(qualities, rng=generator)
            dynamics = BatchedDynamics(
                num_replicates=replications,
                population_size=point["N"],
                num_options=qualities.shape[1],
                adoption_rule=RowwiseAdoptionRule(1.0 - betas, betas),
                sampling_rule=MixtureSampling(np.full(replications, SWEEP_BASE["mu"])),
                rng=generator,
            )
            trajectory = dynamics.run(environment, SWEEP_BASE["T"])
            regrets = trajectory.expected_regret(qualities)
            shares = trajectory.best_option_share(qualities.argmax(axis=1))
            for row in range(replications):
                assert result.metrics[row]["regret"] == float(regrets[row])
                assert result.metrics[row]["best_option_share"] == float(shares[row])

    def test_run_replications_runs_a_grid_function_as_one_point(self):
        """``run_replications`` of a grid function is the one-point sweep."""
        parameters = dict(SWEEP_BASE, N=60, beta=0.7)
        config = ExperimentConfig(
            name="grid", parameters=parameters, replications=3, seed=4
        )
        result = run_replications(config, dynamics_grid_replication)
        (swept,), _ = run_sweep(
            "grid", ParameterGrid({"N": (60,)}), dynamics_grid_replication,
            replications=3, seed=4, base_parameters=dict(SWEEP_BASE, beta=0.7),
        )
        assert result.seeds == swept.seeds
        assert result.metrics == swept.metrics
        assert len(result.metrics) == 3

    def test_mixed_horizons_match_their_separate_runs(self):
        """Points of different horizons launch separately inside one sweep."""
        base = {"qualities": (0.8, 0.4), "N": 50}
        mixed, _ = run_sweep(
            "mixed", ParameterGrid({"T": (5, 6)}), dynamics_grid_replication,
            replications=2, seed=0, base_parameters=base,
        )
        for index, horizon in enumerate((5, 6)):
            (alone,), _ = run_sweep(
                "alone", ParameterGrid({"T": (horizon,)}), dynamics_grid_replication,
                replications=2, seed=index, base_parameters=base,
            )
            assert mixed[index].metrics == alone.metrics


POINT_STRATEGY = st.fixed_dictionaries(
    {
        "qualities": st.just((0.8, 0.5, 0.45)),
        "N": st.sampled_from([20, 50, 80]),
        "T": st.sampled_from([3, 5, 8]),
        "beta": st.sampled_from([0.55, 0.6, 0.75]),
    },
    optional={
        "mu": st.sampled_from([0.05, 0.2]),
        "dtype": st.just("float32"),
    },
)


class TestGridGroupingInvariance:
    """A point's rows do not depend on which other points share its call."""

    @settings(max_examples=30, deadline=None)
    @given(
        points=st.lists(POINT_STRATEGY, min_size=1, max_size=6),
        replications=st.integers(1, 3),
        data=st.data(),
    )
    def test_any_split_gives_identical_rows(self, points, replications, data):
        seed_blocks = [
            seeds_for_replications(100 + index, replications)
            for index in range(len(points))
        ]
        whole = dynamics_grid_replication(seed_blocks, points)
        groups = data.draw(
            st.lists(st.integers(0, 3), min_size=len(points), max_size=len(points)),
            label="group of each point",
        )
        order = data.draw(st.permutations(range(len(points))), label="call order")
        calls = {}
        for index in order:
            calls.setdefault(groups[index], []).append(index)
        for indices in calls.values():
            rows = dynamics_grid_replication(
                [seed_blocks[index] for index in indices],
                [points[index] for index in indices],
            )
            for index, point_rows in zip(indices, rows):
                assert point_rows == whole[index]
