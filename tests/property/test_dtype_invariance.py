"""Property tests for the dtype discipline of the batched engines.

The :class:`~repro.backends.Precision` contract: random draws always consume
the generator stream in float64, so ``float32`` changes only what the engines
*store*.  Three families of properties pin that down:

* **bit-identity of the dynamics** — for every batched engine (core, network,
  protocol) the float32 run visits exactly the same count matrices as the
  float64 run from the same seed, merely stored in ``int32``; and the
  explicit ``precision="float64"`` spelling is bit-identical to the
  implicit default (which the golden fixtures in
  ``tests/integration/test_golden_trajectories.py`` pin in turn);
* **int32 conservation** — narrowed count matrices still conserve the
  population row by row (no silent wrap-around);
* **statistical equivalence of the flattened sweep** — the one place float32
  can perturb the *process* is the rowwise sweep environment, whose stored
  float32 qualities shift Bernoulli thresholds at the 1e-7 level; a KS test
  on per-row regrets and a chi-squared test on pooled terminal counts pin
  that the two precisions remain draws from the same distribution.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chisquare, ks_2samp

from repro.core.adoption import SymmetricAdoptionRule
from repro.core.batched import BatchedDynamics
from repro.core.sampling import MixtureSampling
from repro.distributed import BatchedProtocol
from repro.environments import BernoulliEnvironment
from repro.experiments.dynamics_sweep import flatten_grid
from repro.network import BatchedNetworkDynamics, SocialNetwork

QUALITIES = [0.8, 0.5]


def _batched_pair(precision, population, options, beta, mu, seed):
    return BatchedDynamics(
        4,
        population,
        options,
        adoption_rule=SymmetricAdoptionRule(beta),
        sampling_rule=MixtureSampling(mu),
        rng=seed,
        precision=precision,
    )


class TestCoreEngineBitIdentity:
    @settings(max_examples=20, deadline=None)
    @given(
        population=st.integers(min_value=1, max_value=120),
        options=st.integers(min_value=1, max_value=5),
        beta=st.floats(min_value=0.5, max_value=0.95, allow_nan=False),
        mu=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        seed=st.integers(min_value=0, max_value=10_000),
        steps=st.integers(min_value=1, max_value=5),
    )
    def test_float32_visits_the_same_counts_and_conserves_n(
        self, population, options, beta, mu, seed, steps
    ):
        default = _batched_pair(None, population, options, beta, mu, seed)
        narrow = _batched_pair("float32", population, options, beta, mu, seed)
        reward_rng = np.random.default_rng(seed + 1)
        for _ in range(steps):
            rewards = reward_rng.integers(0, 2, size=options)
            state_default = default.step(rewards)
            state_narrow = narrow.step(rewards)
            assert state_narrow.counts.dtype == np.int32
            assert state_default.counts.dtype == np.int64
            # Same dynamics, narrower storage.
            np.testing.assert_array_equal(
                state_narrow.counts, state_default.counts
            )
            # int32 narrowing never breaks per-row conservation.
            assert np.all(state_narrow.counts >= 0)
            assert np.all(state_narrow.counts.sum(axis=1) <= population)
            popularity = state_narrow.popularity(
                dtype=narrow.precision.float_dtype
            )
            assert popularity.dtype == np.float32

    def test_explicit_default_spellings_are_the_implicit_default(self):
        implicit = _batched_pair(None, 50, 3, 0.65, 0.05, 9)
        explicit = BatchedDynamics(
            4,
            50,
            3,
            adoption_rule=SymmetricAdoptionRule(0.65),
            sampling_rule=MixtureSampling(0.05),
            rng=9,
            precision="float64",
        )
        environment = BernoulliEnvironment(QUALITIES + [0.5], rng=2)
        rewards = [environment.sample() for _ in range(6)]
        for reward in rewards:
            np.testing.assert_array_equal(
                implicit.step(reward).counts, explicit.step(reward).counts
            )

    def test_float32_trajectory_stores_narrow_tensors(self):
        environment = BernoulliEnvironment(QUALITIES, rng=0)
        dynamics = _batched_pair("float32", 80, 2, 0.65, 0.05, 4)
        trajectory = dynamics.run(environment, 10)
        assert trajectory.popularity_tensor().dtype == np.float32
        assert trajectory.final_state().counts.dtype == np.int32

    def test_int32_engine_refuses_uncountable_populations(self):
        with pytest.raises(OverflowError, match="int32"):
            _batched_pair("float32", int(np.iinfo(np.int32).max) + 1, 2, 0.65, 0.05, 0)


class TestNetworkEngineBitIdentity:
    @pytest.fixture(scope="class")
    def network(self):
        return SocialNetwork.watts_strogatz(
            120, nearest_neighbors=4, rewiring_probability=0.1, rng=0
        )

    @pytest.mark.parametrize("seed", [0, 3])
    def test_float32_matches_default_bit_for_bit(self, network, seed):
        def run(precision):
            environment = BernoulliEnvironment(QUALITIES + [0.5], rng=seed)
            dynamics = BatchedNetworkDynamics(
                network, 3, num_replicates=5, rng=seed + 1, precision=precision
            )
            return dynamics.run(environment, 12)

        default = run(None)
        narrow = run("float32")
        assert narrow.final_state().counts.dtype == np.int32
        np.testing.assert_array_equal(
            narrow.final_state().counts, default.final_state().counts
        )
        assert narrow.popularity_tensor().dtype == np.float32
        np.testing.assert_array_equal(
            narrow.popularity_tensor(),
            default.popularity_tensor().astype(np.float32),
        )


class TestProtocolEngineBitIdentity:
    @pytest.mark.parametrize("seed", [1, 8])
    def test_float32_matches_default_bit_for_bit(self, seed):
        def run(precision):
            environment = BernoulliEnvironment(QUALITIES, rng=seed)
            protocol = BatchedProtocol(
                90,
                2,
                num_replicates=5,
                loss_rate=0.1,
                per_round_crash_probability=0.01,
                rng=seed + 1,
                precision=precision,
            )
            return protocol.run(environment, 15)

        default = run(None)
        narrow = run("float32")
        np.testing.assert_array_equal(narrow.alive_matrix, default.alive_matrix)
        assert narrow.trajectory.popularity_tensor().dtype == np.float32
        np.testing.assert_array_equal(
            narrow.trajectory.popularity_tensor(),
            default.trajectory.popularity_tensor().astype(np.float32),
        )
        # Regret is derived from the float32-stored popularity trajectory,
        # so it agrees to storage rounding, not bit-for-bit.
        np.testing.assert_allclose(narrow.regret(), default.regret(), atol=1e-6)


class TestFlattenedSweepStatisticalEquivalence:
    """The rowwise environment is the one genuinely perturbed float32 path."""

    ROWS = 4 * 300  # 4 grid points x 300 replications

    def _run(self, dtype):
        point = {"qualities": QUALITIES, "N": 60, "T": 15, "beta": 0.65}
        if dtype is not None:
            point = {**point, "dtype": dtype}
        flat = flatten_grid([dict(point) for _ in range(4)], 300)
        dynamics, environment = flat.build(np.random.default_rng(0))
        trajectory = dynamics.run(environment, flat.horizon)
        return (
            trajectory.expected_regret(flat.qualities),
            trajectory.final_state().counts,
        )

    def test_regrets_pass_ks_and_counts_pass_chi_squared(self):
        default_regrets, default_counts = self._run(None)
        narrow_regrets, narrow_counts = self._run("float32")
        assert narrow_counts.dtype == np.int32
        assert default_regrets.shape == narrow_regrets.shape == (self.ROWS,)

        ks = ks_2samp(default_regrets, np.asarray(narrow_regrets, dtype=np.float64))
        assert ks.pvalue >= 0.01, (
            f"float32 regrets diverged (KS={ks.statistic:.4f}, p={ks.pvalue:.4f})"
        )

        pooled_default = default_counts.sum(axis=0, dtype=np.float64)
        pooled_narrow = narrow_counts.sum(axis=0, dtype=np.float64)
        # chisquare needs matching totals; committed populations may differ
        # by a handful of agents, so rescale the expectation.
        expected = pooled_default * pooled_narrow.sum() / pooled_default.sum()
        chi2 = chisquare(pooled_narrow, expected)
        assert chi2.pvalue >= 0.01, (
            f"terminal option counts diverged (chi2={chi2.statistic:.2f}, "
            f"p={chi2.pvalue:.4f})"
        )
