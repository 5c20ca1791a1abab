"""Tests for the fused CSR kernel and the sampling/overflow guards.

Covers the three perf-sensitive correctness fixes of the batched network
engine:

* the fused gather+pick kernel is bit-identical to the NumPy two-pass path
  (exercised through the un-jitted loop source, so no numba is needed);
* the inverse-CDF boundary clamp (``u == 1.0`` must never index out of the
  option range);
* the int64 key-space guard on the flattened ``(replicate, agent, option)``
  bincount keys.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pytest

from repro.environments import BernoulliEnvironment
from repro.network.kernels import (
    HAS_NUMBA,
    _gather_pick_loop,
    fused_neighbor_pick,
)
from repro.network.topology import SocialNetwork
from repro.network.vectorized import (
    BatchedNetworkDynamics,
    _check_key_space,
    _inverse_cdf_rows,
    committed_neighbor_counts,
    resolve_use_numba,
)


@pytest.fixture(scope="module")
def network() -> SocialNetwork:
    return SocialNetwork.watts_strogatz(
        60, nearest_neighbors=4, rewiring_probability=0.2, rng=0
    )


def _two_pass(network, choices, uniforms, num_options):
    counts = committed_neighbor_counts(network, choices, num_options)
    return _inverse_cdf_rows(counts, uniforms)


class TestFusedKernelEquivalence:
    """The un-jitted kernel source must match the NumPy two-pass bit for bit."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_batched_picks_and_totals_match_two_pass(self, network, seed):
        rng = np.random.default_rng(seed)
        num_options = 4
        # Include -1 (sitting out) entries so zero-total rows are exercised.
        choices = rng.integers(-1, num_options, size=(5, network.size))
        uniforms = rng.random((5, network.size))
        fused_picks, fused_totals = fused_neighbor_pick(
            network, choices, uniforms, num_options, impl=_gather_pick_loop
        )
        picks, totals = _two_pass(network, choices, uniforms, num_options)
        np.testing.assert_array_equal(fused_totals, totals)
        np.testing.assert_array_equal(fused_picks, picks)

    def test_single_replicate_row_matches_two_pass(self, network):
        rng = np.random.default_rng(7)
        num_options = 3
        choices = rng.integers(-1, num_options, size=(1, network.size))
        uniforms = rng.random((1, network.size))
        fused_picks, fused_totals = fused_neighbor_pick(
            network, choices, uniforms, num_options, impl=_gather_pick_loop
        )
        assert fused_picks.shape == (1, network.size)
        picks, totals = _two_pass(network, choices, uniforms, num_options)
        np.testing.assert_array_equal(fused_totals, totals)
        np.testing.assert_array_equal(fused_picks, picks)

    def test_all_sitting_out_reports_zero_totals_and_clamped_picks(self, network):
        choices = np.full((2, network.size), -1)
        uniforms = np.zeros((2, network.size))
        picks, totals = fused_neighbor_pick(
            network, choices, uniforms, 3, impl=_gather_pick_loop
        )
        assert not totals.any()
        assert (picks == 2).all()

    @pytest.mark.skipif(HAS_NUMBA, reason="numba is installed")
    def test_default_impl_requires_numba(self, network):
        choices = np.zeros((1, network.size), dtype=np.int64)
        uniforms = np.zeros((1, network.size))
        with pytest.raises(RuntimeError, match="numba"):
            fused_neighbor_pick(network, choices, uniforms, 2)


class TestResolveUseNumba:
    def test_none_auto_selects_on_availability(self):
        assert resolve_use_numba(None) is HAS_NUMBA

    def test_false_forces_the_numpy_path(self):
        assert resolve_use_numba(False) is False

    @pytest.mark.skipif(HAS_NUMBA, reason="numba is installed")
    def test_true_without_numba_is_an_error(self):
        with pytest.raises(RuntimeError, match="use_numba=True requires"):
            resolve_use_numba(True)

    @pytest.mark.skipif(HAS_NUMBA, reason="numba is installed")
    def test_engines_surface_the_error_at_construction(self, network):
        with pytest.raises(RuntimeError, match="numba"):
            BatchedNetworkDynamics(network, 3, num_replicates=2, use_numba=True)

    def test_engines_expose_the_resolved_knob(self, network):
        batched = BatchedNetworkDynamics(
            network, 3, num_replicates=2, use_numba=False
        )
        assert batched.use_numba is False

    @pytest.mark.skipif(not HAS_NUMBA, reason="numba not installed")
    def test_fused_engine_is_bit_identical_to_two_pass(self, network):
        def run(use_numba):
            environment = BernoulliEnvironment([0.8, 0.5, 0.5], rng=3)
            dynamics = BatchedNetworkDynamics(
                network, 3, num_replicates=1, rng=5, use_numba=use_numba
            )
            return dynamics.run(environment, 15)

        fused = run(True)
        two_pass = run(False)
        np.testing.assert_array_equal(
            fused.popularity_tensor(), two_pass.popularity_tensor()
        )


class TestInverseCdfBoundaryClamp:
    """Regression: ``u == 1.0`` used to produce the out-of-range pick ``m``."""

    @pytest.mark.parametrize("dtype", [np.int64, np.int32])
    def test_boundary_uniform_clamps_to_the_last_option(self, dtype):
        counts = np.array([[2, 1, 0]], dtype=dtype)
        picks, totals = _inverse_cdf_rows(counts, np.array([1.0]))
        assert totals[0] == 3
        assert picks[0] == 2  # clamped into range, never m == 3

    def test_boundary_lands_in_the_last_nonzero_bucket_support(self):
        counts = np.array([[0, 5, 0, 0]])
        picks, _ = _inverse_cdf_rows(counts, np.array([1.0]))
        # Clamped pick may exceed the support; interior uniforms never do.
        assert picks[0] <= 3
        interior, _ = _inverse_cdf_rows(counts, np.array([0.999999]))
        assert interior[0] == 1

    def test_interior_uniforms_hit_exact_proportions(self):
        counts = np.array([[2, 1, 1]])
        uniforms = np.array([0.0, 0.49, 0.5, 0.74, 0.75, 0.99])
        picks, _ = _inverse_cdf_rows(
            np.repeat(counts, uniforms.size, axis=0), uniforms
        )
        np.testing.assert_array_equal(picks, [0, 0, 1, 1, 2, 2])

    def test_zero_total_rows_report_the_clamp_and_zero_total(self):
        picks, totals = _inverse_cdf_rows(
            np.zeros((3, 4), dtype=np.int64), np.array([0.0, 0.5, 1.0])
        )
        assert not totals.any()
        assert (picks == 3).all()


@dataclass
class _FakeHugeNetwork:
    """Duck-typed network whose advertised size overflows the key space.

    The CSR arrays are tiny — the guard must fire on the *declared*
    ``R * N * m`` product before any array arithmetic touches them.
    """

    size: int

    @property
    def csr_indptr(self):  # pragma: no cover - guard fires first
        raise AssertionError("guard must fire before CSR access")

    @property
    def csr_indices(self):
        return np.zeros(1, dtype=np.int64)

    @property
    def csr_edge_rows(self):
        return np.zeros(1, dtype=np.int64)


class TestKeySpaceOverflowGuard:
    def test_check_key_space_accepts_the_int64_limit(self):
        _check_key_space(1, 2**31, 2**31)  # exactly 2**62 — fine

    def test_check_key_space_rejects_past_the_limit(self):
        with pytest.raises(OverflowError, match="overflows int64"):
            _check_key_space(2, 2**40, 2**25)  # 2**66

    def test_single_replicate_gather_guards_n_times_m(self):
        fake = _FakeHugeNetwork(size=2**40)
        choices = np.zeros((1, 4), dtype=np.int64)
        with pytest.raises(OverflowError, match="shard the"):
            committed_neighbor_counts(fake, choices, 2**25)

    def test_batched_gather_guards_the_full_product(self):
        fake = _FakeHugeNetwork(size=2**40)
        choices = np.zeros((2, 4), dtype=np.int64)
        with pytest.raises(OverflowError, match="overflows int64"):
            committed_neighbor_counts(fake, choices, 2**25)

    def test_gather_promotes_narrow_choice_dtypes(self, network):
        """int32 choices must not wrap the ``row * m + choice`` keys."""
        rng = np.random.default_rng(11)
        wide = rng.integers(-1, 3, size=(1, network.size), dtype=np.int64)
        narrow = wide.astype(np.int32)
        np.testing.assert_array_equal(
            committed_neighbor_counts(network, narrow, 3),
            committed_neighbor_counts(network, wide, 3),
        )
