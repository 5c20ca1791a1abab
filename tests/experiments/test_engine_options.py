"""Tests for the backend/dtype parameter convention (repro.experiments.engine_options)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments.dynamics_sweep import (
    dynamics_point_replication,
    flatten_grid,
)
from repro.experiments.engine_options import (
    engine_options,
    is_default_options,
    require_default_engine_options,
)
from repro.experiments.network_sweep import network_batched_replication
from repro.experiments.protocol_sweep import (
    protocol_point_replication,
    protocol_vectorized_replication,
)


class TestEngineOptions:
    def test_absent_options_resolve_to_none(self):
        assert engine_options({"N": 50}) == (None, None)

    def test_present_options_are_returned(self):
        parameters = {"N": 50, "backend": "numpy", "dtype": "float32"}
        assert engine_options(parameters) == ("numpy", "float32")

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            engine_options({"backend": "metal"})

    def test_unknown_dtype_rejected(self):
        with pytest.raises(ValueError, match="unknown dtype"):
            engine_options({"dtype": "float16"})

    def test_is_default_accepts_explicit_default_spellings(self):
        assert is_default_options(None, None)
        assert is_default_options("numpy", "float64")
        assert not is_default_options(None, "float32")
        assert not is_default_options("torch", None)

    def test_require_default_passes_defaults_through(self):
        require_default_engine_options({"N": 50}, "loop")
        require_default_engine_options(
            {"backend": "numpy", "dtype": "float64"}, "loop"
        )

    def test_require_default_names_the_refusing_engine(self):
        with pytest.raises(ValueError, match="loop engine only supports"):
            require_default_engine_options({"dtype": "float32"}, "loop")


class TestPerSeedEnginesRefuseOverrides:
    """Defense in depth below the request layer: per-seed paths are numpy/float64."""

    def test_dynamics_loop_refuses_float32(self):
        parameters = {
            "qualities": [0.8, 0.5], "N": 40, "T": 5, "dtype": "float32",
        }
        with pytest.raises(ValueError, match="batched engine"):
            dynamics_point_replication(0, parameters)

    @pytest.mark.parametrize(
        "replication",
        [protocol_point_replication, protocol_vectorized_replication],
        ids=["loop", "vectorized"],
    )
    def test_protocol_per_seed_engines_refuse_float32(self, replication):
        parameters = {
            "qualities": [0.8, 0.5], "N": 40, "T": 5, "dtype": "float32",
        }
        with pytest.raises(ValueError, match="batched engine"):
            replication(0, parameters)


class TestFlattenGridOptions:
    POINT = {"qualities": [0.8, 0.5], "N": 40, "T": 6, "beta": 0.65}

    def test_flattened_batch_carries_one_option_pair(self):
        points = [dict(self.POINT, dtype="float32") for _ in range(3)]
        flat = flatten_grid(points, 4)
        assert flat.dtype == "float32"
        assert flat.backend is None
        dynamics, environment = flat.build(np.random.default_rng(0))
        assert dynamics.precision.name == "float32"
        assert environment.qualities.dtype == np.float32

    def test_default_points_build_the_default_engine(self):
        flat = flatten_grid([dict(self.POINT)], 4)
        assert flat.backend is None and flat.dtype is None
        dynamics, environment = flat.build(np.random.default_rng(0))
        assert dynamics.precision.is_default
        assert environment.qualities.dtype == np.float64

    def test_mixed_precision_points_rejected(self):
        points = [dict(self.POINT), dict(self.POINT, dtype="float32")]
        with pytest.raises(ValueError, match="one backend at one precision"):
            flatten_grid(points, 4)


class TestNetworkBatchedOptions:
    def test_float32_threads_through_to_the_engine(self):
        parameters = {
            "qualities": [0.8, 0.5],
            "topology": "ring",
            "N": 30,
            "T": 4,
            "dtype": "float32",
        }
        rows = network_batched_replication([0, 1, 2], parameters)
        assert len(rows) == 3
        for row in rows:
            assert np.isfinite(row["regret"])


class TestPrecisionInTheContentAddress:
    """float32 sweeps get their own store keys — no cross-precision cache hits."""

    def test_store_keeps_one_entry_per_precision(self, tmp_path):
        from repro.experiments import ParameterGrid, run_sweep
        from repro.experiments.dynamics_sweep import dynamics_grid_replication
        from repro.runtime.options import ExecutionOptions
        from repro.runtime.store import ResultStore

        grid = ParameterGrid({"N": [40]})
        base = {"qualities": (0.8, 0.5), "T": 5}
        with ResultStore(tmp_path / "store.sqlite") as store:
            options = ExecutionOptions(store=store)
            run_sweep(
                "precision", grid, dynamics_grid_replication,
                replications=2, seed=0, base_parameters=base, options=options,
            )
            entries_after_default = len(store)
            assert entries_after_default > 0
            counters = store.counters().as_dict()
            # Same workload at float32: every task must MISS the float64 cache.
            run_sweep(
                "precision", grid, dynamics_grid_replication,
                replications=2, seed=0,
                base_parameters={**base, "dtype": "float32"}, options=options,
            )
            assert len(store) == 2 * entries_after_default
            after = store.counters().as_dict()
            assert after["hits"] == counters["hits"]
            # And re-running float32 is now a pure cache hit.
            run_sweep(
                "precision", grid, dynamics_grid_replication,
                replications=2, seed=0,
                base_parameters={**base, "dtype": "float32"}, options=options,
            )
            assert len(store) == 2 * entries_after_default
            assert store.counters().as_dict()["hits"] > after["hits"]
