"""Tests for the dtype parameter convention (repro.experiments.engine_options)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments.dynamics_sweep import (
    dynamics_point_replication,
    flatten_grid,
)
from repro.experiments.engine_options import engine_dtype, require_default_dtype
from repro.experiments.network_sweep import (
    network_batched_replication,
    network_point_replication,
)
from repro.experiments.protocol_sweep import protocol_point_replication


class TestEngineOptions:
    def test_absent_options_resolve_to_none(self):
        assert engine_dtype({"N": 50}) is None

    def test_present_options_are_returned(self):
        assert engine_dtype({"N": 50, "dtype": "float32"}) == "float32"

    def test_unknown_dtype_rejected(self):
        with pytest.raises(ValueError, match="unknown dtype"):
            engine_dtype({"dtype": "float16"})

    def test_require_default_passes_defaults_through(self):
        require_default_dtype({"N": 50}, "loop")
        require_default_dtype({"dtype": "float64"}, "loop")

    def test_require_default_names_the_refusing_engine(self):
        with pytest.raises(ValueError, match="loop engine only supports"):
            require_default_dtype({"dtype": "float32"}, "loop")


class TestPerSeedEnginesRefuseOverrides:
    """Defense in depth below the request layer: the loop engines are float64."""

    def test_dynamics_loop_refuses_float32(self):
        parameters = {
            "qualities": [0.8, 0.5], "N": 40, "T": 5, "dtype": "float32",
        }
        with pytest.raises(ValueError, match="batched engine"):
            dynamics_point_replication(0, parameters)

    @pytest.mark.parametrize(
        "replication",
        [protocol_point_replication, network_point_replication],
        ids=["protocol", "network"],
    )
    def test_per_seed_loop_engines_refuse_float32(self, replication):
        parameters = {
            "qualities": [0.8, 0.5], "N": 40, "T": 5, "dtype": "float32",
        }
        with pytest.raises(ValueError, match="batched engine"):
            replication(0, parameters)


class TestFlattenGridOptions:
    POINT = {"qualities": [0.8, 0.5], "N": 40, "T": 6, "beta": 0.65}

    def test_flattened_batch_carries_one_dtype(self):
        points = [dict(self.POINT, dtype="float32") for _ in range(3)]
        flat = flatten_grid(points, 4)
        assert flat.dtype == "float32"
        dynamics, environment = flat.build(np.random.default_rng(0))
        assert dynamics.precision.name == "float32"
        assert environment.qualities.dtype == np.float32

    def test_default_points_build_the_default_engine(self):
        flat = flatten_grid([dict(self.POINT)], 4)
        assert flat.dtype is None
        dynamics, environment = flat.build(np.random.default_rng(0))
        assert dynamics.precision.is_default
        assert environment.qualities.dtype == np.float64

    def test_mixed_precision_points_rejected(self):
        points = [dict(self.POINT), dict(self.POINT, dtype="float32")]
        with pytest.raises(ValueError, match="at one precision"):
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
