"""ExecutionOptions: three fields, and none of them changes a row."""

from __future__ import annotations

import dataclasses

import pytest

from repro.experiments import ParameterGrid, run_sweep, sweep_configs
from repro.experiments.dynamics_sweep import (
    dynamics_grid_replication,
    dynamics_point_replication,
)
from repro.experiments.runner import run_replications
from repro.obs.trace import MemorySink, Tracer
from repro.runtime import ParallelExecutor, ResultStore, SerialExecutor
from repro.runtime.options import ExecutionOptions
from repro.service import execute_request, sweep_request

BASE = {"qualities": (0.8, 0.5), "T": 6}
GRID = ParameterGrid({"N": [40, 60]})


class TestFields:
    def test_defaults_are_empty(self):
        options = ExecutionOptions()
        assert (options.executor, options.store, options.tracer) == (None, None, None)

    def test_only_executor_store_and_tracer(self):
        names = [field.name for field in dataclasses.fields(ExecutionOptions)]
        assert names == ["executor", "store", "tracer"]

    def test_frozen(self):
        options = ExecutionOptions()
        with pytest.raises(AttributeError):
            options.executor = SerialExecutor()


def _option_variants(tmp_path):
    """Each option alone, as the CLI flags set them."""
    return {
        "executor": ExecutionOptions(executor=ParallelExecutor(2)),
        "store": ExecutionOptions(store=ResultStore(tmp_path / "opts.sqlite")),
        "tracer": ExecutionOptions(tracer=Tracer(MemorySink())),
    }


class TestOptionsNeverChangeRows:
    @pytest.mark.parametrize(
        "replication",
        [dynamics_point_replication, dynamics_grid_replication],
        ids=["loop", "grid"],
    )
    def test_run_sweep(self, replication, tmp_path):
        plain_results, plain_table = run_sweep(
            "opts", GRID, replication, replications=2, seed=3, base_parameters=BASE
        )
        for name, options in _option_variants(tmp_path).items():
            results, table = run_sweep(
                "opts",
                GRID,
                replication,
                replications=2,
                seed=3,
                base_parameters=BASE,
                options=options,
            )
            assert [r.metrics for r in results] == [
                r.metrics for r in plain_results
            ], name
            assert table.rows == plain_table.rows, name
            if options.store is not None:
                options.store.close()

    def test_run_replications(self, tmp_path):
        config = sweep_configs(
            "opts", GRID, replications=2, seed=3, base_parameters=BASE
        )[0]
        plain = run_replications(config, dynamics_point_replication)
        for name, options in _option_variants(tmp_path).items():
            result = run_replications(
                config, dynamics_point_replication, options=options
            )
            assert result.metrics == plain.metrics, name
            if options.store is not None:
                options.store.close()

    def test_execute_request(self, tmp_path):
        request = sweep_request(
            options=[0.8, 0.5], populations=[40, 60], horizon=6, replications=2
        )
        plain = execute_request(request)
        for name, options in _option_variants(tmp_path).items():
            result = execute_request(request, options=options)
            assert result.rows == plain.rows, name
            assert result.description == plain.description, name
            if options.store is not None:
                options.store.close()


class TestLegacyKeywordsRemoved:
    def test_run_sweep_rejects_executor_keyword(self):
        with pytest.raises(TypeError):
            run_sweep(
                "opts",
                GRID,
                dynamics_point_replication,
                base_parameters=BASE,
                executor=SerialExecutor(),
            )

    def test_execute_request_rejects_store_keyword(self):
        request = sweep_request(options=[0.8, 0.5], populations=[40], horizon=6)
        with pytest.raises(TypeError):
            execute_request(request, store=None)
