"""Tests for parameter sweeps."""

import sys

import pytest

import repro.utils.rng as rng
from repro.experiments import (
    ExperimentConfig,
    ParameterGrid,
    grid_batched_replication,
    run_replications,
    run_sweep,
)


class TestParameterGrid:
    def test_length_is_product(self):
        grid = ParameterGrid({"a": [1, 2], "b": [10, 20, 30]})
        assert len(grid) == 6

    def test_iteration_covers_all_combinations(self):
        grid = ParameterGrid({"a": [1, 2], "b": ["x", "y"]})
        points = list(grid)
        assert {"a": 1, "b": "x"} in points
        assert {"a": 2, "b": "y"} in points
        assert len(points) == 4

    def test_iteration_order_last_axis_fastest(self):
        grid = ParameterGrid({"a": [1, 2], "b": [10, 20]})
        points = list(grid)
        assert points[0] == {"a": 1, "b": 10}
        assert points[1] == {"a": 1, "b": 20}

    def test_rejects_empty_grid(self):
        with pytest.raises(ValueError):
            ParameterGrid({})

    def test_rejects_empty_axis(self):
        with pytest.raises(ValueError):
            ParameterGrid({"a": []})

    def test_generator_axis_materialised_once(self):
        """Regression: a generator axis used to pass validation then yield nothing."""
        grid = ParameterGrid({"a": (value for value in [1, 2, 3]), "b": [10]})
        assert len(grid) == 3
        first_pass = list(grid)
        second_pass = list(grid)
        assert first_pass == second_pass
        assert {"a": 3, "b": 10} in first_pass

    def test_empty_generator_axis_rejected(self):
        with pytest.raises(ValueError):
            ParameterGrid({"a": (value for value in [])})

    def test_iterator_axis_materialised_once(self):
        grid = ParameterGrid({"a": iter([1, 2])})
        assert len(grid) == 2
        assert list(grid) == [{"a": 1}, {"a": 2}]


class TestRunSweep:
    def test_table_has_one_row_per_point(self):
        grid = ParameterGrid({"x": [1, 2, 3]})
        results, table = run_sweep(
            "demo",
            grid,
            lambda seed, parameters: {"metric": float(parameters["x"])},
            replications=2,
            seed=0,
        )
        assert len(results) == 3
        assert len(table) == 3
        assert table.column("metric") == [1.0, 2.0, 3.0]

    def test_base_parameters_merged(self):
        grid = ParameterGrid({"x": [1]})
        _, table = run_sweep(
            "demo",
            grid,
            lambda seed, parameters: {"sum": float(parameters["x"] + parameters["offset"])},
            replications=1,
            seed=0,
            base_parameters={"offset": 10},
        )
        assert table.column("sum") == [11.0]

    def test_distinct_seeds_per_point(self):
        grid = ParameterGrid({"x": [1, 2]})
        results, _ = run_sweep(
            "demo",
            grid,
            lambda seed, parameters: {"seed": float(seed)},
            replications=1,
            seed=0,
        )
        assert results[0].seeds != results[1].seeds


@pytest.fixture()
def derivations(monkeypatch):
    """The master seed of every seed-list derivation, whichever module makes it."""
    masters = []
    derive = rng.seeds_for_replications

    def counting(master, replications):
        masters.append(master)
        return derive(master, replications)

    for name, module in list(sys.modules.items()):
        holds = getattr(module, "seeds_for_replications", None) is derive
        if name.startswith("repro") and holds:
            monkeypatch.setattr(module, "seeds_for_replications", counting)
    return masters


@grid_batched_replication
def seed_batch(seed_blocks, points):
    return [[{"seed": float(seed)} for seed in seeds] for seeds in seed_blocks]


class TestSeedDerivation:
    """Each point's seed list is derived once, by its shard plan."""

    @pytest.mark.parametrize("replication", ["loop", "batched"])
    def test_a_sweep_derives_each_point_once(self, derivations, replication):
        function = {
            "loop": lambda seed, parameters: {"seed": float(seed)},
            "batched": seed_batch,
        }[replication]
        results, _ = run_sweep(
            "demo", ParameterGrid({"x": [1, 2, 3]}), function, replications=4, seed=7
        )
        assert derivations == [7, 8, 9]
        expected = [rng.seeds_for_replications(7 + index, 4) for index in range(3)]
        assert [result.seeds for result in results] == expected
        assert all(type(result.seeds) is list for result in results)
        assert [result.metric_values("seed").tolist() for result in results] == [
            [float(seed) for seed in seeds] for seeds in expected
        ]

    def test_a_replicated_run_derives_its_seeds_once(self, derivations):
        config = ExperimentConfig(name="demo", replications=5, seed=3)
        result = run_replications(config, seed_batch)
        assert derivations == [3]
        assert result.seeds == rng.seeds_for_replications(3, 5)


class TestGridBatchedSweep:
    def _make_grid_function(self, transform=None):
        from repro.experiments import grid_batched_replication

        calls = []

        @grid_batched_replication
        def replication(seed_blocks, points):
            calls.append((seed_blocks, points))
            blocks = [
                [{"metric": float(point["x"]) + seed * 0.0} for seed in block]
                for block, point in zip(seed_blocks, points)
            ]
            return transform(blocks) if transform else blocks

        return replication, calls

    def test_called_exactly_once_with_all_points(self):
        from repro.experiments import ParameterGrid, run_sweep

        replication, calls = self._make_grid_function()
        results, table = run_sweep(
            "grid", ParameterGrid({"x": [1, 2, 3]}), replication, replications=2, seed=0
        )
        assert len(calls) == 1
        seed_blocks, points = calls[0]
        assert [point["x"] for point in points] == [1, 2, 3]
        assert all(len(block) == 2 for block in seed_blocks)
        assert len(results) == 3
        assert table.column("metric") == [1.0, 2.0, 3.0]
        # provenance matches the per-point derivation
        assert [result.seeds for result in results] == seed_blocks

    def test_wrong_block_count_rejected(self):
        from repro.experiments import ParameterGrid, run_sweep

        replication, _ = self._make_grid_function(transform=lambda blocks: blocks[:-1])
        with pytest.raises(ValueError, match="metric blocks"):
            run_sweep(
                "grid", ParameterGrid({"x": [1, 2]}), replication, replications=2, seed=0
            )

    def test_wrong_row_count_rejected(self):
        from repro.experiments import ParameterGrid, run_sweep

        replication, _ = self._make_grid_function(
            transform=lambda blocks: [blocks[0][:1]] + blocks[1:]
        )
        with pytest.raises(ValueError, match="metric rows"):
            run_sweep(
                "grid", ParameterGrid({"x": [1, 2]}), replication, replications=2, seed=0
            )

    def test_base_parameters_reach_every_point(self):
        from repro.experiments import ParameterGrid, grid_batched_replication, run_sweep

        @grid_batched_replication
        def replication(seed_blocks, points):
            return [
                [{"sum": float(point["x"] + point["offset"])} for _ in block]
                for block, point in zip(seed_blocks, points)
            ]

        _, table = run_sweep(
            "grid",
            ParameterGrid({"x": [1, 2]}),
            replication,
            replications=1,
            seed=0,
            base_parameters={"offset": 10},
        )
        assert table.column("sum") == [11.0, 12.0]


class TestFlattenGrid:
    def test_row_layout_and_broadcasting(self):
        import numpy as np

        from repro.experiments import flatten_grid

        points = [
            {"qualities": (0.9, 0.1), "N": 50, "T": 6, "beta": 0.6, "mu": 0.05},
            {"qualities": (0.2, 0.8), "N": 70, "T": 6, "beta": 0.7, "mu": 0.1},
        ]
        flat = flatten_grid(points, replications=3)
        assert flat.num_rows == 6
        assert flat.num_options == 2
        assert flat.horizon == 6
        np.testing.assert_array_equal(flat.population_sizes, [50] * 3 + [70] * 3)
        np.testing.assert_allclose(flat.beta, [0.6] * 3 + [0.7] * 3)
        np.testing.assert_allclose(flat.alpha, [0.4] * 3 + [0.3] * 3)
        np.testing.assert_allclose(flat.mu, [0.05] * 3 + [0.1] * 3)
        np.testing.assert_array_equal(flat.qualities[:3], np.tile([0.9, 0.1], (3, 1)))

    def test_equal_sizes_collapse_to_int(self):
        from repro.experiments import flatten_grid

        points = [
            {"qualities": (0.9, 0.1), "N": 50, "T": 6},
            {"qualities": (0.2, 0.8), "N": 50, "T": 6},
        ]
        flat = flatten_grid(points, replications=2)
        assert isinstance(flat.population_sizes, int)
        assert flat.population_sizes == 50

    def test_default_mu_derives_from_each_rows_beta(self):
        from repro.experiments import flatten_grid

        points = [
            {"qualities": (0.9, 0.1), "N": 50, "T": 6, "beta": 0.6},
            {"qualities": (0.9, 0.1), "N": 50, "T": 6, "beta": 0.8},
        ]
        flat = flatten_grid(points, replications=1)
        assert flat.mu[0] < flat.mu[1]

    def test_missing_required_key_raises(self):
        from repro.experiments import flatten_grid

        with pytest.raises(KeyError, match="qualities"):
            flatten_grid([{"N": 50, "T": 6}], replications=1)

    def test_mismatched_option_counts_rejected(self):
        from repro.experiments import flatten_grid

        points = [
            {"qualities": (0.9, 0.1), "N": 50, "T": 6},
            {"qualities": (0.9, 0.1, 0.2), "N": 50, "T": 6},
        ]
        with pytest.raises(ValueError, match="options"):
            flatten_grid(points, replications=1)
