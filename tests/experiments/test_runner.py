"""Tests for the replication runner (per-seed loop and grid fast path)."""

import pytest

from repro.experiments import (
    ExperimentConfig,
    grid_batched_replication,
    run_replications,
)


def simple_replication(seed, parameters):
    return {"value": float(seed % 10), "doubled": 2.0 * (seed % 10)}


@grid_batched_replication
def simple_batched_replication(seed_blocks, points):
    return [
        [{"value": float(seed % 10), "doubled": 2.0 * (seed % 10)} for seed in seeds]
        for seeds in seed_blocks
    ]


class TestRunReplications:
    def test_number_of_replications(self):
        config = ExperimentConfig(name="demo", replications=4, seed=1)
        result = run_replications(config, simple_replication)
        assert len(result.metrics) == 4
        assert len(result.seeds) == 4

    def test_deterministic_given_seed(self):
        config = ExperimentConfig(name="demo", replications=3, seed=5)
        first = run_replications(config, simple_replication)
        second = run_replications(config, simple_replication)
        assert first.seeds == second.seeds
        assert first.metrics == second.metrics

    def test_metric_values_and_names(self):
        config = ExperimentConfig(name="demo", replications=3, seed=2)
        result = run_replications(config, simple_replication)
        assert result.metric_names() == ["doubled", "value"]
        assert result.metric_values("value").shape == (3,)

    def test_missing_metric_raises(self):
        config = ExperimentConfig(name="demo", replications=2, seed=0)
        result = run_replications(config, simple_replication)
        with pytest.raises(KeyError):
            result.metric_values("absent")

    def test_summarize(self):
        config = ExperimentConfig(name="demo", replications=3, seed=0)
        result = run_replications(config, simple_replication)
        summary = result.summarize("value")
        assert summary.replications == 3

    def test_summary_row_includes_parameters(self):
        config = ExperimentConfig(
            name="demo", parameters={"beta": 0.6}, replications=2, seed=0
        )
        result = run_replications(config, simple_replication)
        row = result.summary_row()
        assert row["beta"] == 0.6
        assert "value" in row

    def test_parameters_passed_to_replication(self):
        seen = []

        def replication(seed, parameters):
            seen.append(parameters)
            return {"ok": 1.0}

        config = ExperimentConfig(name="demo", parameters={"x": 3}, replications=2, seed=0)
        run_replications(config, replication)
        assert all(parameters == {"x": 3} for parameters in seen)

    def test_rejects_bad_replication_output(self):
        config = ExperimentConfig(name="demo", replications=1, seed=0)
        with pytest.raises(ValueError):
            run_replications(config, lambda seed, parameters: {})
        with pytest.raises(ValueError):
            run_replications(config, lambda seed, parameters: 3.0)


class TestBatchedFastPath:
    def test_batched_function_called_once_with_all_seeds(self):
        calls = []

        @grid_batched_replication
        def replication(seed_blocks, points):
            calls.append([list(seeds) for seeds in seed_blocks])
            return [[{"ok": 1.0} for _ in seeds] for seeds in seed_blocks]

        config = ExperimentConfig(name="demo", replications=5, seed=3)
        result = run_replications(config, replication)
        assert calls == [[result.seeds]]
        assert len(result.metrics) == 5

    def test_batched_matches_loop_for_seed_pure_functions(self):
        """A metrics function of the seed alone gives identical results either way."""
        config = ExperimentConfig(name="demo", replications=6, seed=11)
        loop = run_replications(config, simple_replication)
        batched = run_replications(config, simple_batched_replication)
        assert loop.seeds == batched.seeds
        assert loop.metrics == batched.metrics

    def test_batched_row_count_mismatch_rejected(self):
        @grid_batched_replication
        def replication(seed_blocks, points):
            return [[{"ok": 1.0}] for _ in seed_blocks]

        config = ExperimentConfig(name="demo", replications=3, seed=0)
        with pytest.raises(ValueError, match="metric rows"):
            run_replications(config, replication)

    def test_batched_rows_validated(self):
        @grid_batched_replication
        def replication(seed_blocks, points):
            return [[{} for _ in seeds] for seeds in seed_blocks]

        config = ExperimentConfig(name="demo", replications=2, seed=0)
        with pytest.raises(ValueError):
            run_replications(config, replication)

    def test_batched_receives_parameters(self):
        seen = []

        @grid_batched_replication
        def replication(seed_blocks, points):
            seen.extend(points)
            return [[{"ok": 1.0} for _ in seeds] for seeds in seed_blocks]

        config = ExperimentConfig(name="demo", parameters={"x": 3}, replications=2, seed=0)
        run_replications(config, replication)
        assert seen == [{"x": 3}]
