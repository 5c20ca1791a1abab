"""Tests for repro.utils.rng."""

import numpy as np
import pytest

from repro.core.batched import BatchedDynamics
from repro.distributed import BatchedProtocol
from repro.environments import BernoulliEnvironment
from repro.network import BatchedNetworkDynamics, SocialNetwork
from repro.utils.rng import (
    RowBlockGenerator,
    ensure_rng,
    seeds_for_replications,
    spawn_rngs,
)


class TestEnsureRng:
    def test_none_returns_generator(self):
        assert isinstance(ensure_rng(None), np.random.Generator)

    def test_int_seed_is_deterministic(self):
        a = ensure_rng(42).random(5)
        b = ensure_rng(42).random(5)
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        a = ensure_rng(1).random(5)
        b = ensure_rng(2).random(5)
        assert not np.array_equal(a, b)

    def test_generator_passthrough(self):
        generator = np.random.default_rng(3)
        assert ensure_rng(generator) is generator

    def test_seed_sequence_accepted(self):
        sequence = np.random.SeedSequence(5)
        assert isinstance(ensure_rng(sequence), np.random.Generator)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError):
            ensure_rng(-1)

    def test_invalid_type_rejected(self):
        with pytest.raises(TypeError):
            ensure_rng("not a seed")

    def test_numpy_integer_seed_accepted(self):
        assert isinstance(ensure_rng(np.int64(9)), np.random.Generator)


class TestSpawnRngs:
    def test_count_respected(self):
        children = spawn_rngs(0, 4)
        assert len(children) == 4

    def test_children_are_independent_streams(self):
        children = spawn_rngs(0, 2)
        a = children[0].random(10)
        b = children[1].random(10)
        assert not np.array_equal(a, b)

    def test_reproducible_from_same_parent_seed(self):
        first = [child.random(3).tolist() for child in spawn_rngs(7, 3)]
        second = [child.random(3).tolist() for child in spawn_rngs(7, 3)]
        assert first == second

    def test_zero_count_rejected(self):
        with pytest.raises(ValueError):
            spawn_rngs(0, 0)


class TestSeedsForReplications:
    def test_length_and_type(self):
        seeds = seeds_for_replications(1, 5)
        assert len(seeds) == 5
        assert all(isinstance(seed, int) for seed in seeds)

    def test_deterministic(self):
        assert seeds_for_replications(3, 4) == seeds_for_replications(3, 4)

    def test_invalid_count_rejected(self):
        with pytest.raises(ValueError):
            seeds_for_replications(3, 0)


class TestRowBlockGenerator:
    SEED_BLOCKS = [[11, 12], [13], [14, 15, 16]]

    def test_ensure_rng_passes_it_through(self):
        generator = RowBlockGenerator(self.SEED_BLOCKS)
        assert ensure_rng(generator) is generator
        assert generator.num_rows == 6

    def test_each_block_draws_from_its_own_seed_list(self):
        generator = RowBlockGenerator(self.SEED_BLOCKS)
        pvals = np.full((6, 3), 1 / 3)
        sizes = np.array([50, 50, 60, 70, 70, 70])
        adopt = np.full((6, 3), 0.4)
        uniforms = generator.random((6, 3))
        counts = generator.multinomial(sizes, pvals)
        thinned = generator.binomial(counts, adopt)
        start = 0
        for seeds in self.SEED_BLOCKS:
            alone = np.random.default_rng(seeds)
            rows = slice(start, start + len(seeds))
            np.testing.assert_array_equal(
                uniforms[rows], alone.random((len(seeds), 3))
            )
            expected = alone.multinomial(sizes[rows], pvals[rows])
            np.testing.assert_array_equal(counts[rows], expected)
            np.testing.assert_array_equal(
                thinned[rows], alone.binomial(expected, adopt[rows])
            )
            start = rows.stop

    def test_scalar_count_matches_a_constant_per_row_count(self):
        pvals = np.full((6, 2), 0.5)
        scalar = RowBlockGenerator(self.SEED_BLOCKS).multinomial(40, pvals)
        per_row = RowBlockGenerator(self.SEED_BLOCKS).multinomial(np.full(6, 40), pvals)
        np.testing.assert_array_equal(scalar, per_row)

    def test_row_count_mismatch_rejected(self):
        generator = RowBlockGenerator(self.SEED_BLOCKS)
        with pytest.raises(ValueError, match="6 rows"):
            generator.random((5, 2))
        with pytest.raises(ValueError, match="6 rows"):
            generator.binomial(np.ones((6, 2), dtype=int), np.full(2, 0.5))

    @pytest.mark.parametrize("seed_blocks", [[], [[1], []]])
    def test_empty_blocks_rejected(self, seed_blocks):
        with pytest.raises(ValueError, match="at least one seed"):
            RowBlockGenerator(seed_blocks)


class TestRunDraws:
    """Whole-row and flat-cell draws of one-seed blocks and of one wrapped
    generator.  Flat cells list each row's cells as one run, in row order;
    ``ends[r]`` is where row r's run ends."""

    SEEDS = [21, 22, 23, 24]
    COUNTS = [3, 0, 5, 2]
    HIGHS = [4, 1, 7, 2]

    def _draws(self, generator):
        ends = np.cumsum(self.COUNTS).tolist()
        return [
            generator.random((4, 6)),
            generator.integers(5, size=(4, 6)),
            generator.run_integers(3, ends),
            generator.run_integers(self.HIGHS, ends),
            generator.run_random(ends, 2),
            generator.random((4, 2)),
        ]

    def test_one_seed_blocks_draw_each_row_from_its_seed(self):
        draws = self._draws(RowBlockGenerator([[seed] for seed in self.SEEDS]))
        ends = np.cumsum(self.COUNTS)
        for row, (seed, count, high) in enumerate(
            zip(self.SEEDS, self.COUNTS, self.HIGHS)
        ):
            alone = np.random.default_rng([seed])
            cells = slice(ends[row] - count, ends[row])
            np.testing.assert_array_equal(draws[0][row], alone.random(6))
            np.testing.assert_array_equal(draws[1][row], alone.integers(5, size=6))
            np.testing.assert_array_equal(
                draws[2][cells], alone.integers(3, size=count)
            )
            np.testing.assert_array_equal(
                draws[3][cells], alone.integers(high, size=count)
            )
            np.testing.assert_array_equal(draws[4][0, cells], alone.random(count))
            np.testing.assert_array_equal(draws[4][1, cells], alone.random(count))
            np.testing.assert_array_equal(draws[5][row], alone.random(2))

    def test_a_wrapped_generator_draws_as_its_own_calls(self):
        generator = np.random.default_rng(7)
        draws = self._draws(RowBlockGenerator.of(generator, 4))
        alone = np.random.default_rng(7)
        cells = sum(self.COUNTS)
        np.testing.assert_array_equal(draws[0], alone.random((4, 6)))
        np.testing.assert_array_equal(draws[1], alone.integers(5, size=(4, 6)))
        np.testing.assert_array_equal(draws[2], alone.integers(3, size=cells))
        # One call per row over its run draws what one call with a
        # per-element bound draws.
        np.testing.assert_array_equal(
            draws[3], alone.integers(np.repeat(self.HIGHS, self.COUNTS))
        )
        np.testing.assert_array_equal(draws[4][0], alone.random(cells))
        np.testing.assert_array_equal(draws[4][1], alone.random(cells))
        np.testing.assert_array_equal(draws[5], alone.random((4, 2)))
        assert generator.random() == alone.random()

    def test_of_passes_row_blocks_through_and_checks_their_rows(self):
        blocks = RowBlockGenerator([[1], [2, 3]])
        assert RowBlockGenerator.of(blocks, 3) is blocks
        with pytest.raises(ValueError, match="3 rows"):
            RowBlockGenerator.of(blocks, 2)
        with pytest.raises(ValueError, match="3 rows"):
            blocks.run_random([1, 2], 2)
        assert RowBlockGenerator.of(5, 2).num_rows == 2


BATCHED_ENGINES = {
    "dynamics": lambda rng: BatchedDynamics(3, 40, 2, rng=rng),
    "network": lambda rng: BatchedNetworkDynamics(
        SocialNetwork.ring(40), 2, 3, rng=rng
    ),
    "protocol": lambda rng: BatchedProtocol(40, 2, num_replicates=3, rng=rng),
}


def _popularity(engine) -> np.ndarray:
    result = engine.run(BernoulliEnvironment([0.8, 0.4], rng=1), 6)
    trajectory = getattr(result, "trajectory", result)
    return trajectory.popularity_tensor()


class TestBatchedEnginesUseEnsureRng:
    """Every batched engine turns its ``rng`` argument into a generator with
    :func:`ensure_rng`, so a seed and a caller's generator behave alike."""

    @pytest.mark.parametrize("engine", sorted(BATCHED_ENGINES))
    def test_integer_seed_matches_ensure_rng_stream(self, engine):
        build = BATCHED_ENGINES[engine]
        np.testing.assert_array_equal(
            _popularity(build(123)), _popularity(build(ensure_rng(123)))
        )

    @pytest.mark.parametrize("engine", sorted(BATCHED_ENGINES))
    def test_generators_are_used_as_is(self, engine):
        """A caller's generator is advanced in place, not copied."""
        build = BATCHED_ENGINES[engine]
        generator = np.random.default_rng(123)
        np.testing.assert_array_equal(
            _popularity(build(generator)), _popularity(build(123))
        )
        assert generator.random() != np.random.default_rng(123).random()
