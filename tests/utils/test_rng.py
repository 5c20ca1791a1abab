"""Tests for repro.utils.rng."""

import numpy as np
import pytest

from repro.utils.rng import (
    RowBlockGenerator,
    ensure_rng,
    interleave_choice,
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


class TestInterleaveChoice:
    def test_choice_from_options(self):
        value = interleave_choice(0, [1, 2, 3])
        assert value in (1, 2, 3)

    def test_empty_options_rejected(self):
        with pytest.raises(ValueError):
            interleave_choice(0, [])


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
