"""Random-number-generator plumbing.

All stochastic components in the library accept a ``rng`` argument that can be

* ``None`` — a fresh, OS-entropy-seeded generator is created,
* an ``int`` — used as a seed for a new :class:`numpy.random.Generator`,
* an existing :class:`numpy.random.Generator` — used as-is,
* a :class:`numpy.random.SeedSequence` — used to construct a generator, or
* a :class:`RowBlockGenerator` — used as-is by the batched engines, which
  then draw each block of rows from that block's own generator.

Keeping this conversion in one place makes experiments reproducible from a
single integer while still letting callers share one generator across
components when they want correlated streams (e.g. the coupling of
Lemma 4.5, which requires the finite and infinite dynamics to observe the very
same reward realisations).

Sharding contract: :func:`seeds_for_replications` materialises the exact
integer seeds behind :func:`spawn_rngs`'s independent child streams, and a
child generator depends only on its own seed.  Any partition of the seed
list therefore reproduces the unsharded streams — reconstructing generators
chunk by chunk, in any grouping, yields bit-identical draws to building them
all at once.  The parallel runtime (:mod:`repro.runtime`) leans on this to
guarantee that sharded, multi-process sweeps match serial ones seed for
seed; the contract is pinned by a property test in
``tests/property/test_seed_sharding.py``.
"""

from __future__ import annotations

from typing import Iterator, List, Sequence, Tuple, Union

import numpy as np

RngLike = Union[None, int, np.random.Generator, np.random.SeedSequence]
"""Anything :func:`ensure_rng` can turn into a :class:`numpy.random.Generator`."""


def ensure_rng(rng: RngLike = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for any accepted ``rng`` value.

    Parameters
    ----------
    rng:
        ``None``, an integer seed, a ``SeedSequence`` or an existing generator.

    Returns
    -------
    numpy.random.Generator
        A generator; the same object if one was passed in.

    Raises
    ------
    TypeError
        If ``rng`` is not one of the accepted types.
    """
    if rng is None:
        return np.random.default_rng()
    if isinstance(rng, (np.random.Generator, RowBlockGenerator)):
        return rng
    if isinstance(rng, (int, np.integer)):
        if rng < 0:
            raise ValueError(f"seed must be non-negative, got {rng}")
        return np.random.default_rng(int(rng))
    if isinstance(rng, np.random.SeedSequence):
        return np.random.default_rng(rng)
    raise TypeError(
        "rng must be None, an int seed, a numpy Generator or a SeedSequence; "
        f"got {type(rng).__name__}"
    )


def spawn_rngs(rng: RngLike, count: int) -> List[np.random.Generator]:
    """Create ``count`` statistically independent child generators.

    Uses :meth:`numpy.random.SeedSequence.spawn` semantics via the parent
    generator's bit generator so that replications of an experiment get
    independent, reproducible streams.

    Parameters
    ----------
    rng:
        Parent generator or seed.
    count:
        Number of child generators to create (must be positive).
    """
    if count <= 0:
        raise ValueError(f"count must be positive, got {count}")
    parent = ensure_rng(rng)
    seeds = parent.integers(0, 2**63 - 1, size=count, dtype=np.int64)
    return [np.random.default_rng(int(seed)) for seed in seeds]


def seeds_for_replications(rng: RngLike, replications: int) -> List[int]:
    """Draw ``replications`` integer seeds from ``rng`` for later reuse.

    Storing the integer seeds (rather than generator objects) in experiment
    results makes every replication individually re-runnable.
    """
    if replications <= 0:
        raise ValueError(f"replications must be positive, got {replications}")
    parent = ensure_rng(rng)
    return [int(seed) for seed in parent.integers(0, 2**63 - 1, size=replications)]


class RowBlockGenerator:
    """One generator per block of batch rows, behind the batched engines' draws.

    Block ``b`` covers ``len(seed_blocks[b])`` consecutive rows and takes
    every draw from ``np.random.default_rng(seed_blocks[b])``.  ``random``,
    ``integers``, ``multinomial`` and ``binomial`` split their arguments
    along the leading (row) axis and draw each block's rows from its own
    generator, so a block's rows are exactly those of a launch holding that
    block alone.  :class:`~repro.core.batched.BatchedDynamics` and
    :class:`~repro.environments.RowwiseBernoulliEnvironment` built on one
    instance thus run several independent launches in one array pass.  With
    one-seed blocks every row is the ``R = 1`` run of its seed.

    :meth:`run_random` and :meth:`run_integers` draw over a flat set of
    cells that lists each row's cells as one run, in row order, as
    :class:`~repro.distributed.vectorized.BatchedProtocol` tracks its
    waiting nodes.  :meth:`of` wraps a plain generator as one block over
    all rows, whose draws are those of the generator's own calls.
    """

    def __init__(self, seed_blocks: Sequence[Sequence[int]]) -> None:
        if not seed_blocks or not all(seed_blocks):
            raise ValueError("every block needs at least one seed")
        self._set_blocks(
            [(np.random.default_rng(list(block)), len(block)) for block in seed_blocks]
        )

    @classmethod
    def of(cls, rng: RngLike, num_rows: int) -> "RowBlockGenerator":
        """``rng`` as row blocks over ``num_rows`` rows.

        A :class:`RowBlockGenerator` is returned as it is; anything
        :func:`ensure_rng` accepts becomes one block over every row.
        """
        if isinstance(rng, cls):
            rng._check_rows(num_rows)
            return rng
        blocks = cls.__new__(cls)
        blocks._set_blocks([(ensure_rng(rng), num_rows)])
        return blocks

    def _set_blocks(self, blocks: Sequence[Tuple[np.random.Generator, int]]) -> None:
        bounds = np.cumsum([0, *(rows for _, rows in blocks)]).tolist()
        self._blocks = [
            (generator, slice(start, stop))
            for (generator, _), start, stop in zip(blocks, bounds, bounds[1:])
        ]
        self._row_generators = [
            generator for generator, rows in blocks for _ in range(rows)
        ]
        self.num_rows = bounds[-1]

    def _check_rows(self, *lengths: int) -> None:
        for length in lengths:
            if length != self.num_rows:
                raise ValueError(f"draws must have {self.num_rows} rows, got {length}")

    def random(self, size: Sequence[int]) -> np.ndarray:
        """Uniforms on ``[0, 1)`` of shape ``size``; ``size[0]`` is the row count."""
        self._check_rows(size[0])
        out = np.empty(size)
        for generator, rows in self._blocks:
            generator.random(out=out[rows])
        return out

    def integers(self, high: int, size: Sequence[int]) -> np.ndarray:
        """Integers on ``[0, high)`` of shape ``size``; ``size[0]`` is the row count."""
        rows, *rest = size
        self._check_rows(rows)
        out = np.empty(size, dtype=np.int64)
        for generator, block in self._blocks:
            out[block] = generator.integers(
                high, size=(block.stop - block.start, *rest)
            )
        return out

    def multinomial(self, n, pvals: np.ndarray) -> np.ndarray:
        """Row-wise multinomial counts; ``n`` is one count or one per row."""
        per_row = np.ndim(n) > 0
        self._check_rows(len(pvals), len(n) if per_row else len(pvals))
        return np.concatenate(
            [
                generator.multinomial(n[rows] if per_row else n, pvals[rows])
                for generator, rows in self._blocks
            ]
        )

    def binomial(self, n: np.ndarray, p: np.ndarray) -> np.ndarray:
        """Binomial draws over ``n`` and ``p``, both with one leading entry per row."""
        self._check_rows(len(n), len(p))
        return np.concatenate(
            [generator.binomial(n[rows], p[rows]) for generator, rows in self._blocks]
        )

    def _block_runs(
        self, ends: Sequence[int]
    ) -> Iterator[Tuple[np.random.Generator, int]]:
        """Each block's generator with the size of its non-empty run."""
        self._check_rows(len(ends))
        for generator, rows in self._blocks:
            size = ends[rows.stop - 1] - (ends[rows.start - 1] if rows.start else 0)
            if size:
                yield generator, size

    def run_random(self, ends: Sequence[int], count: int) -> np.ndarray:
        """``count`` uniforms per flat cell, shape ``(count, ends[-1])``.

        Row ``r``'s cells are positions ``ends[r - 1]:ends[r]`` (from 0 for
        row 0).  Each block draws its cells' uniforms in one call, the first
        of the ``count`` arrays first, so the stream is that of ``count``
        consecutive draws over the block's cells.
        """
        parts = [
            generator.random(count * size).reshape(count, size)
            for generator, size in self._block_runs(ends)
        ]
        return np.concatenate(parts, axis=1) if parts else np.empty((count, 0))

    def run_integers(self, high, ends: Sequence[int]) -> np.ndarray:
        """Integers on ``[0, high)`` per flat cell, laid out as in :meth:`run_random`.

        ``high`` is one bound, drawn in one call per block, or a sequence
        of one bound per row, drawn in one call per row.
        """
        # A tuple size skips part of numpy's per-call cost for an int one.
        if np.ndim(high) == 0:
            parts = [
                generator.integers(high, size=(size,))
                for generator, size in self._block_runs(ends)
            ]
        else:
            self._check_rows(len(ends))
            parts = []
            start = 0
            for generator, row_high, stop in zip(self._row_generators, high, ends):
                if stop > start:
                    parts.append(generator.integers(row_high, size=(stop - start,)))
                start = stop
        return np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)
