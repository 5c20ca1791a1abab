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

from typing import Iterable, List, Optional, Sequence, Union

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
    ``multinomial`` and ``binomial`` split their arguments along the leading
    (row) axis, draw each block from its own generator and concatenate the
    parts, so a block's rows are exactly those of a launch holding that
    block alone.  :class:`~repro.core.batched.BatchedDynamics` and
    :class:`~repro.environments.RowwiseBernoulliEnvironment` built on one
    instance thus run several independent launches in one array pass.
    """

    def __init__(self, seed_blocks: Sequence[Sequence[int]]) -> None:
        if not seed_blocks or not all(seed_blocks):
            raise ValueError("every block needs at least one seed")
        bounds = np.cumsum([0, *map(len, seed_blocks)]).tolist()
        self._blocks = [
            (np.random.default_rng(list(block)), slice(start, stop))
            for block, start, stop in zip(seed_blocks, bounds, bounds[1:])
        ]
        self.num_rows = bounds[-1]

    def _check_rows(self, *lengths: int) -> None:
        for length in lengths:
            if length != self.num_rows:
                raise ValueError(f"draws must have {self.num_rows} rows, got {length}")

    def random(self, size: Sequence[int]) -> np.ndarray:
        """Uniforms on ``[0, 1)`` of shape ``size``; ``size[0]`` is the row count."""
        rows, *rest = size
        self._check_rows(rows)
        return np.concatenate(
            [
                generator.random((block.stop - block.start, *rest))
                for generator, block in self._blocks
            ]
        )

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


def interleave_choice(
    rng: RngLike, options: Iterable[int], size: Optional[int] = None
) -> np.ndarray:
    """Uniformly choose from ``options`` — tiny convenience wrapper used in tests."""
    generator = ensure_rng(rng)
    options = np.asarray(list(options))
    if options.size == 0:
        raise ValueError("options must be non-empty")
    return generator.choice(options, size=size)
