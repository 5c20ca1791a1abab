"""Optional numba-fused kernel for the CSR neighbour-sampling hot loop.

The batched network engine computes, per step, the committed-neighbour
option counts (a CSR gather + bincount per replicate, materialising an
``(E,)`` key gather at a time and the ``(R, N, m)`` count tensor) followed
by row-normalised inverse-CDF sampling.  Those two passes are memory-bound:
every byte of the count tensor is written once and read once.  The fused
kernel here walks each agent's CSR row once, tallies the counts into an
``m``-length register histogram and draws the inverse-CDF pick in the same
pass — ``O(E + R·N·m)`` work with ``O(m)`` scratch per agent instead of
``O(E + R·N·m)`` materialised intermediates.

Given the same uniforms the fused pick is **bit-identical** to the two-pass
NumPy path (both compute ``u * total`` in float64 and select the first index
whose inclusive cumulative count exceeds the target, capped at ``m - 1``),
so the engine may switch freely between them — the golden fixtures pass
either way.  When numba is absent (:data:`HAS_NUMBA` false) the engine falls
back to the pure-NumPy two-pass path; the un-jitted kernel loop is kept
importable for equivalence tests but is never dispatched to in production.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

import numpy as np

try:  # pragma: no cover - absence path exercised where numba is missing
    from numba import njit

    HAS_NUMBA = True
except ImportError:  # numba is an optional accelerator dependency
    njit = None
    HAS_NUMBA = False


def _gather_pick_loop(indptr, indices, choices, uniforms, num_options, picks, totals):
    """The fused CSR gather + inverse-CDF pick, written as plain loops.

    ``choices`` and ``uniforms`` have shape ``(R, N)``; ``picks``/``totals``
    are preallocated ``(R, N)`` int64 outputs.  Rows with no committed
    neighbour report ``totals == 0`` with the pick clamped to
    ``num_options - 1`` (callers mask on totals, exactly as with the NumPy
    path).  This function is the compilation *source*: numba jits it into
    :data:`_gather_pick_jit`; calling it un-jitted is only sensible for tiny
    equivalence tests.
    """
    num_replicates, num_agents = choices.shape
    histogram = np.zeros(num_options, dtype=np.int64)
    for replicate in range(num_replicates):
        for agent in range(num_agents):
            histogram[:] = 0
            total = 0
            for edge in range(indptr[agent], indptr[agent + 1]):
                choice = choices[replicate, indices[edge]]
                if choice >= 0:
                    histogram[choice] += 1
                    total += 1
            totals[replicate, agent] = total
            pick = num_options - 1
            if total > 0:
                target = uniforms[replicate, agent] * total
                accumulated = 0
                for option in range(num_options):
                    accumulated += histogram[option]
                    if target < accumulated:
                        pick = option
                        break
            picks[replicate, agent] = pick


if HAS_NUMBA:  # pragma: no cover - compiled only where numba is installed
    _gather_pick_jit = njit(cache=True)(_gather_pick_loop)
else:
    _gather_pick_jit = None


def fused_neighbor_pick(
    network,
    choices: np.ndarray,
    uniforms: np.ndarray,
    num_options: int,
    *,
    impl: Optional[Callable] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """One-pass committed-neighbour inverse-CDF sampling over a CSR graph.

    Parameters
    ----------
    network:
        The :class:`~repro.network.topology.SocialNetwork` (its cached
        ``csr_indptr``/``csr_indices`` arrays drive the row walks).
    choices:
        Current options, shape ``(R, N)``; ``-1`` = sitting out.
    uniforms:
        Matching-shape float64 uniforms in ``[0, 1)``.
    num_options:
        Number of options ``m``.
    impl:
        Kernel override for tests (defaults to the numba-compiled kernel;
        requires :data:`HAS_NUMBA` when left at the default).

    Returns
    -------
    (picks, totals):
        Same contract as the NumPy two-pass path after its boundary clamp:
        ``picks`` in ``0..m-1`` and ``totals`` the committed-neighbour
        counts; rows with ``totals == 0`` must be masked by the caller.
    """
    kernel = impl if impl is not None else _gather_pick_jit
    if kernel is None:
        raise RuntimeError(
            "fused_neighbor_pick needs numba (not installed); use the "
            "pure-NumPy path instead"
        )
    picks = np.empty(choices.shape, dtype=np.int64)
    totals = np.empty(choices.shape, dtype=np.int64)
    kernel(
        network.csr_indptr,
        network.csr_indices,
        choices,
        np.asarray(uniforms, dtype=np.float64),
        num_options,
        picks,
        totals,
    )
    return picks, totals
