"""Dtype discipline for the batched engines: the :class:`Precision` config.

A :class:`Precision` names the storage dtypes of an engine's hot state — the
``(R, m)`` count matrices, the ``(R, N)`` choice matrices and the recorded
trajectory tensors.  Two presets exist:

* ``float64`` (the default) — ``float64`` floats, ``int64`` counts.  This is
  bit-identical to the historical behaviour: the golden fixtures pass
  unchanged.
* ``float32`` — ``float32`` floats, ``int32`` counts.  Roughly halves the
  per-cell footprint of every stored state matrix (17 bytes per recorded
  trajectory cell-step drop to 9; see ``benchmarks/test_bench_backends.py``).

The dtype contract (documented in the README's "Precision" section):
*random draws always consume the generator stream in float64*, regardless
of precision — only what the engines **store** changes dtype.
Consequently the dynamics themselves are unchanged under ``float32``; what is
rounded is the recorded popularity trajectory (and, for the rowwise sweep
environment, the stored quality matrix, whose rounding perturbs reward
thresholds at the 1e-7 level).  Statistical equivalence between the two
precisions is pinned by ``tests/property/test_dtype_invariance.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np


@dataclass(frozen=True)
class Precision:
    """Storage dtypes for one engine instance.

    Attributes
    ----------
    name:
        The canonical spelling used by ``--dtype`` flags and request specs.
    float_dtype:
        Dtype of stored popularity / quality matrices.
    int_dtype:
        Dtype of stored count / choice matrices.
    """

    name: str
    float_dtype: np.dtype
    int_dtype: np.dtype

    @property
    def is_default(self) -> bool:
        """Whether this is the bit-identical historical precision."""
        return self.name == "float64"

    def check_count_value(self, value: int, name: str) -> int:
        """Validate that ``value`` fits the integer storage dtype.

        Raises :class:`OverflowError` otherwise — an ``int32`` engine must
        refuse a population it cannot count rather than silently wrap.
        """
        value = int(value)
        limit = int(np.iinfo(self.int_dtype).max)
        if value > limit:
            raise OverflowError(
                f"{name}={value} exceeds the {np.dtype(self.int_dtype).name} "
                f"storage limit {limit}; use the float64/int64 precision"
            )
        return value


DEFAULT_PRECISION = Precision(
    name="float64", float_dtype=np.dtype(np.float64), int_dtype=np.dtype(np.int64)
)

PRECISIONS = {
    "float64": DEFAULT_PRECISION,
    "float32": Precision(
        name="float32", float_dtype=np.dtype(np.float32), int_dtype=np.dtype(np.int32)
    ),
}
"""Registered precisions, keyed by their ``--dtype`` spelling."""

PrecisionLike = Union[None, str, Precision]
"""Anything :func:`resolve_precision` accepts."""


def resolve_precision(precision: PrecisionLike = None) -> Precision:
    """Normalise ``None`` / a name / a :class:`Precision` to a :class:`Precision`."""
    if precision is None:
        return DEFAULT_PRECISION
    if isinstance(precision, Precision):
        return precision
    if isinstance(precision, str):
        try:
            return PRECISIONS[precision]
        except KeyError:
            raise ValueError(
                f"unknown precision {precision!r}; expected one of "
                f"{', '.join(sorted(PRECISIONS))}"
            ) from None
    raise TypeError(
        f"precision must be None, a name or a Precision; got {type(precision).__name__}"
    )
