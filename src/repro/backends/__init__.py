"""Storage precision of the batched engines.

Public surface: :class:`Precision` / :func:`resolve_precision` /
:data:`PRECISIONS` — the storage-dtype discipline threaded through the
batched engines (``--dtype``).
"""

from repro.backends.precision import (
    DEFAULT_PRECISION,
    PRECISIONS,
    Precision,
    PrecisionLike,
    resolve_precision,
)

__all__ = [
    "Precision",
    "PrecisionLike",
    "PRECISIONS",
    "DEFAULT_PRECISION",
    "resolve_precision",
]
