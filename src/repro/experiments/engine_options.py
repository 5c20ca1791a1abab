"""Shared ``backend`` / ``dtype`` parameter handling for the sweep workloads.

Every sweep family accepts two optional per-grid parameters riding alongside
the scientific ones:

``backend``
    Array backend name (``numpy`` default, ``cupy``/``torch`` optional); see
    :func:`repro.backends.get_namespace`.
``dtype``
    Storage precision name (``float64`` default, ``float32`` opt-in); see
    :data:`repro.backends.PRECISIONS`.

Both ride through the ordinary parameter-dict convention — merged from
``base_parameters``, recorded in result rows and content-address keys like
any other parameter — so a float32 sweep can never silently reuse a float64
cache entry.  Only the batched engines honour them; the per-seed loop and
vectorised reference paths refuse non-default values rather than silently
computing something different from what the key claims.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

from repro.backends import BACKENDS, DEFAULT_BACKEND_NAME, PRECISIONS

NETWORK_ENGINES = ("loop", "vectorized", "batched")
"""The interchangeable execution engines for the network workloads."""

PROTOCOL_ENGINES = ("loop", "vectorized", "batched")
"""The interchangeable execution engines for the protocol workloads."""


def engine_options(parameters: Dict[str, Any]) -> Tuple[Optional[str], Optional[str]]:
    """Extract and validate a point's optional ``(backend, dtype)`` pair.

    Absent keys return ``None`` (meaning the defaults); present keys must
    name a known backend / precision.
    """
    backend = parameters.get("backend")
    if backend is not None:
        backend = str(backend)
        if backend not in BACKENDS:
            raise ValueError(
                f"unknown backend {backend!r}; expected one of {', '.join(BACKENDS)}"
            )
    dtype = parameters.get("dtype")
    if dtype is not None:
        dtype = str(dtype)
        if dtype not in PRECISIONS:
            raise ValueError(
                f"unknown dtype {dtype!r}; expected one of {', '.join(PRECISIONS)}"
            )
    return backend, dtype


def is_default_options(backend: Optional[str], dtype: Optional[str]) -> bool:
    """Whether the pair selects the default NumPy float64/int64 path."""
    return backend in (None, DEFAULT_BACKEND_NAME) and dtype in (None, "float64")


def require_default_engine_options(
    parameters: Dict[str, Any], engine: str
) -> None:
    """Refuse non-default ``backend``/``dtype`` on engines that ignore them.

    The per-seed reference engines always run NumPy float64; letting a
    ``dtype=float32`` parameter through would produce rows whose recorded
    parameters (and content-address keys) misdescribe what actually ran.
    """
    backend, dtype = engine_options(parameters)
    if not is_default_options(backend, dtype):
        raise ValueError(
            f"the {engine} engine only supports the default numpy/float64 "
            f"path (got backend={backend!r}, dtype={dtype!r}); use the "
            "batched engine for backend or dtype overrides"
        )
