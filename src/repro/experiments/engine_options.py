"""Shared ``dtype`` parameter handling for the sweep workloads.

Every sweep family accepts one optional per-grid parameter riding alongside
the scientific ones:

``dtype``
    Storage precision name (``float64`` default, ``float32`` opt-in); see
    :data:`repro.backends.PRECISIONS`.

It rides through the ordinary parameter-dict convention — merged from
``base_parameters``, recorded in result rows and content-address keys like
any other parameter — so a float32 sweep can never silently reuse a float64
cache entry.  Only the batched engines honour it; the per-seed loop engines
refuse non-default values rather than silently computing something
different from what the key claims.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.backends import PRECISIONS

NETWORK_ENGINES = ("loop", "batched")
"""The execution engines for the network workloads."""

PROTOCOL_ENGINES = ("loop", "batched")
"""The execution engines for the protocol workloads."""


def engine_dtype(parameters: Dict[str, Any]) -> Optional[str]:
    """Extract and validate a point's optional ``dtype``.

    An absent key returns ``None`` (meaning the default); a present key must
    name a known precision.
    """
    dtype = parameters.get("dtype")
    if dtype is not None:
        dtype = str(dtype)
        if dtype not in PRECISIONS:
            raise ValueError(
                f"unknown dtype {dtype!r}; expected one of {', '.join(PRECISIONS)}"
            )
    return dtype


def require_default_dtype(parameters: Dict[str, Any], engine: str) -> None:
    """Refuse a non-default ``dtype`` on engines that ignore it.

    The per-seed loop engines always run float64; letting a
    ``dtype=float32`` parameter through would produce rows whose recorded
    parameters (and content-address keys) misdescribe what actually ran.
    """
    dtype = engine_dtype(parameters)
    if dtype not in (None, "float64"):
        raise ValueError(
            f"the {engine} engine only supports the default float64 precision "
            f"(got dtype={dtype!r}); use the batched engine for dtype overrides"
        )
