"""Shared utilities: RNG management, validation, logging and ASCII plotting.

These helpers are deliberately dependency-light.  Everything in :mod:`repro`
that needs randomness accepts either a :class:`numpy.random.Generator`, an
integer seed or ``None`` and funnels it through :func:`ensure_rng`, so a whole
experiment can be made reproducible from a single seed.
"""

from repro.utils.rng import RngLike, ensure_rng, spawn_rngs
from repro.utils.validation import (
    check_in_range,
    check_positive_int,
    check_probability,
    check_probability_vector,
)
from repro.utils.logging import get_logger
from repro.utils.ascii_plot import ascii_line_plot, format_table

__all__ = [
    "RngLike",
    "ensure_rng",
    "spawn_rngs",
    "check_in_range",
    "check_positive_int",
    "check_probability",
    "check_probability_vector",
    "get_logger",
    "ascii_line_plot",
    "format_table",
]
