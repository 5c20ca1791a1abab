"""Shared utilities: RNG management, validation, logging and ASCII plotting.

These helpers are deliberately dependency-light.  Everything in :mod:`repro`
that needs randomness accepts either a :class:`numpy.random.Generator`, an
integer seed or ``None`` and funnels it through :func:`ensure_rng`, so a whole
experiment can be made reproducible from a single seed.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "rng": ("RngLike", "ensure_rng", "spawn_rngs"),
        "validation": (
            "check_in_range",
            "check_positive_int",
            "check_probability",
            "check_probability_vector",
        ),
        "logging": ("get_logger",),
        "ascii_plot": ("ascii_line_plot", "format_table"),
    },
)
