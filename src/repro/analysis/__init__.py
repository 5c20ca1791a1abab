"""Analysis toolkit: closeness, dominance times and replication statistics.

These helpers connect raw simulation output to the quantities the paper's
proofs reason about: the ``c``-closeness relation ``A ~c B`` (Definition
4.1), dominance times, and replication statistics (means and confidence
intervals) used by every benchmark table.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "concentration": ("multiplicative_deviation",),
        "convergence": ("dominance_time",),
        "statistics": (
            "ReplicationSummary",
            "normal_confidence_interval",
            "summarize_replications",
        ),
        "proof_trace": ("ProofTrace", "trace_theorem_43"),
    },
)
