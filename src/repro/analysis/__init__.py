"""Analysis toolkit: closeness, dominance times and replication statistics.

These helpers connect raw simulation output to the quantities the paper's
proofs reason about: the ``c``-closeness relation ``A ~c B`` (Definition
4.1), dominance times, and replication statistics (means and confidence
intervals) used by every benchmark table.
"""

from repro.analysis.concentration import multiplicative_deviation
from repro.analysis.convergence import dominance_time
from repro.analysis.statistics import (
    ReplicationSummary,
    normal_confidence_interval,
    summarize_replications,
)
from repro.analysis.proof_trace import ProofTrace, trace_theorem_43

__all__ = [
    "multiplicative_deviation",
    "dominance_time",
    "ReplicationSummary",
    "normal_confidence_interval",
    "summarize_replications",
    "ProofTrace",
    "trace_theorem_43",
]
