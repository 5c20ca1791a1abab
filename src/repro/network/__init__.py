"""Social-network-restricted sampling (the paper's first open problem).

Section 6 asks: *"extend our results to the social network setting where
individuals can only sample in step (1) from their neighbors.  The question
here would be whether, and to what extent, the efficiency of the group remains
as a function of the network topology."*

This subpackage provides the substrate to study that question empirically:

* :class:`SocialNetwork` — a thin wrapper around :mod:`networkx` graphs with
  the neighbour queries the dynamics needs (per-node arrays *and* a cached
  CSR view for the batched engine) plus the topology statistics (degree,
  diameter, clustering, spectral gap) the results are reported against;
* topology constructors for the standard families (complete, ring, 2-D grid,
  star, Erdős–Rényi, Barabási–Albert, Watts–Strogatz);
* :class:`NetworkDynamics` — the paper's two-stage dynamics with stage (1)
  restricted to each individual's neighbourhood (per-agent reference loop);
  and
* :class:`BatchedNetworkDynamics` — ``R`` replicates sharing one graph,
  advanced as a single ``(R, N)`` choices matrix per step via one sparse CSR
  matvec per replicate (``R = 1`` runs a single replicate from its own seed).

On the complete graph the network dynamics coincides (in distribution) with
the original dynamics, which the test suite verifies; the batched engine is
KS / chi-squared cross-validated against the loop engine on sparse
topologies.
"""

from repro.network.topology import SocialNetwork
from repro.network.dynamics import NetworkDynamics, simulate_network_dynamics
from repro.network.vectorized import (
    BatchedNetworkDynamics,
    committed_neighbor_counts,
    simulate_batched_network_dynamics,
)

__all__ = [
    "SocialNetwork",
    "NetworkDynamics",
    "BatchedNetworkDynamics",
    "committed_neighbor_counts",
    "simulate_network_dynamics",
    "simulate_batched_network_dynamics",
]
