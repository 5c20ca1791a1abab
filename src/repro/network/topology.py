"""Social network topologies and their statistics."""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import networkx as nx
import numpy as np

from repro.utils.rng import RngLike, ensure_rng
from repro.utils.validation import check_in_range, check_positive_int


class SocialNetwork:
    """An undirected social graph over agents ``0 .. N-1``.

    Wraps a :class:`networkx.Graph` and precomputes the adjacency structure
    the network-restricted dynamics queries every step: per-node neighbour
    arrays for the per-agent loop engine, and a CSR (compressed sparse row)
    view — ``csr_indptr`` / ``csr_indices`` plus cached degrees — for the
    batched engine, which consumes the whole adjacency in single NumPy
    passes instead of per-node lookups.  Isolated vertices are allowed (such
    an individual can only learn through uniform exploration).

    Parameters
    ----------
    graph:
        An undirected graph whose nodes are exactly ``0 .. N-1``.
    name:
        Optional label used in benchmark tables.
    """

    def __init__(self, graph: nx.Graph, name: Optional[str] = None) -> None:
        if graph.number_of_nodes() == 0:
            raise ValueError("graph must have at least one node")
        expected_nodes = set(range(graph.number_of_nodes()))
        if set(graph.nodes) != expected_nodes:
            raise ValueError(
                "graph nodes must be exactly 0..N-1; relabel with "
                "networkx.convert_node_labels_to_integers first"
            )
        self._graph = graph
        self._name = name or "custom"
        self._neighbors: Dict[int, np.ndarray] = {
            node: np.fromiter(graph.neighbors(node), dtype=np.int64)
            for node in range(graph.number_of_nodes())
        }
        self._csr: Optional[
            Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
        ] = None

    # ------------------------------------------------------------- CSR view
    def _build_csr(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        if self._csr is None:
            size = self.size
            degrees = np.fromiter(
                (self._neighbors[node].size for node in range(size)),
                dtype=np.int64,
                count=size,
            )
            indptr = np.zeros(size + 1, dtype=np.int64)
            np.cumsum(degrees, out=indptr[1:])
            if indptr[-1]:
                indices = np.concatenate(
                    [self._neighbors[node] for node in range(size)]
                ).astype(np.int64, copy=False)
            else:
                indices = np.zeros(0, dtype=np.int64)
            edge_rows = np.repeat(np.arange(size, dtype=np.int64), degrees)
            for array in (degrees, indptr, indices, edge_rows):
                array.setflags(write=False)
            self._csr = (indptr, indices, degrees, edge_rows)
        return self._csr

    @property
    def csr_indptr(self) -> np.ndarray:
        """CSR row pointers, shape ``(N + 1,)``: row ``i`` owns ``indices[indptr[i]:indptr[i+1]]``."""
        return self._build_csr()[0]

    @property
    def csr_indices(self) -> np.ndarray:
        """CSR column indices, shape ``(2E,)`` — each undirected edge appears in both rows."""
        return self._build_csr()[1]

    @property
    def degrees(self) -> np.ndarray:
        """Per-node degrees, shape ``(N,)`` (cached)."""
        return self._build_csr()[2]

    @property
    def csr_edge_rows(self) -> np.ndarray:
        """Row index of every CSR slot, shape ``(2E,)`` — ``repeat(arange(N), degrees)``.

        Precomputed once so the batched engine's per-step sparse matvec is a
        pure gather + bincount with no per-step index construction.
        """
        return self._build_csr()[3]

    # ------------------------------------------------------------ properties
    @property
    def graph(self) -> nx.Graph:
        """The underlying networkx graph."""
        return self._graph

    @property
    def name(self) -> str:
        """Topology label."""
        return self._name

    @property
    def size(self) -> int:
        """Number of individuals ``N``."""
        return self._graph.number_of_nodes()

    def neighbors(self, node: int) -> np.ndarray:
        """Array of the node's neighbours (possibly empty)."""
        if node not in self._neighbors:
            raise KeyError(f"node {node} not in network of size {self.size}")
        return self._neighbors[node]

    def degree(self, node: int) -> int:
        """Degree of ``node``."""
        return int(self._neighbors[node].size)

    # -------------------------------------------------------------- metrics
    def average_degree(self) -> float:
        """Mean degree over all nodes."""
        return float(self.degrees.mean())

    def is_connected(self) -> bool:
        """Whether the graph is connected (single node counts as connected)."""
        return nx.is_connected(self._graph) if self.size > 1 else True

    def diameter(self) -> Optional[int]:
        """Graph diameter, or ``None`` if the graph is disconnected."""
        if not self.is_connected():
            return None
        if self.size == 1:
            return 0
        return int(nx.diameter(self._graph))

    def average_clustering(self) -> float:
        """Average clustering coefficient."""
        return float(nx.average_clustering(self._graph))

    def spectral_gap(self) -> float:
        """1 minus the second-largest eigenvalue modulus of the lazy random walk.

        Larger spectral gap means faster mixing of information through the
        network; experiment E9 reports regret against this quantity.
        """
        if self.size == 1:
            return 1.0
        adjacency = nx.to_numpy_array(self._graph)
        degrees = adjacency.sum(axis=1)
        degrees[degrees == 0] = 1.0
        walk = adjacency / degrees[:, None]
        lazy = 0.5 * (np.eye(self.size) + walk)
        eigenvalues = np.sort(np.abs(np.linalg.eigvals(lazy)))[::-1]
        return float(1.0 - eigenvalues[1].real)

    def metrics(self) -> Dict[str, object]:
        """All topology statistics as a dict (used by experiment reports)."""
        return {
            "name": self._name,
            "size": self.size,
            "average_degree": self.average_degree(),
            "connected": self.is_connected(),
            "diameter": self.diameter(),
            "clustering": self.average_clustering(),
            "spectral_gap": self.spectral_gap(),
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SocialNetwork({self._name}, N={self.size})"

    # -------------------------------------------------------- constructors
    @classmethod
    def complete(cls, size: int) -> "SocialNetwork":
        """Complete graph: everyone can observe everyone (the paper's base model)."""
        size = check_positive_int(size, "size")
        return cls(nx.complete_graph(size), name="complete")

    @classmethod
    def ring(cls, size: int, neighbors_each_side: int = 1) -> "SocialNetwork":
        """Ring lattice where each node links to ``neighbors_each_side`` on each side."""
        size = check_positive_int(size, "size")
        k = check_positive_int(neighbors_each_side, "neighbors_each_side")
        graph = nx.Graph()
        graph.add_nodes_from(range(size))
        for node in range(size):
            for offset in range(1, k + 1):
                graph.add_edge(node, (node + offset) % size)
        return cls(graph, name=f"ring(k={k})")

    @classmethod
    def grid(cls, rows: int, cols: int) -> "SocialNetwork":
        """2-D grid with 4-neighbour connectivity."""
        rows = check_positive_int(rows, "rows")
        cols = check_positive_int(cols, "cols")
        grid = nx.grid_2d_graph(rows, cols)
        graph = nx.convert_node_labels_to_integers(grid, ordering="sorted")
        return cls(graph, name=f"grid({rows}x{cols})")

    @classmethod
    def star(cls, size: int) -> "SocialNetwork":
        """Star graph: node 0 is the hub."""
        size = check_positive_int(size, "size")
        if size == 1:
            return cls(nx.empty_graph(1), name="star")
        return cls(nx.star_graph(size - 1), name="star")

    @classmethod
    def erdos_renyi(
        cls, size: int, edge_probability: float, rng: RngLike = None
    ) -> "SocialNetwork":
        """Erdős–Rényi random graph ``G(n, p)``."""
        size = check_positive_int(size, "size")
        edge_probability = check_in_range(
            edge_probability, "edge_probability", 0.0, 1.0
        )
        seed = int(ensure_rng(rng).integers(2**31 - 1))
        graph = nx.gnp_random_graph(size, edge_probability, seed=seed)
        return cls(graph, name=f"erdos_renyi(p={edge_probability:g})")

    @classmethod
    def barabasi_albert(
        cls, size: int, attachments: int, rng: RngLike = None
    ) -> "SocialNetwork":
        """Barabási–Albert preferential-attachment graph (scale-free degrees)."""
        size = check_positive_int(size, "size")
        attachments = check_positive_int(attachments, "attachments")
        if attachments >= size:
            raise ValueError("attachments must be smaller than size")
        seed = int(ensure_rng(rng).integers(2**31 - 1))
        graph = nx.barabasi_albert_graph(size, attachments, seed=seed)
        return cls(graph, name=f"barabasi_albert(m={attachments})")

    @classmethod
    def watts_strogatz(
        cls,
        size: int,
        nearest_neighbors: int,
        rewiring_probability: float,
        rng: RngLike = None,
    ) -> "SocialNetwork":
        """Watts–Strogatz small-world graph."""
        size = check_positive_int(size, "size")
        nearest_neighbors = check_positive_int(nearest_neighbors, "nearest_neighbors")
        rewiring_probability = check_in_range(
            rewiring_probability, "rewiring_probability", 0.0, 1.0
        )
        seed = int(ensure_rng(rng).integers(2**31 - 1))
        graph = nx.watts_strogatz_graph(
            size, nearest_neighbors, rewiring_probability, seed=seed
        )
        return cls(
            graph,
            name=f"watts_strogatz(k={nearest_neighbors}, p={rewiring_probability:g})",
        )

    @classmethod
    def standard_suite(cls, size: int, rng: RngLike = None) -> List["SocialNetwork"]:
        """The topology family used by experiment E9, all at the same size."""
        generator = ensure_rng(rng)
        side = max(2, int(np.sqrt(size)))
        return [
            cls.complete(size),
            cls.ring(size, neighbors_each_side=2),
            cls.grid(side, side),
            cls.star(size),
            cls.erdos_renyi(size, edge_probability=min(1.0, 8.0 / size), rng=generator),
            cls.barabasi_albert(size, attachments=3, rng=generator),
            cls.watts_strogatz(
                size, nearest_neighbors=6, rewiring_probability=0.1, rng=generator
            ),
        ]
