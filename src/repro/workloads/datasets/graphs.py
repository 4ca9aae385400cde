"""Synthetic graph generators (CSR) for BFS, SSSP and graph coloring.

Each generator imitates the degree-distribution *shape* of the paper's
input (Table 4) at simulator-friendly scale:

* :func:`citation_network` — DIMACS citation network: power-law degrees
  with pronounced hubs (heavy warp imbalance in flat implementations);
* :func:`usa_road` — USA road network: planar lattice, degree 2–4, large
  diameter (DFP rarely exceeds the launch threshold);
* :func:`cage15_like` — cage15 DNA-electrophoresis matrix: moderate,
  fairly uniform degrees but *widely scattered* neighbor ids (memory
  divergence dominates in flat implementations);
* :func:`graph500_like` — Graph500 logn20 as the paper characterizes it
  for coloring: balanced vertex degrees ("relatively small variance");
* :func:`flight_network` — global flight network: most airports have very
  few routes, a handful of hubs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .memo import memoised


@dataclass(frozen=True)
class Graph:
    """A directed graph in CSR form, optionally edge-weighted."""

    indptr: np.ndarray
    indices: np.ndarray
    weights: Optional[np.ndarray] = None
    name: str = "graph"

    @property
    def num_vertices(self) -> int:
        return len(self.indptr) - 1

    @property
    def num_edges(self) -> int:
        return len(self.indices)

    def degree(self, v: int) -> int:
        return int(self.indptr[v + 1] - self.indptr[v])

    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    def neighbors(self, v: int) -> np.ndarray:
        return self.indices[self.indptr[v] : self.indptr[v + 1]]

    def edge_weights(self, v: int) -> np.ndarray:
        assert self.weights is not None
        return self.weights[self.indptr[v] : self.indptr[v + 1]]

    def validate(self) -> None:
        assert self.indptr[0] == 0
        assert self.indptr[-1] == len(self.indices)
        assert (np.diff(self.indptr) >= 0).all()
        if self.num_edges:
            assert self.indices.min() >= 0
            assert self.indices.max() < self.num_vertices
        if self.weights is not None:
            assert len(self.weights) == self.num_edges


def _csr_from_adjacency(
    adjacency: List[np.ndarray],
    name: str,
    rng: Optional[np.random.Generator] = None,
    weighted: bool = False,
) -> Graph:
    n = len(adjacency)
    indptr = np.zeros(n + 1, dtype=np.int64)
    for v, neighbors in enumerate(adjacency):
        indptr[v + 1] = indptr[v] + len(neighbors)
    indices = np.concatenate([np.asarray(a, dtype=np.int64) for a in adjacency]) if n else np.empty(0, np.int64)
    weights = None
    if weighted:
        assert rng is not None
        weights = rng.integers(1, 16, size=len(indices)).astype(np.int64)
    graph = Graph(indptr=indptr, indices=indices, weights=weights, name=name)
    graph.validate()
    return graph


@memoised
def citation_network(
    n: int = 1200, attach: int = 3, seed: int = 7, weighted: bool = False
) -> Graph:
    """Preferential-attachment graph: power-law in-degree with hubs.

    Edges are symmetrized so traversals reach the whole component, like a
    citation network viewed as an undirected co-citation structure.
    """
    rng = np.random.default_rng(seed)
    targets: List[List[int]] = [[] for _ in range(n)]
    # Repeated-nodes preferential attachment (Barabási–Albert flavour).
    repeated: List[int] = [0]
    for v in range(1, n):
        m = min(attach, v)
        chosen = set()
        while len(chosen) < m:
            if rng.random() < 0.75 and repeated:
                candidate = repeated[rng.integers(0, len(repeated))]
            else:
                candidate = int(rng.integers(0, v))
            if candidate != v:
                chosen.add(candidate)
        for u in chosen:
            targets[v].append(u)
            targets[u].append(v)
            repeated.extend((u, v))
    adjacency = [np.unique(np.asarray(a, dtype=np.int64)) for a in targets]
    return _csr_from_adjacency(adjacency, "citation", rng, weighted)


@memoised
def usa_road(n: int = 1600, seed: int = 11, weighted: bool = False) -> Graph:
    """Road-network stand-in: a jittered 2D lattice, degree 2–4."""
    rng = np.random.default_rng(seed)
    side = int(np.sqrt(n))
    n = side * side
    adjacency: List[List[int]] = [[] for _ in range(n)]
    for y in range(side):
        for x in range(side):
            v = y * side + x
            if x + 1 < side and rng.random() < 0.97:
                u = v + 1
                adjacency[v].append(u)
                adjacency[u].append(v)
            if y + 1 < side and rng.random() < 0.97:
                u = v + side
                adjacency[v].append(u)
                adjacency[u].append(v)
    arrays = [np.unique(np.asarray(a, dtype=np.int64)) for a in adjacency]
    return _csr_from_adjacency(arrays, "usa_road", rng, weighted)


@memoised
def cage15_like(
    n: int = 1100, degree_lo: int = 12, degree_hi: int = 40, seed: int = 13,
    weighted: bool = False,
) -> Graph:
    """cage15-style sparse matrix: moderate degrees, scattered columns.

    Neighbor ids are drawn from the whole id range so that sibling threads
    in a flat warp touch far-apart vertex data (non-coalesced), while a
    dynamically launched child reads its CSR slice contiguously.
    """
    rng = np.random.default_rng(seed)
    half: List[List[int]] = [[] for _ in range(n)]
    for v in range(n):
        deg = max(1, int(rng.integers(degree_lo, degree_hi + 1)) // 2)
        neighbors = rng.choice(n, size=deg, replace=False)
        for u in neighbors[neighbors != v]:
            half[v].append(int(u))
            half[int(u)].append(v)
        # Keep the graph connected enough for traversals.
        if v:
            half[v].append(v - 1)
            half[v - 1].append(v)
    adjacency = [np.unique(np.asarray(a, dtype=np.int64)) for a in half]
    return _csr_from_adjacency(adjacency, "cage15", rng, weighted)


@memoised
def graph500_like(n: int = 1100, degree: int = 16, seed: int = 17) -> Graph:
    """Balanced-degree graph for coloring (the paper's graph500 behaviour:
    small degree variance, so flat implementations are already balanced)."""
    rng = np.random.default_rng(seed)
    half: List[List[int]] = [[] for _ in range(n)]
    for v in range(n):
        deg = max(1, int(rng.integers(degree - 2, degree + 3)) // 2)
        neighbors = rng.choice(n, size=deg, replace=False)
        for u in neighbors[neighbors != v]:
            half[v].append(int(u))
            half[int(u)].append(v)
    adjacency = [np.unique(np.asarray(a, dtype=np.int64)) for a in half]
    return _csr_from_adjacency(adjacency, "graph500", rng, False)


@memoised
def flight_network(
    n: int = 700, hubs: Optional[int] = None, seed: int = 23, weighted: bool = False
) -> Graph:
    """Flight network: most airports have 1–3 routes to regional hubs.

    The paper notes that for sssp_flight "most of the vertices in the
    input graphs have very low vertex degree" so DFP rarely occurs; the
    generator keeps even the hub degrees mostly below the warp-size launch
    threshold (regional hubs, not mega-hubs).
    """
    rng = np.random.default_rng(seed)
    if hubs is None:
        hubs = max(8, n // 14)
    adjacency: List[List[int]] = [[] for _ in range(n)]
    hub_ids = set(int(h) for h in rng.choice(n, size=hubs, replace=False))
    hub_arr = np.fromiter(hub_ids, dtype=np.int64)
    # Sparse hub backbone.
    for hub in hub_ids:
        for other in rng.choice(hub_arr, size=2, replace=False):
            if int(other) != hub:
                adjacency[hub].append(int(other))
                adjacency[int(other)].append(hub)
    for v in range(n):
        if v in hub_ids:
            continue
        # Each airport connects to 1-2 nearby hubs; a few to a random peer.
        for hub in rng.choice(hub_arr, size=int(rng.integers(1, 3)), replace=False):
            adjacency[v].append(int(hub))
            adjacency[int(hub)].append(v)
        if rng.random() < 0.15:
            peer = int(rng.integers(0, n))
            if peer != v:
                adjacency[v].append(peer)
                adjacency[peer].append(v)
    arrays = [np.unique(np.asarray(a, dtype=np.int64)) for a in adjacency]
    return _csr_from_adjacency(arrays, "flight", rng, weighted)
