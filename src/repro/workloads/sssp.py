"""Single-source shortest path (Table 4: citation, flight, cage15).

Frontier-driven Bellman-Ford: each round relaxes all outgoing edges of the
frontier vertices with an atomic min on the tentative distances; vertices
whose distance improved are enqueued once (claim flag) for the next round.
The neighbor-relaxation loop is the DFP: serial per thread in flat mode,
a dynamically launched child (one thread per edge) in CDP / DTBL.
"""

from __future__ import annotations

import heapq
from typing import List

import numpy as np

from ..isa.builder import KernelBuilder
from ..runtime import Device, ExecutionMode
from ..sim.kernel import KernelFunction
from .base import Workload
from .common import INF, emit_dfp, emit_dynamic_launch, upload_graph
from .datasets.graphs import Graph
from .datasets.memo import memoised_derived

_P = dict(
    FSIZE=0, FRONTIER=1, INDPTR=2, INDICES=3, WEIGHTS=4, DIST=5, INFLAG=6,
    OUT=7, COUNT=8,
)
_C = dict(
    COUNT=0, ESTART=1, INDICES=2, WEIGHTS=3, DIST=4, INFLAG=5, OUT=6, CNT=7,
    BASEDIST=8,
)


def _emit_relax(k: KernelBuilder, u, new_dist, dist, inflag, out, count) -> None:
    """Relax edge into ``u``; enqueue ``u`` once per round if improved."""
    old = k.atom_min(k.iadd(dist, u), new_dist)
    with k.if_(k.lt(new_dist, old)):
        claimed = k.atom_cas(k.iadd(inflag, u), 0, 1)
        with k.if_(k.eq(claimed, 0)):
            slot = k.atom_add(count, 1)
            k.st(k.iadd(out, slot), u)


def build_sssp_child(block: int) -> KernelFunction:
    """One thread per outgoing edge of the relaxed vertex."""
    k = KernelBuilder("sssp_relax")
    gtid = k.gtid()
    param = k.param()
    count = k.ld(param, offset=_C["COUNT"])
    with k.if_(k.lt(gtid, count)):
        estart = k.ld(param, offset=_C["ESTART"])
        indices = k.ld(param, offset=_C["INDICES"])
        weights = k.ld(param, offset=_C["WEIGHTS"])
        dist = k.ld(param, offset=_C["DIST"])
        inflag = k.ld(param, offset=_C["INFLAG"])
        out = k.ld(param, offset=_C["OUT"])
        cnt = k.ld(param, offset=_C["CNT"])
        base = k.ld(param, offset=_C["BASEDIST"])
        e = k.iadd(estart, gtid)
        u = k.ld(k.iadd(indices, e))
        w = k.ld(k.iadd(weights, e))
        _emit_relax(k, u, k.iadd(base, w), dist, inflag, out, cnt)
    k.exit()
    return KernelFunction("sssp_relax", k.build())


def build_sssp_kernel(mode: ExecutionMode, threshold: int, block: int) -> KernelFunction:
    k = KernelBuilder("sssp_round")
    gtid = k.gtid()
    param = k.param()
    fsize = k.ld(param, offset=_P["FSIZE"])
    with k.if_(k.lt(gtid, fsize)):
        frontier = k.ld(param, offset=_P["FRONTIER"])
        indptr = k.ld(param, offset=_P["INDPTR"])
        indices = k.ld(param, offset=_P["INDICES"])
        weights = k.ld(param, offset=_P["WEIGHTS"])
        dist = k.ld(param, offset=_P["DIST"])
        inflag = k.ld(param, offset=_P["INFLAG"])
        out = k.ld(param, offset=_P["OUT"])
        cnt = k.ld(param, offset=_P["COUNT"])
        v = k.ld(k.iadd(frontier, gtid))
        k.st(k.iadd(inflag, v), 0)  # v may be re-enqueued by a later round
        vptr = k.iadd(indptr, v)
        start = k.ld(vptr)
        end = k.ld(vptr, offset=1)
        degree = k.isub(end, start)
        dv = k.ld(k.iadd(dist, v))

        def serial() -> None:
            with k.for_range(start, end) as e:
                u = k.ld(k.iadd(indices, e))
                w = k.ld(k.iadd(weights, e))
                _emit_relax(k, u, k.iadd(dv, w), dist, inflag, out, cnt)

        def launch() -> None:
            emit_dynamic_launch(
                k,
                mode,
                "sssp_relax",
                [degree, start, indices, weights, dist, inflag, out, cnt, dv],
                degree,
                block,
            )

        emit_dfp(k, mode, degree, threshold, launch, serial)
    k.exit()
    return KernelFunction("sssp_round", k.build())


class SsspWorkload(Workload):
    """Frontier Bellman-Ford SSSP over a weighted CSR graph."""

    app_name = "sssp"
    parent_block = 128
    child_threshold = 32
    child_block = 32

    def __init__(
        self, name: str, mode: ExecutionMode, graph: Graph, source: int = 0
    ) -> None:
        super().__init__(name, mode)
        assert graph.weights is not None, "SSSP needs an edge-weighted graph"
        self.graph = graph
        self.source = source

    def build_kernels(self) -> List[KernelFunction]:
        kernels = [build_sssp_kernel(self.mode, self.child_threshold, self.child_block)]
        if self.mode.is_dynamic:
            kernels.append(build_sssp_child(self.child_block))
        return kernels

    def setup(self, device: Device) -> None:
        graph = self.graph
        self.dgraph = upload_graph(device, graph)
        n = graph.num_vertices
        dist0 = np.full(n, INF, dtype=np.int64)
        dist0[self.source] = 0
        self.dist_addr = device.upload(dist0)
        self.inflag_addr = device.upload(np.zeros(n, dtype=np.int64))
        capacity = max(4 * n, 1024)
        self.frontier_a = device.alloc(capacity)
        self.frontier_b = device.alloc(capacity)
        self.capacity = capacity
        self.count_addr = device.alloc(1)
        device.write_int(self.frontier_a, self.source)

    def run(self, device: Device) -> None:
        fsize = 1
        rounds = 0
        fin, fout = self.frontier_a, self.frontier_b
        while fsize:
            device.write_int(self.count_addr, 0)
            device.launch(
                "sssp_round",
                grid=self.grid_for(fsize, self.parent_block),
                block=self.parent_block,
                params=[
                    fsize,
                    fin,
                    self.dgraph.indptr,
                    self.dgraph.indices,
                    self.dgraph.weights,
                    self.dist_addr,
                    self.inflag_addr,
                    fout,
                    self.count_addr,
                ],
            )
            device.synchronize()
            fsize = device.read_int(self.count_addr)
            self.expect(fsize <= self.capacity, "frontier overflow")
            fin, fout = fout, fin
            rounds += 1
            self.expect(rounds < 10_000, "SSSP failed to converge")

    # ------------------------------------------------------------------
    @memoised_derived("graph", "source")
    def reference_distances(self) -> np.ndarray:
        graph = self.graph
        indptr = graph.indptr.tolist()
        indices = graph.indices.tolist()
        weights = graph.weights.tolist()
        dist = [INF] * graph.num_vertices
        dist[self.source] = 0
        heap = [(0, self.source)]
        while heap:
            d, v = heapq.heappop(heap)
            if d > dist[v]:
                continue
            lo, hi = indptr[v], indptr[v + 1]
            for u, w in zip(indices[lo:hi], weights[lo:hi]):
                nd = d + w
                if nd < dist[u]:
                    dist[u] = nd
                    heapq.heappush(heap, (nd, u))
        return np.array(dist, dtype=np.int64)

    def check(self, device: Device) -> None:
        got = device.download_ints(self.dist_addr, self.graph.num_vertices)
        expected = self.reference_distances()
        mismatches = int((got != expected).sum())
        self.expect(mismatches == 0, f"{mismatches} SSSP distances differ from reference")
