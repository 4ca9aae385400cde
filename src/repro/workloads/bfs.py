"""Breadth-first search (Table 4: citation network, USA road, cage15).

Level-synchronous BFS with an atomically built next frontier.  The flat
variant expands each frontier vertex's neighbor list serially within its
thread; the CDP / DTBL variants launch a child (kernel / aggregated group)
with one thread per outgoing edge whenever a vertex's degree reaches the
launch threshold — the paper's Fig. 2b pattern, where expansion TBs
coalesce onto the vertex-expansion kernel.
"""

from __future__ import annotations

from collections import deque
from typing import List

import numpy as np

from ..isa.builder import KernelBuilder
from ..runtime import Device, ExecutionMode
from ..sim.kernel import KernelFunction
from .base import Workload
from .common import INF, emit_dfp, emit_dynamic_launch, upload_graph
from .datasets.graphs import Graph
from .datasets.memo import memoised_derived

#: Parameter layout of the top-level kernel (word offsets).
_P_FSIZE, _P_FRONTIER, _P_INDPTR, _P_INDICES, _P_DIST, _P_OUT, _P_COUNT, _P_LEVEL = range(8)
#: Parameter layout of the expansion child.
_C_COUNT, _C_ESTART, _C_INDICES, _C_DIST, _C_OUT, _C_CNT, _C_LEVEL = range(7)


def _emit_visit(k: KernelBuilder, u, dist, out, count, level) -> None:
    """Claim vertex ``u`` (CAS on its distance) and enqueue it if won."""
    old = k.atom_cas(k.iadd(dist, u), INF, level)
    with k.if_(k.eq(old, INF)):
        slot = k.atom_add(count, 1)
        k.st(k.iadd(out, slot), u)


def build_bfs_child(block: int) -> KernelFunction:
    """One thread per edge of the expanded vertex."""
    k = KernelBuilder("bfs_expand")
    gtid = k.gtid()
    param = k.param()
    count = k.ld(param, offset=_C_COUNT)
    with k.if_(k.lt(gtid, count)):
        estart = k.ld(param, offset=_C_ESTART)
        indices = k.ld(param, offset=_C_INDICES)
        dist = k.ld(param, offset=_C_DIST)
        out = k.ld(param, offset=_C_OUT)
        cnt = k.ld(param, offset=_C_CNT)
        level = k.ld(param, offset=_C_LEVEL)
        u = k.ld(k.iadd(indices, k.iadd(estart, gtid)))
        _emit_visit(k, u, dist, out, cnt, level)
    k.exit()
    return KernelFunction("bfs_expand", k.build())


def build_bfs_warp_kernel() -> KernelFunction:
    """Warp-level cooperative expansion (the Merrill et al. [23] flavour
    the paper's flat BFS baseline uses).

    One *warp* per frontier vertex: the lanes stride over the vertex's
    neighbor list together, so a high-degree vertex is expanded by 32
    lanes instead of one — warp-level load balance without any dynamic
    launch.  Available through ``BfsWorkload(expansion="warp")`` as the
    alternative flat baseline (see the Fig. 6/11 ablation bench).
    """
    k = KernelBuilder("bfs_level")
    gtid = k.gtid()
    param = k.param()
    fsize = k.ld(param, offset=_P_FSIZE)
    warp_id = k.ishr(gtid, 5)
    lane = k.iand(gtid, 31)
    with k.if_(k.lt(warp_id, fsize)):
        frontier = k.ld(param, offset=_P_FRONTIER)
        indptr = k.ld(param, offset=_P_INDPTR)
        indices = k.ld(param, offset=_P_INDICES)
        dist = k.ld(param, offset=_P_DIST)
        out = k.ld(param, offset=_P_OUT)
        cnt = k.ld(param, offset=_P_COUNT)
        level = k.ld(param, offset=_P_LEVEL)
        v = k.ld(k.iadd(frontier, warp_id))
        vptr = k.iadd(indptr, v)
        start = k.ld(vptr)
        end = k.ld(vptr, offset=1)
        e = k.iadd(start, lane)
        with k.while_(lambda: k.lt(e, end)):
            u = k.ld(k.iadd(indices, e))
            _emit_visit(k, u, dist, out, cnt, level)
            k.iadd(e, 32, dst=e)
    k.exit()
    return KernelFunction("bfs_level", k.build())


def build_bfs_kernel(mode: ExecutionMode, threshold: int, block: int) -> KernelFunction:
    """Top-level BFS kernel: one thread per frontier vertex."""
    k = KernelBuilder("bfs_level")
    gtid = k.gtid()
    param = k.param()
    fsize = k.ld(param, offset=_P_FSIZE)
    with k.if_(k.lt(gtid, fsize)):
        frontier = k.ld(param, offset=_P_FRONTIER)
        indptr = k.ld(param, offset=_P_INDPTR)
        indices = k.ld(param, offset=_P_INDICES)
        dist = k.ld(param, offset=_P_DIST)
        out = k.ld(param, offset=_P_OUT)
        cnt = k.ld(param, offset=_P_COUNT)
        level = k.ld(param, offset=_P_LEVEL)
        v = k.ld(k.iadd(frontier, gtid))
        vptr = k.iadd(indptr, v)
        start = k.ld(vptr)
        end = k.ld(vptr, offset=1)
        degree = k.isub(end, start)

        def serial() -> None:
            with k.for_range(start, end) as e:
                u = k.ld(k.iadd(indices, e))
                _emit_visit(k, u, dist, out, cnt, level)

        def launch() -> None:
            emit_dynamic_launch(
                k,
                mode,
                "bfs_expand",
                [degree, start, indices, dist, out, cnt, level],
                degree,
                block,
            )

        emit_dfp(k, mode, degree, threshold, launch, serial)
    k.exit()
    return KernelFunction("bfs_level", k.build())


class BfsWorkload(Workload):
    """Level-synchronous BFS over a CSR graph."""

    app_name = "bfs"
    parent_block = 128
    child_threshold = 32
    child_block = 32

    def __init__(
        self,
        name: str,
        mode: ExecutionMode,
        graph: Graph,
        source: int = 0,
        expansion: str = "thread",
    ) -> None:
        """``expansion`` selects the flat baseline: "thread" (serial
        per-thread neighbor loops) or "warp" (cooperative warp-level
        expansion, a FLAT-mode-only baseline)."""
        super().__init__(name, mode)
        if expansion not in ("thread", "warp"):
            raise ValueError(f"unknown expansion strategy {expansion!r}")
        if expansion != "thread" and mode.is_dynamic:
            raise ValueError(f"{expansion}-expansion is a flat-only baseline")
        self.graph = graph
        self.source = source
        self.expansion = expansion

    # ------------------------------------------------------------------
    def build_kernels(self) -> List[KernelFunction]:
        if self.expansion == "warp":
            return [build_bfs_warp_kernel()]
        kernels = [build_bfs_kernel(self.mode, self.child_threshold, self.child_block)]
        if self.mode.is_dynamic:
            kernels.append(build_bfs_child(self.child_block))
        return kernels

    def setup(self, device: Device) -> None:
        graph = self.graph
        self.dgraph = upload_graph(device, graph)
        n = graph.num_vertices
        dist0 = np.full(n, INF, dtype=np.int64)
        dist0[self.source] = 0
        self.dist_addr = device.upload(dist0)
        self.frontier_a = device.alloc(n + 1)
        self.frontier_b = device.alloc(n + 1)
        self.count_addr = device.alloc(1)
        device.write_int(self.frontier_a, self.source)

    def run(self, device: Device) -> None:
        fsize = 1
        level = 1
        fin, fout = self.frontier_a, self.frontier_b
        while fsize:
            device.write_int(self.count_addr, 0)
            threads = fsize * 32 if self.expansion == "warp" else fsize
            device.launch(
                "bfs_level",
                grid=self.grid_for(threads, self.parent_block),
                block=self.parent_block,
                params=[
                    fsize,
                    fin,
                    self.dgraph.indptr,
                    self.dgraph.indices,
                    self.dist_addr,
                    fout,
                    self.count_addr,
                    level,
                ],
            )
            device.synchronize()
            fsize = device.read_int(self.count_addr)
            fin, fout = fout, fin
            level += 1
            self.expect(level < 10_000, "BFS failed to converge")

    # ------------------------------------------------------------------
    @memoised_derived("graph", "source")
    def reference_distances(self) -> np.ndarray:
        graph = self.graph
        indptr = graph.indptr.tolist()
        indices = graph.indices.tolist()
        dist = [INF] * graph.num_vertices
        dist[self.source] = 0
        queue = deque([self.source])
        while queue:
            v = queue.popleft()
            for u in indices[indptr[v] : indptr[v + 1]]:
                if dist[u] == INF:
                    dist[u] = dist[v] + 1
                    queue.append(u)
        return np.array(dist, dtype=np.int64)

    def check(self, device: Device) -> None:
        got = device.download_ints(self.dist_addr, self.graph.num_vertices)
        expected = self.reference_distances()
        mismatches = int((got != expected).sum())
        self.expect(mismatches == 0, f"{mismatches} BFS distances differ from reference")
