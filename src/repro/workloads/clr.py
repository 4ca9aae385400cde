"""Greedy graph coloring (Table 4: citation, graph500, cage15).

Jones–Plassmann style: every round, each uncolored vertex checks whether
it holds the highest random priority among its uncolored neighbors
(phase A, the DFP — the neighbor scan is serialized per thread in flat
mode and launched as a child in CDP / DTBL), and locally-maximal vertices
take the round's color (phase B, a uniform kernel).  Rounds repeat until
every vertex is colored.

For balanced-degree inputs (graph500) the flat implementation is already
well balanced, so the dynamic variants mostly add launch overhead — the
paper's explanation for clr_graph500's slowdown.
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..isa.builder import KernelBuilder
from ..runtime import Device, ExecutionMode
from ..sim.kernel import KernelFunction
from .base import Workload
from .common import emit_dfp, emit_dynamic_launch, upload_graph
from .datasets.graphs import Graph

_UNCOLORED = -1

_P = dict(WSIZE=0, WORKLIST=1, INDPTR=2, INDICES=3, COLORS=4, PRIO=5, FLAGS=6)
_C = dict(COUNT=0, ESTART=1, INDICES=2, COLORS=3, PRIO=4, FLAGS=5, MYPRIO=6, V=7)
_B = dict(WSIZE=0, WORKLIST=1, COLORS=2, FLAGS=3, OUT=4, CNT=5, ROUND=6)


def _emit_check(k: KernelBuilder, u, colors, prio, flags, my_prio, v) -> None:
    """Clear v's local-max flag if neighbor u is uncolored w/ higher priority."""
    ucolor = k.ld(k.iadd(colors, u))
    uprio = k.ld(k.iadd(prio, u))
    higher = k.iand(k.eq(ucolor, _UNCOLORED), k.gt(uprio, my_prio))
    with k.if_(higher):
        k.st(k.iadd(flags, v), 0)


def build_clr_child(block: int) -> KernelFunction:
    """One thread per neighbor of the checked vertex."""
    k = KernelBuilder("clr_check")
    gtid = k.gtid()
    param = k.param()
    count = k.ld(param, offset=_C["COUNT"])
    with k.if_(k.lt(gtid, count)):
        estart = k.ld(param, offset=_C["ESTART"])
        indices = k.ld(param, offset=_C["INDICES"])
        colors = k.ld(param, offset=_C["COLORS"])
        prio = k.ld(param, offset=_C["PRIO"])
        flags = k.ld(param, offset=_C["FLAGS"])
        my_prio = k.ld(param, offset=_C["MYPRIO"])
        v = k.ld(param, offset=_C["V"])
        u = k.ld(k.iadd(indices, k.iadd(estart, gtid)))
        _emit_check(k, u, colors, prio, flags, my_prio, v)
    k.exit()
    return KernelFunction("clr_check", k.build())


def build_clr_phase_a(mode: ExecutionMode, threshold: int, block: int) -> KernelFunction:
    """Phase A: decide local priority maxima over the uncolored worklist."""
    k = KernelBuilder("clr_phase_a")
    gtid = k.gtid()
    param = k.param()
    wsize = k.ld(param, offset=_P["WSIZE"])
    with k.if_(k.lt(gtid, wsize)):
        worklist = k.ld(param, offset=_P["WORKLIST"])
        indptr = k.ld(param, offset=_P["INDPTR"])
        indices = k.ld(param, offset=_P["INDICES"])
        colors = k.ld(param, offset=_P["COLORS"])
        prio = k.ld(param, offset=_P["PRIO"])
        flags = k.ld(param, offset=_P["FLAGS"])
        v = k.ld(k.iadd(worklist, gtid))
        k.st(k.iadd(flags, v), 1)
        my_prio = k.ld(k.iadd(prio, v))
        vptr = k.iadd(indptr, v)
        start = k.ld(vptr)
        end = k.ld(vptr, offset=1)
        degree = k.isub(end, start)

        def serial() -> None:
            with k.for_range(start, end) as e:
                u = k.ld(k.iadd(indices, e))
                _emit_check(k, u, colors, prio, flags, my_prio, v)

        def launch() -> None:
            emit_dynamic_launch(
                k,
                mode,
                "clr_check",
                [degree, start, indices, colors, prio, flags, my_prio, v],
                degree,
                block,
            )

        emit_dfp(k, mode, degree, threshold, launch, serial)
    k.exit()
    return KernelFunction("clr_phase_a", k.build())


def build_clr_phase_b() -> KernelFunction:
    """Phase B: color flagged vertices, rebuild the uncolored worklist."""
    k = KernelBuilder("clr_phase_b")
    gtid = k.gtid()
    param = k.param()
    wsize = k.ld(param, offset=_B["WSIZE"])
    with k.if_(k.lt(gtid, wsize)):
        worklist = k.ld(param, offset=_B["WORKLIST"])
        colors = k.ld(param, offset=_B["COLORS"])
        flags = k.ld(param, offset=_B["FLAGS"])
        out = k.ld(param, offset=_B["OUT"])
        cnt = k.ld(param, offset=_B["CNT"])
        round_color = k.ld(param, offset=_B["ROUND"])
        v = k.ld(k.iadd(worklist, gtid))
        flag = k.ld(k.iadd(flags, v))
        k.if_else(
            k.ne(flag, 0),
            lambda: k.st(k.iadd(colors, v), round_color),
            lambda: k.st(k.iadd(out, k.atom_add(cnt, 1)), v),
        )
    k.exit()
    return KernelFunction("clr_phase_b", k.build())


class ColoringWorkload(Workload):
    """Iterative independent-set coloring."""

    app_name = "clr"
    parent_block = 128

    def __init__(
        self,
        name: str,
        mode: ExecutionMode,
        graph: Graph,
        child_threshold: int = 32,
        child_block: int = 32,
        seed: int = 53,
    ) -> None:
        super().__init__(name, mode)
        self.graph = graph
        self.child_threshold = child_threshold
        self.child_block = child_block
        rng = np.random.default_rng(seed)
        self.priorities = rng.permutation(graph.num_vertices).astype(np.int64)

    def build_kernels(self) -> List[KernelFunction]:
        kernels = [
            build_clr_phase_a(self.mode, self.child_threshold, self.child_block),
            build_clr_phase_b(),
        ]
        if self.mode.is_dynamic:
            kernels.append(build_clr_child(self.child_block))
        return kernels

    def setup(self, device: Device) -> None:
        graph = self.graph
        n = graph.num_vertices
        self.dgraph = upload_graph(device, graph)
        self.colors_addr = device.upload(np.full(n, _UNCOLORED, dtype=np.int64))
        self.prio_addr = device.upload(self.priorities)
        self.flags_addr = device.alloc(n)
        self.worklist_a = device.upload(np.arange(n, dtype=np.int64))
        self.worklist_b = device.alloc(n)
        self.count_addr = device.alloc(1)

    def run(self, device: Device) -> None:
        wsize = self.graph.num_vertices
        round_color = 0
        wl_in, wl_out = self.worklist_a, self.worklist_b
        while wsize:
            grid = self.grid_for(wsize, self.parent_block)
            device.launch(
                "clr_phase_a",
                grid=grid,
                block=self.parent_block,
                params=[
                    wsize,
                    wl_in,
                    self.dgraph.indptr,
                    self.dgraph.indices,
                    self.colors_addr,
                    self.prio_addr,
                    self.flags_addr,
                ],
            )
            device.synchronize()
            device.write_int(self.count_addr, 0)
            device.launch(
                "clr_phase_b",
                grid=grid,
                block=self.parent_block,
                params=[
                    wsize,
                    wl_in,
                    self.colors_addr,
                    self.flags_addr,
                    wl_out,
                    self.count_addr,
                    round_color,
                ],
            )
            device.synchronize()
            new_size = device.read_int(self.count_addr)
            self.expect(new_size < wsize, "coloring made no progress")
            wsize = new_size
            wl_in, wl_out = wl_out, wl_in
            round_color += 1
        self.rounds = round_color

    # ------------------------------------------------------------------
    def reference_colors(self) -> np.ndarray:
        """The same deterministic Jones-Plassmann rounds in pure Python."""
        graph = self.graph
        n = graph.num_vertices
        indptr = graph.indptr.tolist()
        indices = graph.indices.tolist()
        colors = [_UNCOLORED] * n
        prio = self.priorities.tolist()
        worklist = list(range(n))
        round_color = 0
        while worklist:
            chosen = []
            remaining = []
            for v in worklist:
                is_max = True
                for u in indices[indptr[v] : indptr[v + 1]]:
                    if colors[u] == _UNCOLORED and prio[u] > prio[v]:
                        is_max = False
                        break
                (chosen if is_max else remaining).append(v)
            for v in chosen:
                colors[v] = round_color
            worklist = remaining
            round_color += 1
        return np.array(colors, dtype=np.int64)

    def check(self, device: Device) -> None:
        got = device.download_ints(self.colors_addr, self.graph.num_vertices)
        expected = self.reference_colors()
        mismatches = int((got != expected).sum())
        self.expect(mismatches == 0, f"{mismatches} colors differ from reference")
        # And the defining invariant: adjacent uncolored-pair-free.
        indptr = self.graph.indptr.tolist()
        indices = self.graph.indices.tolist()
        color = got.tolist()
        for v in range(self.graph.num_vertices):
            for u in indices[indptr[v] : indptr[v + 1]]:
                if u != v:
                    self.expect(
                        color[v] != color[u] or color[v] == _UNCOLORED,
                        f"adjacent vertices {v},{u} share color {color[v]}",
                    )
