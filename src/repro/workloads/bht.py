"""Barnes–Hut n-body (Table 4: random data points).

Host-side quadtree construction (Burtscher & Pingali build their tree on
the GPU; the phase the paper's dynamic launches target is the force
computation, so the build is a documented host-side substitution — see
DESIGN.md).  The force kernel assigns one thread per body, which walks
the quadtree with an explicit per-thread stack in *local memory*
(L1-cached, as on real GPUs):

* far internal nodes pass the opening criterion and contribute via their
  centroid (a handful of FLOPs);
* near leaves must be expanded body-by-body — the DFP.  Leaf populations
  (up to the leaf capacity, ~ warp size: the paper's bht children average
  33 threads) are launched as children in CDP / DTBL and serialized in
  flat mode.

Interactions accumulate a fixed-point (x1e6) potential per body through
per-interaction atomic adds, making flat / CDP / DTBL results and the
Python reference bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from ..isa.builder import KernelBuilder
from ..runtime import Device, ExecutionMode
from ..sim.kernel import KernelFunction
from .base import Workload
from .common import emit_dfp, emit_dynamic_launch
from .datasets.memo import memoised_derived
from .datasets.points import PointSet

#: Fixed-point scale for accumulated potentials.
_SCALE = 1_000_000.0
#: Plummer-style softening to avoid singular contributions.
_EPS = 1e-4
#: Barnes-Hut opening parameter (larger = more approximation).
_THETA = 0.6
#: Per-thread traversal stack slots (local memory, L1-cached).
_STACK_DEPTH = 48
#: Most bodies a quadtree leaf holds (deeper than 24 levels, a leaf takes all).
_LEAF_CAPACITY = 40

_P = dict(
    NBODIES=0, BX=1, BY=2, BMASS=3, NTYPE=4, NCHILD=5, NBSTART=6, NBCOUNT=7,
    NCX=8, NCY=9, NMASS=10, NSIZE=11, POT=12,
)
_C = dict(COUNT=0, BSTART=1, BX=2, BY=3, BMASS=4, TARGET=5, POT=6)


@dataclass(frozen=True)
class QuadTree:
    """Array-form quadtree over a unit square, leaf ranges contiguous."""

    node_type: np.ndarray  # 1 = leaf
    children: np.ndarray  # (nodes, 4), -1 when absent
    body_start: np.ndarray
    body_count: np.ndarray
    cx: np.ndarray
    cy: np.ndarray
    mass: np.ndarray
    size: np.ndarray
    order: np.ndarray  # permutation: sorted position -> original body id


def build_quadtree(points: PointSet) -> QuadTree:
    """Recursive quadtree build with contiguous leaf body ranges."""
    node_type: List[int] = []
    children: List[List[int]] = []
    body_start: List[int] = []
    body_count: List[int] = []
    cxs: List[float] = []
    cys: List[float] = []
    masses: List[float] = []
    sizes: List[float] = []
    order: List[int] = []

    def add_node() -> int:
        node_type.append(0)
        children.append([-1, -1, -1, -1])
        body_start.append(0)
        body_count.append(0)
        cxs.append(0.0)
        cys.append(0.0)
        masses.append(0.0)
        sizes.append(0.0)
        return len(node_type) - 1

    def build(ids: np.ndarray, x0: float, y0: float, size: float, depth: int) -> int:
        node = add_node()
        total_mass = float(points.mass[ids].sum())
        sizes[node] = size
        masses[node] = total_mass
        if total_mass > 0:
            cxs[node] = float((points.x[ids] * points.mass[ids]).sum() / total_mass)
            cys[node] = float((points.y[ids] * points.mass[ids]).sum() / total_mass)
        if len(ids) <= _LEAF_CAPACITY or depth > 24:
            node_type[node] = 1
            body_start[node] = len(order)
            body_count[node] = len(ids)
            order.extend(int(i) for i in ids)
            return node
        half = size / 2.0
        mx, my = x0 + half, y0 + half
        right = points.x[ids] >= mx
        top = points.y[ids] >= my
        quadrants = (
            ids[~right & ~top],
            ids[right & ~top],
            ids[~right & top],
            ids[right & top],
        )
        offsets = ((x0, y0), (mx, y0), (x0, my), (mx, my))
        for q, (qids, (qx, qy)) in enumerate(zip(quadrants, offsets)):
            if len(qids):
                children[node][q] = build(qids, qx, qy, half, depth + 1)
        return node

    build(np.arange(points.count), 0.0, 0.0, 1.0, 0)
    return QuadTree(
        node_type=np.asarray(node_type, dtype=np.int64),
        children=np.asarray(children, dtype=np.int64),
        body_start=np.asarray(body_start, dtype=np.int64),
        body_count=np.asarray(body_count, dtype=np.int64),
        cx=np.asarray(cxs, dtype=np.float64),
        cy=np.asarray(cys, dtype=np.float64),
        mass=np.asarray(masses, dtype=np.float64),
        size=np.asarray(sizes, dtype=np.float64),
        order=np.asarray(order, dtype=np.int64),
    )


def _emit_interaction(
    k: KernelBuilder, xi, yi, xj, yj, mj, pot_slot
) -> None:
    """pot += trunc(SCALE * mj / (dx^2 + dy^2 + EPS))."""
    dx = k.fsub(xj, xi)
    dy = k.fsub(yj, yi)
    r2 = k.fadd(k.fadd(k.fmul(dx, dx), k.fmul(dy, dy)), _EPS)
    contrib = k.ftoi(k.fdiv(k.fmul(mj, _SCALE), r2))
    k.atom_add(pot_slot, contrib)


def build_bht_child(block: int) -> KernelFunction:
    """One thread per body of the opened leaf."""
    k = KernelBuilder("bht_leaf")
    gtid = k.gtid()
    param = k.param()
    count = k.ld(param, offset=_C["COUNT"])
    with k.if_(k.lt(gtid, count)):
        bstart = k.ld(param, offset=_C["BSTART"])
        bx = k.ld(param, offset=_C["BX"])
        by = k.ld(param, offset=_C["BY"])
        bmass = k.ld(param, offset=_C["BMASS"])
        target = k.ld(param, offset=_C["TARGET"])
        pot = k.ld(param, offset=_C["POT"])
        j = k.iadd(bstart, gtid)
        with k.if_(k.ne(j, target)):
            xi = k.fld(k.iadd(bx, target))
            yi = k.fld(k.iadd(by, target))
            xj = k.fld(k.iadd(bx, j))
            yj = k.fld(k.iadd(by, j))
            mj = k.fld(k.iadd(bmass, j))
            _emit_interaction(k, xi, yi, xj, yj, mj, k.iadd(pot, target))
    k.exit()
    return KernelFunction("bht_leaf", k.build())


def build_bht_kernel(mode: ExecutionMode, threshold: int, block: int) -> KernelFunction:
    """One thread per body: stack-based quadtree traversal."""
    k = KernelBuilder("bht_force")
    gtid = k.gtid()
    param = k.param()
    nbodies = k.ld(param, offset=_P["NBODIES"])
    with k.if_(k.lt(gtid, nbodies)):
        bx = k.ld(param, offset=_P["BX"])
        by = k.ld(param, offset=_P["BY"])
        bmass = k.ld(param, offset=_P["BMASS"])
        ntype = k.ld(param, offset=_P["NTYPE"])
        nchild = k.ld(param, offset=_P["NCHILD"])
        nbstart = k.ld(param, offset=_P["NBSTART"])
        nbcount = k.ld(param, offset=_P["NBCOUNT"])
        ncx = k.ld(param, offset=_P["NCX"])
        ncy = k.ld(param, offset=_P["NCY"])
        nmass = k.ld(param, offset=_P["NMASS"])
        nsize = k.ld(param, offset=_P["NSIZE"])
        pot = k.ld(param, offset=_P["POT"])

        xi = k.fld(k.iadd(bx, gtid))
        yi = k.fld(k.iadd(by, gtid))
        pot_slot = k.iadd(pot, gtid)
        # Per-thread traversal stack in local memory (L1-cached, as real
        # GPU local memory is on this Kepler-like baseline).
        sp = k.mov(1)
        k.stl(0, 0)  # push the root at local word 0

        with k.while_(lambda: k.gt(sp, 0)):
            k.iadd(sp, -1, dst=sp)
            node = k.ldl(sp)
            is_leaf = k.ld(k.iadd(ntype, node))

            def handle_leaf() -> None:
                bstart = k.ld(k.iadd(nbstart, node))
                count = k.ld(k.iadd(nbcount, node))

                def serial() -> None:
                    with k.for_range(0, count) as idx:
                        j = k.iadd(bstart, idx)
                        with k.if_(k.ne(j, gtid)):
                            xj = k.fld(k.iadd(bx, j))
                            yj = k.fld(k.iadd(by, j))
                            mj = k.fld(k.iadd(bmass, j))
                            _emit_interaction(k, xi, yi, xj, yj, mj, pot_slot)

                def launch() -> None:
                    emit_dynamic_launch(
                        k,
                        mode,
                        "bht_leaf",
                        [count, bstart, bx, by, bmass, gtid, pot],
                        count,
                        block,
                    )

                emit_dfp(k, mode, count, threshold, launch, serial)

            def handle_internal() -> None:
                cx = k.fld(k.iadd(ncx, node))
                cy = k.fld(k.iadd(ncy, node))
                size = k.fld(k.iadd(nsize, node))
                dx = k.fsub(cx, xi)
                dy = k.fsub(cy, yi)
                r2 = k.fadd(k.fadd(k.fmul(dx, dx), k.fmul(dy, dy)), _EPS)
                far = k.flt_(k.fmul(size, size), k.fmul(_THETA * _THETA, r2))

                def approximate() -> None:
                    mj = k.fld(k.iadd(nmass, node))
                    contrib = k.ftoi(k.fdiv(k.fmul(mj, _SCALE), r2))
                    k.atom_add(pot_slot, contrib)

                def open_node() -> None:
                    child_base = k.imul(node, 4)
                    for q in range(4):
                        child = k.ld(k.iadd(nchild, child_base), offset=q)
                        with k.if_(k.ge(child, 0)):
                            k.stl(sp, child)
                            k.iadd(sp, 1, dst=sp)

                k.if_else(far, approximate, open_node)

            k.if_else(is_leaf, handle_leaf, handle_internal)
    k.exit()
    return KernelFunction("bht_force", k.build(), local_words=_STACK_DEPTH)


class BarnesHutWorkload(Workload):
    """Barnes-Hut potential computation over a quadtree."""

    app_name = "bht"
    parent_block = 64
    child_threshold = 24
    child_block = 32

    def __init__(self, name: str, mode: ExecutionMode, points: PointSet) -> None:
        super().__init__(name, mode)
        self.points = points
        self.tree = self.quadtree()

    def build_kernels(self) -> List[KernelFunction]:
        kernels = [build_bht_kernel(self.mode, self.child_threshold, self.child_block)]
        if self.mode.is_dynamic:
            kernels.append(build_bht_child(self.child_block))
        return kernels

    @memoised_derived("points")
    def quadtree(self) -> QuadTree:
        return build_quadtree(self.points)

    def setup(self, device: Device) -> None:
        tree = self.tree
        points = self.points
        order = tree.order
        n = points.count
        self.bx_addr = device.upload(points.x[order])
        self.by_addr = device.upload(points.y[order])
        self.bmass_addr = device.upload(points.mass[order])
        self.ntype_addr = device.upload(tree.node_type)
        self.nchild_addr = device.upload(tree.children.ravel())
        self.nbstart_addr = device.upload(tree.body_start)
        self.nbcount_addr = device.upload(tree.body_count)
        self.ncx_addr = device.upload(tree.cx)
        self.ncy_addr = device.upload(tree.cy)
        self.nmass_addr = device.upload(tree.mass)
        self.nsize_addr = device.upload(tree.size)
        self.pot_addr = device.alloc(n)

    def run(self, device: Device) -> None:
        device.launch(
            "bht_force",
            grid=self.grid_for(self.points.count, self.parent_block),
            block=self.parent_block,
            params=[
                self.points.count,
                self.bx_addr,
                self.by_addr,
                self.bmass_addr,
                self.ntype_addr,
                self.nchild_addr,
                self.nbstart_addr,
                self.nbcount_addr,
                self.ncx_addr,
                self.ncy_addr,
                self.nmass_addr,
                self.nsize_addr,
                self.pot_addr,
            ],
        )

    # ------------------------------------------------------------------
    @memoised_derived("points")
    def reference_potentials(self) -> np.ndarray:
        tree = self.tree
        points = self.points
        order = tree.order
        # Python lists of Python floats (the same IEEE doubles): the walk
        # below reads one element at a time.
        x = points.x[order].tolist()
        y = points.y[order].tolist()
        mass = points.mass[order].tolist()
        cx, cy = tree.cx.tolist(), tree.cy.tolist()
        node_mass, size = tree.mass.tolist(), tree.size.tolist()
        node_type = tree.node_type.tolist()
        body_start, body_count = tree.body_start.tolist(), tree.body_count.tolist()
        children = tree.children.tolist()
        n = points.count
        pot = [0] * n
        theta2 = _THETA * _THETA
        for i in range(n):
            stack = [0]
            while stack:
                node = stack.pop()
                dx = cx[node] - x[i]
                dy = cy[node] - y[i]
                r2 = dx * dx + dy * dy + _EPS
                if node_type[node] == 1:
                    start = body_start[node]
                    for j in range(start, start + body_count[node]):
                        if j == i:
                            continue
                        ddx = x[j] - x[i]
                        ddy = y[j] - y[i]
                        rr = ddx * ddx + ddy * ddy + _EPS
                        pot[i] += int(mass[j] * _SCALE / rr)
                elif size[node] * size[node] < theta2 * r2:
                    pot[i] += int(node_mass[node] * _SCALE / r2)
                else:
                    # Mirror the kernel's push order (q = 0..3) and LIFO pop.
                    for child in children[node]:
                        if child >= 0:
                            stack.append(child)
        return np.array(pot, dtype=np.int64)

    def check(self, device: Device) -> None:
        got = device.download_ints(self.pot_addr, self.points.count)
        expected = self.reference_potentials()
        mismatches = int((got != expected).sum())
        self.expect(mismatches == 0, f"{mismatches} potentials differ from reference")
