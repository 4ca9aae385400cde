"""Adaptive mesh refinement (Table 4: combustion-simulation input).

The paper's Fig. 2a pattern: a native kernel processes the level-0 grid,
and each thread whose cell meets the refinement criterion spawns nested
work for the cell's subgrid — recursively, with every aggregated group
coalescing back onto the same refinement kernel.

Physics stand-in: each cell carries an energy value; "processing" a cell
is a short fixed-point smoothing loop, and a cell refines when its energy
exceeds a threshold.  A refined cell produces ``REFINE_FACTOR`` subcells
whose energies derive deterministically from the parent energy and a hash
of the subcell coordinates, so the flat (serialized recursion), CDP, and
DTBL variants produce bit-identical refinement trees, checkable against a
Python reference.

Outputs: per-level refined-cell counters and a fixed-point (x1000) energy
checksum accumulated per processed cell.
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..isa.builder import KernelBuilder, Value
from ..runtime import Device, ExecutionMode
from ..sim.kernel import KernelFunction
from .base import Workload
from .common import emit_dynamic_launch
from .datasets.memo import memoised_derived
from .datasets.mesh import AmrGrid

#: Subcells per refined cell (a 4x4 subgrid).
REFINE_FACTOR = 16
#: Hash constants for deterministic pseudo-random subcell energy jitter.
_HASH_MUL = 2654435761
_HASH_MASK = 1023

_P = dict(NCELLS=0, ENERGY=1, COUNTS=2, CHECKSUM=3, THRESH_MILLI=4)
_C = dict(
    PARENT_MILLI=0, PARENT_ID=1, LEVEL=2, COUNTS=3, CHECKSUM=4, THRESH_MILLI=5,
)


def _child_energy_milli(k: KernelBuilder, parent_milli: Value, child_id: Value, decay_milli: int):
    """Deterministic subcell energy in fixed-point (x1000), matching
    :meth:`AmrWorkload._ref_child_energy`."""
    hashed = k.iand(k.imul(child_id, _HASH_MUL), _HASH_MASK)
    # jitter in [700, 1700) per mille
    jitter = k.iadd(700, hashed)
    decayed = k.idiv(k.imul(parent_milli, decay_milli), 1000)
    return k.idiv(k.imul(decayed, jitter), 1000)


def _emit_process_cell(k: KernelBuilder, energy_milli: Value, checksum) -> None:
    """The per-cell 'physics': a short smoothing loop on the energy."""
    acc = k.mov(energy_milli)
    with k.for_range(0, 4):
        acc = k.idiv(k.imul(acc, 995), 1000, dst=acc)
    k.atom_add(checksum, acc)


class AmrWorkload(Workload):
    """Recursive AMR over a 2D energy grid."""

    app_name = "amr"
    parent_block = 64
    child_block = 16

    def __init__(self, name: str, mode: ExecutionMode, grid: AmrGrid) -> None:
        super().__init__(name, mode)
        if grid.max_depth != 2:
            # The flat variant statically unrolls the serialized recursion
            # two levels deep (the paper's flattening); deeper grids would
            # need a worklist formulation.
            raise ValueError("AmrWorkload supports max_depth == 2")
        self.grid = grid
        self.decay_milli = int(round(grid.decay * 1000))
        self.thresh_milli = int(round(grid.threshold * 1000))

    # ------------------------------------------------------------------
    # Kernels
    # ------------------------------------------------------------------
    def _emit_refinement(self, k: KernelBuilder, energy_milli, cell_id, level, counts, checksum, thresh) -> None:
        """Count the refinement and either recurse serially (flat) or
        launch the subgrid as a child (CDP / DTBL)."""
        refine = k.iand(k.ge(energy_milli, thresh), k.lt(level, self.grid.max_depth))
        with k.if_(refine):
            k.atom_add(k.iadd(counts, level), 1)
            child_base = k.imul(cell_id, REFINE_FACTOR)
            next_level = k.iadd(level, 1)
            if self.mode.is_dynamic:
                emit_dynamic_launch(
                    k,
                    self.mode,
                    "amr_refine",
                    [energy_milli, cell_id, next_level, counts, checksum, thresh],
                    REFINE_FACTOR,
                    self.child_block,
                )
            else:
                # Flat: the nested levels are serialized inside the thread.
                self._emit_serial_subtree(
                    k, energy_milli, child_base, next_level, counts, checksum, thresh
                )

    def _emit_serial_subtree(self, k, parent_milli, child_base, level_reg, counts, checksum, thresh) -> None:
        """Serially process one refinement level (and recurse one deeper).

        The static recursion depth is bounded by ``grid.max_depth``; the
        innermost level never refines further because ``level`` reaches
        the bound, mirroring the refine predicate.
        """
        with k.for_range(0, REFINE_FACTOR) as i:
            child_id = k.iadd(child_base, i)
            e1 = _child_energy_milli(k, parent_milli, child_id, self.decay_milli)
            _emit_process_cell(k, e1, checksum)
            refine1 = k.iand(k.ge(e1, thresh), k.lt(level_reg, self.grid.max_depth))
            with k.if_(refine1):
                k.atom_add(k.iadd(counts, level_reg), 1)
                gbase = k.imul(child_id, REFINE_FACTOR)
                next_level = k.iadd(level_reg, 1)
                with k.for_range(0, REFINE_FACTOR) as j:
                    gchild = k.iadd(gbase, j)
                    e2 = _child_energy_milli(k, e1, gchild, self.decay_milli)
                    _emit_process_cell(k, e2, checksum)
                    # Level-2 cells sit at max_depth and never refine.

    def _build_root(self) -> KernelFunction:
        k = KernelBuilder("amr_root")
        gtid = k.gtid()
        param = k.param()
        ncells = k.ld(param, offset=_P["NCELLS"])
        with k.if_(k.lt(gtid, ncells)):
            energy = k.ld(param, offset=_P["ENERGY"])
            counts = k.ld(param, offset=_P["COUNTS"])
            checksum = k.ld(param, offset=_P["CHECKSUM"])
            thresh = k.ld(param, offset=_P["THRESH_MILLI"])
            e = k.ld(k.iadd(energy, gtid))
            _emit_process_cell(k, e, checksum)
            level = k.mov(0)
            self._emit_refinement(k, e, gtid, level, counts, checksum, thresh)
        k.exit()
        return KernelFunction("amr_root", k.build())

    def _build_child(self) -> KernelFunction:
        """Subgrid kernel: one thread per subcell; may recurse via launch."""
        k = KernelBuilder("amr_refine")
        gtid = k.gtid()
        param = k.param()
        with k.if_(k.lt(gtid, REFINE_FACTOR)):
            parent_milli = k.ld(param, offset=_C["PARENT_MILLI"])
            parent_id = k.ld(param, offset=_C["PARENT_ID"])
            level = k.ld(param, offset=_C["LEVEL"])
            counts = k.ld(param, offset=_C["COUNTS"])
            checksum = k.ld(param, offset=_C["CHECKSUM"])
            thresh = k.ld(param, offset=_C["THRESH_MILLI"])
            child_id = k.iadd(k.imul(parent_id, REFINE_FACTOR), gtid)
            e = _child_energy_milli(k, parent_milli, child_id, self.decay_milli)
            _emit_process_cell(k, e, checksum)
            refine = k.iand(k.ge(e, thresh), k.lt(level, self.grid.max_depth))
            with k.if_(refine):
                k.atom_add(k.iadd(counts, level), 1)
                emit_dynamic_launch(
                    k,
                    self.mode,
                    "amr_refine",
                    [e, child_id, k.iadd(level, 1), counts, checksum, thresh],
                    REFINE_FACTOR,
                    self.child_block,
                )
        k.exit()
        return KernelFunction("amr_refine", k.build())

    def build_kernels(self) -> List[KernelFunction]:
        kernels = [self._build_root()]
        if self.mode.is_dynamic:
            kernels.append(self._build_child())
        return kernels

    # ------------------------------------------------------------------
    def setup(self, device: Device) -> None:
        energy_milli = np.round(self.grid.energy * 1000).astype(np.int64)
        self.energy_addr = device.upload(energy_milli)
        self.counts_addr = device.upload(np.zeros(self.grid.max_depth + 1, dtype=np.int64))
        self.checksum_addr = device.alloc(1)

    def run(self, device: Device) -> None:
        device.launch(
            "amr_root",
            grid=self.grid_for(self.grid.num_cells, self.parent_block),
            block=self.parent_block,
            params=[
                self.grid.num_cells,
                self.energy_addr,
                self.counts_addr,
                self.checksum_addr,
                self.thresh_milli,
            ],
        )

    # ------------------------------------------------------------------
    # Reference
    # ------------------------------------------------------------------
    @staticmethod
    def _ref_child_energy(parent_milli: int, child_id: int, decay_milli: int) -> int:
        hashed = (child_id * _HASH_MUL) & _HASH_MASK
        jitter = 700 + hashed
        decayed = (parent_milli * decay_milli) // 1000
        return (decayed * jitter) // 1000

    @staticmethod
    def _ref_process(energy_milli: int) -> int:
        acc = energy_milli
        for _ in range(4):
            acc = (acc * 995) // 1000
        return acc

    @memoised_derived("grid")
    def reference(self) -> tuple:
        counts = [0] * (self.grid.max_depth + 1)
        checksum = 0
        thresh = self.thresh_milli
        energy_milli = np.round(self.grid.energy * 1000).astype(np.int64)

        def visit(e: int, cell_id: int, level: int) -> None:
            nonlocal checksum
            checksum += self._ref_process(e)
            if e >= thresh and level < self.grid.max_depth:
                counts[level] += 1
                for i in range(REFINE_FACTOR):
                    child_id = cell_id * REFINE_FACTOR + i
                    visit(self._ref_child_energy(e, child_id, self.decay_milli), child_id, level + 1)

        for cell, e in enumerate(energy_milli.tolist()):
            visit(int(e), cell, 0)
        return counts, checksum

    def check(self, device: Device) -> None:
        counts, checksum = self.reference()
        got = device.download_ints(self.counts_addr, self.grid.max_depth + 1)
        got_counts = tuple(got.tolist())  # the reference's counts are frozen
        got_checksum = device.read_int(self.checksum_addr)
        self.expect(
            got_counts == counts, f"refinement counts {got_counts} != {counts}"
        )
        self.expect(got_checksum == checksum, f"energy checksum {got_checksum} != {checksum}")
