"""Straight-line region discovery over finalized programs.

The fast core's superblock fusion (:mod:`repro.sim.fast_warp`) needs the
maximal straight-line spans of a program that control flow can only enter
at the top: no instruction inside the span is a branch target or a
reconvergence point, and every instruction falls through to the next one.
That is exactly the basic-block leader computation classic compilers run,
restricted here to *finalized* programs (labels already resolved to int
pcs by :meth:`repro.isa.program.Program.finalize`).

Which opcodes may live inside a region is the caller's policy (the fast
core only fuses ALU-class ops with no timing side effects), so discovery
takes a ``fusable`` predicate instead of hard-coding an opcode set.
"""

from __future__ import annotations

from typing import Callable, List, Set, Tuple

from .instructions import Instr, Opcode

#: Ops that end a straight-line run: control leaves the next pc (a
#: branch, a reconvergence join, an exit) or the warp waits on the others
#: (a barrier).  Together with :func:`control_flow_leaders` they bound the
#: basic blocks.
BLOCK_END_OPS = frozenset({Opcode.BRA, Opcode.JOIN, Opcode.BAR, Opcode.EXIT})

#: Shortest run worth a region: fusing a single instruction only adds
#: dispatch overhead.
_MIN_LENGTH = 2


def control_flow_leaders(instructions) -> Set[int]:
    """Pcs where control can enter other than by falling through.

    Leaders are pc 0, every branch target, and every reconvergence pc
    (PDOM join points re-enter via the reconvergence-stack pop, which is
    an implicit control transfer just like a taken branch).  Instructions
    *following* a branch are not leaders here: a fall-through entry is a
    normal sequential continuation and does not break straight-line
    execution.
    """
    leaders: Set[int] = {0}
    for instr in instructions:
        if isinstance(instr.target, int):
            leaders.add(instr.target)
        if isinstance(instr.reconv, int):
            leaders.add(instr.reconv)
    return leaders


def straight_line_regions(
    instructions, fusable: Callable[[int, Instr], bool]
) -> List[Tuple[int, int]]:
    """Maximal ``(start_pc, length)`` runs of fusable instructions.

    A run may *start* at a leader (entering a region at its first
    instruction is fine), but no interior pc may be one: a jump or a
    reconvergence pop landing mid-region would skip the region's earlier
    instructions.  Runs shorter than ``_MIN_LENGTH`` are dropped.
    """
    leaders = control_flow_leaders(instructions)
    regions: List[Tuple[int, int]] = []
    start = None
    for pc, instr in enumerate(instructions):
        if start is not None and pc in leaders:
            if pc - start >= _MIN_LENGTH:
                regions.append((start, pc - start))
            start = None
        if fusable(pc, instr):
            if start is None:
                start = pc
        elif start is not None:
            if pc - start >= _MIN_LENGTH:
                regions.append((start, pc - start))
            start = None
    if start is not None and len(instructions) - start >= _MIN_LENGTH:
        regions.append((start, len(instructions) - start))
    return regions

