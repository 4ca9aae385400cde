"""Discovery of CDP launch sites in unfinalized programs.

A *launch site* is the canonical device-launch shape the workload layer
emits (see :func:`repro.workloads.common.emit_dynamic_launch`)::

    buf    = GET_PARAM_BUF n
    ST     buf, p_k, offset=k          # k = 0 .. n-1
    t      = IADD work, bs - 1
    blocks = IDIV t, bs
    stream = STREAM_CREATE
    LAUNCH_DEVICE child, a=buf, grid=(blocks, 1, 1), block=(bs, 1, 1)

The passes only need the final ``STREAM_CREATE`` / ``LAUNCH_DEVICE``
pair (the :data:`SITE_LENGTH` instructions a rewrite replaces) plus,
when recoverable, the ``work`` operand feeding the grid computation.
Anything that does not match stays untouched — the passes degrade to
plain CDP rather than guess.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Set

from ..instructions import Imm, Instr, Opcode, Reg
from ..program import Program
from ..regions import BLOCK_END_OPS

#: How far behind a launch the grid-computation backtrack looks.  The
#: canonical site needs 2 instructions; the margin absorbs interleaved
#: parameter stores.
_BACKTRACK_WINDOW = 24

#: Instructions a launch site occupies: ``STREAM_CREATE``, ``LAUNCH_DEVICE``.
SITE_LENGTH = 2


@dataclasses.dataclass
class LaunchSite:
    """One ``STREAM_CREATE`` + ``LAUNCH_DEVICE`` pair."""

    index: int  #: pc of the STREAM_CREATE instruction
    stream: Instr
    launch: Instr
    kernel: str
    param: object  #: the launch's parameter-buffer operand (Reg)
    grid_x: object  #: grid.x operand (Reg or Imm)
    block_size: Optional[int]  #: static 1-D block.x, when fully immediate
    work: Optional[object]  #: recovered element-count operand, if any

    def keep(self, out: Program) -> None:
        """Emit the site unchanged: a rewrite's plain-CDP fallback."""
        out.emit(self.stream.replace())
        out.emit(self.launch.replace())


def _static_dim(operand) -> Optional[int]:
    if isinstance(operand, Imm) and isinstance(operand.value, int):
        return operand.value
    return None


def _static_block(launch: Instr) -> Optional[int]:
    """block.x when the block shape is a static (bs, 1, 1), else None."""
    dims = launch.block_dims or ()
    if len(dims) != 3:
        return None
    bs = _static_dim(dims[0])
    if bs is None or bs <= 0:
        return None
    if _static_dim(dims[1]) != 1 or _static_dim(dims[2]) != 1:
        return None
    return bs


def _flat_grid(launch: Instr) -> bool:
    """True when grid.y and grid.z are the immediate 1."""
    dims = launch.grid_dims or ()
    return (
        len(dims) == 3
        and _static_dim(dims[1]) == 1
        and _static_dim(dims[2]) == 1
    )


def _same_reg(a, b) -> bool:
    return (
        isinstance(a, Reg)
        and isinstance(b, Reg)
        and a.bank == b.bank
        and a.idx == b.idx
    )


def _recover_work(
    program: Program,
    site_index: int,
    grid_x,
    block_size: Optional[int],
    label_pcs: Set[int],
):
    """Walk the grid computation back to the element-count operand.

    Matches ``blocks = IDIV(IADD(work, bs - 1), bs)`` emitted by the
    workload layer; returns the ``work`` operand (Reg or Imm) or None.
    """
    if block_size is None or not isinstance(grid_x, Reg):
        return None
    instrs = program.instructions
    lo = max(0, site_index - _BACKTRACK_WINDOW)

    def find_def(reg: Reg, below: int) -> Optional[Instr]:
        for j in range(below - 1, lo - 1, -1):
            instr = instrs[j]
            if instr.op in BLOCK_END_OPS:
                return None
            if _same_reg(instr.dst, reg):
                return instr
            if j in label_pcs:
                return None  # merge point: stop above it
        return None

    div = None
    div_pc = None
    for j in range(site_index - 1, lo - 1, -1):
        instr = instrs[j]
        if instr.op in BLOCK_END_OPS:
            return None
        if _same_reg(instr.dst, grid_x):
            div, div_pc = instr, j
            break
        if j in label_pcs:
            return None
    if div is None or div.op != Opcode.IDIV:
        return None
    if _static_dim(div.b) != block_size or not isinstance(div.a, Reg):
        return None
    add = find_def(div.a, div_pc)
    if add is None or add.op != Opcode.IADD:
        return None
    if _static_dim(add.b) != block_size - 1:
        return None
    work = add.a
    if isinstance(work, Reg):
        # The operand must still hold the same value at the launch.
        for j in range(div_pc + 1, site_index):
            if _same_reg(instrs[j].dst, work):
                return None
    return work


def find_launch_sites(program: Program) -> List[LaunchSite]:
    """All well-formed CDP launch sites in an unfinalized program."""
    label_pcs = set(program.labels.values())
    sites: List[LaunchSite] = []
    instrs = program.instructions
    for i, instr in enumerate(instrs):
        if instr.op != Opcode.STREAM_CREATE:
            continue
        if i + 1 >= len(instrs):
            continue
        launch = instrs[i + 1]
        if launch.op != Opcode.LAUNCH_DEVICE or not launch.kernel:
            continue
        if (i + 1) in label_pcs:
            continue  # control can enter between the pair: not a unit
        if not launch.grid_dims or not _flat_grid(launch):
            continue
        block_size = _static_block(launch)
        grid_x = launch.grid_dims[0]
        work = _recover_work(program, i, grid_x, block_size, label_pcs)
        sites.append(
            LaunchSite(
                index=i,
                stream=instr,
                launch=launch,
                kernel=launch.kernel,
                param=launch.a,
                grid_x=grid_x,
                block_size=block_size,
                work=work,
            )
        )
    return sites
