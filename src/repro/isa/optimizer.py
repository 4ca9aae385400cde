"""Peephole optimizer for ISA programs.

Kernels built with the :class:`~repro.isa.builder.KernelBuilder` are
deliberately naive — every helper allocates a fresh register and emits
exactly what it was asked.  This module provides conservative,
semantics-preserving cleanups a backend would apply:

* **constant folding** — ALU ops whose operands are immediates (or
  registers holding known constants) are rewritten to ``mov dst, #value``;
* **dead-code elimination** — instructions writing registers that are
  never read (and with no side effects) are dropped;
* **identity simplification** — ``iadd x, 0`` / ``imul x, 1`` /
  ``imul x, 0`` and friends become moves or constants.

All passes are *intra-block*: analysis state resets at every label target
and branch, so control flow can never observe a difference.  Correctness
is property-tested against the unoptimized program on random inputs
(``tests/isa/test_optimizer.py``).

The optimizer operates on an **unfinalized** program (labels still
symbolic) and returns a new unfinalized program; run it between building
and :meth:`Program.finalize`, or use :func:`optimize_program` which
handles re-assembly.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from ..errors import AssemblyError
from .instructions import Imm, Instr, Opcode, Reg
from .program import Program
from .semantics import ALU, PURE_OPS

_WRAP = 1 << 64


def _wrap64(value: int) -> int:
    return ((value + (1 << 63)) % _WRAP) - (1 << 63)


def _clone(instr: Instr, **overrides) -> Instr:
    fields = dict(
        dst=instr.dst, a=instr.a, b=instr.b, c=instr.c, cmp=instr.cmp,
        target=instr.target, reconv=instr.reconv, pred=instr.pred,
        pred_sense=instr.pred_sense, special=instr.special,
        kernel=instr.kernel, grid_dims=instr.grid_dims,
        block_dims=instr.block_dims, size=instr.size, offset=instr.offset,
    )
    op = overrides.pop("op", instr.op)
    fields.update(overrides)
    return Instr(op, **fields)


class _BlockState:
    """Known integer constants per register within one basic block."""

    def __init__(self) -> None:
        self.constants: Dict[Tuple[int, int], int] = {}

    def reset(self) -> None:
        self.constants.clear()

    def lookup(self, operand) -> Optional[int]:
        if isinstance(operand, Imm) and isinstance(operand.value, int):
            return operand.value
        if isinstance(operand, Reg):
            return self.constants.get((operand.bank, operand.idx))
        return None

    def kill(self, reg: Optional[Reg]) -> None:
        if reg is not None:
            self.constants.pop((reg.bank, reg.idx), None)

    def define(self, reg: Reg, value: Optional[int]) -> None:
        key = (reg.bank, reg.idx)
        if value is None:
            self.constants.pop(key, None)
        else:
            self.constants[key] = value


def constant_fold(program: Program) -> Program:
    """Fold constant integer arithmetic and simplify identities."""
    block_starts = set(program.labels.values())
    out = Program(program.name)
    state = _BlockState()
    label_at: Dict[int, List[str]] = {}
    for name, pc in program.labels.items():
        label_at.setdefault(pc, []).append(name)

    for pc, instr in enumerate(program.instructions):
        for name in label_at.get(pc, ()):  # control may join here
            out.label(name)
        if pc in block_starts:
            state.reset()

        new = instr
        row = ALU.get(instr.op)
        if row is not None and row.fold is not None and isinstance(instr.dst, Reg):
            a = state.lookup(instr.a)
            b = state.lookup(instr.b)
            if a is not None and b is not None:
                value = _wrap64(row.fold(a, b))
                new = _clone(instr, op=Opcode.MOV, a=Imm(value), b=None)
            elif instr.op is Opcode.IADD and b == 0:
                new = _clone(instr, op=Opcode.MOV, b=None)
            elif instr.op is Opcode.IMUL and b == 1:
                new = _clone(instr, op=Opcode.MOV, b=None)
            elif instr.op is Opcode.IMUL and b == 0:
                new = _clone(instr, op=Opcode.MOV, a=Imm(0), b=None)

        # Track definitions.
        if isinstance(new.dst, Reg):
            if new.op is Opcode.MOV:
                state.define(new.dst, state.lookup(new.a))
            else:
                state.define(new.dst, None)
        # Branches end the block (fall-through may be joined by a jump).
        if new.op in (Opcode.BRA, Opcode.BAR, Opcode.JOIN):
            state.reset()
        out.emit(new)

    for name, pc in program.labels.items():
        if pc == len(program.instructions) and name not in out.labels:
            out.label(name)
    return out


def dead_code_elimination(program: Program) -> Program:
    """Drop pure instructions whose destinations are never read.

    Conservative: a single backward liveness pass over the whole program
    treating every register read anywhere (including in launch dims and
    predicates) as live.  Registers read by *no* instruction can never
    influence results regardless of control flow.
    """
    read: Set[Tuple[int, int]] = set()

    def mark(operand) -> None:
        if isinstance(operand, Reg):
            read.add((operand.bank, operand.idx))

    for instr in program.instructions:
        for operand in (instr.a, instr.b, instr.c, instr.pred):
            mark(operand)
        for dims in (instr.grid_dims, instr.block_dims):
            if dims:
                for operand in dims:
                    mark(operand)

    label_at: Dict[int, List[str]] = {}
    for name, pc in program.labels.items():
        label_at.setdefault(pc, []).append(name)

    out = Program(program.name)
    kept_any = False
    for pc, instr in enumerate(program.instructions):
        for name in label_at.get(pc, ()):
            out.label(name)
        if (
            instr.op in PURE_OPS
            and isinstance(instr.dst, Reg)
            and (instr.dst.bank, instr.dst.idx) not in read
        ):
            continue  # dead
        out.emit(instr)
        kept_any = True
    if not kept_any:
        out.emit(Instr(Opcode.NOP))
    for name, pc in program.labels.items():
        if pc == len(program.instructions) and name not in out.labels:
            out.label(name)
    return out


def optimize(program: Program, passes: int = 2) -> Program:
    """Run the pass pipeline; input must be unfinalized."""
    if program.finalized:
        raise AssemblyError("optimize() needs an unfinalized program")
    current = program
    for _ in range(passes):
        current = constant_fold(current)
        current = dead_code_elimination(current)
    return current


def optimized_copy(program: Program, passes: int = 2) -> Program:
    """Optimize a *finalized* program, returning a new finalized one."""
    if not program.finalized:
        raise AssemblyError("optimized_copy() needs a finalized program")
    unfinalized = _definalize(program)
    return optimize(unfinalized, passes=passes).finalize()


def _definalize(program: Program) -> Program:
    """Rebuild an unfinalized copy with symbolic labels."""
    needed = set()
    for instr in program.instructions:
        if isinstance(instr.target, int):
            needed.add(instr.target)
        if isinstance(instr.reconv, int):
            needed.add(instr.reconv)
    names = {pc: f"L{pc}" for pc in needed}
    out = Program(program.name)
    for pc, instr in enumerate(program.instructions):
        if pc in names:
            out.label(names[pc])
        overrides = {}
        if isinstance(instr.target, int):
            overrides["target"] = names[instr.target]
        if isinstance(instr.reconv, int):
            overrides["reconv"] = names[instr.reconv]
        out.emit(_clone(instr, **overrides) if overrides else _clone(instr))
    for pc in needed:
        if pc == len(program.instructions) and names[pc] not in out.labels:
            out.label(names[pc])
    return out
