"""Splicing child kernel bodies into other programs.

Both the serialization pass (inlining a child below the parent launch
site) and the wrapper generators (re-basing a child under a batched
launch) copy a child's instruction stream into a host program with:

* every register shifted into a private window above the host's,
* every label prefixed so repeated splices stay unique, and
* ``READ_SPECIAL`` reads rewritten to host-computed values (a child's
  ``GTID`` becomes a loop counter or a table-derived local id).

The splice refuses anything it cannot prove safe — callers treat a
refusal as "leave this site as a plain CDP launch".
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional, Set

from ..instructions import Bank, Instr, Opcode, Reg, Special
from ..program import Program


@dataclasses.dataclass(frozen=True)
class BodySummary:
    """Static facts that gate whether a body may be spliced."""

    specials: Set[Special]
    exit_count: int
    trailing_exit: bool
    has_bar: bool
    max_int: int
    max_flt: int


def summarize_body(program: Program) -> BodySummary:
    specials: Set[Special] = set()
    exit_count = 0
    has_bar = False
    for instr in program.instructions:
        if instr.op == Opcode.READ_SPECIAL and instr.special is not None:
            specials.add(instr.special)
        elif instr.op == Opcode.EXIT:
            exit_count += 1
        elif instr.op == Opcode.BAR:
            has_bar = True
    trailing_exit = (
        bool(program.instructions)
        and program.instructions[-1].op == Opcode.EXIT
    )
    highest = program.max_register_index()
    return BodySummary(
        specials=specials,
        exit_count=exit_count,
        trailing_exit=trailing_exit,
        has_bar=has_bar,
        max_int=highest["int"],
        max_flt=highest["flt"],
    )


def _shift_reg(reg, int_shift: int, flt_shift: int):
    if not isinstance(reg, Reg):
        return reg
    shift = int_shift if reg.bank == Bank.INT else flt_shift
    return Reg(reg.bank, reg.idx + shift)


def splice_body(
    out: Program,
    body: Program,
    *,
    label_prefix: str,
    int_shift: int,
    flt_shift: int,
    special_subst: Dict[Special, object],
    drop_trailing_exit: bool = True,
) -> None:
    """Append ``body``'s instructions to ``out`` (both unfinalized).

    ``special_subst`` maps a :class:`Special` to a host-space operand;
    matching ``READ_SPECIAL`` instructions become ``MOV``s from that
    operand.  Unmapped specials are copied through untouched — callers
    must have validated them against :func:`summarize_body` first.
    """
    instrs = body.instructions
    stop = len(instrs)
    if drop_trailing_exit and stop and instrs[-1].op == Opcode.EXIT:
        stop -= 1

    position_labels: Dict[int, list] = {}
    for name, pc in body.labels.items():
        position_labels.setdefault(min(pc, stop), []).append(name)

    def fix_label(value):
        return f"{label_prefix}{value}" if isinstance(value, str) else value

    for pc in range(stop + 1):
        for name in position_labels.get(pc, ()):
            out.label(f"{label_prefix}{name}")
        if pc == stop:
            break
        instr = instrs[pc]
        dst = _shift_reg(instr.dst, int_shift, flt_shift)
        if (
            instr.op == Opcode.READ_SPECIAL
            and instr.special in special_subst
        ):
            out.emit(
                Instr(Opcode.MOV, dst=dst, a=special_subst[instr.special])
            )
            continue
        overrides = {
            "dst": dst,
            "a": _shift_reg(instr.a, int_shift, flt_shift),
            "b": _shift_reg(instr.b, int_shift, flt_shift),
            "c": _shift_reg(instr.c, int_shift, flt_shift),
            "pred": _shift_reg(instr.pred, int_shift, flt_shift),
            "target": fix_label(instr.target),
            "reconv": fix_label(instr.reconv),
        }
        for dims_field in ("grid_dims", "block_dims"):
            dims = getattr(instr, dims_field)
            if dims:
                overrides[dims_field] = tuple(
                    _shift_reg(op, int_shift, flt_shift) for op in dims
                )
        out.emit(instr.replace(**overrides))


def inlinable(summary: BodySummary, allowed: Set[Special]) -> bool:
    """Whether a body with this summary may be spliced at all."""
    return (
        summary.exit_count == 1
        and summary.trailing_exit
        and not summary.has_bar
        and summary.specials <= allowed
    )
