"""The one copy walk of the IR rewrites, and the gate in front of it.

Every rewrite copies instructions with :func:`splice_body`: a host
program with its launch sites replaced (serialization's size check,
aggregation's staging, the persistent pass's enqueue loop), or a child
body spliced into another program (below a serialized site, under a
batched-launch wrapper, in the persistent worker) with:

* every register shifted into a private window above the host's,
* every label prefixed so repeated splices stay unique, and
* ``READ_SPECIAL`` reads rewritten to host-computed values (a child's
  ``GTID`` becomes a loop counter or a table-derived local id).

:func:`spliceable` refuses anything it cannot prove safe; the dynopt
passes treat a refusal as "leave this site as a plain CDP launch".
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, Optional, Set

from ..instructions import Bank, Instr, Opcode, Reg, Special
from ..program import Program
from .sites import SITE_LENGTH

#: Reads that survive when the body's threads are looped or repacked
#: (serialization, the cons wrapper): ``GTID`` becomes the loop counter
#: or the packed index, ``PARAM`` the request's buffer, ``NTID_X`` the
#: static block size.  Real thread/block geometry has no equivalent.
THREAD_SPECIALS = frozenset({Special.GTID, Special.PARAM, Special.NTID_X})

#: Geometry a splice can also re-base when each block of the body runs
#: as one real block (the agg wrapper, the persistent worker).
BLOCK_SPECIALS = THREAD_SPECIALS | {
    Special.TID_X, Special.CTAID_X, Special.NCTAID_X
}


@dataclasses.dataclass(frozen=True)
class BodySummary:
    """Static facts that gate whether a body may be spliced."""

    specials: Set[Special]
    exit_count: int
    trailing_exit: bool
    has_bar: bool


def summarize_body(program: Program) -> BodySummary:
    instrs = program.instructions
    specials: Set[Special] = set()
    exit_count = 0
    has_bar = False
    for instr in instrs:
        if instr.op == Opcode.READ_SPECIAL and instr.special is not None:
            specials.add(instr.special)
        elif instr.op == Opcode.EXIT:
            exit_count += 1
        elif instr.op == Opcode.BAR:
            has_bar = True
    trailing_exit = bool(instrs) and instrs[-1].op == Opcode.EXIT
    return BodySummary(specials, exit_count, trailing_exit, has_bar)


def splice_body(
    out: Program,
    body: Program,
    *,
    label_prefix: str = "",
    int_shift: int = 0,
    flt_shift: int = 0,
    special_subst: Optional[Dict[Special, object]] = None,
    sites: Optional[Dict[int, Callable[[], None]]] = None,
    drop_trailing_exit: bool = True,
) -> None:
    """Append ``body``'s instructions to ``out`` (both unfinalized).

    ``special_subst`` maps a :class:`Special` to a host-space operand;
    matching ``READ_SPECIAL`` instructions become ``MOV``s from that
    operand, and entries the body never reads are ignored.  Unmapped
    specials are copied through untouched — callers must have checked
    the body with :func:`spliceable` first.

    ``sites`` maps the pc of a launch site (see
    :func:`~repro.isa.dynopt.sites.find_launch_sites`) to a callable
    that emits its replacement into ``out`` in place of the site's
    :data:`~repro.isa.dynopt.sites.SITE_LENGTH` instructions.
    """
    instrs = body.instructions
    stop = len(instrs)
    if drop_trailing_exit and stop and instrs[-1].op == Opcode.EXIT:
        stop -= 1
    special_subst = special_subst or {}
    sites = sites or {}
    shifts = {Bank.INT: int_shift, Bank.FLT: flt_shift}

    position_labels: Dict[int, list] = {}
    for name, pc in body.labels.items():
        position_labels.setdefault(min(pc, stop), []).append(name)

    def shift(reg):
        if not isinstance(reg, Reg):
            return reg
        return Reg(reg.bank, reg.idx + shifts[reg.bank])

    def fix_label(value):
        return f"{label_prefix}{value}" if isinstance(value, str) else value

    pc = 0
    while True:
        for name in position_labels.get(pc, ()):
            out.label(f"{label_prefix}{name}")
        if pc >= stop:
            break
        emit_site = sites.get(pc)
        if emit_site is not None:
            emit_site()
            pc += SITE_LENGTH
            continue
        instr = instrs[pc]
        pc += 1
        if (
            instr.op == Opcode.READ_SPECIAL
            and instr.special in special_subst
        ):
            value = special_subst[instr.special]
            out.emit(Instr(Opcode.MOV, dst=shift(instr.dst), a=value))
            continue
        overrides = {
            field: shift(getattr(instr, field))
            for field in ("dst", "a", "b", "c", "pred")
        }
        overrides["target"] = fix_label(instr.target)
        overrides["reconv"] = fix_label(instr.reconv)
        for dims_field in ("grid_dims", "block_dims"):
            dims = getattr(instr, dims_field)
            if dims:
                overrides[dims_field] = tuple(shift(op) for op in dims)
        out.emit(instr.replace(**overrides))


def spliceable(
    func,
    allowed: Set[Special],
    *,
    own_block: bool = False,
    program: Optional[Program] = None,
) -> bool:
    """Whether ``func``'s body (or ``program``, a rewritten form of it)
    may be spliced into another program.

    Every splice needs one EXIT, at the end, and reads no special
    outside ``allowed``.  A body that keeps a block of its own
    (``own_block``: the agg wrapper maps each of its blocks to one real
    block) may also use barriers and shared memory; one whose threads
    are looped, repacked or run inside another kernel's block may not.
    """
    summary = summarize_body(func.program if program is None else program)
    if (
        summary.exit_count != 1
        or not summary.trailing_exit
        or not summary.specials <= allowed
    ):
        return False
    return own_block or not (summary.has_bar or func.shared_words)
