"""What each opcode computes and which pipeline it is charged to.

This module is the one place the functional semantics and the timing
class of the register-level ISA are stated.  Every consumer reads it
instead of restating the NumPy calls:

* the reference interpreter evaluates :data:`ALU` rows
  (:meth:`repro.sim.warp.Warp._h_alu`) and :data:`MEMORY` rows
  (:meth:`~repro.sim.warp.Warp._h_memory`) one instruction at a time;
* the fast core (:func:`repro.sim.fast_warp.decode_program`) *generates*
  its ALU code from the same rows: one Python function per instruction
  and one per straight-line region, whose source calls the rows'
  callables by name (``ufunc`` in place through ``out=`` under a full
  mask, unmasked into a temporary otherwise, :func:`nonzero_divisor` on
  a ``guard`` row's divisor, nothing at all for an :func:`identity` row);
  its colliding and one-word atomics evaluate an :data:`ATOMIC` row's
  ``scalar`` form, as the reference interpreter's per-lane loop does,
  and one builder (``fast_warp._make_memory``) binds any :data:`MEMORY`
  row to either address form;
* the assembler splits off a destination register for :data:`DST_OPS`;
* the sanitizer tells global reads, writes and atomics apart by the
  :data:`MEMORY` and :data:`ATOMIC` rows.

No other module lists opcodes by class: every opcode set is one of the
tables' key sets or derived from their rows (the end of this module).

Operand values are either 32-lane arrays (a register row) or the bare
Python number of an immediate; every row function accepts both.  A
result is written to the destination bank with an *unsafe cast* to that
bank's dtype (``np.copyto(..., casting="unsafe")``): comparisons land as
0/1 in int64, floats written to the int bank truncate toward zero.

The tables are deliberately *not* read by the oracles the cores are
tested against (the Python evaluator in ``tests/test_random_programs.py``
and the workloads' host references), nor by ``tests/isa/test_semantics.py``,
which checks each row against a scalar model of its own.
"""

from __future__ import annotations

from typing import Callable, Dict, NamedTuple, Optional

import numpy as np

from .instructions import Bank, Cmp, Opcode, Special

O = Opcode
INT, FLT = Bank.INT, Bank.FLT

#: ``SETP`` / ``FSETP`` comparison functions.
CMP: Dict[Cmp, Callable] = {
    Cmp.LT: np.less,
    Cmp.LE: np.less_equal,
    Cmp.GT: np.greater,
    Cmp.GE: np.greater_equal,
    Cmp.EQ: np.equal,
    Cmp.NE: np.not_equal,
}


class AluOp(NamedTuple):
    """Semantics of one register-to-register opcode.

    ``src`` has one letter per argument of ``fn``, in order: ``i`` / ``f``
    consume the next source operand (``a``, ``b``, ``c``) read from the
    int / float bank — a register of the *other* bank named in an ``f``
    slot is read from the int bank and converted — and a leading ``c``
    passes the :data:`CMP` function selected by the instruction's ``cmp``
    field.  A ``c`` row only applies that comparison to its operands
    (``fn(cmp, a, b)`` is ``cmp(a, b)``), so a decoder may bind the
    comparison itself in place of ``fn``.
    """

    src: str
    dst: Bank
    fn: Callable
    #: ``fn`` as a bare ufunc, when it is one: under a full mask the fast
    #: core then writes the destination through ``out=`` without a
    #: temporary.
    ufunc: Optional[np.ufunc] = None
    #: The last operand is a divisor; ``ufunc`` applies after
    #: :func:`nonzero_divisor` (``fn`` already includes it).
    guard: bool = False
    #: Charged ``SFU_LATENCY`` instead of ``ALU_LATENCY``.
    sfu: bool = False


def nonzero_divisor(b):
    """``b`` with zeros replaced by one: dividing by zero returns the
    dividend (``IDIV`` / ``FDIV``) or zero (``IMOD``) instead of trapping."""
    return np.where(b == 0, 1, b)


def identity(a):
    """Moves and ``ITOF``: the cast of the destination write is the op.
    (Generated code passes the operand straight to that write.)"""
    return a


def _ufunc(src: str, dst: Bank, ufunc: np.ufunc) -> AluOp:
    return AluOp(src, dst, ufunc, ufunc=ufunc)


def _divide(src: str, dst: Bank, ufunc: np.ufunc) -> AluOp:
    def fn(a, b):
        return ufunc(a, nonzero_divisor(b))

    return AluOp(src, dst, fn, ufunc=ufunc, guard=True, sfu=True)


def _compare(cmp, a, b):
    return cmp(a, b)


ALU: Dict[Opcode, AluOp] = {
    O.IADD: _ufunc("ii", INT, np.add),
    O.ISUB: _ufunc("ii", INT, np.subtract),
    O.IMUL: _ufunc("ii", INT, np.multiply),
    O.IDIV: _divide("ii", INT, np.floor_divide),
    O.IMOD: _divide("ii", INT, np.remainder),
    O.IMIN: _ufunc("ii", INT, np.minimum),
    O.IMAX: _ufunc("ii", INT, np.maximum),
    O.IAND: _ufunc("ii", INT, np.bitwise_and),
    O.IOR: _ufunc("ii", INT, np.bitwise_or),
    O.IXOR: _ufunc("ii", INT, np.bitwise_xor),
    O.ISHL: _ufunc("ii", INT, np.left_shift),
    O.ISHR: _ufunc("ii", INT, np.right_shift),
    O.INEG: _ufunc("i", INT, np.negative),
    O.INOT: _ufunc("i", INT, np.bitwise_not),
    O.MOV: AluOp("i", INT, identity),
    O.FADD: _ufunc("ff", FLT, np.add),
    O.FSUB: _ufunc("ff", FLT, np.subtract),
    O.FMUL: _ufunc("ff", FLT, np.multiply),
    O.FDIV: _divide("ff", FLT, np.divide),
    O.FMIN: _ufunc("ff", FLT, np.minimum),
    O.FMAX: _ufunc("ff", FLT, np.maximum),
    O.FNEG: _ufunc("f", FLT, np.negative),
    # Square root of the magnitude: negative inputs do not produce NaN.
    O.FSQRT: AluOp(
        "f", FLT, lambda a: np.sqrt(np.abs(np.asarray(a, dtype=np.float64))), sfu=True
    ),
    O.FABS: _ufunc("f", FLT, np.abs),
    O.FMOV: AluOp("f", FLT, identity),
    O.ITOF: AluOp("i", FLT, identity),
    O.FTOI: AluOp("f", INT, lambda a: np.asarray(a, dtype=np.float64).astype(np.int64)),
    O.SETP: AluOp("cii", INT, _compare),
    O.FSETP: AluOp("cff", INT, _compare),
    # selp dst a b cond: ``a`` where cond is nonzero, else ``b``.
    O.SELP: AluOp("iii", INT, lambda a, b, c: np.where(np.not_equal(c, 0), a, b)),
}


def wrap64(value: int) -> int:
    """A Python int wrapped to int64, as an int64 lane array wraps it."""
    return ((value + (1 << 63)) & ((1 << 64) - 1)) - (1 << 63)


class AtomicOp(NamedTuple):
    """New memory value of one atomic as ``combine(old, b, c)``; ``c`` is
    only supplied by ``ATOM_CAS`` (``b`` is the compare value, ``c`` the
    replacement).  The instruction's destination receives ``old``."""

    #: Over lane arrays: the fast core's conflict-free gather/scatter.
    fn: Callable
    #: Over Python ints, with no NumPy call and an int64 result: lanes
    #: serialized in lane order (the reference core always; the fast core
    #: when active lanes collide, and folded over one word when they all
    #: name the same one).
    scalar: Callable


def _atomic(fn: Callable, scalar: Optional[Callable] = None) -> AtomicOp:
    return AtomicOp(fn, fn if scalar is None else scalar)


ATOMIC: Dict[Opcode, AtomicOp] = {
    O.ATOM_ADD: _atomic(
        lambda old, b, c: old + b,
        # The range test first: it runs once a lane, and rarely fails.
        lambda old, b, c: s if -(1 << 63) <= (s := old + b) < (1 << 63) else wrap64(s),
    ),
    O.ATOM_MIN: _atomic(lambda old, b, c: np.minimum(old, b), lambda old, b, c: min(old, b)),
    O.ATOM_MAX: _atomic(lambda old, b, c: np.maximum(old, b), lambda old, b, c: max(old, b)),
    O.ATOM_OR: _atomic(lambda old, b, c: old | b),
    O.ATOM_EXCH: _atomic(lambda old, b, c: b),
    O.ATOM_CAS: _atomic(
        lambda old, b, c: np.where(old == b, c, old),
        lambda old, b, c: c if old == b else old,
    ),
}


class MemoryOp(NamedTuple):
    """One load or store: ``space[a + offset]`` to ``dst``, or ``b`` to
    ``space[a + offset]``, for the active lanes.  The address operand
    ``a`` is an int-bank register (one address a lane) or an immediate
    (one address for all of them: every active lane of a store writes
    it, and the highest one's value stays).

    ``space`` names the words, their bound and the timing class:

    ``"global"``
        the device store, below its size; the active lanes' addresses
        coalesce into 128-byte segments, each a transaction through the
        L2 and DRAM; a load waits for the last one, a store retires
        after ``ALU_LATENCY``;
    ``"shared"``
        the block's scratchpad, below the kernel's ``shared_words``;
        ``SHARED_LATENCY`` times the conflict degree (the most distinct
        addresses on one of ``SHARED_BANKS`` banks), nothing counted;
    ``"local"``
        per-thread words below the kernel's ``local_words``, interleaved
        across the SMX's threads in the device store; coalesced like
        global accesses, through the SMX's L1 first.
    """

    space: str
    store: bool
    #: Register bank of the data (``dst`` of a load, ``b`` of a store)
    #: and view of the device store's words.
    bank: Bank


MEMORY: Dict[Opcode, MemoryOp] = {
    O.LD: MemoryOp("global", False, INT),
    O.FLD: MemoryOp("global", False, FLT),
    O.ST: MemoryOp("global", True, INT),
    O.FST: MemoryOp("global", True, FLT),
    O.LDS: MemoryOp("shared", False, INT),
    O.STS: MemoryOp("shared", True, INT),
    O.LDL: MemoryOp("local", False, INT),
    O.STL: MemoryOp("local", True, INT),
}

#: ``READ_SPECIAL`` sources, as getters over a warp
#: (:class:`repro.sim.warp.Warp`): per-lane arrays for thread indices,
#: block-uniform ints for everything else.
SPECIAL: Dict[Special, Callable] = {
    Special.TID_X: lambda w: w.tid_x,
    Special.TID_Y: lambda w: w.tid_y,
    Special.TID_Z: lambda w: w.tid_z,
    Special.NTID_X: lambda w: w.tb.block_dims[0],
    Special.NTID_Y: lambda w: w.tb.block_dims[1],
    Special.NTID_Z: lambda w: w.tb.block_dims[2],
    Special.CTAID_X: lambda w: w.tb.ctaid[0],
    Special.CTAID_Y: lambda w: w.tb.ctaid[1],
    Special.CTAID_Z: lambda w: w.tb.ctaid[2],
    Special.NCTAID_X: lambda w: w.tb.grid_dims[0],
    Special.NCTAID_Y: lambda w: w.tb.grid_dims[1],
    Special.NCTAID_Z: lambda w: w.tb.grid_dims[2],
    Special.PARAM: lambda w: w.tb.param_addr,
    Special.GTID: lambda w: w.gtid,
}

#: The :data:`SPECIAL` sources with one value for the whole block: every
#: lane of every warp of it reads the same int.
UNIFORM_SPECIALS = frozenset(SPECIAL) - {
    Special.TID_X, Special.TID_Y, Special.TID_Z, Special.GTID,
}

# ----------------------------------------------------------------------
# Opcode classes derived from the tables
# ----------------------------------------------------------------------
#: Opcodes whose result latency uses the SFU pipeline.
SFU_OPS = frozenset(op for op, row in ALU.items() if row.sfu)

#: Register-only ops with a fixed latency class and no control flow, no
#: memory-system timing, no barrier and no device-runtime side effect:
#: what may live inside a fused straight-line region of the fast core.
FUSABLE_OPS = frozenset(ALU) | {O.READ_SPECIAL}

#: Ops with no side effects: the fusable ones plus the warp-wide
#: exchanges (which read other lanes' registers but write only their own
#: destination).
PURE_OPS = FUSABLE_OPS | {
    O.SHFL_IDX, O.SHFL_DOWN, O.VOTE_ANY, O.VOTE_ALL, O.VOTE_BALLOT,
}

#: Opcodes whose first operand is a destination register.
DST_OPS = PURE_OPS | frozenset(ATOMIC) | {
    *(op for op, row in MEMORY.items() if not row.store),
    O.STREAM_CREATE, O.GET_PARAM_BUF,
}
