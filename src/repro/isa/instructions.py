"""Instruction encoding for the simulated GPU's SASS-like ISA.

Design notes
------------
Registers live in two banks: ``INT`` (int64) and ``FLT`` (float64), matching
the simulator's 8-byte global-memory word.  Operands are either a
:class:`Reg` or an :class:`Imm`; instructions are plain :class:`Instr`
records dispatched by opcode in the warp execution engine.

Control flow uses explicit reconvergence annotations: every potentially
divergent branch carries the program counter of its immediate
post-dominator (``reconv``), which the PDOM SIMT stack uses to re-merge
lanes.  The :class:`~repro.isa.builder.KernelBuilder` emits these
automatically for structured code.
"""

from __future__ import annotations

import enum
from typing import Callable, Optional, Tuple, Union


class Opcode(enum.IntEnum):
    """All opcodes understood by the warp execution engine."""

    # Integer ALU
    IADD = enum.auto()
    ISUB = enum.auto()
    IMUL = enum.auto()
    IDIV = enum.auto()
    IMOD = enum.auto()
    IMIN = enum.auto()
    IMAX = enum.auto()
    IAND = enum.auto()
    IOR = enum.auto()
    IXOR = enum.auto()
    ISHL = enum.auto()
    ISHR = enum.auto()
    INEG = enum.auto()
    INOT = enum.auto()
    MOV = enum.auto()

    # Floating point ALU
    FADD = enum.auto()
    FSUB = enum.auto()
    FMUL = enum.auto()
    FDIV = enum.auto()
    FMIN = enum.auto()
    FMAX = enum.auto()
    FNEG = enum.auto()
    FSQRT = enum.auto()
    FABS = enum.auto()
    FMOV = enum.auto()

    # Conversions
    ITOF = enum.auto()
    FTOI = enum.auto()

    # Comparisons / select
    SETP = enum.auto()
    FSETP = enum.auto()
    SELP = enum.auto()

    # Global memory (INT / FLT views of the same word store)
    LD = enum.auto()
    ST = enum.auto()
    FLD = enum.auto()
    FST = enum.auto()

    # Shared memory
    LDS = enum.auto()
    STS = enum.auto()

    # Local memory (per-thread, global-memory backed, cached in L1)
    LDL = enum.auto()
    STL = enum.auto()

    # Warp-level primitives
    SHFL_IDX = enum.auto()
    SHFL_DOWN = enum.auto()
    VOTE_ANY = enum.auto()
    VOTE_ALL = enum.auto()
    VOTE_BALLOT = enum.auto()

    # Global-memory atomics (INT bank)
    ATOM_ADD = enum.auto()
    ATOM_MIN = enum.auto()
    ATOM_MAX = enum.auto()
    ATOM_OR = enum.auto()
    ATOM_EXCH = enum.auto()
    ATOM_CAS = enum.auto()

    # Control flow
    BRA = enum.auto()
    JOIN = enum.auto()
    BAR = enum.auto()
    EXIT = enum.auto()
    NOP = enum.auto()

    # Special-register access
    READ_SPECIAL = enum.auto()

    # Device runtime (CDP and DTBL)
    STREAM_CREATE = enum.auto()
    GET_PARAM_BUF = enum.auto()
    LAUNCH_DEVICE = enum.auto()
    LAUNCH_AGG = enum.auto()


class Special(enum.IntEnum):
    """Read-only special registers visible to every thread."""

    TID_X = enum.auto()
    TID_Y = enum.auto()
    TID_Z = enum.auto()
    NTID_X = enum.auto()
    NTID_Y = enum.auto()
    NTID_Z = enum.auto()
    CTAID_X = enum.auto()
    CTAID_Y = enum.auto()
    CTAID_Z = enum.auto()
    NCTAID_X = enum.auto()
    NCTAID_Y = enum.auto()
    NCTAID_Z = enum.auto()
    #: Base word address of the kernel's / aggregated group's parameter buffer.
    PARAM = enum.auto()
    #: Flattened global thread id: ctaid.x * ntid.x + tid.x (1D helper).
    GTID = enum.auto()


class Cmp(enum.IntEnum):
    """Comparison operators for SETP / FSETP."""

    LT = enum.auto()
    LE = enum.auto()
    GT = enum.auto()
    GE = enum.auto()
    EQ = enum.auto()
    NE = enum.auto()


class Bank(enum.IntEnum):
    """Register banks."""

    INT = 0
    FLT = 1


class Reg:
    """A register operand: a bank and an index within that bank."""

    __slots__ = ("bank", "idx")

    def __init__(self, bank: Bank, idx: int) -> None:
        self.bank = bank
        self.idx = idx

    def __repr__(self) -> str:
        prefix = "r" if self.bank == Bank.INT else "f"
        return f"%{prefix}{self.idx}"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Reg) and other.bank == self.bank and other.idx == self.idx
        )

    def __hash__(self) -> int:
        return hash((self.bank, self.idx))


class Imm:
    """An immediate operand (int or float)."""

    __slots__ = ("value",)

    def __init__(self, value: Union[int, float]) -> None:
        self.value = value

    def __repr__(self) -> str:
        return f"#{self.value}"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Imm) and other.value == self.value

    def __hash__(self) -> int:
        return hash(("imm", self.value))


Operand = Union[Reg, Imm]

#: Launch dimensions as (x, y, z) operands.
Dims3 = Tuple[Operand, Operand, Operand]


class Instr:
    """One decoded instruction.

    Fields not used by an opcode are ``None``.  ``target`` and ``reconv``
    hold label *names* until :meth:`repro.isa.program.Program.finalize`
    rewrites them to instruction indices.
    """

    __slots__ = (
        "op",
        "dst",
        "a",
        "b",
        "c",
        "cmp",
        "target",
        "reconv",
        "pred",
        "pred_sense",
        "special",
        "kernel",
        "grid_dims",
        "block_dims",
        "size",
        "offset",
    )

    def __init__(
        self,
        op: Opcode,
        dst: Optional[Reg] = None,
        a: Optional[Operand] = None,
        b: Optional[Operand] = None,
        c: Optional[Operand] = None,
        cmp: Optional[Cmp] = None,
        target: Union[str, int, None] = None,
        reconv: Union[str, int, None] = None,
        pred: Optional[Reg] = None,
        pred_sense: bool = True,
        special: Optional[Special] = None,
        kernel: Optional[str] = None,
        grid_dims: Optional[Dims3] = None,
        block_dims: Optional[Dims3] = None,
        size: int = 0,
        offset: int = 0,
    ) -> None:
        self.op = op
        self.dst = dst
        self.a = a
        self.b = b
        self.c = c
        self.cmp = cmp
        self.target = target
        self.reconv = reconv
        self.pred = pred
        self.pred_sense = pred_sense
        self.special = special
        self.kernel = kernel
        self.grid_dims = grid_dims
        self.block_dims = block_dims
        self.size = size
        self.offset = offset

    def replace(self, **changes) -> "Instr":
        """A copy with ``changes`` (field name to value) applied; the
        IR rewrites build their output programs from such copies."""
        fields = {name: getattr(self, name) for name in self.__slots__}
        fields.update(changes)
        return Instr(**fields)

    def text(self, label: Callable[[Union[str, int]], str] = str) -> str:
        """This instruction in the syntax
        :func:`repro.isa.asmparser.parse_program` reads; ``label`` names a
        branch target or reconvergence point (a pc once finalized)."""
        parts = [self.op.name.lower()]
        parts += [repr(o) for o in (self.dst, self.a, self.b, self.c) if o is not None]
        if self.cmp is not None:
            parts.append(self.cmp.name.lower())
        if self.special is not None:
            parts.append(self.special.name.lower())
        if self.target is not None:
            parts.append(f"->{label(self.target)}")
        if self.pred is not None:
            parts.append(f"@{'' if self.pred_sense else '!'}{self.pred!r}")
        if self.reconv is not None:
            parts.append(f"reconv={label(self.reconv)}")
        if self.offset:
            parts.append(f"off={self.offset}")
        if self.size:
            parts.append(f"size={self.size}")
        if self.kernel is not None:
            parts.append(f"kernel={self.kernel}")
        if self.grid_dims is not None:
            key = "agg" if self.op == Opcode.LAUNCH_AGG else "grid"
            parts.append(f"{key}=({','.join(map(repr, self.grid_dims))})")
        if self.block_dims is not None:
            parts.append(f"block=({','.join(map(repr, self.block_dims))})")
        return " ".join(parts)

    __repr__ = text

