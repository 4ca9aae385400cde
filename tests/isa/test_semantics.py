"""The op-semantics table against a scalar model written here.

Both execution cores read :mod:`repro.isa.semantics`, so the
fast-vs-reference differential can no longer see a wrong row.  These
tests are that missing oracle: every ``ALU`` and ``ATOMIC`` row is
evaluated lane-wise on edge values and compared with plain Python
arithmetic (ints wrapped to 64 bits by hand, floats via ``math``), which
shares nothing with the table.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from repro.isa.instructions import Bank, Cmp, Opcode, Special
from repro.isa.semantics import (
    ALU,
    ATOMIC,
    CMP,
    DST_OPS,
    FUSABLE_OPS,
    MEMORY,
    PURE_OPS,
    SFU_OPS,
    SPECIAL,
    nonzero_divisor,
)

O = Opcode
I64_MIN, I64_MAX = -(1 << 63), (1 << 63) - 1


def wrap64(value: int) -> int:
    return ((value + (1 << 63)) % (1 << 64)) - (1 << 63)


def fmin(a: float, b: float) -> float:
    return math.nan if math.isnan(a) or math.isnan(b) else min(a, b)


def fmax(a: float, b: float) -> float:
    return math.nan if math.isnan(a) or math.isnan(b) else max(a, b)


PY_CMP = {
    Cmp.LT: lambda a, b: a < b,
    Cmp.LE: lambda a, b: a <= b,
    Cmp.GT: lambda a, b: a > b,
    Cmp.GE: lambda a, b: a >= b,
    Cmp.EQ: lambda a, b: a == b,
    Cmp.NE: lambda a, b: a != b,
}

#: Scalar model of each ALU opcode over Python ints / floats.
ORACLE = {
    O.IADD: lambda a, b: wrap64(a + b),
    O.ISUB: lambda a, b: wrap64(a - b),
    O.IMUL: lambda a, b: wrap64(a * b),
    O.IDIV: lambda a, b: wrap64(a // (b or 1)),
    O.IMOD: lambda a, b: a % (b or 1),
    O.IMIN: min,
    O.IMAX: max,
    O.IAND: lambda a, b: a & b,
    O.IOR: lambda a, b: a | b,
    O.IXOR: lambda a, b: a ^ b,
    O.ISHL: lambda a, b: wrap64(a << b),
    O.ISHR: lambda a, b: a >> b,
    O.INEG: lambda a: wrap64(-a),
    O.INOT: lambda a: ~a,
    O.MOV: lambda a: a,
    O.FADD: lambda a, b: a + b,
    O.FSUB: lambda a, b: a - b,
    O.FMUL: lambda a, b: a * b,
    O.FDIV: lambda a, b: a / (b if b != 0 else 1.0),
    O.FMIN: fmin,
    O.FMAX: fmax,
    O.FNEG: lambda a: -a,
    O.FSQRT: lambda a: math.sqrt(abs(a)),
    O.FABS: abs,
    O.FMOV: lambda a: a,
    O.ITOF: float,
    O.FTOI: int,  # truncation toward zero
    O.SETP: lambda cmp, a, b: int(PY_CMP[cmp](a, b)),
    O.FSETP: lambda cmp, a, b: int(PY_CMP[cmp](a, b)),
    O.SELP: lambda a, b, c: a if c != 0 else b,
}

INT_LANES = [0, 1, -1, 2, -2, 7, -7, 63, 64, -64, 1 << 62, -(1 << 62), I64_MAX, I64_MIN]
SHIFT_LANES = [0, 1, 5, 63, 64]
FLT_LANES = [0.0, -0.0, 1.0, -1.0, 2.5, -2.5, 1e-300, 1e300, -1e300, math.inf, -math.inf, math.nan]
#: FTOI is only defined where the truncated value fits an int64.
FTOI_LANES = [0.0, -0.0, 0.9, -0.9, 2.5, -2.5, 1e18, -1e18, 2.0**62]


def _lane_sets(op: Opcode):
    """Per-argument edge values for one opcode (``c`` slots get every Cmp)."""
    if op in (O.ISHL, O.ISHR):
        return [INT_LANES, SHIFT_LANES]
    if op is O.FTOI:
        return [FTOI_LANES]
    pools = {"i": INT_LANES, "f": FLT_LANES, "c": list(Cmp)}
    return [pools[kind] for kind in ALU[op].src]


def _same(op: Opcode, got, want) -> bool:
    if isinstance(want, float):
        if math.isnan(want):
            return math.isnan(got)
        if got != want:
            return False
        # min/max of (+0.0, -0.0) may return either zero; elsewhere the
        # sign of zero is part of the result.
        return op in (O.FMIN, O.FMAX) or math.copysign(1, got) == math.copysign(1, want)
    return int(got) == want


def _evaluate(op: Opcode, columns, last=None) -> np.ndarray:
    """Run a row the way both cores do: ``fn`` over lane arrays (the last
    one replaced by the bare number ``last``, an immediate, when given),
    then an unsafe-cast write into a destination row of the result bank."""
    row = ALU[op]
    args = [
        CMP[col[0]] if kind == "c"
        else np.array(col, dtype=np.float64 if kind == "f" else np.int64)
        for kind, col in zip(row.src, columns)
    ]
    if last is not None:
        args[-1] = last
    dst = np.zeros(len(columns[-1]), dtype=np.float64 if row.dst == Bank.FLT else np.int64)
    with np.errstate(all="ignore"):
        np.copyto(dst, row.fn(*args), casting="unsafe")
    return dst


@pytest.mark.parametrize("op", list(ALU), ids=lambda op: op.name)
def test_alu_row_matches_scalar_model(op):
    combos = list(itertools.product(*_lane_sets(op)))
    if ALU[op].src[0] == "c":
        groups = itertools.groupby(combos, key=lambda combo: combo[0])
    else:
        groups = [(None, combos)]
    for _, group in groups:
        group = list(group)
        got = _evaluate(op, list(zip(*group)))
        for lane, combo in enumerate(group):
            want = ORACLE[op](*combo)
            assert _same(op, got[lane].item(), want), (op.name, combo, got[lane], want)


@pytest.mark.parametrize("op", list(ALU), ids=lambda op: op.name)
def test_alu_row_accepts_immediates(op):
    """A bare Python number in the last slot (an immediate operand) gives
    the same lanes as that number broadcast."""
    *front, last = _lane_sets(op)
    if ALU[op].src[0] == "c":
        front[0] = [Cmp.LE]
    for scalar in last:
        columns = list(zip(*itertools.product(*front, [scalar])))
        np.testing.assert_array_equal(
            _evaluate(op, columns, last=scalar), _evaluate(op, columns)
        )


@pytest.mark.parametrize(
    "op",
    [op for op, row in ALU.items() if row.ufunc is not None or row.src[0] == "c"],
    ids=lambda op: op.name,
)
def test_ufunc_form_equals_fn(op):
    """What the fast core's generated code calls in place of ``fn`` —
    ``ufunc(..., out=)`` after the divisor guard, or the selected
    comparison itself for a ``c`` row — computes what ``fn`` returns
    (and, given ``where=``, writes it only where asked)."""
    row = ALU[op]
    sets = _lane_sets(op)
    cmps = sets.pop(0) if row.src[0] == "c" else [None]
    columns = list(zip(*itertools.product(*sets)))
    for cmp in cmps:
        ufunc = row.ufunc if cmp is None else CMP[cmp]
        args = [
            np.array(col, dtype=np.float64 if kind == "f" else np.int64)
            for kind, col in zip(row.src.lstrip("c"), columns)
        ]
        if row.guard:
            args[-1] = nonzero_divisor(args[-1])
        want = _evaluate(op, columns if cmp is None else [[cmp] * len(columns[0])] + columns)
        mask = np.arange(want.size) % 3 != 0
        out = np.full_like(want, 17)
        with np.errstate(all="ignore"):
            ufunc(*args, out=out, where=mask)
            whole = np.zeros_like(want)
            np.copyto(whole, ufunc(*args), casting="unsafe")
        np.testing.assert_array_equal(out[mask], want[mask])
        assert (out[~mask] == 17).all()
        np.testing.assert_array_equal(whole, want)


ATOMIC_ORACLE = {
    O.ATOM_ADD: lambda old, b, c: wrap64(old + b),
    O.ATOM_MIN: lambda old, b, c: min(old, b),
    O.ATOM_MAX: lambda old, b, c: max(old, b),
    O.ATOM_OR: lambda old, b, c: old | b,
    O.ATOM_EXCH: lambda old, b, c: b,
    O.ATOM_CAS: lambda old, b, c: c if old == b else old,
}


@pytest.mark.parametrize("op", list(ATOMIC), ids=lambda op: op.name)
def test_atomic_row_matches_scalar_model(op):
    combos = list(itertools.product(INT_LANES, INT_LANES, [5, I64_MIN]))
    old, b, c = (np.array(col, dtype=np.int64) for col in zip(*combos))
    with np.errstate(all="ignore"):
        got = np.asarray(ATOMIC[op].fn(old, b, c))
    for lane, combo in enumerate(combos):
        assert int(np.broadcast_to(got, old.shape)[lane]) == ATOMIC_ORACLE[op](*combo)
    # Python ints in, a Python int out: what both cores evaluate when
    # they serialize lanes (no NumPy scalar may leak into the loop).
    for combo in itertools.product([0, 3, -9, 1 << 40], repeat=3):
        got = ATOMIC[op].scalar(*combo)
        assert type(got) is int and got == ATOMIC_ORACLE[op](*combo)


# ----------------------------------------------------------------------
# Coverage: no opcode without semantics
# ----------------------------------------------------------------------
#: Opcodes whose behaviour lives in the cores (memory system, SIMT stack,
#: warp-wide exchange, device runtime), not in a semantics table.
NON_TABLE_OPS = {
    O.SHFL_IDX, O.SHFL_DOWN, O.VOTE_ANY, O.VOTE_ALL, O.VOTE_BALLOT,
    O.BRA, O.JOIN, O.BAR, O.EXIT, O.NOP,
    O.READ_SPECIAL,  # its operand table is SPECIAL
    O.STREAM_CREATE, O.GET_PARAM_BUF, O.LAUNCH_DEVICE, O.LAUNCH_AGG,
}


def test_every_opcode_is_in_exactly_one_place():
    tables = [set(ALU), set(ATOMIC), set(MEMORY), NON_TABLE_OPS]
    assert set().union(*tables) == set(Opcode)
    assert sum(len(t) for t in tables) == len(Opcode)
    assert set(ORACLE) == set(ALU) and set(ATOMIC_ORACLE) == set(ATOMIC)
    assert set(SPECIAL) == set(Special)
    assert set(CMP) == set(Cmp)


def test_both_cores_dispatch_every_opcode():
    from repro.sim.fast_warp import _BUILDERS, REFERENCE_OPS
    from repro.sim.warp import _DISPATCH

    assert set(_DISPATCH) == set(Opcode)
    # The fast core generates FUSABLE_OPS, builds closures for the rest
    # and lists what it leaves to the reference handlers.
    assert set(ALU) <= FUSABLE_OPS and set(ATOMIC) | set(MEMORY) <= set(_BUILDERS)
    assert not FUSABLE_OPS & set(_BUILDERS)
    assert FUSABLE_OPS | set(_BUILDERS) | REFERENCE_OPS == set(Opcode)


def test_rows_are_well_formed():
    for op, row in MEMORY.items():
        # The opcode's name says the same: L/S, then the space, F for floats.
        name = op.name.removeprefix("F")
        assert row.store == name.startswith("ST"), op
        assert row.bank == (Bank.FLT if op.name[0] == "F" else Bank.INT), op
        assert row.space == {"": "global", "S": "shared", "L": "local"}[name[2:]], op
    for op, row in ALU.items():
        assert set(row.src) <= set("ifc") and 1 <= len(row.src.lstrip("c")) <= 3, op
        assert row.src.count("c") == row.src.startswith("c"), op
        assert not row.guard or (row.ufunc is not None and len(row.src) == 2), op


# ----------------------------------------------------------------------
# The derived sets, against the literals they replaced
# ----------------------------------------------------------------------
_ALU_LITERAL = {
    O.IADD, O.ISUB, O.IMUL, O.IDIV, O.IMOD, O.IMIN, O.IMAX, O.IAND, O.IOR,
    O.IXOR, O.ISHL, O.ISHR, O.INEG, O.INOT, O.MOV, O.FADD, O.FSUB, O.FMUL,
    O.FDIV, O.FMIN, O.FMAX, O.FNEG, O.FSQRT, O.FABS, O.FMOV, O.ITOF, O.FTOI,
    O.SETP, O.FSETP, O.SELP,
}
_WARP_LITERAL = {O.SHFL_IDX, O.SHFL_DOWN, O.VOTE_ANY, O.VOTE_ALL, O.VOTE_BALLOT}


def test_derived_sets_equal_the_old_literals():
    assert set(ALU) == _ALU_LITERAL
    assert SFU_OPS == {O.IDIV, O.IMOD, O.FDIV, O.FSQRT}
    assert FUSABLE_OPS == _ALU_LITERAL | {O.READ_SPECIAL}
    assert PURE_OPS == _ALU_LITERAL | {O.READ_SPECIAL} | _WARP_LITERAL
    assert DST_OPS == PURE_OPS | set(ATOMIC) | {
        O.LD, O.FLD, O.LDS, O.LDL, O.STREAM_CREATE, O.GET_PARAM_BUF,
    }
    assert len(DST_OPS) == 48
