"""Generated ALU code against the reference interpreter, warp by warp.

The fast core runs every ALU-class instruction through generated source
(:func:`repro.sim.fast_warp._alu_factory`): one function per instruction
and one per straight-line region, each with a full-mask and a
partial-mask body.  These tests execute one region three ways on
identically seeded warps — the region's function on a ``FastWarp``, the
per-instruction functions on another, and ``Warp``'s handlers one
instruction at a time on a reference warp — under arbitrary masks, and
compare both *whole* register files bit for bit (floats as their int64
patterns, so ``-0.0`` and NaN payloads count, and so do the lanes and
registers that must not change).
"""

from __future__ import annotations

import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import GPUConfig, KernelFunction
from repro.config import WARP_SIZE
from repro.isa import parse_program
from repro.isa.instructions import Bank, Cmp, Imm, Instr, Opcode, Reg, Special
from repro.isa.program import Program
from repro.isa.semantics import ALU, FUSABLE_OPS, identity
from repro.sim import fast_warp
from repro.sim.fast_warp import decode_program
from repro.sim.gpu import GPU
from repro.sim.thread_block import ThreadBlock
from repro.sim.warp import _DISPATCH

N_REGS = 4  # per bank, in generated programs
I64_MIN, I64_MAX = -(1 << 63), (1 << 63) - 1
INT_EDGES = [0, 1, -1, 2, 3, -7, 31, 63, 64, 65, 1 << 40, -(1 << 40), I64_MAX, I64_MIN]
FLT_EDGES = [0.0, -0.0, 1.0, -1.0, 0.75, -2.5, 1e300, -1e300, 1e-300,
             math.inf, -math.inf, math.nan]


def _warp(program: Program, core: str):
    """Warp 1 of a 40-thread block (8 lanes in range), block 1 of a 3-block
    grid, so every special register has a distinctive value."""
    gpu = GPU(dataclasses.replace(GPUConfig.small(), core=core), memory_words=1 << 10)
    block = ThreadBlock(
        gpu.smxs[0], KernelFunction(program.name, program),
        (3, 1, 1), (40, 1, 1), 1, 77, None, None, [0, 1],
    )
    return block.warps[1]


def _program(instrs) -> Program:
    program = Program("masked")
    for instr in instrs:
        program.emit(instr)
    # Touch the highest register of each bank, after the run under test,
    # so every program has the same two register files.
    program.emit(Instr(Opcode.EXIT))
    program.emit(Instr(Opcode.MOV, dst=Reg(Bank.INT, N_REGS - 1), a=Reg(Bank.INT, N_REGS - 1)))
    program.emit(Instr(Opcode.FMOV, dst=Reg(Bank.FLT, N_REGS - 1), a=Reg(Bank.FLT, N_REGS - 1)))
    return program.finalize()


def _files(warp):
    return warp.regs_i.tobytes(), warp.regs_f.view(np.int64).tobytes()


def _run_three_ways(instrs, mask, ints, floats):
    """Registers after ``instrs`` under ``mask``: (region function,
    per-instruction functions, reference handlers) — plus the region."""
    instrs = list(instrs)
    n = len(instrs)
    mask = np.asarray(mask, dtype=bool)
    active = int(mask.sum())
    full = active == WARP_SIZE
    out = []
    for core in ("fast", "fast", "reference"):
        program = _program(instrs)
        warp = _warp(program, core)
        assert warp.regs_i.shape == (N_REGS, WARP_SIZE) == warp.regs_f.shape
        warp.regs_i[:] = np.asarray(ints, dtype=np.int64).reshape(N_REGS, WARP_SIZE)
        warp.regs_f[:] = np.asarray(floats, dtype=np.float64).reshape(N_REGS, WARP_SIZE)
        out.append((program, warp))
    (fused_program, fused), (single_program, single), (_, reference) = out
    region = decode_program(fused_program)[3][0]
    assert region.start == 0 and region.length == n, "the whole run is one region"
    with np.errstate(all="ignore"):
        region.fn(fused, mask, full)
        table = decode_program(single_program)[0]
        frame = [0, -1, mask, active, full]
        for pc in range(n):
            assert table[pc][0](single, frame, 10 * pc) is False
        for instr in instrs:
            _DISPATCH[instr.op](reference, instr, [0, -1, mask], mask, 0)
    return _files(fused), _files(single), _files(reference), region


def _check(instrs, mask, ints=None, floats=None):
    if ints is None:
        ints = list(itertools.islice(itertools.cycle(INT_EDGES), N_REGS * WARP_SIZE))
    if floats is None:
        floats = list(itertools.islice(itertools.cycle(FLT_EDGES), N_REGS * WARP_SIZE))
    fused, single, reference, region = _run_three_ways(instrs, mask, ints, floats)
    assert fused == reference, "region function diverged from the reference core"
    assert single == reference, "per-instruction functions diverged from the reference core"
    return region


ALL = [True] * WARP_SIZE
ODD = [lane % 2 == 1 for lane in range(WARP_SIZE)]
ONE = [lane == 13 for lane in range(WARP_SIZE)]

# ----------------------------------------------------------------------
# Random straight-line runs over all of FUSABLE_OPS
# ----------------------------------------------------------------------
_OPS = sorted(FUSABLE_OPS)
_regs = st.builds(Reg, st.sampled_from([Bank.INT, Bank.FLT]), st.integers(0, N_REGS - 1))
_int_imm = st.builds(Imm, st.sampled_from(INT_EDGES) | st.integers(-100, 100))
# (A NaN immediate has no generated form: see test_non_native_immediates_...)
_flt_imm = st.builds(
    Imm,
    st.sampled_from(FLT_EDGES[:-1]) | st.integers(-5, 5) | st.floats(-8, 8, width=32),
)


@st.composite
def _instruction(draw):
    op = draw(st.sampled_from(_OPS))
    dst = draw(st.integers(0, N_REGS - 1))
    if op is Opcode.READ_SPECIAL:
        return Instr(op, dst=Reg(Bank.INT, dst), special=draw(st.sampled_from(sorted(Special))))
    row = ALU[op]
    kinds = row.src.lstrip("c")
    operands = [draw(_regs | (_flt_imm if kind == "f" else _int_imm)) for kind in kinds]
    if row.fn is not identity and "f" in kinds and not any(
        type(operand) is Reg or isinstance(operand.value, float) for operand in operands
    ):
        # Float arithmetic on int immediates alone has no generated form
        # (see test_non_native_immediates_...): give it a register to read.
        operands[0] = draw(_regs)
    cmp = draw(st.sampled_from(sorted(Cmp))) if row.src[0] == "c" else None
    return Instr(op, Reg(row.dst, dst), *operands, cmp=cmp)


_masks = (
    st.lists(st.booleans(), min_size=WARP_SIZE, max_size=WARP_SIZE).filter(any)
    | st.integers(0, WARP_SIZE - 1).map(lambda lane: [i == lane for i in range(WARP_SIZE)])
    | st.just([True] * WARP_SIZE)
)


@settings(max_examples=60, deadline=None)
@given(
    instrs=st.lists(_instruction(), min_size=2, max_size=12),
    mask=_masks,
    ints=st.lists(st.sampled_from(INT_EDGES) | st.integers(I64_MIN, I64_MAX),
                  min_size=N_REGS * WARP_SIZE, max_size=N_REGS * WARP_SIZE),
    floats=st.lists(st.sampled_from(FLT_EDGES) | st.floats(width=64),
                    min_size=N_REGS * WARP_SIZE, max_size=N_REGS * WARP_SIZE),
)
def test_random_runs_match_the_reference_core(instrs, mask, ints, floats):
    _check(instrs, mask, ints, floats)


def test_every_fusable_opcode_can_be_generated():
    """The random rule's alphabet is the whole of ``FUSABLE_OPS``, and each
    opcode has a native (generated) form for register operands and for
    immediates alone (``iadd %r24 #16 #15`` is in ``amr``'s launch path):
    NumPy's arithmetic on those Python numbers is the lanes'."""
    assert set(_OPS) == set(FUSABLE_OPS) == set(ALU) | {Opcode.READ_SPECIAL}
    for op in ALU:
        kinds = ALU[op].src.lstrip("c")
        cmp = Cmp.LT if ALU[op].src[0] == "c" else None
        constants = [Imm(value) for value in ((-2.5, 0.0, 7.0) if "f" in kinds else (-16, 0, 15))]
        for operands in ([Reg(Bank.INT, 1)] * len(kinds), constants[: len(kinds)]):
            instr = Instr(op, Reg(ALU[op].dst, 0), *operands, cmp=cmp)
            assert fast_warp._alu_factory([instr], single=True) is not None, instr
            for mask in (ALL, ODD):
                _check([instr, Instr(Opcode.MOV, Reg(Bank.INT, 1), Reg(Bank.INT, 0))], mask)


# ----------------------------------------------------------------------
# Directed cases
# ----------------------------------------------------------------------
MASKS = pytest.mark.parametrize("mask", [ALL, ODD, ONE], ids=["full", "odd", "one"])


def _asm(body: str):
    """The instructions of an assembly snippet (without the final exit)."""
    program = parse_program(f".kernel snippet\n{body}\n    exit\n")
    return program.instructions[:-1]


@MASKS
def test_destination_aliasing_its_source(mask):
    # acc = acc * 3 + 7, then folded onto itself twice more.
    _check(_asm("""
        imul %r0 %r0 #3
        iadd %r0 %r0 #7
        ixor %r0 %r0 %r0
        isub %r1 %r1 %r1
        fadd %f0 %f0 %f0
    """), mask)


@MASKS
def test_destination_written_twice_commits_the_last_value(mask):
    region = _check(_asm("""
        iadd %r2 %r0 #1
        imul %r3 %r2 #5
        isub %r2 %r1 #9
        fmov %f1 %f0
        fneg %f1 %f2
    """), mask)
    assert region.length == 5


@MASKS
def test_move_then_overwrite_of_its_source(mask):
    """A partial-mask temporary may alias a register row (``mov``): the
    commit of a later write to that row must not overtake the move's."""
    _check(_asm("""
        mov %r1 %r0
        iadd %r0 %r0 #1
        mov %r2 %r1
        isub %r1 %r3 %r0
        fmov %f1 %f0
        fadd %f0 %f0 #1.5
    """), mask)


@MASKS
def test_moves_swapping_two_registers(mask):
    # No order of masked commits can do this without a copy of one row.
    _check(_asm("""
        mov %r2 %r0
        mov %r0 %r1
        mov %r1 %r2
        fmov %f2 %f0
        fmov %f0 %f1
        fmov %f1 %f2
    """), mask)


@MASKS
def test_comparison_feeding_inot_and_selp(mask):
    # The bool lanes of a comparison must reach a later reader as the 0/1
    # int64 the register would hold: ``inot`` of it is -1/-2, not a flip.
    _check(_asm("""
        setp %r2 %r0 %r1 lt
        inot %r3 %r2
        selp %r0 %r0 %r1 %r2
        fsetp %r1 %f0 %f1 ge
        iadd %r1 %r1 %r1
        ishl %r2 %r2 %r2
    """), mask)


@MASKS
def test_itof_feeding_fneg_keeps_negative_zero(mask):
    ints = [0] * (N_REGS * WARP_SIZE)
    fused, _, reference, _ = _run_three_ways(
        _asm("""
            itof %f0 %r0
            fneg %f1 %f0
            fmov %f2 %r1
            fneg %f3 %f2
        """), mask, ints, [1.0] * (N_REGS * WARP_SIZE))
    assert fused == reference
    f1 = np.frombuffer(fused[1], dtype=np.float64).reshape(N_REGS, WARP_SIZE)[1]
    assert np.signbit(f1[np.asarray(mask)]).all(), "-(float)0 is -0.0"


@MASKS
def test_float_slot_reading_the_int_bank_sees_an_earlier_int_write(mask):
    # ``fadd`` names %r1 in a float slot: it reads the int bank, where the
    # ``iadd`` before it wrote; %f1 of the float bank is a different row.
    _check(_asm("""
        iadd %r1 %r0 #2
        fmov %f1 #0.5
        fadd %f0 %r1 %f1
        ftoi %r2 %f0
        itof %f2 %r2
    """), mask)


@pytest.mark.parametrize("zero_lanes", ["active", "inactive"])
def test_zero_register_divisor(zero_lanes):
    mask = np.asarray(ODD)
    divisor = np.where(mask == (zero_lanes == "active"), 0, 5)
    ints = np.concatenate([np.arange(WARP_SIZE) - 9, divisor, np.zeros(2 * WARP_SIZE, int)])
    floats = np.concatenate([np.linspace(-3, 3, WARP_SIZE), divisor * 0.5,
                             np.zeros(2 * WARP_SIZE)])
    _check(_asm("""
        idiv %r2 %r0 %r1
        imod %r3 %r0 %r1
        fdiv %f2 %f0 %f1
        idiv %r0 %r0 #0
        fdiv %f3 %f0 #0
    """), mask, ints.tolist(), floats.tolist())


@MASKS
def test_uniform_and_per_lane_specials_consumed_in_region(mask):
    # ``ctaid``/``ntid``/``param`` are block-uniform Python ints, ``tid``/
    # ``gtid`` lane arrays; each is read again inside the region, by an
    # int op, a float slot, a divisor and a select.
    _check(_asm("""
        read_special %r0 ctaid_x
        read_special %r1 ntid_x
        imul %r2 %r0 %r1
        read_special %r3 tid_x
        iadd %r2 %r2 %r3
        fmov %f0 %r1
        read_special %r1 param
        idiv %r0 %r2 %r1
        read_special %r3 gtid
        selp %r3 %r3 %r0 %r1
    """), mask)


@MASKS
def test_float_immediates(mask):
    _check(_asm("""
        fmul %f1 %f0 #0.75
        fadd %f2 %f1 #-0.0
        fmax %f3 %f2 #1e300
        fsetp %r0 %f3 #2 lt
        fmov %f0 #3
    """), mask)


def test_non_native_immediates_stay_single_steps_and_split_the_run():
    """A float immediate in an int slot, an int immediate no lane array can
    hold, and arithmetic on immediates alone (NumPy's on Python numbers:
    ``fneg #0`` negates the *int* 0, so the result is +0.0) keep the
    reference handler, and end the region before them."""
    program = _program(_asm("""
        iadd %r0 %r0 #1
        iadd %r1 %r1 #2
        mov %r2 #2.5
        iadd %r0 %r0 #3
        iadd %r1 %r1 #4
        fneg %f0 #0
        fmov %f1 #0
        fmov %f2 #-0.0
    """) + [
        Instr(Opcode.IADD, Reg(Bank.INT, 3), Reg(Bank.INT, 3), Imm(1 << 63)),
        # NaN + NaN: which payload survives depends on scalar vs array.
        Instr(Opcode.FADD, Reg(Bank.FLT, 3), Reg(Bank.FLT, 3), Imm(math.nan)),
    ])
    table, _ni, _nf, regions, _ = decode_program(program)
    runs = {start: region.length for start, region in regions.items() if start < 10}
    assert runs == {0: 2, 3: 2, 6: 2}
    for pc in (2, 5, 8, 9):
        assert table[pc][2] == 0, "reference fallbacks are klass 0"
        assert fast_warp._alu_factory([program.instructions[pc]], single=True) is None
    warp = _warp(program, "fast")
    warp.regs_f[:] = 1.0
    frame = [0, -1, np.asarray(ALL), WARP_SIZE, True]
    for pc in (5, 6, 7):
        table[pc][0](warp, frame, 0)
    assert not np.signbit(warp.regs_f[0]).any() and (warp.regs_f[0] == 0).all()
    assert not np.signbit(warp.regs_f[1]).any() and np.signbit(warp.regs_f[2]).all()


def test_partial_body_is_correct_under_a_full_mask_too():
    """``full`` only selects the cheaper body: the partial-mask one given an
    all-true mask leaves the same registers."""
    instrs = _asm("""
        imul %r0 %r0 #3
        setp %r1 %r0 %r2 gt
        selp %r2 %r0 %r3 %r1
        itof %f0 %r2
        fneg %f1 %f0
    """)
    files = []
    for full in (True, False):
        program = _program(instrs)
        warp = _warp(program, "fast")
        warp.regs_i[:] = np.arange(N_REGS * WARP_SIZE).reshape(N_REGS, WARP_SIZE) - 40
        decode_program(program)[3][0].fn(warp, np.asarray(ALL), full)
        files.append(_files(warp))
    assert files[0] == files[1]


# ----------------------------------------------------------------------
# What generation costs a decode
# ----------------------------------------------------------------------
def test_decode_compiles_each_shape_once_per_process(monkeypatch):
    """Every job rebuilds its programs, so generation is memoised per
    process by source text (``fast_warp._factory``): a shape compiles
    the first time a program needs it, and an equal program decoded
    later — a new object, nothing cached on it — compiles nothing."""
    from repro import ExecutionMode
    from repro.workloads import benchmark_names, get_benchmark

    compiled = []

    def counting(source, *args, **kwargs):
        compiled.append(source)
        return compile(source, *args, **kwargs)

    fast_warp._factory.cache_clear()
    monkeypatch.setattr(fast_warp, "compile", counting, raising=False)
    programs = 0
    for name in benchmark_names():
        for mode in ExecutionMode:
            for again in (False, True):
                for func in get_benchmark(name, mode, 0.1).build_kernels():
                    assert getattr(func.program, "_fast_table", None) is None
                    before = len(compiled)
                    decode_program(func.program)
                    if again:
                        assert len(compiled) == before, (name, mode, func.name)
                    programs += 1
    assert programs >= 2 * len(benchmark_names()) * len(ExecutionMode)
    assert len(set(compiled)) == len(compiled) == fast_warp._factory.cache_info().misses
    assert 0 < len(compiled) < programs // 4, "most programs find every shape memoised"


def test_equal_regions_of_two_programs_share_one_factory():
    """Registers and immediates are a factory's arguments: two programs
    built apart whose regions differ only in them compile one factory
    per shape, bound twice."""
    fast_warp._factory.cache_clear()

    def regions(source: str) -> list:
        program = parse_program(f".kernel k\n{source}\n    exit\n")
        return list(decode_program(program)[3].values())

    first = regions("iadd %r1 %r1 #3\n    imul %r2 %r1 %r1")
    shapes = fast_warp._factory.cache_info().misses
    second = regions("iadd %r3 %r3 #5\n    imul %r0 %r3 %r3")
    assert fast_warp._factory.cache_info().misses == shapes == 3  # two singles, one region
    assert fast_warp._factory.cache_info().hits == 3
    assert len(first) == len(second) == 1 and first[0].fn is not second[0].fn
