"""Unit tests for straight-line region discovery (superblock fusion)."""

from __future__ import annotations

import pytest

from repro import KernelBuilder, KernelFunction
from repro.config import ALU_LATENCY, SFU_LATENCY
from repro.isa import control_flow_leaders, straight_line_regions
from repro.isa.instructions import Opcode
from repro.isa.semantics import FUSABLE_OPS, SFU_OPS
from repro.sim.fast_warp import decode_program


def _alu_fusable(pc, instr):
    return instr.op in FUSABLE_OPS


def _build(fn) -> KernelFunction:
    k = KernelBuilder("t")
    fn(k)
    k.exit()
    return KernelFunction("t", k.build())


def test_straight_line_program_is_one_region():
    func = _build(lambda k: k.ixor(k.iadd(k.imul(k.gtid(), 3), 7), 1))
    instrs = func.program.instructions
    regions = straight_line_regions(instrs, _alu_fusable)
    # READ_SPECIAL (gtid) + imul + iadd + ixor form one maximal run.
    assert len(regions) == 1
    start, length = regions[0]
    assert start == 0
    assert length == 4
    assert instrs[length].op is Opcode.EXIT


def test_leaders_include_targets_and_reconv():
    def body(k):
        g = k.gtid()
        with k.if_(k.lt(g, 10)):
            k.iadd(g, 1)

    func = _build(body)
    instrs = func.program.instructions
    leaders = control_flow_leaders(instrs)
    assert 0 in leaders
    for instr in instrs:
        if isinstance(instr.target, int):
            assert instr.target in leaders
        if isinstance(instr.reconv, int):
            assert instr.reconv in leaders


def test_branch_splits_run_and_interior_leader_truncates():
    def body(k):
        g = k.gtid()
        a = k.iadd(g, 1)
        with k.if_(k.lt(a, 5)):
            k.imul(a, 2, dst=a)
        k.ixor(a, 3)
        k.iand(a, 7)

    func = _build(body)
    instrs = func.program.instructions
    regions = dict(straight_line_regions(instrs, _alu_fusable))
    # No region may contain the BRA or span an interior leader.
    leaders = control_flow_leaders(instrs)
    for start, length in regions.items():
        assert all(instrs[pc].op is not Opcode.BRA
                   for pc in range(start, start + length))
        assert all(pc not in leaders for pc in range(start + 1, start + length))
    assert len(regions) >= 2


def test_min_length_drops_singletons():
    def body(k):
        g = k.gtid()
        with k.if_(k.lt(g, 4)):
            k.iadd(g, 1)  # single fusable op inside the body

    func = _build(body)
    instrs = func.program.instructions
    for start, length in straight_line_regions(instrs, _alu_fusable):
        assert length >= 2


def test_decode_attaches_regions_to_table_rows():
    func = _build(lambda k: k.ixor(k.iadd(k.imul(k.gtid(), 3), 7), 1))
    table, _n_int, _n_flt, regions, _ = decode_program(func.program)
    assert regions is not None
    for start, region in regions.items():
        assert table[start][3] is region
        assert region.start == start
        assert region.length == len(region.ops) and callable(region.fn)
        assert region.cycles == sum(
            SFU_LATENCY if op in SFU_OPS else ALU_LATENCY for op in region.ops
        )
    # Non-start rows carry no region.
    starts = set(regions)
    for pc, row in enumerate(table):
        if pc not in starts:
            assert row[3] is None


def test_decode_without_fusable_runs_has_no_regions():
    def body(k):
        param = k.param()
        n = k.ld(param, offset=0)  # loads are never fusable
        k.st(n, 1)

    func = _build(body)
    _table, _n_int, _n_flt, regions, _ = decode_program(func.program)
    if regions is not None:
        # The implicit READ_SPECIAL/param prelude may fuse; any region
        # must still satisfy the invariants.
        for region in regions.values():
            assert region.length >= 2
