"""Differential tests: the fast core must be stat-exact with the reference.

The event-driven execution core (``GPUConfig.core="fast"``, the default)
is a pure performance feature: every statistic the simulator reports —
total cycles, per-launch timelines, coalescing histogram, DRAM row
activity, occupancy integrals, divergence counts — must be *bit
identical* to the reference interpreter (``core="reference"``).  These
tests run full workloads and targeted micro-kernels under both cores and
compare a complete fingerprint of :class:`~repro.sim.stats.SimStats`.
"""

from __future__ import annotations

import dataclasses
import itertools

import numpy as np
import pytest

from repro import Device, ExecutionMode, GPUConfig, KernelBuilder, KernelFunction
from repro.config import (
    ALU_LATENCY, L1_HIT_LATENCY, L2_HIT_LATENCY, MAX_LOCAL_WORDS, SHARED_LATENCY, WARP_SIZE,
)
from repro.isa import parse_program
from repro.isa.instructions import Bank, Imm, Instr, Opcode, Reg
from repro.isa.program import Program
from repro.isa.semantics import ALU, ATOMIC, MEMORY
from repro.sim.fast_warp import decode_program
from repro.sim.gpu import GPU
from repro.sim.thread_block import ThreadBlock
from repro.workloads.registry import get_benchmark

from tests.helpers import reduce_kernel


def fingerprint(stats):
    """Every externally observable statistic, as a comparable value."""
    c = stats.coalescing
    d = stats.dram
    return {
        "cycles": stats.cycles,
        "issued": stats.issued_instructions,
        "lanes": stats.active_lane_sum,
        "rwc": stats.resident_warp_cycles,
        "coalescing": (
            c.warp_accesses,
            c.transactions,
            c.lanes,
            tuple(c.histogram.tolist()),
        ),
        "dram": (d.n_read, d.n_write, d.row_hits, d.row_misses, d.n_activity),
        "footprint": (stats.footprint_bytes, stats.peak_footprint_bytes),
        "agg": (
            stats.agg_matched,
            stats.agg_unmatched,
            stats.agt_hash_hits,
            stats.agt_hash_spills,
        ),
        "branches": (stats.branches_uniform, stats.branches_diverged),
        "completed": (stats.blocks_completed, stats.kernels_completed),
        "launches": tuple(
            (
                r.kind,
                r.kernel_name,
                r.launch_cycle,
                r.first_exec_cycle,
                r.fully_distributed_cycle,
                r.completed_cycle,
                r.total_blocks,
                r.total_threads,
                r.param_bytes,
                r.record_bytes,
            )
            for r in stats.launches
        ),
    }


def _config(fast: bool) -> GPUConfig:
    return dataclasses.replace(GPUConfig.small(), core=("fast" if fast else "reference"))


def _workload_fingerprint(name: str, mode: ExecutionMode, fast: bool, scale: float,
                          latency_scale: float = 0.25):
    workload = get_benchmark(name, mode, scale=scale)
    result = workload.execute(config=_config(fast), latency_scale=latency_scale)
    return fingerprint(result.stats)


MODES = [ExecutionMode.FLAT, ExecutionMode.CDP, ExecutionMode.DTBL]


class TestWorkloadDifferential:
    """Full benchmark workloads, both cores, all three execution modes."""

    @pytest.mark.parametrize("mode", MODES, ids=lambda m: m.value)
    def test_bfs_citation(self, mode):
        assert _workload_fingerprint("bfs_citation", mode, True, 0.2) == (
            _workload_fingerprint("bfs_citation", mode, False, 0.2)
        )

    @pytest.mark.parametrize("mode", MODES, ids=lambda m: m.value)
    def test_join_uniform(self, mode):
        assert _workload_fingerprint("join_uniform", mode, True, 0.15) == (
            _workload_fingerprint("join_uniform", mode, False, 0.15)
        )

    @pytest.mark.parametrize("mode", MODES, ids=lambda m: m.value)
    def test_amr(self, mode):
        assert _workload_fingerprint("amr", mode, True, 0.15) == (
            _workload_fingerprint("amr", mode, False, 0.15)
        )

    @pytest.mark.parametrize(
        "mode", [ExecutionMode.CDP, ExecutionMode.DTBL], ids=["cdpi", "dtbli"]
    )
    def test_ideal_latency_variants(self, mode):
        """The paper's CDPI / DTBLI: latency scale 0."""
        assert _workload_fingerprint("bfs_citation", mode, True, 0.2, 0) == (
            _workload_fingerprint("bfs_citation", mode, False, 0.2, 0)
        )


# ----------------------------------------------------------------------
# Micro-kernel differentials: stress specific interpreter paths.
# ----------------------------------------------------------------------
def _run_kernel(func: KernelFunction, fast: bool, n: int = 512, block: int = 64):
    dev = Device(config=_config(fast))
    dev.register(func)
    data = dev.upload(np.arange(n, dtype=np.int64) % 97)
    out = dev.alloc(max(n, 1))
    dev.launch(
        func.name,
        grid=(n + block - 1) // block,
        block=block,
        params=[n, data, out],
    )
    dev.synchronize()
    return fingerprint(dev.stats), out.download()


def _divergent_kernel() -> KernelFunction:
    """Nested data-dependent branches + a divergent loop (PDOM stress)."""
    k = KernelBuilder("diverge")
    gtid = k.gtid()
    param = k.param()
    n = k.ld(param, offset=0)
    with k.if_(k.lt(gtid, n)):
        src = k.ld(param, offset=1)
        dst = k.ld(param, offset=2)
        value = k.ld(k.iadd(src, gtid))
        acc = k.mov(0)
        with k.while_(lambda: k.gt(value, 0)):
            with k.if_(k.gt(k.iand(value, 1), 0)):
                k.iadd(acc, value, dst=acc)
            k.ishr(value, 1, dst=value)
        k.st(k.iadd(dst, gtid), acc)
    k.exit()
    return KernelFunction("diverge", k.build())


def _barrier_kernel() -> KernelFunction:
    """Shared-memory reversal across a block-wide barrier."""
    k = KernelBuilder("barrier")
    gtid = k.gtid()
    tid = k.tid()
    param = k.param()
    n = k.ld(param, offset=0)
    src = k.ld(param, offset=1)
    dst = k.ld(param, offset=2)
    with k.if_(k.lt(gtid, n)):
        k.sts(tid, k.ld(k.iadd(src, gtid)))
    k.bar()
    with k.if_(k.lt(gtid, n)):
        rev = k.isub(k.isub(k.ntid(), 1), tid)
        k.st(k.iadd(dst, gtid), k.lds(rev))
    k.exit()
    return KernelFunction("barrier", k.build(), shared_words=64)


def _racy_mailbox_kernel() -> KernelFunction:
    """Warps of a block exchange values through shared words with no
    barrier in between, each at its own pace; per-thread local words, and
    immediate-base global words every thread polls and bumps.  What each
    thread reads depends on the exact interleaving of the warps' issues."""
    k = KernelBuilder("mailbox")
    gtid = k.gtid()
    tid = k.tid()
    out = k.ld(k.param(), offset=2)
    counter = 40  # a word of the input buffer (allocated first, at 1)
    acc = k.mov(0)
    k.stl(0, tid)
    k.sts(tid, gtid)
    with k.for_range(0, k.iadd(3, k.ishr(tid, 5))) as i:  # later warps loop longer
        other = k.imod(k.iadd(tid, 32), k.ntid())
        k.iadd(acc, k.lds(other), dst=acc)
        k.sts(tid, k.iadd(acc, i))
        k.stl(1, k.iadd(k.ldl(0), k.lds(5)))
        k.iadd(acc, k.ld(counter), dst=acc)
        with k.if_(k.eq(k.iand(tid, 7), 0)):
            k.atom_add(counter, 1)
            k.st(counter + 1, tid)
        k.iadd(acc, k.ldl(1), dst=acc)
    k.st(k.iadd(out, gtid), k.iadd(acc, k.ld(counter + 1)))
    k.exit()
    return KernelFunction("mailbox", k.build(), shared_words=128, local_words=2)


_ALU_PROLOGUE = """
    read_special %r0 gtid
    read_special %r1 param
    ld %r2 %r1 off=0
    setp %r3 %r0 %r2 lt
    bra ->end @!%r3 reconv=end
    ld %r4 %r1 off=1
    iadd %r5 %r4 %r0
    ld %r6 %r5           ; 0..96
    isub %r7 %r6 #48     ; signed
    imod %r8 %r0 #5      ; 0..4: zero divisors, small shift counts
    itof %f0 %r7
    fmul %f1 %f0 #0.75   ; signed, fractional, has a zero
    itof %f2 %r8
    ld %r11 %r1 off=2
    iadd %r10 %r11 %r0
"""
_ALU_VARIANTS = ["reg", "imm", "cross"]


def _alu_kernel(op, variant: str) -> KernelFunction:
    """One ALU instruction between a load and a store, inside a bounds
    branch (so the last warp runs it with a partial mask).  Variants:
    ``reg`` — register operands; ``imm`` — last operand an immediate;
    ``cross`` — float slots fed from int-bank registers, int ops with an
    immediate first.  Operand shapes come from the row, not its function.
    """
    row = ALU[op]
    kinds = row.src.lstrip("c")
    regs = {"i": ["%r7", "%r8", "%r6"], "f": ["%f1", "%f2"]}
    operands = [regs[kind][slot] for slot, kind in enumerate(kinds)]
    if variant == "imm":
        operands[-1] = "#2.5" if kinds[-1] == "f" else "#3"
    elif variant == "cross":
        if "f" in kinds:
            operands = [regs["i"][slot] for slot in range(len(kinds))]
        else:
            operands[0] = "#100"
    cmp = dict(zip(_ALU_VARIANTS, ["lt", "ge", "ne"]))[variant] if "c" in row.src else ""
    dst, store = ("%f3", "fst") if row.dst == Bank.FLT else ("%r9", "st")
    name = f"alu_{op.name.lower()}_{variant}"
    text = (
        f".kernel {name}\n{_ALU_PROLOGUE}"
        f"    {op.name.lower()} {dst} {' '.join(operands)} {cmp}\n"
        f"    {store} %r10 {dst}\n"
        "end:\n    join\n    exit\n"
    )
    return KernelFunction(name, parse_program(text))


# One memory instruction, stepped on a hand-built warp of each core.
_LANES = np.arange(WARP_SIZE, dtype=np.int64)
#: Word offsets of the 32 lanes from the region's base (a register base),
#: or the one word an immediate base names.
_ADDRESSES = {
    "unit": _LANES,
    "scattered": _LANES * 37 % 509,
    "equal": np.full(WARP_SIZE, 5, dtype=np.int64),
    "bank": _LANES * 32,  # one shared bank, 32 ways; one global segment a lane
    "imm": None,
}
_MEM_MASKS = {
    "full": np.ones(WARP_SIZE, dtype=bool),
    "partial": _LANES % 3 != 1,
    "one": _LANES == 13,
    "none": np.zeros(WARP_SIZE, dtype=bool),
}
_REGION = 64  # base of the int words the global accesses fall in ...
_FLOATS = 1101  # ... and of the float words
_SHARED_WORDS = 1024
_LOCAL_WORDS = 64


def _region(op) -> int:
    """Where the words ``op`` is pointed at begin (an atomic is no row)."""
    row = MEMORY.get(op)
    if row is not None and row.space != "global":
        return 0
    return _FLOATS if row is not None and row.bank == Bank.FLT else _REGION


def _memory_instr(op, imm_base: bool, imm_source: bool = False, offset: int = 3) -> Instr:
    """``op`` with %r0 (or an immediate) as its address, %r1 / %f1 (or an
    immediate) as its data source, %r2 as a CAS's new value and %r3 / %f3
    as its destination."""
    row = MEMORY.get(op)
    bank = Bank.INT if row is None else row.bank
    a = Imm(_region(op) + 5) if imm_base else Reg(Bank.INT, 0)
    if row is not None and not row.store:
        return Instr(op, dst=Reg(bank, 3), a=a, offset=offset)
    source = Imm(2.5 if bank == Bank.FLT else -7) if imm_source else Reg(bank, 1)
    if row is not None:
        return Instr(op, a=a, b=source, offset=offset)
    return Instr(op, dst=Reg(Bank.INT, 3), a=a, b=source, offset=offset,
                 c=Reg(Bank.INT, 2) if op is Opcode.ATOM_CAS else None)


def _memory_warp(instr: Instr, core: str, addresses, sanitize: bool = False):
    """Warp 1 of a 64-thread block on SMX 0 of a small GPU, about to
    execute ``instr`` at pc 0, with every word it may touch seeded:
    ints in [1, 1101), floats in [1101, 2201), then SMX 0's local arena."""
    program = Program("mem")
    program.emit(instr)
    program.emit(Instr(Opcode.EXIT))
    for bank, mov in ((Bank.INT, Opcode.MOV), (Bank.FLT, Opcode.FMOV)):
        program.emit(Instr(mov, dst=Reg(bank, 3), a=Reg(bank, 3)))
    program.finalize()
    config = dataclasses.replace(GPUConfig.small(), core=core, sanitize=sanitize)
    gpu = GPU(config, memory_words=1 << 16)
    func = KernelFunction("mem", program, shared_words=_SHARED_WORDS, local_words=_LOCAL_WORDS)
    block = ThreadBlock(gpu.smxs[0], func, (1, 1, 1), (64, 1, 1), 0, 0, None, None, [0, 1])
    warp = block.warps[1]
    memory = gpu.memory
    words = np.arange(1100, dtype=np.int64)
    memory.write_ints(memory.alloc(1100), words * 3 % 101)
    memory.write_floats(memory.alloc(1100), words * 0.25 - 60)
    arena = config.max_resident_threads * MAX_LOCAL_WORDS
    memory.write_ints(gpu.local_arena_base(0), np.arange(arena, dtype=np.int64) * 7 % 103)
    memory.written_end = 0  # so that the instruction's own bound shows
    block.shared[:] = np.arange(_SHARED_WORDS) * 5 % 89
    if addresses is not None:
        if instr.op in (Opcode.LDL, Opcode.STL):
            addresses = addresses % (_LOCAL_WORDS - instr.offset)
        warp.regs_i[0] = addresses + _region(instr.op)
    warp.regs_i[1] = _LANES * 11 - 40
    warp.regs_i[2] = 1000 + _LANES
    warp.regs_i[3] = -1
    warp.regs_f[1] = _LANES * 0.5 - 3
    warp.regs_f[3] = -1.0
    return gpu, warp


def _step_memory(gpu, warp, mask, cycle: int = 100):
    """Issue the warp's next instruction under ``mask``; everything that
    may differ afterwards, or the error it raised."""
    active = int(mask.sum())
    frame = [0, -1, mask.copy()]
    warp.stack[:] = [frame + [active, active == WARP_SIZE] if gpu.fast_core else frame]
    try:
        warp.step(cycle)
    except Exception as exc:  # compared, not hidden
        return type(exc).__name__, str(exc)
    stats = gpu.stats.to_dict()
    del stats["config"]
    caches = [vars(cache.stats) for cache in (gpu.memsys.l2, warp.tb.smx.l1)]
    report = gpu.sanitizer.report.format() if gpu.sanitizer is not None else None
    return (
        warp.regs_i.tobytes(), warp.regs_f.tobytes(), gpu.memory.i.tobytes(),
        warp.tb.shared.tobytes(), stats, caches, warp.ready_cycle, warp.stack[-1][0],
        gpu.memory.written_end, report,
    )


def _both_cores(instr, addresses, mask, sanitize=False):
    out = [
        _step_memory(*_memory_warp(instr, core, addresses, sanitize), mask)
        for core in ("fast", "reference")
    ]
    assert out[0] == out[1], (instr, mask)
    return out[0]


class TestMicroKernelDifferential:
    @pytest.mark.parametrize("addresses", list(_ADDRESSES))
    @pytest.mark.parametrize("op", list(MEMORY) + list(ATOMIC), ids=lambda op: op.name)
    def test_single_memory_instruction(self, op, addresses):
        """Every ``MEMORY`` row and every atomic, one issue on each core:
        equal register files, memory, shared memory, ``SimStats``, cache
        counters, ``ready_cycle``, ``written_end`` and sanitizer report."""
        row = MEMORY.get(op)
        sources = (False, True) if row is None or row.store else (False,)
        for imm_source in sources:
            instr = _memory_instr(op, addresses == "imm", imm_source)
            for name in ("full", "partial", "one"):
                for sanitize in (False, True):
                    out = _both_cores(instr, _ADDRESSES[addresses], _MEM_MASKS[name], sanitize)
                    assert len(out) == 10, f"{instr} raised {out}"

    @pytest.mark.parametrize("op", [Opcode.ST, Opcode.FST, Opcode.STS], ids=lambda op: op.name)
    @pytest.mark.parametrize("mask", ["full", "partial"])
    def test_store_to_an_immediate_address_keeps_the_last_active_lane(self, op, mask):
        """Every active lane stores its own value to the one word: the
        highest lane's survives (NumPy assigns a repeated index last)."""
        instr = _memory_instr(op, imm_base=True)
        last = int(np.flatnonzero(_MEM_MASKS[mask])[-1])
        for core in ("fast", "reference"):
            gpu, warp = _memory_warp(instr, core, None)
            _step_memory(gpu, warp, _MEM_MASKS[mask])
            addr = instr.a.value + instr.offset
            if op is Opcode.FST:
                assert gpu.memory.f[addr] == warp.regs_f[1][last] == last * 0.5 - 3
            else:
                words = warp.tb.shared if op is Opcode.STS else gpu.memory.i
                assert words[addr] == warp.regs_i[1][last] == last * 11 - 40
        _both_cores(instr, None, _MEM_MASKS[mask])

    @pytest.mark.parametrize("imm_base", [False, True], ids=["register", "immediate"])
    @pytest.mark.parametrize(
        "op", [Opcode.LD, Opcode.FST, Opcode.ATOM_ADD, Opcode.LDL, Opcode.STL, Opcode.LDS],
        ids=lambda op: op.name,
    )
    def test_an_issue_with_no_active_lane_is_a_zero_transaction_access(self, op, imm_base):
        """It is counted (``histogram[0]``) and the memory system is still
        asked: a load comes back after an L2 hit's latency (an L1 hit's
        from local memory) with no segment probed, and no bounds check
        applies — there is no address."""
        instr = _memory_instr(op, imm_base)
        if imm_base:
            instr.a = Imm(-5)
        for core in ("fast", "reference"):
            gpu, warp = _memory_warp(instr, core, _ADDRESSES["unit"] - 1000)
            before = warp.regs_i.copy(), gpu.memory.i.copy(), warp.tb.shared.copy()
            _step_memory(gpu, warp, _MEM_MASKS["none"], cycle=100)
            for was, now in zip(before, (warp.regs_i, gpu.memory.i, warp.tb.shared)):
                np.testing.assert_array_equal(was, now)
            coalescing = gpu.stats.coalescing
            if op is Opcode.LDS:
                assert coalescing.warp_accesses == 0
                assert warp.ready_cycle == 100 + SHARED_LATENCY
                continue
            assert (coalescing.warp_accesses, coalescing.transactions) == (1, 0)
            assert coalescing.histogram[0] == 1 and gpu.memsys.l2.stats.accesses == 0
            latency = {
                Opcode.LDL: L1_HIT_LATENCY, Opcode.LD: L2_HIT_LATENCY,
                Opcode.ATOM_ADD: L2_HIT_LATENCY,
            }.get(op, ALU_LATENCY)
            assert warp.ready_cycle == 100 + latency
        _both_cores(instr, _ADDRESSES["unit"] - 1000, _MEM_MASKS["none"])

    @pytest.mark.parametrize("imm_base", [False, True], ids=["register", "immediate"])
    @pytest.mark.parametrize("op", list(MEMORY) + [Opcode.ATOM_MAX], ids=lambda op: op.name)
    def test_out_of_range_message_is_the_same_on_both_cores(self, op, imm_base):
        row = MEMORY.get(op)
        space = "atomic" if row is None else row.space
        limit = {"global": 1 << 16, "atomic": 1 << 16, "shared": _SHARED_WORDS,
                 "local": _LOCAL_WORDS}[space]
        instr = _memory_instr(op, imm_base, offset=2)
        for stray, mask in itertools.product((-9, limit - 2), ("full", "one")):
            # Lane 13 strays below zero or past the end.
            addresses = np.full(WARP_SIZE, 4, dtype=np.int64)
            addresses[13] = stray
            touched = addresses[_MEM_MASKS[mask]] + 2
            if imm_base:
                instr.a = Imm(stray)
                touched = touched[touched == stray + 2]
            lo, hi = touched.min(), touched.max()
            expected = {
                "global": f"global access out of range (addr {lo}..{hi}, mem size {limit})",
                "atomic": f"atomic out of range at {stray + 2}",
                "shared": f"shared access out of range (addr {lo}..{hi}, shared words {limit})",
                "local": f"local access out of range (offset {lo}..{hi}, local_words {limit})",
            }[space]
            out = []
            for core in ("fast", "reference"):
                gpu, warp = _memory_warp(instr, core, None)
                warp.regs_i[0] = addresses
                out.append(_step_memory(gpu, warp, _MEM_MASKS[mask]))
            assert out[0] == out[1] == ("ExecutionError", f"kernel 'mem': {expected}")

    @pytest.mark.parametrize("variant", _ALU_VARIANTS)
    @pytest.mark.parametrize("op", list(ALU), ids=lambda op: op.name)
    def test_single_alu_instruction(self, op, variant):
        # n=100, block=64: warps with 32, 32, 32 and 4 active lanes.  Float
        # results are stored as their bit patterns (``out`` is read back
        # as int64), so the comparison is exact.
        fast, out_fast = _run_kernel(_alu_kernel(op, variant), fast=True, n=100)
        ref, out_ref = _run_kernel(_alu_kernel(op, variant), fast=False, n=100)
        assert fast == ref
        np.testing.assert_array_equal(out_fast, out_ref)

    def test_divergence(self):
        fast, out_fast = _run_kernel(_divergent_kernel(), fast=True)
        ref, out_ref = _run_kernel(_divergent_kernel(), fast=False)
        assert fast == ref
        np.testing.assert_array_equal(out_fast, out_ref)

    def test_barriers_and_shared_memory(self):
        fast, out_fast = _run_kernel(_barrier_kernel(), fast=True)
        ref, out_ref = _run_kernel(_barrier_kernel(), fast=False)
        assert fast == ref
        np.testing.assert_array_equal(out_fast, out_ref)

    @pytest.mark.parametrize("block", [64, 128])
    def test_unsynchronised_shared_local_and_immediate_base_traffic(self, block, monkeypatch):
        """Two warps an SMX (block 64) or four on one (block 128): few
        enough to run ahead, where native memory ops are inlined in global
        time order — which is all that decides what the racing warps read."""
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)  # run-ahead needs no observer
        fast, out_fast = _run_kernel(_racy_mailbox_kernel(), fast=True, n=128, block=block)
        ref, out_ref = _run_kernel(_racy_mailbox_kernel(), fast=False, n=128, block=block)
        assert fast == ref
        np.testing.assert_array_equal(out_fast, out_ref)
        assert not decode_program(_racy_mailbox_kernel().program)[4]

    def test_atomic_destination_aliases_operand(self):
        """``atom_add v [a] v``: memory must receive the operand's value
        from before the instruction, not the fetched old word."""

        def kernel() -> KernelFunction:
            k = KernelBuilder("atom_alias")
            gtid = k.gtid()
            param = k.param()
            with k.if_(k.lt(gtid, k.ld(param, offset=0))):
                cell = k.iadd(k.ld(param, offset=1), gtid)
                value = k.iadd(gtid, 1000)
                k.atom_add(cell, value, dst=value)
                k.st(k.iadd(k.ld(param, offset=2), gtid), k.ld(cell))
            k.exit()
            return KernelFunction("atom_alias", k.build())

        n = 100
        fast, out_fast = _run_kernel(kernel(), fast=True, n=n)
        ref, out_ref = _run_kernel(kernel(), fast=False, n=n)
        assert fast == ref
        np.testing.assert_array_equal(out_fast, out_ref)
        lanes = np.arange(n)
        np.testing.assert_array_equal(out_fast[:n], lanes % 97 + lanes + 1000)

    def test_conflicting_atomics(self):
        """All lanes hammer one address: lane-serialization order matters."""
        results = []
        for fast in (True, False):
            dev = Device(config=_config(fast))
            dev.register(reduce_kernel())
            n = 700
            data = dev.upload(np.arange(n, dtype=np.int64))
            out = dev.upload(np.zeros(1, dtype=np.int64))
            dev.launch("sum_reduce", grid=6, block=128, params=[n, data, out])
            dev.synchronize()
            results.append((fingerprint(dev.stats), int(out.download()[0])))
        assert results[0] == results[1]
        assert results[0][1] == n * (n - 1) // 2


# ----------------------------------------------------------------------
# Fusion-adversarial differentials: programs engineered so superblock
# fusion must bail out (divergent entry, predicated branches splitting a
# candidate run, regions abutting reconvergence points and barriers, the
# sanitizer forcing per-instruction fallback) while staying stat-exact.
# ----------------------------------------------------------------------
def _decoded_region_starts(func: KernelFunction):
    _table, _ni, _nf, regions, _ = decode_program(func.program)
    return set(regions) if regions else set()


def _divergent_entry_kernel() -> KernelFunction:
    """A fused region inside a branch body: partial-mask entry whenever
    some lanes fail the bounds predicate."""
    k = KernelBuilder("div_entry")
    gtid = k.gtid()
    param = k.param()
    n = k.ld(param, offset=0)
    src = k.ld(param, offset=1)
    dst = k.ld(param, offset=2)
    with k.if_(k.lt(gtid, n)):
        value = k.ld(k.iadd(src, gtid))
        a = k.imul(value, 3)
        b = k.iadd(a, 7)
        c = k.ixor(b, gtid)
        k.st(k.iadd(dst, gtid), c)
    k.exit()
    return KernelFunction("div_entry", k.build())


def _predicated_split_kernel() -> KernelFunction:
    """A predicated branch in the middle of an otherwise fusable ALU run
    splits the candidate region; the masked body must stay exact."""
    k = KernelBuilder("pred_split")
    gtid = k.gtid()
    param = k.param()
    n = k.ld(param, offset=0)
    dst = k.ld(param, offset=2)
    a = k.iadd(gtid, 1)
    b = k.imul(a, 5)
    p = k.lt(k.iand(b, 7), 4)
    with k.if_(p):
        k.iadd(b, 1, dst=b)
    c = k.ixor(b, a)
    d = k.imod(c, 97)
    with k.if_(k.lt(gtid, n)):
        k.st(k.iadd(dst, gtid), d)
    k.exit()
    return KernelFunction("pred_split", k.build())


def _reconv_barrier_kernel() -> KernelFunction:
    """Fusable runs starting exactly at a reconvergence pc and abutting a
    barrier on both sides."""
    k = KernelBuilder("reconv_bar")
    gtid = k.gtid()
    tid = k.tid()
    param = k.param()
    n = k.ld(param, offset=0)
    src = k.ld(param, offset=1)
    dst = k.ld(param, offset=2)
    with k.if_(k.lt(k.iand(gtid, 3), 2)):
        k.sts(tid, gtid)
    # Reconvergence point: a fusable run starts at the join pc.
    a = k.imul(gtid, 7)
    b = k.iadd(a, 11)
    k.bar()
    # Run immediately after the barrier.
    c = k.ixor(b, tid)
    d = k.iand(c, 1023)
    with k.if_(k.lt(gtid, n)):
        k.st(k.iadd(dst, gtid), k.iadd(d, k.ld(k.iadd(src, gtid))))
    k.exit()
    return KernelFunction("reconv_bar", k.build(), shared_words=64)


class TestFusionAdversarial:
    def test_divergent_entry(self):
        # n=500 with block 64: the last block enters the region with a
        # partial mask, every other block with a full one.
        fast, out_fast = _run_kernel(_divergent_entry_kernel(), True, n=500)
        ref, out_ref = _run_kernel(_divergent_entry_kernel(), False, n=500)
        assert fast == ref
        np.testing.assert_array_equal(out_fast, out_ref)

    def test_divergent_entry_runs_fused(self, monkeypatch):
        """One block of two warps, the second with 20 of its lanes in
        range: few enough resident warps that each runs ahead in a window,
        where the branch body's region executes in one call under either
        mask — and stays stat-exact."""
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)  # needs fused regions

        func = _divergent_entry_kernel()
        (body,) = [
            region for region in decode_program(func.program)[3].values()
            if Opcode.IXOR in region.ops
        ]
        entries = []  # (active lanes, full flag) of each fused execution
        fused = body.fn

        def counting(w, mask, full):
            entries.append((int(mask.sum()), full))
            fused(w, mask, full)

        body.fn = counting
        fast, out_fast = _run_kernel(func, True, n=52)
        ref, out_ref = _run_kernel(_divergent_entry_kernel(), False, n=52)
        assert fast == ref
        np.testing.assert_array_equal(out_fast, out_ref)
        assert sorted(entries) == [(20, False), (32, True)]
        assert body.executions == 2

    def test_predicated_branch_splits_region(self):
        func = _predicated_split_kernel()
        starts = _decoded_region_starts(func)
        assert len(starts) >= 2, "the predicated branch should split the run"
        fast, out_fast = _run_kernel(_predicated_split_kernel(), True)
        ref, out_ref = _run_kernel(_predicated_split_kernel(), False)
        assert fast == ref
        np.testing.assert_array_equal(out_fast, out_ref)

    def test_regions_abutting_reconvergence_and_barrier(self):
        func = _reconv_barrier_kernel()
        reconv_pcs = {
            instr.reconv
            for instr in func.program.instructions
            if isinstance(instr.reconv, int)
        }
        starts = _decoded_region_starts(func)
        # The builder materializes the reconvergence point as a JOIN (not
        # fusable), so the adjacent region starts right behind it.
        assert starts & {pc + 1 for pc in reconv_pcs}, (
            "a region should start immediately after a reconv pc"
        )
        fast, out_fast = _run_kernel(_reconv_barrier_kernel(), True, n=200)
        ref, out_ref = _run_kernel(_reconv_barrier_kernel(), False, n=200)
        assert fast == ref
        np.testing.assert_array_equal(out_fast, out_ref)

    @pytest.mark.parametrize(
        "make", [_divergent_entry_kernel, _reconv_barrier_kernel],
        ids=["div_entry", "reconv_bar"],
    )
    def test_sanitize_forces_fallback_identical_reports(self, make):
        """sanitize=True disables fusion; stats AND SanitizerReports must
        stay identical between the two cores."""
        results = []
        for fast in (True, False):
            dev = Device(config=_config(fast), sanitize=True)
            dev.register(make())
            n = 300
            data = dev.upload(np.arange(n, dtype=np.int64) % 97)
            out = dev.alloc(n)
            dev.launch(make().name, grid=5, block=64, params=[n, data, out])
            dev.synchronize()
            report = dev.sanitizer_report()
            results.append(
                (fingerprint(dev.stats), report.format(), dict(report.counts))
            )
        assert results[0] == results[1]


def test_fast_core_is_default():
    assert GPUConfig().core == "fast"
    assert GPUConfig.k20c().core == "fast"
