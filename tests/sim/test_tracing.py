"""Execution tracing and profiling."""

import dataclasses

import numpy as np
import pytest

from repro import GPUConfig, KernelBuilder, KernelFunction
from repro.isa.instructions import Opcode
from repro.sim.fast_warp import decode_program
from repro.sim.tracing import InstructionTrace, OpcodeProfiler

from tests.helpers import make_device, map_kernel


def run_traced(tracer, n=100):
    func = map_kernel("traced", lambda k, v: k.imul(v, 2))
    dev = make_device()
    dev.attach_tracer(tracer)
    dev.register(func)
    src = dev.upload(np.arange(n))
    dst = dev.alloc(n)
    dev.launch("traced", grid=2, block=64, params=[n, src, dst])
    dev.synchronize()
    return dev


class TestOpcodeProfiler:
    def test_counts_per_kernel(self):
        profiler = OpcodeProfiler()
        run_traced(profiler)
        profile = profiler.kernels["traced"]
        assert profile.issues > 0
        assert profile.by_opcode[Opcode.IMUL] == 4  # one per warp
        assert profile.by_opcode[Opcode.EXIT] == 4

    def test_activity_matches_stats(self):
        profiler = OpcodeProfiler()
        dev = run_traced(profiler)
        profile = profiler.kernels["traced"]
        assert abs(profile.warp_activity_pct - dev.stats.warp_activity_pct) < 1e-9

    def test_report_text(self):
        profiler = OpcodeProfiler()
        run_traced(profiler)
        report = profiler.report()
        assert "traced" in report
        assert "ld" in report  # loads dominate this kernel's top opcodes
        assert "warp activity" in report


class TestInstructionTrace:
    def test_records_in_cycle_order(self):
        trace = InstructionTrace()
        run_traced(trace)
        cycles = [r.cycle for r in trace.records]
        assert cycles == sorted(cycles)

    def test_ring_capacity(self):
        trace = InstructionTrace(capacity=10)
        run_traced(trace)
        assert len(trace.records) == 10

    def test_of_kernel_filter(self):
        trace = InstructionTrace()
        run_traced(trace)
        assert trace.of_kernel("traced")
        assert not trace.of_kernel("other")

    def test_format(self):
        trace = InstructionTrace()
        run_traced(trace)
        text = trace.format(limit=5)
        assert len(text.splitlines()) == 5
        assert "traced" in text


def _two_regions() -> KernelFunction:
    """A fusable region every warp enters with its whole mask, and one in
    a bounds check that a partly filled warp enters with part of it."""
    k = KernelBuilder("two_regions")
    gtid = k.gtid()
    param = k.param()
    n = k.ld(param, offset=0)
    dst = k.ld(param, offset=1)
    a = k.imul(gtid, 3)
    b = k.ixor(k.iadd(a, 7), gtid)
    with k.if_(k.lt(gtid, n)):
        c = k.iadd(k.imul(b, 5), a)
        k.st(k.iadd(dst, gtid), k.ixor(c, 11))
    k.exit()
    return KernelFunction("two_regions", k.build())


class TestTraceAcrossCores:
    @pytest.mark.parametrize("block", [64, 256], ids=["2-warps", "8-warps"])
    def test_records_are_equal_on_both_cores(self, block):
        """Every issue is one record with the same (cycle, smx, kernel, pc,
        opcode, active) on both cores, for blocks of fewer and of more
        warps than an SMX issues per cycle; the last warp has 20 lanes
        inside the bounds check."""
        n = 2 * block - 12
        traces = []
        for core in ("reference", "fast"):
            config = dataclasses.replace(GPUConfig.small(), core=core)
            trace = InstructionTrace()
            dev = make_device(config=config)
            dev.attach_tracer(trace)
            dev.register(_two_regions())
            dev.launch("two_regions", grid=2, block=block, params=[n, dev.alloc(n)])
            dev.synchronize()
            assert len(trace.records) == dev.stats.issued_instructions
            traces.append(list(trace.records))
        assert traces[0] == traces[1]
        # The two ALU regions (the first is the two special-register reads).
        outer, inner = sorted(decode_program(_two_regions().program)[3])[-2:]
        entries = {(r.pc, r.active) for r in traces[1]}
        assert {(outer, 32), (inner, 32), (inner, 20)} <= entries


class TestNoTracerOverheadPath:
    def test_runs_without_tracer(self):
        # The default (tracer=None) path must work unchanged.
        func = map_kernel("plain", lambda k, v: k.iadd(v, 1))
        device = make_device()
        device.register(func)
        src = device.upload(np.arange(10))
        dst = device.alloc(10)
        device.launch("plain", grid=1, block=32, params=[10, src, dst])
        device.synchronize()
        np.testing.assert_array_equal(device.download_ints(dst, 10), np.arange(10) + 1)
