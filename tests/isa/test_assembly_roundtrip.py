"""to_assembly() / parse_program round-trips across every opcode class."""

import numpy as np
import pytest

from repro import Device, ExecutionMode, KernelBuilder, KernelFunction
from repro.isa import Opcode, parse_program
from repro.isa.instructions import Imm

from tests.helpers import make_device


def roundtrip(program):
    text = program.to_assembly()
    reparsed = parse_program(text)
    assert reparsed.to_assembly() == text  # canonical fixpoint
    return reparsed


class TestOpClassRoundTrips:
    def test_launch_ops(self):
        k = KernelBuilder("parent")
        buf = k.get_param_buffer(2)
        k.st(buf, 1, offset=0)
        blocks = k.mov(3)
        k.launch_agg("child", buf, agg=blocks, block=32)
        k.stream_create()
        k.launch_device("child", buf, grid=(blocks, 1, 1), block=(16, 2, 1))
        prog = roundtrip(k.build())
        agg = next(i for i in prog.instructions if i.op == Opcode.LAUNCH_AGG)
        dev = next(i for i in prog.instructions if i.op == Opcode.LAUNCH_DEVICE)
        assert agg.kernel == "child"
        assert dev.block_dims[1].value == 2

    def test_shared_and_local_ops(self):
        k = KernelBuilder("mem")
        tid = k.tid()
        k.sts(tid, 5, offset=1)
        k.lds(tid, offset=1)
        k.stl(0, tid)
        k.ldl(0)
        k.bar()
        prog = roundtrip(k.build())
        ops = [i.op for i in prog.instructions]
        for expected in (Opcode.STS, Opcode.LDS, Opcode.STL, Opcode.LDL, Opcode.BAR):
            assert expected in ops

    def test_warp_primitive_ops(self):
        k = KernelBuilder("wp")
        tid = k.tid()
        k.shfl_idx(tid, 0)
        k.shfl_down(tid, 4)
        k.vote_any(tid)
        k.vote_all(tid)
        k.ballot(tid)
        roundtrip(k.build())

    def test_atomic_ops(self):
        k = KernelBuilder("at")
        addr = k.mov(100)
        k.atom_add(addr, 1)
        k.atom_min(addr, 2)
        k.atom_max(addr, 3)
        k.atom_or(addr, 4)
        k.atom_exch(addr, 5)
        k.atom_cas(addr, 0, 9)
        prog = roundtrip(k.build())
        cas = next(i for i in prog.instructions if i.op == Opcode.ATOM_CAS)
        assert cas.c is not None

    def test_float_ops(self):
        k = KernelBuilder("fl")
        a = k.fmov(1.5)
        k.fadd(a, 2.5)
        k.fsqrt(a)
        k.flt_(a, 3.0)
        k.ftoi(a)
        roundtrip(k.build())

    @pytest.mark.parametrize(
        "value", [1e16, 1e300, float("-inf"), float("inf"), float("nan")]
    )
    def test_large_and_non_finite_float_immediates(self, value):
        k = KernelBuilder("big")
        k.fadd(k.fmov(value), value)
        prog = roundtrip(k.build())
        for instr in prog.instructions[:2]:
            (imm,) = [op for op in (instr.a, instr.b) if isinstance(op, Imm)]
            assert type(imm.value) is float
            assert repr(imm.value) == repr(value)

    def test_divergent_program_executes_identically(self):
        k = KernelBuilder("div")
        gtid = k.gtid()
        param = k.param()
        out = k.ld(param, offset=0)
        acc = k.mov(0)
        with k.for_range(0, k.imod(gtid, 7)) as i:
            with k.if_(k.eq(k.imod(i, 2), 0)):
                k.iadd(acc, i, dst=acc)
        k.st(k.iadd(out, gtid), acc)
        k.exit()
        original = k.build()
        reparsed = roundtrip(original)

        def run(program):
            dev = make_device()
            dev.register(KernelFunction("div", program))
            out = dev.alloc(64)
            dev.launch("div", grid=2, block=32, params=[out])
            dev.synchronize()
            return dev.download_ints(out, 64)

        np.testing.assert_array_equal(run(original), run(reparsed))
