"""Tests for Program assembly and label resolution."""

import pytest

from repro import KernelBuilder
from repro.errors import AssemblyError
from repro.isa import Imm, Instr, Opcode, Program, Reg
from repro.isa.instructions import Bank


def ireg(i: int) -> Reg:
    return Reg(Bank.INT, i)


class TestLabels:
    def test_label_resolution(self):
        prog = Program("t")
        prog.label("start")
        prog.emit(Instr(Opcode.NOP))
        prog.emit(Instr(Opcode.BRA, target="start"))
        prog.finalize()
        assert prog.instructions[1].target == 0

    def test_duplicate_label_rejected(self):
        prog = Program("t")
        prog.label("a")
        with pytest.raises(AssemblyError):
            prog.label("a")

    def test_undefined_label_rejected(self):
        prog = Program("t")
        prog.emit(Instr(Opcode.BRA, target="nowhere"))
        with pytest.raises(AssemblyError):
            prog.finalize()

    def test_label_at_end_allowed(self):
        prog = Program("t")
        prog.emit(Instr(Opcode.NOP))
        prog.label("end")
        prog.emit(Instr(Opcode.BRA, target="end"))
        prog.finalize()
        assert prog.instructions[1].target == 1


class TestFinalize:
    def test_appends_exit(self):
        prog = Program("t")
        prog.emit(Instr(Opcode.NOP))
        prog.finalize()
        assert prog.instructions[-1].op == Opcode.EXIT

    def test_idempotent(self):
        prog = Program("t")
        prog.emit(Instr(Opcode.EXIT))
        prog.finalize()
        n = len(prog)
        prog.finalize()
        assert len(prog) == n

    def test_emit_after_finalize_rejected(self):
        prog = Program("t")
        prog.finalize()
        with pytest.raises(AssemblyError):
            prog.emit(Instr(Opcode.NOP))

    def test_conditional_branch_without_reconv_rejected(self):
        prog = Program("t")
        prog.label("l")
        prog.emit(Instr(Opcode.BRA, target="l", pred=ireg(0)))
        with pytest.raises(AssemblyError):
            prog.finalize()

    def test_unconditional_branch_without_reconv_ok(self):
        prog = Program("t")
        prog.label("l")
        prog.emit(Instr(Opcode.BRA, target="l"))
        prog.finalize()


class TestIntrospection:
    def test_max_register_index(self):
        prog = Program("t")
        prog.emit(Instr(Opcode.IADD, dst=ireg(5), a=ireg(1), b=Imm(3)))
        prog.emit(Instr(Opcode.FADD, dst=Reg(Bank.FLT, 2), a=Imm(1.0), b=Imm(2.0)))
        highest = prog.max_register_index()
        assert highest["int"] == 5
        assert highest["flt"] == 2

    def test_disassemble_contains_labels_and_pcs(self):
        prog = Program("mykernel")
        prog.label("top")
        prog.emit(Instr(Opcode.NOP))
        text = prog.disassemble()
        assert ".kernel mykernel" in text
        assert "top:" in text
        assert "nop" in text

    def test_disassemble_prints_the_assembly_it_executes(self):
        """Offsets, sizes, reconvergence points and launch dimensions are
        in the listing, and an instruction's repr is its text."""
        k = KernelBuilder("parent")
        n = k.ld(k.param(), offset=3)
        with k.if_(k.lt(k.tid(), n)):
            buf = k.get_param_buffer(2)
            k.launch_device("child", buf, grid=n, block=32)
        k.exit()
        prog = k.build()
        text = prog.disassemble()
        for field in ("off=3", "size=2", "reconv=", "grid=(", "block=("):
            assert field in text
        for pc, instr in enumerate(prog.instructions):
            assert repr(instr) == instr.text()
            assert f"{pc:4d}  {instr.text()}" in text
