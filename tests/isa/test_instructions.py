"""Instruction encoding details."""

import pytest

from repro.isa.instructions import (
    Bank,
    Cmp,
    Imm,
    Instr,
    Opcode,
    Reg,
    Special,
)
from repro.isa.semantics import SFU_OPS


class TestOperands:
    def test_reg_equality_and_hash(self):
        a = Reg(Bank.INT, 3)
        b = Reg(Bank.INT, 3)
        c = Reg(Bank.FLT, 3)
        assert a == b
        assert a != c
        assert len({a, b, c}) == 2

    def test_imm_equality(self):
        assert Imm(5) == Imm(5)
        assert Imm(5) != Imm(5.0) or Imm(5).value == 5

    def test_reprs(self):
        assert repr(Reg(Bank.INT, 7)) == "%r7"
        assert repr(Reg(Bank.FLT, 2)) == "%f2"
        assert repr(Imm(9)) == "#9"


class TestInstr:
    def test_defaults(self):
        instr = Instr(Opcode.NOP)
        assert instr.dst is None
        assert instr.pred is None
        assert instr.offset == 0

    def test_repr_mentions_operands(self):
        instr = Instr(
            Opcode.IADD, dst=Reg(Bank.INT, 0), a=Reg(Bank.INT, 1), b=Imm(2)
        )
        text = repr(instr)
        assert "iadd" in text and "%r0" in text and "#2" in text

    def test_repr_branch(self):
        instr = Instr(
            Opcode.BRA, target="loop", pred=Reg(Bank.INT, 4), pred_sense=False
        )
        text = repr(instr)
        assert "->loop" in text and "!" in text


class TestOpcodeClasses:
    def test_sfu_ops(self):
        assert SFU_OPS == {Opcode.IDIV, Opcode.IMOD, Opcode.FDIV, Opcode.FSQRT}

    def test_all_opcodes_distinct(self):
        values = [op.value for op in Opcode]
        assert len(values) == len(set(values))

    def test_specials_cover_dims(self):
        names = {s.name for s in Special}
        for stem in ("TID", "NTID", "CTAID", "NCTAID"):
            for axis in "XYZ":
                assert f"{stem}_{axis}" in names
        assert "PARAM" in names and "GTID" in names

    def test_cmp_complete(self):
        assert {c.name for c in Cmp} == {"LT", "LE", "GT", "GE", "EQ", "NE"}
