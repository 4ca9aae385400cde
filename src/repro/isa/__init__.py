"""A small SASS-like instruction set for the simulated GPU.

Kernels executed by the simulator are written in this ISA, usually through
the structured-control-flow :class:`~repro.isa.builder.KernelBuilder` DSL,
which inserts the PDOM reconvergence annotations the SIMT stack needs.

Public surface:

* :class:`~repro.isa.instructions.Opcode`, :class:`~repro.isa.instructions.Reg`,
  :class:`~repro.isa.instructions.Imm`, :class:`~repro.isa.instructions.Special`,
  :class:`~repro.isa.instructions.Instr` — the instruction encoding.
* :class:`~repro.isa.program.Program` — an assembled, label-resolved kernel body.
* :class:`~repro.isa.builder.KernelBuilder` — the recommended way to write kernels.
"""

from .instructions import Cmp, Imm, Instr, Opcode, Reg, Special
from .program import Program
from .builder import KernelBuilder
from .asmparser import parse_program
from .regions import control_flow_leaders, straight_line_regions

__all__ = [
    "Cmp",
    "Imm",
    "Instr",
    "KernelBuilder",
    "Opcode",
    "Program",
    "Reg",
    "Special",
    "control_flow_leaders",
    "parse_program",
    "straight_line_regions",
]
