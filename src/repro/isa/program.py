"""Program container and label resolution (the "assembler")."""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from ..errors import AssemblyError
from .instructions import Instr, Opcode


class Program:
    """An ordered list of instructions plus a label table.

    A :class:`Program` is built incrementally (usually by
    :class:`~repro.isa.builder.KernelBuilder`) and must be
    :meth:`finalize`-d before execution, which resolves label names in
    branch ``target`` / ``reconv`` fields to instruction indices and runs
    basic well-formedness checks.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self.instructions: List[Instr] = []
        self.labels: Dict[str, int] = {}
        self._finalized = False
        #: Fast-core decode cache, filled lazily by
        #: :func:`repro.sim.fast_warp.decode_program` after finalize.
        self._fast_table = None

    def __len__(self) -> int:
        return len(self.instructions)

    def __getitem__(self, pc: int) -> Instr:
        return self.instructions[pc]

    @property
    def finalized(self) -> bool:
        return self._finalized

    def emit(self, instr: Instr) -> int:
        """Append an instruction; returns its pc."""
        if self._finalized:
            raise AssemblyError(f"program {self.name!r} is already finalized")
        self.instructions.append(instr)
        return len(self.instructions) - 1

    def label(self, name: str) -> None:
        """Bind ``name`` to the pc of the next emitted instruction."""
        if self._finalized:
            raise AssemblyError(f"program {self.name!r} is already finalized")
        if name in self.labels:
            raise AssemblyError(f"duplicate label {name!r} in program {self.name!r}")
        self.labels[name] = len(self.instructions)

    def resolve(self, label: str) -> int:
        try:
            return self.labels[label]
        except KeyError:
            raise AssemblyError(
                f"undefined label {label!r} in program {self.name!r}"
            ) from None

    def finalize(self) -> "Program":
        """Resolve labels and validate; idempotent once successful."""
        if self._finalized:
            return self
        if not self.instructions or self.instructions[-1].op != Opcode.EXIT:
            # Guarantee that execution always terminates at a well-defined pc.
            self.instructions.append(Instr(Opcode.EXIT))
        n = len(self.instructions)
        for name, pc in self.labels.items():
            if not 0 <= pc <= n:
                raise AssemblyError(f"label {name!r} out of range in {self.name!r}")
        for pc, instr in enumerate(self.instructions):
            if isinstance(instr.target, str):
                instr.target = self.resolve(instr.target)
            if isinstance(instr.reconv, str):
                instr.reconv = self.resolve(instr.reconv)
            if instr.op == Opcode.BRA:
                if instr.target is None:
                    raise AssemblyError(f"pc {pc}: branch without target in {self.name!r}")
                if not 0 <= int(instr.target) < n:
                    raise AssemblyError(f"pc {pc}: branch target out of range")
                if instr.pred is not None and instr.reconv is None:
                    raise AssemblyError(
                        f"pc {pc}: conditional branch without reconvergence point "
                        f"in {self.name!r}; use the KernelBuilder structured forms"
                    )
        self._finalized = True
        return self

    def definalize(self) -> "Program":
        """An unfinalized copy whose branch targets and reconvergence
        points are labels again (``L<pc>``), for a rewrite to edit and
        finalize anew; this program is left as it is."""
        needed = self._branch_pcs()
        names = {pc: f"L{pc}" for pc in needed}
        out = Program(self.name)
        for pc, instr in enumerate(self.instructions):
            if pc in names:
                out.label(names[pc])
            changes = {}
            if isinstance(instr.target, int):
                changes["target"] = names[instr.target]
            if isinstance(instr.reconv, int):
                changes["reconv"] = names[instr.reconv]
            out.emit(instr.replace(**changes))
        for pc in needed:
            if pc == len(self.instructions) and names[pc] not in out.labels:
                out.label(names[pc])
        return out

    def _branch_pcs(self) -> Set[int]:
        """The pcs that a resolved branch target or reconvergence point
        names: where a label must stand."""
        needed = set()
        for instr in self.instructions:
            if isinstance(instr.target, int):
                needed.add(instr.target)
            if isinstance(instr.reconv, int):
                needed.add(instr.reconv)
        return needed

    def disassemble(self) -> str:
        """Human-readable listing with labels, for debugging and docs."""
        by_pc: Dict[int, List[str]] = {}
        for name, pc in self.labels.items():
            by_pc.setdefault(pc, []).append(name)
        lines: List[str] = [f".kernel {self.name}"]
        for pc, instr in enumerate(self.instructions):
            for name in by_pc.get(pc, ()):
                lines.append(f"{name}:")
            lines.append(f"  {pc:4d}  {instr!r}")
        return "\n".join(lines)

    def to_assembly(self) -> str:
        """Emit canonical assembly text parseable by
        :func:`repro.isa.asmparser.parse_program`.

        Branch targets and reconvergence points get synthesized labels.
        Must be called on a finalized program (targets are pc indices).
        """
        from .instructions import Opcode, Reg

        if not self._finalized:
            raise AssemblyError("to_assembly requires a finalized program")
        labels = {pc: f"L{pc}" for pc in sorted(self._branch_pcs())}

        def operand_text(operand) -> str:
            return repr(operand).lstrip()  # %r3 / #42

        lines = [f".kernel {self.name}"]
        for pc, instr in enumerate(self.instructions):
            if pc in labels:
                lines.append(f"{labels[pc]}:")
            parts = [instr.op.name.lower()]
            for operand in (instr.dst, instr.a, instr.b, instr.c):
                if operand is not None:
                    parts.append(operand_text(operand))
            if instr.cmp is not None:
                parts.append(instr.cmp.name.lower())
            if instr.special is not None:
                parts.append(instr.special.name.lower())
            if instr.target is not None:
                parts.append(f"->{labels[int(instr.target)]}")
            if instr.pred is not None:
                sense = "" if instr.pred_sense else "!"
                parts.append(f"@{sense}{operand_text(instr.pred)}")
            if instr.reconv is not None:
                parts.append(f"reconv={labels[int(instr.reconv)]}")
            if instr.offset:
                parts.append(f"off={instr.offset}")
            if instr.size:
                parts.append(f"size={instr.size}")
            if instr.kernel is not None:
                parts.append(f"kernel={instr.kernel}")
            if instr.grid_dims is not None:
                dims = ",".join(operand_text(d) for d in instr.grid_dims)
                key = "agg" if instr.op == Opcode.LAUNCH_AGG else "grid"
                parts.append(f"{key}=({dims})")
            if instr.block_dims is not None:
                dims = ",".join(operand_text(d) for d in instr.block_dims)
                parts.append(f"block=({dims})")
            lines.append("    " + " ".join(parts))
        return "\n".join(lines) + "\n"

    def max_register_index(self) -> Dict[str, int]:
        """Highest register index used per bank (for resource accounting)."""
        from .instructions import Bank, Reg

        highest = {"int": -1, "flt": -1}

        def see(operand: Optional[object]) -> None:
            if isinstance(operand, Reg):
                key = "int" if operand.bank == Bank.INT else "flt"
                highest[key] = max(highest[key], operand.idx)

        for instr in self.instructions:
            for operand in (instr.dst, instr.a, instr.b, instr.c, instr.pred):
                see(operand)
            if instr.grid_dims:
                for operand in instr.grid_dims:
                    see(operand)
            if instr.block_dims:
                for operand in instr.block_dims:
                    see(operand)
        return highest
