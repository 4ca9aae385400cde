"""Text assembler: parse the ISA's assembly syntax into a Program.

The syntax is the inverse of :meth:`Program.to_assembly` (which emits this
canonical form).  Grammar, one statement per line::

    .kernel NAME                         ; header (optional)
    label:                               ; label binding
    op [operands...] [keyword=value...]  ; instruction
    ; comment                            ; or # comment

Operands:

* ``%r3`` / ``%f2``       — int / float registers
* ``#42`` / ``#-1.5`` / ``#1e+16`` / ``#-inf`` / ``#nan`` — immediates
  (bare numbers also accepted)
* ``->label``             — branch target
* ``@%r4`` / ``@!%r4``    — predicate (with sense)
* ``reconv=label``        — reconvergence point for divergent branches
* ``off=N``               — address offset for memory ops
* ``size=N``              — parameter-buffer size (get_param_buf)
* ``kernel=name``         — launch target
* ``grid=(x,y,z)`` / ``block=(x,y,z)`` — launch dimensions (register or
  immediate components)
* special-register names (``tid_x`` ...) for ``read_special``
* comparison names (``lt le gt ge eq ne``) for ``setp`` / ``fsetp``

Example::

    .kernel scale
    read_special %r0 gtid
    read_special %r1 param
    ld %r2 %r1 off=0
    setp %r3 %r0 %r2 lt
    bra ->end @!%r3 reconv=end
    ld %r4 %r1 off=1
    iadd %r5 %r4 %r0
    ld %r6 %r5
    imul %r7 %r6 #3
    ld %r8 %r1 off=2
    iadd %r9 %r8 %r0
    st %r9 %r7
    end:
    join
    exit
"""

from __future__ import annotations

import re
from typing import List, Tuple

from ..errors import AssemblyError
from .instructions import Bank, Cmp, Imm, Instr, Opcode, Reg, Special
from .program import Program
from .semantics import DST_OPS

_OPCODES = {op.name.lower(): op for op in Opcode}
_SPECIALS = {s.name.lower(): s for s in Special}
_CMPS = {c.name.lower(): c for c in Cmp}

_REG_RE = re.compile(r"^%([rf])(\d+)$")
_IMM_RE = re.compile(r"^#?(-?(?:\d+(?:\.\d+)?(?:e[-+]?\d+)?|inf|nan))$", re.IGNORECASE)
_LABEL_DEF_RE = re.compile(r"^([A-Za-z_.$][\w.$]*):$")


def _parse_operand(token: str):
    match = _REG_RE.match(token)
    if match:
        bank = Bank.INT if match.group(1) == "r" else Bank.FLT
        return Reg(bank, int(match.group(2)))
    match = _IMM_RE.match(token)
    if match:
        text = match.group(1)
        try:
            return Imm(int(text))
        except ValueError:  # a fraction, an exponent, inf or nan
            return Imm(float(text))
    return None


def _parse_dims(text: str, line_no: int) -> Tuple:
    text = text.strip()
    if text.startswith("(") and text.endswith(")"):
        text = text[1:-1]
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if not 1 <= len(parts) <= 3:
        raise AssemblyError(f"line {line_no}: launch dims need 1-3 components")
    operands = []
    for part in parts:
        operand = _parse_operand(part)
        if operand is None:
            raise AssemblyError(f"line {line_no}: bad dimension component {part!r}")
        operands.append(operand)
    while len(operands) < 3:
        operands.append(Imm(1))
    return tuple(operands)


def parse_program(text: str) -> Program:
    """Parse assembly text into a finalized :class:`Program`.

    A text without a ``.kernel`` header names its program ``kernel``.
    """
    name = "kernel"

    pending_lines: List[Tuple[int, str]] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split(";")[0]
        # '#' also begins immediates, so a comment '#' must follow
        # whitespace (or start the line) and be followed by whitespace.
        comment = re.search(r"(?:^|\s)#\s", stripped)
        if comment:
            stripped = stripped[: comment.start()]
        stripped = stripped.strip()
        if not stripped:
            continue
        pending_lines.append((line_no, stripped))

    # Header pass.
    body: List[Tuple[int, str]] = []
    for line_no, stripped in pending_lines:
        if stripped.startswith(".kernel"):
            parts = stripped.split()
            if len(parts) != 2:
                raise AssemblyError(f"line {line_no}: malformed .kernel header")
            name = parts[1]
            continue
        body.append((line_no, stripped))
    program = Program(name)

    for line_no, stripped in body:
        label = _LABEL_DEF_RE.match(stripped)
        if label:
            try:
                program.label(label.group(1))
            except AssemblyError as exc:
                raise AssemblyError(f"line {line_no}: {exc}") from None
            continue
        _parse_instruction(program, stripped, line_no)
    return program.finalize()


def _parse_instruction(program: Program, text: str, line_no: int) -> None:
    tokens = text.split()
    mnemonic = tokens[0].lower()
    opcode = _OPCODES.get(mnemonic)
    if opcode is None:
        raise AssemblyError(f"line {line_no}: unknown opcode {mnemonic!r}")

    operands = []
    target = None
    reconv = None
    pred = None
    pred_sense = True
    special = None
    cmp = None
    kernel = None
    grid_dims = None
    block_dims = None
    offset = 0
    size = 0

    for token in tokens[1:]:
        low = token.lower()
        if token.startswith("->"):
            target = token[2:]
        elif token.startswith("@"):
            spec = token[1:]
            if spec.startswith("!"):
                pred_sense = False
                spec = spec[1:]
            reg = _parse_operand(spec)
            if not isinstance(reg, Reg) or reg.bank != Bank.INT:
                raise AssemblyError(f"line {line_no}: bad predicate {token!r}")
            pred = reg
        elif low.startswith("reconv="):
            reconv = token.split("=", 1)[1]
        elif low.startswith("off="):
            offset = int(token.split("=", 1)[1])
        elif low.startswith("size="):
            size = int(token.split("=", 1)[1])
        elif low.startswith("kernel="):
            kernel = token.split("=", 1)[1]
        elif low.startswith("grid=") or low.startswith("agg="):
            grid_dims = _parse_dims(token.split("=", 1)[1], line_no)
        elif low.startswith("block="):
            block_dims = _parse_dims(token.split("=", 1)[1], line_no)
        elif low in _SPECIALS:
            special = _SPECIALS[low]
        elif low in _CMPS:
            cmp = _CMPS[low]
        else:
            operand = _parse_operand(token)
            if operand is None:
                raise AssemblyError(f"line {line_no}: bad operand {token!r}")
            operands.append(operand)

    dst = None
    srcs = operands
    if opcode in DST_OPS:
        if not operands or not isinstance(operands[0], Reg):
            raise AssemblyError(
                f"line {line_no}: {mnemonic} needs a destination register"
            )
        dst = operands[0]
        srcs = operands[1:]

    a = srcs[0] if len(srcs) > 0 else None
    b = srcs[1] if len(srcs) > 1 else None
    c = srcs[2] if len(srcs) > 2 else None

    if opcode in (Opcode.SETP, Opcode.FSETP) and cmp is None:
        raise AssemblyError(f"line {line_no}: {mnemonic} needs a comparison")
    if opcode == Opcode.READ_SPECIAL and special is None:
        raise AssemblyError(f"line {line_no}: read_special needs a register name")
    if opcode == Opcode.BRA and target is None:
        raise AssemblyError(f"line {line_no}: bra needs a ->target")
    if opcode in (Opcode.LAUNCH_DEVICE, Opcode.LAUNCH_AGG):
        if kernel is None or grid_dims is None or block_dims is None:
            raise AssemblyError(
                f"line {line_no}: {mnemonic} needs kernel=, grid=/agg= and block="
            )
    if opcode == Opcode.SELP and c is None:
        # selp dst a b cond: condition is the third source
        raise AssemblyError(f"line {line_no}: selp needs dst, a, b, cond")

    program.emit(
        Instr(
            opcode,
            dst=dst,
            a=a,
            b=b,
            c=c,
            cmp=cmp,
            target=target,
            reconv=reconv,
            pred=pred,
            pred_sense=pred_sense,
            special=special,
            kernel=kernel,
            grid_dims=grid_dims,
            block_dims=block_dims,
            size=size,
            offset=offset,
        )
    )

