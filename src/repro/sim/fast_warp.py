"""The fast execution core's warp interpreter.

:class:`FastWarp` is a drop-in :class:`~repro.sim.warp.Warp` subclass used
when ``GPUConfig.core`` is ``"fast"`` (the default).  It executes the same
instruction semantics as the reference interpreter — bit-for-bit on the
architectural state and cycle-for-cycle on the timing model — but removes
the per-step interpretation overhead:

* **Pre-decoded instruction kernels.**  Each program is decoded once into
  a table of per-instruction functions (cached on the
  :class:`~repro.isa.program.Program`).  What an opcode computes is read
  from :mod:`repro.isa.semantics` — the same rows the reference
  interpreter evaluates — and resolved at decode time: memory and
  control ops become closures, and every ALU-class op becomes *generated
  source* (one module per program, compiled once and memoised per
  process by its text) in which operand banks, register indices,
  immediates and the result latency are literals instead of per-issue
  tests.
* **Extended PDOM frames.**  Stack frames carry ``[pc, reconv_pc, mask,
  active_count, full_flag]`` so the active-lane count (needed for the
  warp-activity statistic on every issue) and the common all-32-lanes case
  are O(1) instead of a ``count_nonzero`` per step.  Mask arrays are never
  mutated in place, so the cached count is exact by construction.  A
  branch counts its predicate row's true lanes in one C call (on the
  row itself under a full mask) and builds the taken and fall-through
  masks only when it diverges.
* **Vectorized hot paths, for any mask.**  Generated ALU code has two
  straight-line bodies.  Under a full mask each destination row is
  written in place (``ufunc(a, b, out=rd)``).  Under a partial mask —
  the steady state of the irregular workloads — every value is computed
  *unmasked* into a temporary and each destination register is committed
  once, under the mask, with the bank's unsafe cast: exactly what
  ``Warp._h_alu`` does (``row.fn`` over all 32 lanes, then a masked
  write), at a third of the cost of a ``where=`` ufunc.  Global
  loads/stores generate lane addresses in one vector op and feed segment
  sets to :func:`repro.memory.coalescing.coalesce_address_list`, except
  a load whose address decode proves is one word for every lane (the
  parameter-buffer reads each child block starts with:
  :func:`uniform_registers`), which is one scalar read; atomics
  on distinct addresses gather, compute and scatter, and lanes that
  collide are serialized over plain Python ints — with no array at all
  when every active lane names one word.
* **Superblock fusion.**  Decode also discovers maximal straight-line
  regions of ALU-class instructions (no branches, barriers, memory ops,
  or reconvergence points inside — :mod:`repro.isa.regions`) and
  generates one function per region.  ``GPU._run_fast`` issues a popped
  warp through one of two entry points.  Inside the run-ahead window
  (:meth:`FastWarp.step_free_window`) a warp runs a whole region in one
  call whatever its mask, charging the exact per-instruction cycles and
  stats of unfused execution.  In a region's partial-mask body a later
  instruction reads an earlier one's temporary instead of the register,
  and a register written twice is committed once.  Everywhere else —
  a tracer, ``sanitize=True``, ``rr`` scheduling, an SMX with more
  resident warps than issue slots — :meth:`FastWarp.step` dispatches
  per instruction, through the same generator's regions of one.
* **Register rows.**  Every decoded reader and writer of a register
  goes through ``w.rows_i[k]`` / ``w.rows_f[k]``, a list of one view per
  row of ``regs_i`` / ``regs_f`` built with the warp
  (:meth:`FastWarp.bind_rows`), never ``w.regs_i[k]``, which makes a
  fresh view per operand and slows the ufunc it feeds.  The 2-D files
  stay the only storage: a row is a view, so what a reference handler,
  the sanitizer, a checkpoint or a test writes into the file in place
  is what the next closure reads.  Only a checkpoint restore replaces
  the files; it rebinds every resident warp's rows
  (``state.snapshot._rebuild_ready_heaps``).

Only an allow-list still delegates to the inherited reference handler:
the opcodes of :data:`REFERENCE_OPS` (the launch API, shuffles and
votes), and an instruction with an immediate that has no lane array (a
non-integer in an int slot or as an address, a NaN, float arithmetic on
int immediates alone).  :func:`decode_program` reports those pcs
(``fallback_pcs``), a test holds every kernel of the suite to the list,
and ``HotPathProfiler`` counts their issues.  Every memory op — global,
shared or local, from a register or an immediate address — and every
atomic is native: one builder over the :data:`MEMORY` rows.

Stat-exactness invariants worth keeping in mind when editing:

* ``coalesce_address_list`` must produce segments in ascending order —
  the same order ``np.unique`` gives the reference core — because DRAM
  bank/row state and the L2's LRU depend on access order.
* The reference serializes conflicting atomic lanes in lane order; the
  gather/scatter form therefore only handles all-distinct address sets
  and colliding lanes run one at a time, in that order.  The row's
  ``scalar`` form wraps to int64 as its lane-array form does, so the
  three paths agree on an overflowing ``ATOM_ADD``.
* A partial-mask body may compute an inactive lane from values the
  reference never saw there (an earlier temporary instead of the stale
  register); that is sound only because temporaries reach registers
  through the masked commit and nothing else reads them.
"""

from __future__ import annotations

import functools
import weakref
from collections import Counter
from itertools import repeat
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..config import (
    ALU_LATENCY, SEGMENT_WORDS, SFU_LATENCY, SHARED_BANKS, SHARED_LATENCY, WARP_SIZE,
)
from ..errors import ExecutionError
from ..isa.instructions import Bank, Opcode, Reg
from ..isa.regions import BLOCK_END_OPS, control_flow_leaders, straight_line_regions
from ..isa.semantics import (
    ALU,
    ATOMIC,
    CMP,
    FUSABLE_OPS,
    MEMORY,
    SFU_OPS,
    SPECIAL,
    UNIFORM_SPECIALS,
    identity,
    nonzero_divisor,
    wrap64,
)
from ..memory.coalescing import coalesce_address_list
from .warp import _DISPATCH, Warp, out_of_range

# The C ``count_nonzero`` behind ``np.count_nonzero``, whose Python
# wrapper (an ``axis`` / ``keepdims`` test) costs more than the count.
try:
    from numpy._core.multiarray import count_nonzero as _count_nonzero
except ImportError:  # NumPy 1
    from numpy.core.multiarray import count_nonzero as _count_nonzero

#: The C function behind ``np.copyto``, where NumPy exposes it: the
#: ``__array_function__`` dispatch in front of it is a third of a 32-lane
#: copy and no register row overrides it.
_copyto = getattr(np.copyto, "_implementation", np.copyto)

# ----------------------------------------------------------------------
# Shared warp geometry
#
# Lane geometry depends only on (block_dims, block_threads, warp_index),
# so warps of equally-shaped blocks share one set of read-only arrays
# instead of recomputing five vector ops per warp construction.  The
# cache is a small LRU: long sweeps over many block shapes (the DTBL
# workloads launch blocks sized by each DFP) must not grow it without
# bound.
# ----------------------------------------------------------------------
@functools.lru_cache(maxsize=256)
def _geometry(bx: int, by: int, threads: int, warp_index: int) -> tuple:
    linear = warp_index * WARP_SIZE + np.arange(WARP_SIZE, dtype=np.int64)
    init_mask = linear < threads
    clamped = np.minimum(linear, threads - 1)
    tid_x = clamped % bx
    tid_y = (clamped // bx) % by
    tid_z = clamped // (bx * by)
    active = int(np.count_nonzero(init_mask))
    for arr in (init_mask, clamped, tid_x, tid_y, tid_z):
        arr.setflags(write=False)
    return (init_mask, tid_x, tid_y, tid_z, clamped, active)


# ----------------------------------------------------------------------
# Operand binding
# ----------------------------------------------------------------------
def _operand(kind: str, operand):
    """Bind a store's or an atomic's source operand at decode time ->
    ``(idx, const, get)``.

    ``kind`` is the value's bank letter (``"i"`` / ``"f"``).  ``idx >= 0``
    is a row of the int register file (the common case, fetched inline by
    the closures), ``idx == -1`` means
    the value is ``const``, ``idx == -2`` means call ``get(w)``.  Mirrors
    ``Warp._val_i`` / ``Warp._val_f``: an ``i`` slot reads the int bank
    whatever the register's bank, an ``f`` slot converts an int-bank
    register.  Returns None for a non-integer immediate in an ``i`` slot
    (the reference core's unsafe cast then defines the semantics;
    delegate to it).
    """
    if type(operand) is Reg:
        idx = operand.idx
        if kind == "i":
            return idx, None, None
        if operand.bank == Bank.FLT:
            return -2, None, lambda w: w.rows_f[idx]
        return -2, None, lambda w: w.rows_i[idx].astype(np.float64)
    value = operand.value
    if kind == "i":
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            return None
        value = int(value)
    return -1, value, None


# ----------------------------------------------------------------------
# Shared timing helper for global-memory instructions
# ----------------------------------------------------------------------
def _global_timing(w, alist: list, is_write: bool, cycle: int, lo: int, hi: int) -> None:
    # Small-range fast path: when the warp's addresses span fewer than
    # SEGMENT_WORDS words they touch at most two adjacent segments, and
    # both endpoints are real addresses, so the segment list is exactly
    # [lo//S] or [lo//S, hi//S] — no set comprehension needed.
    if 0 <= hi - lo < SEGMENT_WORDS:
        s0 = lo // SEGMENT_WORDS
        s1 = hi // SEGMENT_WORDS
        segments = [s0] if s0 == s1 else [s0, s1]
    else:
        segments = coalesce_address_list(alist)
    cstats = w._cstats
    cstats.warp_accesses += 1
    cstats.transactions += len(segments)
    cstats.lanes += len(alist)
    n = len(segments)
    histogram = cstats.histogram
    histogram[n] = histogram.item(n) + 1  # half the cost of ``+= 1``
    completion = w._mem_access(segments, is_write, cycle)
    if is_write:
        w.ready_cycle = cycle + ALU_LATENCY
    else:
        w.ready_cycle = completion


def _address_form(instr):
    """Bind a memory op's address operand at decode time -> ``lanes(w,
    frame)``, or None for an immediate address or a register base's
    offset that is no int64.

    A register base's offset is added as a read-only lane array, as an
    ALU immediate is: a Python-int operand costs NumPy a conversion on
    every add.  ``lanes`` returns ``(addrs, alist, lo, hi)`` for the
    active lanes, not yet checked against any bound: the address ndarray
    (for the gather or scatter itself), its Python-int list, and the
    address range — one ``tolist()`` plus two C-level ``min``/``max``
    calls beat two numpy reductions on 32-element arrays, and the bounds
    feed :func:`_global_timing`'s small-range segment fast path.
    ``(0, -1)`` is the range of an empty lane set: inside every bound.
    An immediate base is one address for all the active lanes — as many
    copies of it, so that a gather broadcasts and a scatter keeps the
    last lane's value, as ``Warp._h_memory``'s ``np.full`` does.
    """
    off = instr.offset
    if type(instr.a) is Reg:
        base_idx = instr.a.idx
        offs = _immediate("i", off, False)
        if offs is None:
            return None

        def lanes(w, frame):
            addrs = w.rows_i[base_idx]
            if not frame[4]:
                addrs = addrs[frame[2]]
                if off:
                    addrs = addrs + offs[: frame[3]]
            elif off:
                addrs = addrs + offs
            alist = addrs.tolist()
            if alist:
                return addrs, alist, min(alist), max(alist)
            return addrs, alist, 0, -1

        return lanes
    addr = instr.a.value + off
    every = _immediate("i", addr, False)
    if every is None:
        return None

    def lanes_of_one(w, frame):
        n = frame[3]
        if n:
            return every[:n], [addr] * n, addr, addr
        return every[:0], [], 0, -1

    return lanes_of_one


# ----------------------------------------------------------------------
# Warp-uniform registers
#
# Every child block CDP or DTBL launches starts by loading its arguments
# from the parameter buffer, through a register that holds the buffer's
# base in every lane: all the active lanes read one word.  The decoder
# proves which int registers hold one value across a warp's lanes and
# binds a global load through one of them to a scalar closure
# (:func:`_uniform_load`).
# ----------------------------------------------------------------------
#: Int-result ALU rows over int operands, lane by lane: operands that are
#: one value in every lane give a result that is one value too.
_UNIFORM_ALU = frozenset(
    op for op, row in ALU.items() if row.dst == Bank.INT and set(row.src) <= {"c", "i"}
)


def uniform_registers(instructions) -> frozenset:
    """The int registers that hold one value in every lane a warp ever
    runs: the rows a global load may read from lane 0 alone.

    A register qualifies when its index is the ``dst`` of exactly one
    instruction of the program (counted over both banks, which only
    errs towards fewer registers), and that instruction sits in the
    entry block — before the first branch, join, barrier, exit
    (:data:`~repro.isa.regions.BLOCK_END_OPS`), reference op or leader
    other than pc 0
    (:func:`~repro.isa.regions.control_flow_leaders`: a branch target or
    reconvergence pc), so it runs under the warp's initial mask — and
    either reads a block-uniform special (:data:`UNIFORM_SPECIALS`) or
    applies an int ALU row to immediates and registers already found
    uniform.  A branch back to pc 0 would rerun the entry block under a
    narrower mask, and every instruction found there would write its
    register's one value again.

    Why lane 0 is safe: a register row starts at zero in every lane, its
    one write puts one value in every lane of the initial mask, and
    nothing writes it again.  Every later mask is a subset of the
    initial one, and lane 0 is in every warp's initial mask (a block has
    warp ``k`` only when it has thread ``32 * k``).
    """
    defs = Counter(instr.dst.idx for instr in instructions if instr.dst is not None)
    leaders = control_flow_leaders(instructions) - {0}
    uniform: set = set()
    for pc, instr in enumerate(instructions):
        op = instr.op
        if op in BLOCK_END_OPS or op in REFERENCE_OPS or pc in leaders:
            break
        dst = instr.dst
        if dst is None or defs[dst.idx] != 1:
            continue
        if op is Opcode.READ_SPECIAL:
            if instr.special in UNIFORM_SPECIALS:
                uniform.add(dst.idx)
        elif op in _UNIFORM_ALU and all(
            type(operand) is not Reg or operand.idx in uniform
            for operand in (instr.a, instr.b, instr.c)
        ):
            uniform.add(dst.idx)
    return frozenset(uniform)


def _uniform_load(instr, uniform: frozenset, generic):
    """A global load whose address is one word for every active lane — a
    :func:`uniform_registers` row plus the offset, or an immediate — as
    one scalar read; None for any other address form.

    The closure does what ``generic`` (the lane closure of the same
    instruction) does for that address set, and charges what
    :func:`_global_timing` charges: one access, one transaction, one
    segment probed through the L2 and DRAM.  A frame with no active lane
    goes to ``generic``.
    """
    off = instr.offset
    base = instr.a
    if type(base) is Reg:
        if base.idx not in uniform:
            return None
        base_idx, fixed = base.idx, 0
    else:
        # ``generic`` exists, so the address is an int64 (_address_form).
        base_idx, fixed = -1, int(base.value) + off
    is_float = MEMORY[instr.op].bank == Bank.FLT
    d = instr.dst.idx

    def run_uniform(w, frame, cycle):
        n = frame[3]
        if not n:
            return generic(w, frame, cycle)
        addr = fixed if base_idx < 0 else w.rows_i[base_idx].item(0) + off
        limit = w._mem_size
        if addr < 0 or addr >= limit:
            addr = wrap64(addr)  # the lane array's ``+ off`` wraps
            raise out_of_range(w, "global", addr, addr, limit)
        if is_float:
            reg, value = w.rows_f[d], w._mem_f[addr]
        else:
            reg, value = w.rows_i[d], w._mem_i[addr]
        if frame[4]:
            reg.fill(value)
        else:
            _copyto(reg, value, where=frame[2])
        cstats = w._cstats
        cstats.warp_accesses += 1
        cstats.transactions += 1
        cstats.lanes += n
        histogram = cstats.histogram
        histogram[1] = histogram.item(1) + 1  # half the cost of ``+= 1``
        w.ready_cycle = w._mem_access([addr // SEGMENT_WORDS], False, cycle)
        return False

    return run_uniform


# ----------------------------------------------------------------------
# Generated ALU code
#
# Every FUSABLE_OPS instruction executes as Python source assembled from
# its semantics row by :func:`_alu_factory`: ``run(w, frame, cycle)`` for
# one instruction (the decode table's closure shape) and ``run(w, mask,
# full)`` for a whole fused region.  The source is that of a *factory*
# whose parameters are the register indices and the immediates, so its
# text depends only on the opcodes and on which operand feeds which —
# the same few hundred shapes recur across kernels, modes and jobs.
# Every job rebuilds its programs, so factories are memoised per process
# by their source text (:func:`_factory`, an LRU like ``_geometry``'s).
# ----------------------------------------------------------------------
_I64 = range(-(1 << 63), 1 << 63)

#: Immediates as read-only lane arrays (int64 for an int, float64 for a
#: float), shared by every generated function bound to the same value
#: and alive as long as one of them is.
_LANES: "weakref.WeakValueDictionary[str, np.ndarray]" = weakref.WeakValueDictionary()


def _immediate(kind: str, value, guard: bool) -> Optional[np.ndarray]:
    """The lane array of an immediate in an ``i`` / ``f`` slot
    (``nonzero_divisor`` already applied to a constant divisor), or None
    to delegate: a non-integer immediate in an ``i`` slot gets its
    semantics from the reference core's unsafe cast, one NumPy cannot
    hold in a lane array must raise there, at issue, and a NaN is only
    bit-exact as the scalar the reference core passes."""
    if kind == "i":
        if (
            isinstance(value, bool)
            or not isinstance(value, (int, np.integer))
            or int(value) not in _I64
        ):
            return None
        value = int(value)
    else:
        try:
            value = float(value)
        except (TypeError, ValueError, OverflowError):
            return None
        if value != value:
            # Which payload survives NaN + NaN depends on whether NumPy
            # is handed a scalar or an array.
            return None
    if guard:
        value = nonzero_divisor(value).item()
    key = repr(value)  # keeps -0.0 apart from 0.0, and 1 from 1.0
    lanes = _LANES.get(key)
    if lanes is None:
        lanes = np.full(WARP_SIZE, value, dtype=np.int64 if kind == "i" else np.float64)
        lanes.setflags(write=False)
        _LANES[key] = lanes
    return lanes


#: What generated source may name: each semantics row's callable by
#: opcode, comparison or special register, and the write-back's few
#: NumPy entry points (``Di`` / ``Df``: the two banks' dtypes).
_GEN_GLOBALS = {
    "copyto": _copyto,
    "asarray": np.asarray, "Di": np.int64, "Df": np.float64, "nz": nonzero_divisor,
    **{f"f_{op.name}": row.ufunc or row.fn for op, row in ALU.items()},
    **{f"c_{cmp.name}": fn for cmp, fn in CMP.items()},
    **{f"s_{special.name}": fn for special, fn in SPECIAL.items()},
}

def _alu_factory(instrs, single: bool) -> Optional[Tuple[str, list]]:
    """Source of ``make(x0, ...)``, the factory of the function running
    ``instrs`` in order, and the arguments that bind it to them — or None
    when an operand has no native form (only ever a region of one).

    Two straight-line bodies.  Under a full mask each instruction writes
    its destination row in place — a bare ufunc through ``out=``,
    anything else (a comparison into an int64 ``out=`` would take NumPy's
    buffered casting path) through a temporary and ``copyto``.  Under a
    partial mask every value is computed unmasked into a temporary
    ``t<n>`` — ``Warp._h_alu`` evaluates ``row.fn`` over all 32 lanes too
    — and each destination register is committed once, at the end, under
    the mask.  A later read of a register written earlier in the region
    reads its temporary, first made the bank-typed value the register
    would hold (``cast``): a comparison's bools, ``ITOF``'s ints and a
    block-uniform special's Python int are otherwise cast only by the
    commit.
    """
    mask, full = ("frame[2]", "frame[4]") if single else ("mask", "full")
    values: list = []  # the factory's arguments, x0...
    rows: Dict[Tuple[str, int], str] = {}  # register -> its row's source
    whole: List[str] = []
    part: List[str] = []
    temps: Dict[Tuple[str, int], list] = {}  # register -> [temporary, cast]
    aliases: Dict[int, str] = {}  # line of ``part`` -> the row its temporary *is*

    def row(bank: str, idx: int) -> str:
        source = rows.get((bank, idx))
        if source is None:
            source = rows[bank, idx] = f"r{bank}[x{len(values)}]"
            values.append(idx)
        return source

    def read(kind: str, operand, guard: bool):
        """One operand's source in each body, as ``Warp._val_i`` /
        ``_val_f`` fetch it: an ``i`` slot reads the int bank whatever
        the register's bank, an ``f`` slot converts an int-bank register."""
        if type(operand) is not Reg:
            lanes = _immediate(kind, operand.value, guard)
            if lanes is None:
                return None
            values.append(lanes)
            return (f"x{len(values) - 1}",) * 2
        bank = "f" if kind == "f" and operand.bank == Bank.FLT else "i"
        reg = tmp = row(bank, operand.idx)
        held = temps.get((bank, operand.idx))
        if held is not None:
            tmp, cast = held
            if cast:
                part.append(f"{tmp} = {cast.format(tmp)}")
                held[1] = None
        form = "{}.astype(Df)" if kind != bank else "{}"
        if guard:
            form = f"nz({form})"
        return form.format(reg), form.format(tmp)

    for n, instr in enumerate(instrs):
        if instr.op is Opcode.READ_SPECIAL:
            bank, fn, in_place = "i", f"s_{instr.special.name}", False
            reads, cast = [("w", "w")], "asarray({}, Di)"
        else:
            op = ALU[instr.op]
            bank = "f" if op.dst == Bank.FLT else "i"
            fn, kinds, cast = f"f_{instr.op.name}", op.src, None
            in_place = op.ufunc is not None
            if kinds[0] == "c":
                # A comparison row only applies the selected comparison.
                fn, kinds, cast = f"c_{instr.cmp.name}", kinds[1:], "{}.astype(Di)"
            elif op.fn is identity:
                fn = ""  # the operand itself: the write's cast is the op
                if kinds != bank:
                    cast = f"{{}}.astype(D{bank})"
            operands = (instr.a, instr.b, instr.c)[: len(kinds)]
            if fn and not any(
                type(operand) is Reg or kind == "i" or isinstance(operand.value, float)
                for kind, operand in zip(kinds, operands)
            ):
                # Float arithmetic on int immediates alone is NumPy's on
                # Python ints, not on float lanes (``fneg #0`` is the int
                # 0, so +0.0): leave that constant expression to the
                # reference.
                return None
            reads = [
                read(kind, operand, op.guard and slot == 1)
                for slot, (kind, operand) in enumerate(zip(kinds, operands))
            ]
            if None in reads:
                return None
        args, targs = (", ".join(column) for column in zip(*reads))
        dst = row(bank, instr.dst.idx)
        if in_place:
            whole.append(f"{fn}({args}, out={dst})")
        else:
            whole.append(f"copyto({dst}, {fn}({args}), casting='unsafe')")
        if not fn and targs in rows.values():
            aliases[len(part)] = targs
        part.append(f"t{n} = {fn}({targs})")
        temps[bank, instr.dst.idx] = [f"t{n}", cast]
    # A move's temporary is its source row, not a copy of it: make it one
    # when that row is committed here too, or the commits could not be
    # ordered (two moves can swap a pair of registers).
    committed = {rows[reg] for reg in temps}
    for line, source in aliases.items():
        if source in committed:
            part[line] += ".copy()"
    part += [
        f"copyto({rows[reg]}, {tmp}, where={mask}, casting='unsafe')"
        for reg, (tmp, _) in temps.items()
    ]
    lines = [
        f"def make({', '.join(f'x{k}' for k in range(len(values)))}):",
        f" def run({'w, frame, cycle' if single else 'w, mask, full'}):",
    ]
    lines += [
        f"  r{bank} = w.rows_{bank}" for bank in "if" if any(b == bank for b, _ in rows)
    ]
    lines.append(f"  if {full}:")
    lines += ["   " + line for line in whole]
    lines.append("  else:")
    lines += ["   " + line for line in part]
    if single:
        latency = SFU_LATENCY if instrs[0].op in SFU_OPS else ALU_LATENCY
        lines += [f"  w.ready_cycle = cycle + {latency}", "  return False"]
    lines.append(" return run")
    return "\n".join(lines), values


@functools.lru_cache(maxsize=256)
def _factory(source: str):
    """The ``make`` that one :func:`_alu_factory` source defines."""
    namespace: dict = {}
    code = compile(source, "<repro.sim.fast_warp generated>", "exec")
    exec(code, _GEN_GLOBALS, namespace)
    return namespace["make"]


# ----------------------------------------------------------------------
# Instruction-kernel builders.  Each returns a closure run(w, frame,
# cycle) -> bool (True iff the pc was updated), or None to delegate to
# the reference handler.
# ----------------------------------------------------------------------
def _make_memory(instr, uniform: frozenset = frozenset()):
    """Any :data:`MEMORY` row with either address form: what
    ``Warp._h_memory`` does, with the row resolved at decode time.  A
    global load from one word for all the lanes (a register of
    ``uniform``, see :func:`uniform_registers`, or an immediate) is the
    scalar closure of :func:`_uniform_load`."""
    row = MEMORY[instr.op]
    lanes = _address_form(instr)
    if lanes is None:
        return None
    space, is_store = row.space, row.store
    shared, local = space == "shared", space == "local"
    raises_bound = is_store and space == "global"  # GlobalMemory.written_end
    is_float = row.bank == Bank.FLT
    if is_store:
        src_operand = _operand("f" if is_float else "i", instr.b)
        if src_operand is None:
            return None
        si, sv, gs = src_operand
    else:
        d = instr.dst.idx

    def run(w, frame, cycle):
        addrs, alist, lo, hi = lanes(w, frame)
        if shared:
            words = w.tb.shared
            limit = words.size
        else:
            words = w._mem_f if is_float else w._mem_i
            limit = w.tb.func.local_words if local else w._mem_size
        if lo < 0 or hi >= limit:
            raise out_of_range(w, space, lo, hi, limit)
        if local:
            addrs = w._local_physical(addrs, frame[2], hi, is_store)
        elif raises_bound and hi >= w._mem.written_end:
            w._mem.written_end = hi + 1
        if is_store:
            src = w.rows_i[si] if si >= 0 else sv if si == -1 else gs(w)
            if isinstance(src, np.ndarray):
                words[addrs] = src if frame[4] else src[frame[2]]
            else:
                words[addrs] = src
        else:
            reg = (w.rows_f if is_float else w.rows_i)[d]
            if frame[4]:
                reg[:] = words[addrs]
            else:
                reg[frame[2]] = words[addrs]
        if shared:
            # Addresses less than a bank count apart are on distinct banks.
            degree = 1 if hi - lo < SHARED_BANKS else w._shared_conflict_degree(addrs)
            w.ready_cycle = cycle + SHARED_LATENCY * degree
        elif local:
            w._memory_timing(addrs, is_store, cycle, w.tb.smx.l1)
        else:
            _global_timing(w, alist, is_store, cycle, lo, hi)
        return False

    if space == "global" and not is_store:
        return _uniform_load(instr, uniform, run) or run
    return run


def _make_atomic(instr):
    lanes = _address_form(instr)
    if lanes is None:
        return None
    combine, scalar = ATOMIC[instr.op]
    d = instr.dst.idx if instr.dst is not None else -1
    # b is the operand (the compare value for ATOM_CAS), c its new value.
    b = _operand("i", instr.b)
    c = _operand("i", instr.c) if instr.c is not None else (-1, None, None)
    if b is None or c is None:
        return None
    bi, bv = b[:2]
    ci, cv = c[:2]

    def run(w, frame, cycle):
        full = frame[4]
        mask = frame[2]
        addrs, alist, lo, hi = lanes(w, frame)
        if lo < 0 or hi >= w._mem_size:
            # Cold path: report the first offending address in lane
            # order, exactly as the reference core does.
            for a in alist:
                if a < 0 or a >= w._mem_size:
                    raise ExecutionError(
                        f"kernel {w.tb.func.name!r}: atomic out of range at {a}"
                    )
        if hi >= w._mem.written_end:
            w._mem.written_end = hi + 1
        mem = w._mem_i
        ri = w.rows_i
        vals = (ri[bi] if full else ri[bi][mask]) if bi >= 0 else bv
        new = (ri[ci] if full else ri[ci][mask]) if ci >= 0 else cv
        if lo == hi:
            # Every active lane on one word (one lane, or a warp appending
            # to a worklist): fold the lanes in lane order, over Python ints.
            value = mem.item(lo)
            old = []
            for operand, swap in zip(
                vals.tolist() if bi >= 0 else repeat(bv, len(alist)),
                new.tolist() if ci >= 0 else repeat(cv),
            ):
                old.append(value)
                value = scalar(value, operand, swap)
            mem[lo] = value
        elif len(distinct := set(alist)) == len(alist):
            old = mem[addrs]
            mem[addrs] = combine(old, vals, new)
        else:
            # Lanes collide on an address: serialize the active lanes in
            # lane order, as the reference core (and hardware) does, over
            # one gather of the distinct addresses and one scatter.
            distinct = list(distinct)
            current = dict(zip(distinct, mem[distinct].tolist()))
            old = []
            for addr, operand, swap in zip(
                alist,
                vals.tolist() if bi >= 0 else repeat(bv),
                new.tolist() if ci >= 0 else repeat(cv),
            ):
                value = current[addr]
                old.append(value)
                current[addr] = scalar(value, operand, swap)
            mem[distinct] = list(current.values())
        # The destination is written last: it may alias an operand.
        if d >= 0:
            if full:
                ri[d][:] = old
            else:
                ri[d][mask] = old
        _global_timing(w, alist, False, cycle, lo, hi)
        return False

    return run


def _make_bra(instr):
    target = instr.target
    if instr.pred is None:

        def run_uncond(w, frame, cycle):
            w.ready_cycle = cycle + ALU_LATENCY
            frame[0] = target
            return True

        return run_uncond

    p = instr.pred.idx
    sense = instr.pred_sense
    rpc = instr.reconv

    def run(w, frame, cycle):
        w.ready_cycle = cycle + ALU_LATENCY
        row = w.rows_i[p]
        mask = frame[2]
        n_active = frame[3]
        # Count the predicate's true lanes on the row itself: a uniform
        # branch, the common case, builds no lane array.
        n_taken = int(_count_nonzero(row if frame[4] else row[mask]))
        if not sense:
            n_taken = n_active - n_taken
        if n_taken == 0:
            w._stats.branches_uniform += 1
            frame[0] += 1
            return True
        if n_taken == n_active:
            w._stats.branches_uniform += 1
            frame[0] = target
            return True
        w._stats.branches_diverged += 1
        predv = row != 0
        if not sense:
            predv = ~predv
        taken = mask & predv
        fall = mask & ~predv
        pc = frame[0]
        frame[0] = rpc
        stack = w.stack
        # Divergent paths are strict subsets of a <=32-lane mask, so the
        # full flag is always False on pushed frames.
        stack.append([pc + 1, rpc, fall, n_active - n_taken, False])
        stack.append([target, rpc, taken, n_taken, False])
        return True

    return run


def _make_join(instr):
    def run(w, frame, cycle):
        w.ready_cycle = cycle + 1
        return False

    return run


def _make_bar(instr):
    def run(w, frame, cycle):
        frame[0] += 1
        w.at_barrier = True
        w.tb.arrive_barrier(w, cycle)
        return True

    return run


def _make_exit(instr):
    def run(w, frame, cycle):
        w.finished = True
        w.tb.warp_finished(w, cycle)
        return True

    return run


#: Closure builders of the ops that are not generated (``FUSABLE_OPS``
#: are: see :func:`_alu_factory`).
_BUILDERS = {
    **dict.fromkeys(ATOMIC, _make_atomic),
    **dict.fromkeys(MEMORY, _make_memory),
    Opcode.BRA: _make_bra,
    Opcode.JOIN: _make_join,
    Opcode.NOP: _make_join,
    Opcode.BAR: _make_bar,
    Opcode.EXIT: _make_exit,
}


def _make_ref(instr, handler):
    """Fallback: adapt a reference ``Warp`` handler to the decoded form."""

    def run(w, frame, cycle):
        return handler(w, instr, frame, frame[2], cycle)

    return run


# ----------------------------------------------------------------------
# Superblock fusion
#
# What may live inside a fused region is :data:`FUSABLE_OPS`.  Loads,
# stores and atomics are excluded even when natively decoded: their
# latency depends on DRAM/L2 state, and coalescing stats must accrue at
# the exact per-instruction issue order the scheduler would produce.
# ----------------------------------------------------------------------

#: Opcodes a warp may execute past other warps' ready cycles (see
#: :meth:`FastWarp.step_free_window`): their native closures touch only
#: warp-private state — registers, the divergence stack, ``ready_cycle``
#: — and additive stats counters, never the memory system, the event
#: queue, warp-lifecycle bookkeeping or ``gpu.cycle``.  A reference
#: fallback never qualifies (the decode's per-pc class also requires a
#: native closure).
_PRIVATE_OPS = FUSABLE_OPS | {Opcode.BRA, Opcode.JOIN, Opcode.NOP}

#: Opcodes whose native closures read or write what other warps see, and
#: nothing else (decode class 2: see :func:`decode_program`).
_MEMORY_OPS = frozenset(MEMORY) | frozenset(ATOMIC)

#: The allow-list: opcodes with no native form.  Every issue of one runs
#: the inherited reference handler (through :func:`_make_ref`) and ends
#: a window.  All are rare in the benchmarks, and the launch API's cost
#: is the device runtime's, not the handler's.
REFERENCE_OPS = frozenset({
    Opcode.SHFL_IDX, Opcode.SHFL_DOWN,
    Opcode.VOTE_ANY, Opcode.VOTE_ALL, Opcode.VOTE_BALLOT,
    Opcode.STREAM_CREATE, Opcode.GET_PARAM_BUF, Opcode.LAUNCH_DEVICE, Opcode.LAUNCH_AGG,
})


class FusedRegion:
    """One decoded straight-line ALU region, executable in a single call.

    ``fn(w, mask, full)`` is the region's generated function: it leaves
    the registers as the region's instructions would, one by one, and
    touches nothing else (the window charges issues, lanes and
    ``ready_cycle``).  ``cycles`` is the region's duration: ``ALU_LATENCY``
    per instruction, ``SFU_LATENCY`` per SFU-class one.

    ``executions`` counts the times the region ran fused, in this
    process, on whatever GPU: a diagnostic that is not part of any
    simulation's state (``SimStats``, fingerprints and snapshots never
    see it).
    """

    __slots__ = ("start", "length", "ops", "fn", "cycles", "executions")

    def __init__(self, start: int, ops: tuple, fn) -> None:
        self.start = start
        self.length = len(ops)
        self.ops = ops
        self.fn = fn
        n_sfu = sum(op in SFU_OPS for op in ops)
        self.cycles = (self.length - n_sfu) * ALU_LATENCY + n_sfu * SFU_LATENCY
        self.executions = 0


def decode_program(program) -> tuple:
    """Decode a finalized program into (table, n_int, n_flt, regions,
    fallback_pcs).

    The table holds one ``(closure, opcode, klass, region)`` row per
    pc.  ``klass`` drives budget-safe run-ahead: 1 = warp-private
    (native closure, opcode in :data:`_PRIVATE_OPS`), 2 = native memory
    op (a :data:`MEMORY` row or an atomic: state other warps see — DRAM,
    L2 and L1, the block's shared words — so run-ahead may only inline
    it in global time order, under the scheduler heap's bound, while
    every other memory client is bounded below by that heap, the next
    event or the horizon; it schedules no event and wakes no warp), 0 =
    everything else (barriers, exits, launches, reference fallbacks —
    run-ahead always stops before these).  ``region`` is the
    :class:`FusedRegion` starting at this pc, or ``None`` — carried in
    the row so the hot window loops pay one table fetch instead of a
    separate dict probe per instruction.  ``regions`` maps each start pc
    to its region (``None`` when the program has no fusable region).
    ``fallback_pcs`` is the set of pcs that delegate to the reference
    handler: an opcode of :data:`REFERENCE_OPS`, or an operand with no
    native form.  The result is cached on the program, so all warps of
    all launches share one decode.

    How often a region ran fused is ``regions[start].executions``: only
    run-ahead fuses, and a tracer switches it off, so a traced run
    executes every instruction singly.
    """
    cached = getattr(program, "_fast_table", None)
    if cached is not None:
        return cached
    instructions = program.instructions
    shapes: List[Tuple[str, list]] = []  # of the generated functions
    # Per pc: a closure, the index in ``shapes`` of a generated function,
    # or None — no native form, so the reference handler keeps its
    # semantics (and its own error behaviour) and the pc stays a visible
    # single step.
    runs: list = []
    uniform = uniform_registers(instructions)
    for instr in instructions:
        if instr.op in FUSABLE_OPS:
            shape = _alu_factory([instr], single=True)
            run = None
            if shape is not None:
                run = len(shapes)
                shapes.append(shape)
        elif instr.op in REFERENCE_OPS:
            run = None
        elif instr.op in MEMORY:
            run = _make_memory(instr, uniform)
        else:
            run = _BUILDERS[instr.op](instr)
        runs.append(run)

    def fusable(pc, instr):
        return instr.op in FUSABLE_OPS and runs[pc] is not None

    spans = straight_line_regions(instructions, fusable)
    first_region = len(shapes)
    shapes += [
        _alu_factory(instructions[start : start + length], single=False)
        for start, length in spans
    ]
    functions = [_factory(source)(*values) for source, values in shapes]

    table: List[tuple] = []
    for instr, run in zip(instructions, runs):
        op = instr.op
        if run is None:
            table.append((_make_ref(instr, _DISPATCH[op]), op, 0, None))
            continue
        if type(run) is int:
            run = functions[run]
        klass = 1 if op in _PRIVATE_OPS else 2 if op in _MEMORY_OPS else 0
        table.append((run, op, klass, None))
    fallback_pcs = frozenset(pc for pc, run in enumerate(runs) if run is None)
    regions = None
    if spans:
        regions = {}
        for (start, length), fn in zip(spans, functions[first_region:]):
            ops = tuple(instr.op for instr in instructions[start : start + length])
            region = regions[start] = FusedRegion(start, ops, fn)
            table[start] = table[start][:3] + (region,)
    highest = program.max_register_index()
    cached = (table, highest["int"] + 1, highest["flt"] + 1, regions, fallback_pcs)
    program._fast_table = cached
    return cached


class FastWarp(Warp):
    """Warp with pre-decoded instruction kernels and extended frames."""

    __slots__ = (
        "_table", "fallback_pcs", "_cstats", "_mem_access",
        "rows_i", "rows_f",
    )
    # The decoded program, more hot-path references and the register rows
    # (views of ``regs_i`` / ``regs_f``, which a checkpoint holds).
    NOT_STATE = Warp.NOT_STATE + __slots__

    def __init__(self, tb, warp_index: int, context_slot: int) -> None:
        self._bind(tb, warp_index, context_slot)
        gpu = tb.gpu
        # Hot-path attribute caches: one getattr instead of a chain per
        # global-memory instruction (see _global_timing).
        self._cstats = gpu.stats.coalescing
        self._mem_access = gpu.memsys.warp_access_list

        table, n_int, n_flt, _, fallback_pcs = decode_program(tb.func.program)
        self._table = table
        #: The pcs this warp executes on the reference core's handlers.
        self.fallback_pcs = fallback_pcs
        self.regs_i = np.zeros((n_int, WARP_SIZE), dtype=np.int64)
        self.regs_f = np.zeros((n_flt, WARP_SIZE), dtype=np.float64)
        self.bind_rows()

        bx, by, _bz = tb.block_dims
        threads = tb.block_threads
        init_mask, tid_x, tid_y, tid_z, clamped, active = _geometry(
            bx, by, threads, warp_index
        )
        self.init_mask = init_mask
        self.tid_x = tid_x
        self.tid_y = tid_y
        self.tid_z = tid_z
        self.gtid = tb.block_linear_index * threads + clamped

        self.stack = [[0, -1, init_mask, active, active == WARP_SIZE]]

    def bind_rows(self) -> None:
        """Point ``rows_i`` / ``rows_f`` at the rows of ``regs_i`` /
        ``regs_f``: one view per register, built once, where indexing
        the 2-D file would build one per operand fetch.  Called again
        whenever the files themselves are replaced (a checkpoint restore)."""
        self.rows_i = list(self.regs_i)
        self.rows_f = list(self.regs_f)

    def step(self, cycle: int) -> None:
        """Execute one decoded instruction for the active frame's lanes."""
        stack = self.stack
        frame = stack[-1]
        while len(stack) > 1 and frame[1] >= 0 and frame[0] == frame[1]:
            stack.pop()
            frame = stack[-1]
        pc = frame[0]
        try:
            run, op, _, _ = self._table[pc]
        except IndexError:
            raise ExecutionError(
                f"warp ran off the end of kernel {self.tb.func.name!r} at pc={pc}"
            ) from None
        stats = self._stats
        stats.issued_instructions += 1
        stats.active_lane_sum += frame[3]
        tracer = self._gpu.tracer
        if tracer is not None:
            tracer.on_issue(self, pc, op, frame[3], cycle)
        if self._san is not None:
            self._san.observe(self, pc, self._instrs[pc], frame[2], cycle)
        if not run(self, frame, cycle):
            frame[0] = pc + 1

    def step_free_window(self, cycle: int, horizon: int, events: list, heap: list) -> None:
        """Budget-safe run-ahead: execute register-private ops at their
        exact future issue cycles, past other warps' ready times.

        Preconditions, checked by the caller (``GPU._run_fast``):

        * ``resident_warps <= ISSUE_WIDTH`` on this SMX — resident warps
          (including barrier-held ones) bound the number of same-cycle
          issuers, so the issue budget can never bind and every warp
          issues exactly at its own ready cycle, independent of all
          others;
        * GTO scheduling — warp ages are never rewritten, so running
          this warp's ops out of global issue order cannot perturb the
          heap's tie-breaking;
        * no tracer and no sanitizer — both observe the global
          interleaving, which run-ahead reorders (per-instruction cycles
          stay exact, only callback order changes).

        Every pipeline latency of :mod:`repro.config` is a cycle or more,
        so every op after the first advances time and at most one issue
        per cycle bypasses the caller's per-pop budget counting.

        Under those conditions an op whose decoded closure touches only
        this warp's registers, divergence stack and additive stats
        counters (the decode marks such pcs ``private``) commutes with
        every other warp's execution, so it runs as soon as its issue
        cycle is known, bounded only by the next GPU event and
        ``horizon`` (events can add blocks, breaking the preconditions).
        The first op — popped due by the caller — always executes.
        Native memory ops (decode klass 2: global, shared, local, atomic)
        run mid-window as long as their issue cycle is strictly below
        ``min(hard, heap[0][0])``: every other memory client is bounded
        below by the heap head, the next event or the horizon, so that
        keeps every access in global time order, which the DRAM
        controller's arrival bookkeeping, cache LRU state and the other
        warps of the block reading its shared words require.  The window
        stops *before* any other shared-state op (barrier, exit, device
        launches, reference fallbacks), leaving ``ready_cycle`` at that
        op's issue time so the warp re-enters the scheduler heap and the
        op executes when this warp is again the globally next issuer.
        Fused superblock regions (all-private by construction) run whole
        whenever they fit under the bound.  The caller does *not* advance
        ``gpu.cycle`` past the window — global time still advances
        pop-to-pop, so earlier-due warps keep their exact issue cycles.
        """
        stats = self._stats
        table = self._table
        stack = self.stack
        first = True
        # Private and memory ops never schedule events, so the
        # event bound is loop-invariant except across the (single
        # possible) klass-0 first op; cache it.
        hard = horizon
        if events:
            e0 = events[0][0]
            if e0 < hard:
                hard = e0
        # Issue counters accumulate in locals and flush once per window
        # (the finally keeps them exact if a decoded closure raises, as
        # the per-op path counted each op before executing it).
        issued = 0
        lanes = 0
        try:
            while True:
                frame = stack[-1]
                while len(stack) > 1 and frame[1] >= 0 and frame[0] == frame[1]:
                    stack.pop()
                    frame = stack[-1]
                pc = frame[0]
                if not first and cycle >= hard:
                    return
                try:
                    run, op, klass, region = table[pc]
                except IndexError:
                    raise ExecutionError(
                        f"warp ran off the end of kernel {self.tb.func.name!r} "
                        f"at pc={pc}"
                    ) from None
                if region is not None:
                    # No sanitizer here, so a row-carried region fuses
                    # whenever it fits.
                    end = cycle + region.cycles
                    if end <= hard:
                        n = region.length
                        issued += n
                        lanes += n * frame[3]
                        region.executions += 1
                        region.fn(self, frame[2], frame[4])
                        self.ready_cycle = end
                        frame[0] = pc + n
                        if end < hard:
                            cycle = end
                            first = False
                            continue
                        return
                if not first and klass != 1:
                    if klass != 2:
                        # The next op touches shared state: it must execute
                        # in global time order, i.e. on this warp's next
                        # pop.  Its issue time is already in ready_cycle.
                        return
                    order = hard
                    if heap:
                        h0 = heap[0][0]
                        if h0 < order:
                            order = h0
                    if cycle >= order:
                        # Another warp (or event) may touch the memory
                        # system first — defer to the next pop.
                        return
                issued += 1
                lanes += frame[3]
                if not run(self, frame, cycle):
                    frame[0] = pc + 1
                if self.finished or self.at_barrier:
                    return
                nxt = self.ready_cycle
                if nxt <= cycle:
                    # A launch-API first op under an ideal latency model
                    # costs 0 cycles: a same-cycle reissue competes for the
                    # issue budget, which the caller counts per pop.
                    return
                cycle = nxt
                first = False
                if klass == 0:
                    # A klass-0 first op (launch/fallback) may have scheduled
                    # an event inside the window; refresh the cached bound.
                    hard = horizon
                    if events:
                        e0 = events[0][0]
                        if e0 < hard:
                            hard = e0
        finally:
            stats.issued_instructions += issued
            stats.active_lane_sum += lanes
