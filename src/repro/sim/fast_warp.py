"""The fast execution core's warp interpreter.

:class:`FastWarp` is a drop-in :class:`~repro.sim.warp.Warp` subclass used
when ``GPUConfig.core`` is ``"fast"`` (the default).  It executes the same
instruction semantics as the reference interpreter — bit-for-bit on the
architectural state and cycle-for-cycle on the timing model — but removes
the per-step interpretation overhead three ways:

* **Pre-decoded instruction kernels.**  Each program is decoded once into
  a table of per-instruction functions (cached on the
  :class:`~repro.isa.program.Program`).  What an opcode computes is read
  from :mod:`repro.isa.semantics` — the same rows the reference
  interpreter evaluates — and resolved at decode time: memory and
  control ops become closures, and every ALU-class op becomes *generated
  source* (one module per program, compiled once and memoised per
  process by its text) in which operand banks, register indices,
  immediates and the latency class are literals instead of per-issue
  tests.
* **Extended PDOM frames.**  Stack frames carry ``[pc, reconv_pc, mask,
  active_count, full_flag]`` so the active-lane count (needed for the
  warp-activity statistic on every issue) and the common all-32-lanes case
  are O(1) instead of a ``count_nonzero`` per step.  Mask arrays are never
  mutated in place, so the cached count is exact by construction.
* **Vectorized hot paths, for any mask.**  Generated ALU code has two
  straight-line bodies.  Under a full mask each destination row is
  written in place (``ufunc(a, b, out=rd)``).  Under a partial mask —
  the steady state of the irregular workloads — every value is computed
  *unmasked* into a temporary and each destination register is committed
  once, under the mask, with the bank's unsafe cast: exactly what
  ``Warp._h_alu`` does (``row.fn`` over all 32 lanes, then a masked
  write), at a third of the cost of a ``where=`` ufunc.  Global
  loads/stores generate lane addresses in one vector op and feed segment
  sets to :func:`repro.memory.coalescing.coalesce_address_list`; atomics
  gather, compute and scatter, serializing the lanes over plain Python
  ints only when their addresses collide.
* **Superblock fusion.**  Decode also discovers maximal straight-line
  regions of ALU-class instructions (no branches, barriers, memory ops,
  or reconvergence points inside — :mod:`repro.isa.regions`) and
  generates one function per region.  A warp inside one of the two
  window forms that ``GPU._run_fast`` opens
  (:meth:`FastWarp.step_free_window`, :meth:`FastWarp.step_window`) runs
  a whole region in one call whatever its mask, charging the exact
  per-instruction cycles and stats of unfused execution.  In a region's
  partial-mask body a later instruction reads an earlier one's temporary
  instead of the register, and a register written twice is committed
  once.  ``sanitize=True``, zero-latency configs and the
  single-instruction :meth:`FastWarp.step` path dispatch per
  instruction, through the same generator's regions of one.

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
  and colliding lanes run one at a time, in that order.
* A partial-mask body may compute an inactive lane from values the
  reference never saw there (an earlier temporary instead of the stale
  register); that is sound only because temporaries reach registers
  through the masked commit and nothing else reads them.
"""

from __future__ import annotations

import weakref
from collections import OrderedDict
from itertools import repeat
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..config import SEGMENT_WORDS, WARP_SIZE
from ..errors import ExecutionError
from ..isa.instructions import Bank, Opcode, Reg
from ..isa.regions import straight_line_regions
from ..isa.semantics import (
    ALU,
    ATOMIC,
    CMP,
    FUSABLE_OPS,
    MEMORY,
    SFU_OPS,
    SPECIAL,
    identity,
    nonzero_divisor,
)
from ..memory.coalescing import coalesce_address_list
from .warp import _DISPATCH, Warp, out_of_range

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
_GEOM_CACHE_LIMIT = 256
_GEOM_CACHE: "OrderedDict[Tuple[int, int, int, int], tuple]" = OrderedDict()


def _geometry(bx: int, by: int, threads: int, warp_index: int) -> tuple:
    key = (bx, by, threads, warp_index)
    cached = _GEOM_CACHE.get(key)
    if cached is None:
        linear = warp_index * WARP_SIZE + np.arange(WARP_SIZE, dtype=np.int64)
        init_mask = linear < threads
        clamped = np.minimum(linear, threads - 1)
        tid_x = clamped % bx
        tid_y = (clamped // bx) % by
        tid_z = clamped // (bx * by)
        active = int(np.count_nonzero(init_mask))
        for arr in (init_mask, clamped, tid_x, tid_y, tid_z):
            arr.setflags(write=False)
        cached = (init_mask, tid_x, tid_y, tid_z, clamped, active)
        _GEOM_CACHE[key] = cached
        if len(_GEOM_CACHE) > _GEOM_CACHE_LIMIT:
            _GEOM_CACHE.popitem(last=False)
    else:
        _GEOM_CACHE.move_to_end(key)
    return cached


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
            return -2, None, lambda w: w.regs_f[idx]
        return -2, None, lambda w: w.regs_i[idx].astype(np.float64)
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
    cstats.histogram[len(segments)] += 1
    completion = w._mem_access(segments, is_write, cycle)
    if is_write:
        w.ready_cycle = cycle + w._alu_lat
    else:
        w.ready_cycle = completion


def _address_form(instr):
    """Bind a memory op's address operand at decode time -> ``lanes(w,
    frame)``, or None for an immediate base that is no int64.

    ``lanes`` returns ``(addrs, alist, lo, hi)`` for the active lanes,
    not yet checked against any bound: the address ndarray (for the
    gather or scatter itself), its Python-int list, and the address
    range — one ``tolist()`` plus two C-level ``min``/``max`` calls beat
    two numpy reductions on 32-element arrays, and the bounds feed
    :func:`_global_timing`'s small-range segment fast path.  ``(0, -1)``
    is the range of an empty lane set: inside every bound.  An immediate
    base is one address for all the active lanes — as many copies of it,
    so that a gather broadcasts and a scatter keeps the last lane's
    value, as ``Warp._h_memory``'s ``np.full`` does.
    """
    off = instr.offset
    if type(instr.a) is Reg:
        base_idx = instr.a.idx

        def lanes(w, frame):
            base = w.regs_i[base_idx]
            if not frame[4]:
                base = base[frame[2]]
            addrs = base + off if off else base
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
# by their source text (a small LRU, like ``_GEOM_CACHE``), and the ones
# a program is first to need are compiled together, in one ``compile()``.
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
#: ``copyto`` is the C function behind ``np.copyto``, where NumPy
#: exposes it: the ``__array_function__`` dispatch in front of it is a
#: third of a 32-lane copy and no register row overrides it.
_GEN_GLOBALS = {
    "copyto": getattr(np.copyto, "_implementation", np.copyto),
    "asarray": np.asarray, "Di": np.int64, "Df": np.float64, "nz": nonzero_divisor,
    **{f"f_{op.name}": row.ufunc or row.fn for op, row in ALU.items()},
    **{f"c_{cmp.name}": fn for cmp, fn in CMP.items()},
    **{f"s_{special.name}": fn for special, fn in SPECIAL.items()},
}

_FACTORY_CACHE_LIMIT = 256
_FACTORY_CACHE: "OrderedDict[str, object]" = OrderedDict()


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
        f"  r{bank} = w.regs_{bank}" for bank in "if" if any(b == bank for b, _ in rows)
    ]
    lines.append(f"  if {full}:")
    lines += ["   " + line for line in whole]
    lines.append("  else:")
    lines += ["   " + line for line in part]
    if single:
        latency = "_sfu_lat" if instrs[0].op in SFU_OPS else "_alu_lat"
        lines += [f"  w.ready_cycle = cycle + w.{latency}", "  return False"]
    lines.append(" return run")
    return "\n".join(lines), values


def _generated(shapes: List[Tuple[str, list]]) -> list:
    """The functions of ``(factory source, arguments)`` pairs, compiling
    the factories this process has not met in a single module."""
    sources = [source for source, _ in shapes]
    missing = [s for s in dict.fromkeys(sources) if s not in _FACTORY_CACHE]
    if missing:
        module = "\n".join(
            source.replace("def make(", f"def make{k}(", 1)
            for k, source in enumerate(missing)
        )
        exec(compile(module, "<repro.sim.fast_warp generated>", "exec"), _GEN_GLOBALS)
        for k, source in enumerate(missing):
            _FACTORY_CACHE[source] = _GEN_GLOBALS.pop(f"make{k}")
    functions = []
    for source, values in shapes:
        _FACTORY_CACHE.move_to_end(source)
        functions.append(_FACTORY_CACHE[source](*values))
    while len(_FACTORY_CACHE) > _FACTORY_CACHE_LIMIT:
        _FACTORY_CACHE.popitem(last=False)
    return functions


# ----------------------------------------------------------------------
# Instruction-kernel builders.  Each returns a closure run(w, frame,
# cycle) -> bool (True iff the pc was updated), or None to delegate to
# the reference handler.
# ----------------------------------------------------------------------
def _make_memory(instr):
    """Any :data:`MEMORY` row with either address form: what
    ``Warp._h_memory`` does, with the row resolved at decode time."""
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
            src = w.regs_i[si] if si >= 0 else sv if si == -1 else gs(w)
            if isinstance(src, np.ndarray):
                words[addrs] = src if frame[4] else src[frame[2]]
            else:
                words[addrs] = src
        else:
            reg = (w.regs_f if is_float else w.regs_i)[d]
            if frame[4]:
                reg[:] = words[addrs]
            else:
                reg[frame[2]] = words[addrs]
        if shared:
            # Addresses less than a bank count apart are on distinct banks.
            cfg = w._cfg
            degree = 1 if hi - lo < cfg.shared_banks else w._shared_conflict_degree(addrs)
            w.ready_cycle = cycle + cfg.shared_latency * degree
        elif local:
            w._memory_timing(addrs, is_store, cycle, w.tb.smx.l1)
        else:
            _global_timing(w, alist, is_store, cycle, lo, hi)
        return False

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
        ri = w.regs_i
        vals = (ri[bi] if full else ri[bi][mask]) if bi >= 0 else bv
        new = (ri[ci] if full else ri[ci][mask]) if ci >= 0 else cv
        distinct = set(alist)
        if len(distinct) == len(alist):
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
                w.regs_i[d][:] = old
            else:
                w.regs_i[d][mask] = old
        _global_timing(w, alist, False, cycle, lo, hi)
        return False

    return run


def _make_bra(instr):
    target = instr.target
    if instr.pred is None:

        def run_uncond(w, frame, cycle):
            w.ready_cycle = cycle + w._alu_lat
            frame[0] = target
            return True

        return run_uncond

    p = instr.pred.idx
    sense = instr.pred_sense
    rpc = instr.reconv

    def run(w, frame, cycle):
        w.ready_cycle = cycle + w._alu_lat
        predv = w.regs_i[p] != 0
        if not sense:
            predv = ~predv
        mask = frame[2]
        taken = mask & predv
        n_taken = int(np.count_nonzero(taken))
        if n_taken == 0:
            w._stats.branches_uniform += 1
            frame[0] += 1
            return True
        n_active = frame[3]
        if n_taken == n_active:
            w._stats.branches_uniform += 1
            frame[0] = target
            return True
        w._stats.branches_diverged += 1
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
    ``ready_cycle``).  ``sfu_flags[i]`` says whether instruction i is
    SFU-class.  Latencies are *not* baked in: the decode is cached on the
    shared Program, and different GPUs may run it with different
    ``alu_latency`` / ``sfu_latency`` values, so the region's duration is
    derived per warp as ``n_alu * alu_lat + n_sfu * sfu_lat``.

    ``executions`` counts the times the region ran fused, in this
    process, on whatever GPU: a diagnostic that is not part of any
    simulation's state (``SimStats``, fingerprints and snapshots never
    see it).
    """

    __slots__ = (
        "start", "length", "ops", "fn", "sfu_flags", "n_alu", "n_sfu", "executions",
    )

    def __init__(self, start: int, ops: tuple, fn) -> None:
        self.start = start
        self.length = len(ops)
        self.ops = ops
        self.fn = fn
        self.sfu_flags = tuple(op in SFU_OPS for op in ops)
        self.n_sfu = sum(self.sfu_flags)
        self.n_alu = self.length - self.n_sfu
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

    How often a region ran fused is ``regions[start].executions`` — the
    only place an *untraced* run's fused count can be read: a tracer
    switches run-ahead off, so a profiler's own count covers
    ``step_window`` alone.
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
    for instr in instructions:
        if instr.op in FUSABLE_OPS:
            shape = _alu_factory([instr], single=True)
            run = None
            if shape is not None:
                run = len(shapes)
                shapes.append(shape)
        elif instr.op in REFERENCE_OPS:
            run = None
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
    functions = _generated(shapes)

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

    __slots__ = ("_table", "fallback_pcs", "_alu_lat", "_sfu_lat", "_cstats", "_mem_access")
    # The decoded program and more hot-path references.
    NOT_STATE = Warp.NOT_STATE + __slots__

    def __init__(self, tb, warp_index: int, context_slot: int) -> None:
        self._bind(tb, warp_index, context_slot)
        gpu = tb.gpu
        self._alu_lat = gpu.config.alu_latency
        self._sfu_lat = gpu.config.sfu_latency
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

    def step_window(self, cycle: int, horizon: int, events: list, heap: list) -> int:
        """Execute this warp repeatedly while it is provably the sole actor.

        Called only from ``GPU._run_fast`` in place of :meth:`step`,
        after the warp was popped as ready at ``cycle`` and nothing else
        is due before ``cycle + 2``.  As long as the warp's next issue
        lands strictly before the *window bound* — the earliest of
        ``horizon`` (the watchdog or the next due checkpoint, whichever
        is nearer), the next pending GPU event, and the
        next ready cycle of any other warp on any SMX (``heap``, the
        GPU-wide ready heap, whose stale lazy-deletion entries can only
        shrink the bound) — no scheduler decision, issue-budget check or
        event delivery could interleave with it in the reference
        execution, so the warp keeps executing locally without
        round-tripping through the issue loop.

        Within a window, a warp entering a decoded :class:`FusedRegion`
        whose whole duration fits under the bound executes the region in
        one call, whatever its mask, charging identical per-instruction
        stats and tracer callbacks (fusion is skipped under the
        sanitizer: its one-``observe()``-per-step contract needs the
        per-instruction path).  Everything else single-steps with exact
        synthesized issue cycles.

        Returns the issue cycle of the last executed instruction; the
        caller advances ``gpu.cycle`` and the occupancy integral to it.
        """
        gpu = self._gpu
        table = self._table
        stats = self._stats
        san = self._san
        tracer = gpu.tracer
        instrs = self._instrs
        alu_lat = self._alu_lat
        sfu_lat = self._sfu_lat
        # Fused timing arithmetic needs strictly increasing issue cycles
        # (latency >= 1); degenerate zero-latency configs single-step.
        # (Rows carry a region only when the decode found one, so no
        # separate regions-present check is needed.)
        fuse = san is None and alu_lat >= 1 and sfu_lat >= 1
        stack = self.stack
        last = cycle
        # The window bound is invariant across private and memory ops:
        # only klass-0 ops (launches, barriers, reference fallbacks) can
        # schedule events or wake warps, and the caller owns all pops.
        # Cache it and refresh only after those.
        limit = horizon
        if events:
            e0 = events[0][0]
            if e0 < limit:
                limit = e0
        if heap:
            h0 = heap[0][0]
            if h0 < limit:
                limit = h0
        # Issue counters accumulate in locals and flush once per window
        # (exact under exceptions via the finally; nothing observes the
        # running totals mid-window — tracer and sanitizer callbacks get
        # the per-op values as arguments).
        issued = 0
        lanes = 0
        try:
            while True:
                frame = stack[-1]
                while len(stack) > 1 and frame[1] >= 0 and frame[0] == frame[1]:
                    stack.pop()
                    frame = stack[-1]
                pc = frame[0]
                try:
                    run, op, klass, region = table[pc]
                except IndexError:
                    raise ExecutionError(
                        f"warp ran off the end of kernel {self.tb.func.name!r} "
                        f"at pc={pc}"
                    ) from None
                if region is not None and fuse:
                    end = cycle + region.n_alu * alu_lat + region.n_sfu * sfu_lat
                    if end <= limit:
                        n = region.length
                        issued += n
                        lanes += n * frame[3]
                        if tracer is not None:
                            tracer.on_fused(self, pc, region, frame[3], cycle)
                        region.executions += 1
                        region.fn(self, frame[2], frame[4])
                        self.ready_cycle = end
                        frame[0] = pc + n
                        last = end - (sfu_lat if region.sfu_flags[-1] else alu_lat)
                        if end < limit:
                            cycle = end
                            continue
                        return last
                issued += 1
                lanes += frame[3]
                if tracer is not None:
                    tracer.on_issue(self, pc, op, frame[3], cycle)
                if san is not None:
                    san.observe(self, pc, instrs[pc], frame[2], cycle)
                if not run(self, frame, cycle):
                    frame[0] = pc + 1
                last = cycle
                if self.finished or self.at_barrier:
                    return last
                nxt = self.ready_cycle
                if nxt <= cycle:
                    # Zero-latency op: a same-cycle reissue competes for the
                    # issue budget, which only the caller's loop models.
                    return last
                if klass == 0:
                    # The instruction may have scheduled an event (launch
                    # delivery) or woken warps (barrier release, new block):
                    # re-derive the cached bound.
                    limit = horizon
                    if events:
                        e0 = events[0][0]
                        if e0 < limit:
                            limit = e0
                    if heap:
                        h0 = heap[0][0]
                        if h0 < limit:
                            limit = h0
                if nxt >= limit:
                    return last
                cycle = nxt
        finally:
            stats.issued_instructions += issued
            stats.active_lane_sum += lanes

    def step_free_window(
        self,
        cycle: int,
        horizon: int,
        events: list,
        heap: Optional[list] = None,
        inline_mem: bool = False,
    ) -> int:
        """Budget-safe run-ahead: execute register-private ops at their
        exact future issue cycles, past other warps' ready times.

        Preconditions, checked by the caller (``GPU._run_fast``):

        * ``resident_warps <= issue_width`` on this SMX — resident warps
          (including barrier-held ones) bound the number of same-cycle
          issuers, so the issue budget can never bind and every warp
          issues exactly at its own ready cycle, independent of all
          others;
        * GTO scheduling — warp ages are never rewritten, so running
          this warp's ops out of global issue order cannot perturb the
          heap's tie-breaking;
        * no tracer and no sanitizer — both observe the global
          interleaving, which run-ahead reorders (per-instruction cycles
          stay exact, only callback order changes);
        * ``alu_latency >= 1`` and ``sfu_latency >= 1`` — private ops
          then always advance time, so at most one issue per cycle can
          bypass the caller's per-pop budget counting.

        Under those conditions an op whose decoded closure touches only
        this warp's registers, divergence stack and additive stats
        counters (the decode marks such pcs ``private``) commutes with
        every other warp's execution, so it runs as soon as its issue
        cycle is known, bounded only by the next GPU event and
        ``horizon`` (events can add blocks, breaking the preconditions).
        The first op — popped due by the caller — always executes; after
        that the window stops *before* the next shared-state op (memory
        system, barrier, exit, device launches, reference fallbacks),
        leaving ``ready_cycle`` at that op's issue time so the warp
        re-enters the scheduler heap and the op executes when this warp
        is again the globally next issuer.  Fused superblock regions
        (all-private by construction) run whole whenever they fit under
        the bound.  Returns the last executed issue cycle; the caller
        does *not* advance ``gpu.cycle`` to it — global time still
        advances pop-to-pop, so earlier-due warps keep their exact
        issue cycles.

        With ``inline_mem`` (every other memory client is bounded below
        by ``heap[0][0]``, the next event, or the horizon), native
        memory ops (decode klass 2: global, shared, local, atomic) also
        run mid-window as long as their issue cycle is strictly below
        ``min(hard, heap[0][0])`` — that keeps every access in global
        time order, which the DRAM controller's arrival bookkeeping,
        cache LRU state and the other warps of the block reading its
        shared words require.  The caller additionally guarantees
        ``l1_hit_latency >= 1``, ``l2_hit_latency >= 1`` and
        ``shared_latency >= 1`` so inlined loads, atomics and shared
        accesses always advance time (stores complete at
        ``alu_latency``, already bounded by the base preconditions).
        """
        stats = self._stats
        table = self._table
        alu_lat = self._alu_lat
        sfu_lat = self._sfu_lat
        stack = self.stack
        last = cycle
        first = True
        # Private and inlined-memory ops never schedule events, so the
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
                    return last
                try:
                    run, op, klass, region = table[pc]
                except IndexError:
                    raise ExecutionError(
                        f"warp ran off the end of kernel {self.tb.func.name!r} "
                        f"at pc={pc}"
                    ) from None
                if region is not None:
                    # Preconditions already guarantee no sanitizer and
                    # latencies >= 1, so a row-carried region always fuses.
                    end = cycle + region.n_alu * alu_lat + region.n_sfu * sfu_lat
                    if end <= hard:
                        n = region.length
                        issued += n
                        lanes += n * frame[3]
                        region.executions += 1
                        region.fn(self, frame[2], frame[4])
                        self.ready_cycle = end
                        frame[0] = pc + n
                        last = end - (sfu_lat if region.sfu_flags[-1] else alu_lat)
                        if end < hard:
                            cycle = end
                            first = False
                            continue
                        return last
                if not first and klass != 1:
                    if klass != 2 or not inline_mem:
                        # The next op touches shared state: it must execute
                        # in global time order, i.e. on this warp's next
                        # pop.  Its issue time is already in ready_cycle.
                        return last
                    order = hard
                    if heap:
                        h0 = heap[0][0]
                        if h0 < order:
                            order = h0
                    if cycle >= order:
                        # Another warp (or event) may touch the memory
                        # system first — defer to the next pop.
                        return last
                issued += 1
                lanes += frame[3]
                if not run(self, frame, cycle):
                    frame[0] = pc + 1
                last = cycle
                if self.finished or self.at_barrier:
                    return last
                nxt = self.ready_cycle
                if nxt <= cycle:
                    # Zero-latency (first) op: a same-cycle reissue competes
                    # for the issue budget, which the caller counts per pop.
                    return last
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
