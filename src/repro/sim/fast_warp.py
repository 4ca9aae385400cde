"""The fast execution core's warp interpreter.

:class:`FastWarp` is a drop-in :class:`~repro.sim.warp.Warp` subclass used
when ``GPUConfig.core`` is ``"fast"`` (the default).  It executes the same
instruction semantics as the reference interpreter — bit-for-bit on the
architectural state and cycle-for-cycle on the timing model — but removes
the per-step interpretation overhead three ways:

* **Pre-decoded instruction kernels.**  Each program is decoded once into
  a table of per-instruction closures (cached on the
  :class:`~repro.isa.program.Program`).  What an opcode computes is read
  from :mod:`repro.isa.semantics` — the same rows the reference
  interpreter evaluates — and bound at decode time: operand banks,
  immediates, the closure shape and the latency class are resolved once
  instead of on every issue.
* **Extended PDOM frames.**  Stack frames carry ``[pc, reconv_pc, mask,
  active_count, full_flag]`` so the active-lane count (needed for the
  warp-activity statistic on every issue) and the common all-32-lanes case
  are O(1) instead of a ``count_nonzero`` per step.  Mask arrays are never
  mutated in place, so the cached count is exact by construction.
* **Vectorized hot paths.**  Full-mask ALU ops use in-place ufunc forms
  (``out=`` / ``where=``); global loads/stores generate lane addresses in
  one vector op and feed segment sets to
  :func:`repro.memory.coalescing.coalesce_address_list`; address-disjoint
  atomics execute as gather/compute/scatter instead of a per-lane loop.
* **Superblock fusion.**  Decode also discovers maximal straight-line
  regions of ALU-class instructions (no branches, barriers, memory ops,
  or reconvergence points inside — :mod:`repro.isa.regions`) and a warp
  executing with a full mask inside one of the two window forms that
  ``GPU._run_fast`` opens (:meth:`FastWarp.step_free_window`,
  :meth:`FastWarp.step_window`) runs a whole region in one call,
  charging the exact per-instruction cycles and stats of unfused
  execution.  Divergent entry (partial mask), ``sanitize=True`` and the
  single-instruction :meth:`FastWarp.step` path all fall back to
  per-instruction dispatch.

Anything rare (shared/local memory, shuffles, votes, device-runtime calls,
atomics with intra-warp address conflicts, immediate-base memory ops)
delegates to the inherited reference handler, which keeps the two cores
trivially identical where speed does not matter.

Stat-exactness invariants worth keeping in mind when editing:

* ``coalesce_address_list`` must produce segments in ascending order —
  the same order ``np.unique`` gives the reference core — because DRAM
  bank/row state and the L2's LRU depend on access order.
* The reference serializes conflicting atomic lanes in lane order; the
  vectorized path therefore only handles all-distinct address sets.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import List, Optional, Tuple

import numpy as np

from ..config import SEGMENT_WORDS, WARP_SIZE
from ..errors import ExecutionError
from ..isa.instructions import GLOBAL_MEMORY_OPS, Bank, Opcode, Reg
from ..isa.regions import straight_line_regions
from ..isa.semantics import (
    ALU,
    ATOMIC,
    CMP,
    FUSABLE_OPS,
    SFU_OPS,
    SPECIAL,
    nonzero_divisor,
)
from ..memory.coalescing import coalesce_address_list
from .warp import _DISPATCH, Warp

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
    """Bind a source operand at decode time -> ``(idx, const, get)``.

    ``kind`` is the operand's slot letter in a semantics row (``"i"`` /
    ``"f"``).  ``idx >= 0`` is a row of the int register file (the
    common case, fetched inline by the closures), ``idx == -1`` means
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


def _lane_addrs(w, frame, base_idx: int, off: int):
    """Active-lane global addresses (register base), bounds-checked.

    Returns ``(addrs, alist, lo, hi)``: the address ndarray (for the
    gather or scatter itself), its Python-int list, and the address
    range — one ``tolist()`` plus two C-level ``min``/``max`` calls
    beat two numpy reductions on 32-element arrays, and the bounds feed
    :func:`_global_timing`'s small-range segment fast path.  ``(0, -1)``
    signals an empty lane set."""
    base = w.regs_i[base_idx]
    if not frame[4]:
        base = base[frame[2]]
    addrs = base + off if off else base
    alist = addrs.tolist()
    if alist:
        lo = min(alist)
        hi = max(alist)
        if lo < 0 or hi >= w._mem_size:
            raise ExecutionError(
                f"kernel {w.tb.func.name!r}: global access out of range "
                f"(addr {lo}..{hi}, mem size {w._mem_size})"
            )
    else:
        lo, hi = 0, -1
    return addrs, alist, lo, hi


# ----------------------------------------------------------------------
# Instruction-kernel builders.  Each returns a closure run(w, frame,
# cycle) -> bool (True iff the pc was updated), or None to delegate to
# the reference handler.
# ----------------------------------------------------------------------
def _make_alu(instr):
    """Bind one :data:`repro.isa.semantics.ALU` row to this instruction.

    The row picks the closure shape once, here: a bare ufunc writes the
    destination row in place through ``out=`` / ``where=``, with the
    divisor guard folded into the divisor's fetch; anything else computes
    a temporary and ``copyto``s it with the bank's unsafe cast (a
    comparison into an int64 ``out=`` would go through NumPy's buffered
    casting path, which is slower than the temporary).
    """
    row = ALU[instr.op]
    fn, kinds, ufunc = row.fn, row.src, row.ufunc
    if kinds[0] == "c":
        # A comparison row only applies the selected comparison.
        fn, kinds = CMP[instr.cmp], kinds[1:]
    operands = [_operand(k, x) for k, x in zip(kinds, (instr.a, instr.b, instr.c))]
    if None in operands:
        return None
    if row.guard:
        div_idx, div_const, div_get = operands[1]
        if div_idx == -1:
            operands[1] = -1, nonzero_divisor(div_const), None
        elif div_idx >= 0:
            operands[1] = -2, None, lambda w: nonzero_divisor(w.regs_i[div_idx])
        else:
            operands[1] = -2, None, lambda w: nonzero_divisor(div_get(w))
    n = len(operands)
    (ai, av, ga), (bi, bv, gb), (ci, cv, gc) = (operands + [(-1, None, None)] * 2)[:3]
    d = instr.dst.idx
    flt = row.dst == Bank.FLT
    sfu = row.sfu

    if ufunc is not None and n == 2:

        def run(w, frame, cycle):
            ri = w.regs_i
            a = ri[ai] if ai >= 0 else av if ai == -1 else ga(w)
            b = ri[bi] if bi >= 0 else bv if bi == -1 else gb(w)
            rd = (w.regs_f if flt else ri)[d]
            if frame[4]:
                ufunc(a, b, out=rd)
            else:
                ufunc(a, b, out=rd, where=frame[2])
            w.ready_cycle = cycle + (w._sfu_lat if sfu else w._alu_lat)
            return False

    elif ufunc is not None:

        def run(w, frame, cycle):
            ri = w.regs_i
            a = ri[ai] if ai >= 0 else av if ai == -1 else ga(w)
            rd = (w.regs_f if flt else ri)[d]
            if frame[4]:
                ufunc(a, out=rd)
            else:
                ufunc(a, out=rd, where=frame[2])
            w.ready_cycle = cycle + (w._sfu_lat if sfu else w._alu_lat)
            return False

    else:

        def run(w, frame, cycle):
            ri = w.regs_i
            a = ri[ai] if ai >= 0 else av if ai == -1 else ga(w)
            if n == 1:
                result = fn(a)
            else:
                b = ri[bi] if bi >= 0 else bv if bi == -1 else gb(w)
                if n == 2:
                    result = fn(a, b)
                else:
                    c = ri[ci] if ci >= 0 else cv if ci == -1 else gc(w)
                    result = fn(a, b, c)
            rd = (w.regs_f if flt else ri)[d]
            if frame[4]:
                np.copyto(rd, result, casting="unsafe")
            else:
                np.copyto(rd, result, where=frame[2], casting="unsafe")
            w.ready_cycle = cycle + (w._sfu_lat if sfu else w._alu_lat)
            return False

    return run


def _make_read_special(instr):
    getter = SPECIAL[instr.special]
    d = instr.dst.idx

    def run(w, frame, cycle):
        rd = w.regs_i[d]
        if frame[4]:
            np.copyto(rd, getter(w), casting="unsafe")
        else:
            np.copyto(rd, getter(w), where=frame[2], casting="unsafe")
        w.ready_cycle = cycle + w._alu_lat
        return False

    return run


def _make_load(instr):
    if type(instr.a) is not Reg:
        return None
    is_float = instr.op == Opcode.FLD
    d = instr.dst.idx
    base_idx = instr.a.idx
    off = instr.offset

    def run(w, frame, cycle):
        addrs, alist, lo, hi = _lane_addrs(w, frame, base_idx, off)
        mem = w._mem_f if is_float else w._mem_i
        reg = (w.regs_f if is_float else w.regs_i)[d]
        if frame[4]:
            reg[:] = mem[addrs]
        else:
            reg[frame[2]] = mem[addrs]
        _global_timing(w, alist, False, cycle, lo, hi)
        return False

    return run


def _make_store(instr):
    if type(instr.a) is not Reg:
        return None
    is_float = instr.op == Opcode.FST
    base_idx = instr.a.idx
    off = instr.offset
    src_operand = _operand("f" if is_float else "i", instr.b)
    if src_operand is None:
        return None
    si, sv, gs = src_operand

    def run(w, frame, cycle):
        addrs, alist, lo, hi = _lane_addrs(w, frame, base_idx, off)
        src = w.regs_i[si] if si >= 0 else sv if si == -1 else gs(w)
        mem = w._mem_f if is_float else w._mem_i
        if isinstance(src, np.ndarray):
            mem[addrs] = src if frame[4] else src[frame[2]]
        else:
            mem[addrs] = src
        _global_timing(w, alist, True, cycle, lo, hi)
        return False

    return run


def _make_atomic(instr):
    if type(instr.a) is not Reg:
        return None
    combine = ATOMIC[instr.op]
    base_idx = instr.a.idx
    off = instr.offset
    d = instr.dst.idx if instr.dst is not None else -1
    # b is the operand (the compare value for ATOM_CAS), c its new value.
    b = _operand("i", instr.b)
    c = _operand("i", instr.c) if instr.c is not None else (-1, None, None)
    if b is None or c is None:
        return None
    bi, bv = b[:2]
    ci, cv = c[:2]
    ref_handler = _DISPATCH[instr.op]

    def run(w, frame, cycle):
        full = frame[4]
        mask = frame[2]
        base = w.regs_i[base_idx]
        if not full:
            base = base[mask]
        addrs = base + off if off else base
        alist = addrs.tolist()
        if len(set(alist)) != len(alist):
            # Intra-warp address conflict: the reference core serializes
            # conflicting lanes in lane order; keep its exact semantics.
            return ref_handler(w, instr, frame, mask, cycle)
        if alist:
            lo = min(alist)
            hi = max(alist)
            if lo < 0 or hi >= w._mem_size:
                # Cold path: report the first offending address in lane
                # order, exactly as the reference core does.
                for a in alist:
                    if a < 0 or a >= w._mem_size:
                        raise ExecutionError(
                            f"kernel {w.tb.func.name!r}: atomic out of range at {a}"
                        )
        else:
            lo, hi = 0, -1
        mem = w._mem_i
        old = mem[addrs]
        ri = w.regs_i
        vals = (ri[bi] if full else ri[bi][mask]) if bi >= 0 else bv
        new = (ri[ci] if full else ri[ci][mask]) if ci >= 0 else cv
        mem[addrs] = combine(old, vals, new)
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


_BUILDERS = {
    **dict.fromkeys(ALU, _make_alu),
    **dict.fromkeys(ATOMIC, _make_atomic),
    Opcode.READ_SPECIAL: _make_read_special,
    Opcode.LD: _make_load,
    Opcode.FLD: _make_load,
    Opcode.ST: _make_store,
    Opcode.FST: _make_store,
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


class FusedRegion:
    """One decoded straight-line ALU region, executable in a single call.

    ``runs`` are the region's per-instruction closures in pc order;
    ``sfu_flags[i]`` says whether instruction i is SFU-class.  Latencies
    are *not* baked in: the decode is cached on the shared Program, and
    different GPUs may run it with different ``alu_latency`` /
    ``sfu_latency`` values, so the region's duration is derived per warp
    as ``n_alu * alu_lat + n_sfu * sfu_lat``.
    """

    __slots__ = ("start", "length", "ops", "runs", "sfu_flags", "n_alu", "n_sfu")

    def __init__(self, start: int, ops: tuple, runs: tuple) -> None:
        self.start = start
        self.length = len(ops)
        self.ops = ops
        self.runs = runs
        self.sfu_flags = tuple(op in SFU_OPS for op in ops)
        self.n_sfu = sum(self.sfu_flags)
        self.n_alu = self.length - self.n_sfu


def decode_program(program) -> tuple:
    """Decode a finalized program into (table, n_int, n_flt, regions).

    The table holds one ``(closure, opcode, klass, region)`` row per
    pc.  ``klass`` drives budget-safe run-ahead: 1 = warp-private
    (native closure, opcode in :data:`_PRIVATE_OPS`), 2 = native
    global-memory op (``GLOBAL_MEMORY_OPS``: shared DRAM/L2 state, so
    run-ahead may only inline it in global time order, under the
    scheduler heap's bound, while every other memory client is bounded
    below by that heap, the next event or the horizon), 0 = everything
    else (barriers, exits, launches, reference fallbacks — run-ahead
    always stops before these).  ``region`` is the :class:`FusedRegion`
    starting at this pc, or ``None`` — carried in the row so the hot
    window loops pay one table fetch instead of a separate dict probe
    per instruction.  ``regions`` maps each start pc to its region
    (``None`` when the program has no fusable region).  The result is
    cached on the program, so all warps of all launches share one
    decode.
    """
    cached = getattr(program, "_fast_table", None)
    if cached is not None:
        return cached
    table: List[tuple] = []
    native: List[bool] = []
    for instr in program.instructions:
        op = instr.op
        builder = _BUILDERS.get(op)
        run = builder(instr) if builder is not None else None
        native.append(run is not None)
        if run is None:
            run = _make_ref(instr, _DISPATCH[op])
        if native[-1] and op in _PRIVATE_OPS:
            klass = 1
        elif native[-1] and op in GLOBAL_MEMORY_OPS:
            klass = 2
        else:
            klass = 0
        table.append((run, op, klass, None))

    # A pc is fusable only when its opcode class qualifies AND the decode
    # produced a native closure (a reference fallback — e.g. a float
    # immediate in an int operand — keeps reference semantics, including
    # its own error behaviour, so it must stay a visible single step).
    def fusable(pc, instr):
        return native[pc] and instr.op in FUSABLE_OPS

    spans = straight_line_regions(program.instructions, fusable)
    regions = None
    if spans:
        regions = {}
        for start, length in spans:
            ops = tuple(table[pc][1] for pc in range(start, start + length))
            runs = tuple(table[pc][0] for pc in range(start, start + length))
            region = FusedRegion(start, ops, runs)
            regions[start] = region
            run, op, klass, _ = table[start]
            table[start] = (run, op, klass, region)
    highest = program.max_register_index()
    cached = (table, highest["int"] + 1, highest["flt"] + 1, regions)
    program._fast_table = cached
    return cached


class FastWarp(Warp):
    """Warp with pre-decoded instruction kernels and extended frames."""

    __slots__ = ("_table", "_regions", "_alu_lat", "_sfu_lat", "_cstats", "_mem_access")

    def __init__(self, tb, warp_index: int, context_slot: int) -> None:
        self._bind(tb, warp_index, context_slot)
        gpu = tb.gpu
        self._alu_lat = gpu.config.alu_latency
        self._sfu_lat = gpu.config.sfu_latency
        # Hot-path attribute caches: one getattr instead of a chain per
        # global-memory instruction (see _global_timing).
        self._cstats = gpu.stats.coalescing
        self._mem_access = gpu.memsys.warp_access_list

        table, n_int, n_flt, regions = decode_program(tb.func.program)
        self._table = table
        self._regions = regions
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
        ``horizon`` (the watchdog), the next pending GPU event, and the
        next ready cycle of any other warp on any SMX (``heap``, the
        GPU-wide ready heap, whose stale lazy-deletion entries can only
        shrink the bound) — no scheduler decision, issue-budget check or
        event delivery could interleave with it in the reference
        execution, so the warp keeps executing locally without
        round-tripping through the issue loop.

        Within a window, a full-mask warp entering a decoded
        :class:`FusedRegion` whose whole duration fits under the bound
        executes the region in one call, charging identical
        per-instruction stats and tracer callbacks (fusion is skipped
        under the sanitizer: its one-``observe()``-per-step contract
        needs the per-instruction path).  Everything else single-steps
        with exact synthesized issue cycles.

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
                if region is not None and fuse and frame[4]:
                    end = cycle + region.n_alu * alu_lat + region.n_sfu * sfu_lat
                    if end <= limit:
                        n = region.length
                        issued += n
                        lanes += n * frame[3]
                        if tracer is not None:
                            tracer.on_fused(self, pc, region, cycle)
                        c = cycle
                        for run in region.runs:
                            run(self, frame, c)
                            c = self.ready_cycle
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

        With ``inline_mem`` (burst mode only: this SMX is the sole
        runnable one, so every other memory client is bounded below by
        ``heap[0][0]``, the next event, or the burst horizon), native
        global-memory ops (decode klass 2) also run mid-window as long
        as their issue cycle is strictly below ``min(hard,
        heap[0][0])`` — that keeps every memory-system access in global
        time order, which the DRAM controller's arrival bookkeeping and
        cache LRU state require.  The caller additionally guarantees
        ``l1_hit_latency >= 1`` and ``l2_hit_latency >= 1`` so inlined
        loads and atomics always advance time (stores complete at
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
                if region is not None and frame[4]:
                    # Preconditions already guarantee no sanitizer and
                    # latencies >= 1, so a row-carried region always fuses.
                    end = cycle + region.n_alu * alu_lat + region.n_sfu * sfu_lat
                    if end <= hard:
                        n = region.length
                        issued += n
                        lanes += n * frame[3]
                        c = cycle
                        for run in region.runs:
                            run(self, frame, c)
                            c = self.ready_cycle
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
