"""Warp state and the SIMT execution engine.

A warp executes one instruction per :meth:`Warp.step` for the lanes in the
active mask of its top PDOM stack frame.  Functional execution is
vectorized over the 32 lanes with NumPy; timing effects are expressed by
setting ``ready_cycle`` (in-order, dependent-issue model) or by blocking on
memory / barrier / launch events.

Control divergence follows the classic PDOM reconvergence stack
[Fung et al., MICRO'07], which the paper's baseline uses (Section 2.2):
on a divergent branch the current frame is rewritten to wait at the
branch's immediate post-dominator, and one frame per path is pushed; a
frame is popped when its pc reaches its reconvergence pc.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List

import numpy as np

from ..config import (
    ALU_LATENCY, L1_HIT_LATENCY, SFU_LATENCY, SHARED_BANKS, SHARED_LATENCY, WARP_SIZE,
)
from ..errors import ExecutionError
from ..isa.instructions import Bank, Opcode, Reg
from ..isa.semantics import ALU, ATOMIC, CMP, MEMORY, SPECIAL
from ..memory.coalescing import coalesce_addresses

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .thread_block import ThreadBlock


_OUT_OF_RANGE = {
    "global": "global access out of range (addr {}..{}, mem size {})",
    "shared": "shared access out of range (addr {}..{}, shared words {})",
    "local": "local access out of range (offset {}..{}, local_words {})",
}


def out_of_range(warp: "Warp", space: str, lo: int, hi: int, limit: int) -> ExecutionError:
    """What either core raises when the active lanes' addresses ``lo..hi``
    leave a :data:`~repro.isa.semantics.MEMORY` space of ``limit`` words."""
    return ExecutionError(
        f"kernel {warp.tb.func.name!r}: " + _OUT_OF_RANGE[space].format(lo, hi, limit)
    )


class Warp:
    """One warp: 32 lanes of architectural state plus scheduling status."""

    __slots__ = (
        "tb",
        "warp_index",
        "context_slot",
        "hw_slot_base",
        "age",
        "regs_i",
        "regs_f",
        "stack",
        "ready_cycle",
        "finished",
        "at_barrier",
        "tid_x",
        "tid_y",
        "tid_z",
        "gtid",
        "init_mask",
        "_gpu",
        "_instrs",
        "_mem",
        "_mem_i",
        "_mem_f",
        "_mem_size",
        "_stats",
        "_cfg",
        "_lat",
        "_san",
    )
    STATE = (
        ("regs_i", "copy"),
        ("regs_f", "copy"),
        ("stack", "copy"),
        ("ready_cycle", "value"),
        ("finished", "value"),
        ("at_barrier", "value"),
        ("age", "value"),
    )
    NOT_STATE = (
        # Constructor arguments of the owning block (context_slot through
        # ThreadBlock.slots) and the lane geometry derived from them.
        "tb", "warp_index", "context_slot", "hw_slot_base",
        "tid_x", "tid_y", "tid_z", "gtid", "init_mask",
        # Hot-path references into the GPU.
        "_gpu", "_instrs", "_mem", "_mem_i", "_mem_f", "_mem_size", "_stats",
        "_cfg", "_lat", "_san",
    )

    def __init__(self, tb: "ThreadBlock", warp_index: int, context_slot: int) -> None:
        self._bind(tb, warp_index, context_slot)
        highest = tb.func.program.max_register_index()
        self.regs_i = np.zeros((highest["int"] + 1, WARP_SIZE), dtype=np.int64)
        self.regs_f = np.zeros((highest["flt"] + 1, WARP_SIZE), dtype=np.float64)

        # Lane geometry within the block.
        bx, by, _bz = tb.block_dims
        linear = warp_index * WARP_SIZE + np.arange(WARP_SIZE, dtype=np.int64)
        threads = tb.block_threads
        self.init_mask = linear < threads
        clamped = np.minimum(linear, threads - 1)
        self.tid_x = clamped % bx
        self.tid_y = (clamped // bx) % by
        self.tid_z = clamped // (bx * by)
        self.gtid = tb.block_linear_index * threads + clamped

        self.stack: List[list] = [[0, -1, self.init_mask.copy()]]

    def _bind(self, tb: "ThreadBlock", warp_index: int, context_slot: int) -> None:
        """Identity, scheduling status and hot-path references: all the
        state that is not registers, lane geometry or the SIMT stack
        (which :class:`~repro.sim.fast_warp.FastWarp` lays out its own way)."""
        gpu = tb.gpu
        self.tb = tb
        self.warp_index = warp_index
        #: Warp-context slot within the SMX; determines this warp's
        #: hardware thread indices and local-memory segment.
        self.context_slot = context_slot
        #: Hardware thread index base fed to the AGT hash.  The prime
        #: per-SMX stride keeps concurrently launching warps on different
        #: SMXs in mostly disjoint index ranges under the AGT's
        #: power-of-two AND mask (see DESIGN.md).
        self.hw_slot_base = tb.smx.smx_id * 157 + context_slot * WARP_SIZE
        #: Monotonic age used by the greedy-then-oldest scheduler.
        self.age = 0
        self._gpu = gpu
        self._instrs = tb.func.program.instructions
        self._mem = gpu.memory
        self._mem_i = gpu.memory.i
        self._mem_f = gpu.memory.f
        self._mem_size = gpu.memory.size_words
        self._stats = gpu.stats
        self._cfg = gpu.config
        self._lat = gpu.latency
        self._san = gpu.sanitizer
        self.ready_cycle = 0
        self.finished = False
        self.at_barrier = False

    # ------------------------------------------------------------------
    # Operand access
    # ------------------------------------------------------------------
    def _val_i(self, operand):
        if type(operand) is Reg:
            return self.regs_i[operand.idx]
        return operand.value

    def _val_f(self, operand):
        if type(operand) is Reg:
            if operand.bank == Bank.FLT:
                return self.regs_f[operand.idx]
            return self.regs_i[operand.idx].astype(np.float64)
        return operand.value

    def _write_i(self, reg: Reg, values, mask: np.ndarray) -> None:
        np.copyto(self.regs_i[reg.idx], values, where=mask, casting="unsafe")

    def _write_f(self, reg: Reg, values, mask: np.ndarray) -> None:
        np.copyto(self.regs_f[reg.idx], values, where=mask, casting="unsafe")

    # ------------------------------------------------------------------
    # Main step
    # ------------------------------------------------------------------
    def step(self, cycle: int) -> None:
        """Execute one instruction for the active frame's lanes."""
        stack = self.stack
        frame = stack[-1]
        # Pop frames that reached their reconvergence point.
        while len(stack) > 1 and frame[1] >= 0 and frame[0] == frame[1]:
            stack.pop()
            frame = stack[-1]
        pc = frame[0]
        mask = frame[2]
        try:
            instr = self._instrs[pc]
        except IndexError:
            raise ExecutionError(
                f"warp ran off the end of kernel {self.tb.func.name!r} at pc={pc}"
            ) from None
        active = int(np.count_nonzero(mask))
        self._stats.record_issue(active)
        tracer = self._gpu.tracer
        if tracer is not None:
            tracer.on_issue(self, pc, instr.op, active, cycle)
        if self._san is not None:
            self._san.observe(self, pc, instr, mask, cycle)
        handler = _DISPATCH[instr.op]
        if not handler(self, instr, frame, mask, cycle):
            frame[0] = pc + 1

    # ------------------------------------------------------------------
    # ALU handler (handlers return True iff they updated the pc themselves)
    # ------------------------------------------------------------------
    def _alu_done(self, cycle: int) -> None:
        self.ready_cycle = cycle + ALU_LATENCY

    def _h_alu(self, instr, frame, mask, cycle):
        """Interpret one :data:`repro.isa.semantics.ALU` row."""
        row = ALU[instr.op]
        kinds = row.src
        args = []
        if kinds[0] == "c":
            args.append(CMP[instr.cmp])
            kinds = kinds[1:]
        args += [
            self._val_f(operand) if kind == "f" else self._val_i(operand)
            for kind, operand in zip(kinds, (instr.a, instr.b, instr.c))
        ]
        write = self._write_f if row.dst == Bank.FLT else self._write_i
        write(instr.dst, row.fn(*args), mask)
        self.ready_cycle = cycle + (SFU_LATENCY if row.sfu else ALU_LATENCY)
        return False

    # ------------------------------------------------------------------
    # Memory: one handler over the MEMORY rows, and the helpers of each
    # space's address translation and timing (the fast core's too)
    # ------------------------------------------------------------------
    def _h_memory(self, instr, frame, mask, cycle):
        """Interpret one :data:`repro.isa.semantics.MEMORY` row."""
        row = MEMORY[instr.op]
        space = row.space
        flt = row.bank == Bank.FLT
        base = self._val_i(instr.a)
        if isinstance(base, np.ndarray):
            addrs = base[mask] + instr.offset
        else:
            addrs = np.full(int(np.count_nonzero(mask)), base + instr.offset, dtype=np.int64)
        if space == "shared":
            words = self.tb.shared
            limit = words.size
        else:
            words = self._mem_f if flt else self._mem_i
            limit = self.tb.func.local_words if space == "local" else self._mem_size
        hi = -1
        if addrs.size:
            lo = int(addrs.min())
            hi = int(addrs.max())
            if lo < 0 or hi >= limit:
                raise out_of_range(self, space, lo, hi, limit)
        if space == "local":
            addrs = self._local_physical(addrs, mask, hi, row.store)
        elif space == "global" and row.store and hi >= self._mem.written_end:
            self._mem.written_end = hi + 1
        if row.store:
            src = self._val_f(instr.b) if flt else self._val_i(instr.b)
            words[addrs] = src[mask] if isinstance(src, np.ndarray) else src
        else:
            values = np.zeros(WARP_SIZE, dtype=words.dtype)
            values[mask] = words[addrs]
            (self._write_f if flt else self._write_i)(instr.dst, values, mask)
        if space == "shared":
            degree = self._shared_conflict_degree(addrs)
            self.ready_cycle = cycle + SHARED_LATENCY * degree
        else:
            l1 = self.tb.smx.l1 if space == "local" else None
            self._memory_timing(addrs, row.store, cycle, l1)
        return False

    def _memory_timing(self, addrs: np.ndarray, is_write: bool, cycle: int, l1=None) -> None:
        """Coalesce, count and time one access to the device store.  Local
        memory is cached: it probes the SMX's ``l1`` and sends on only the
        segments that miss."""
        segments = coalesce_addresses(addrs)
        self._stats.coalescing.record(addrs.size, segments.size)
        memsys = self._gpu.memsys
        if l1 is None:
            completion = memsys.warp_access(segments, is_write, cycle)
        else:
            completion = cycle + L1_HIT_LATENCY
            missing = [int(seg) for seg in segments if not l1.access(int(seg))]
            if missing:
                done = memsys.warp_access(np.asarray(missing, dtype=np.int64), is_write, cycle)
                completion = max(completion, done)
        if is_write:
            # Stores retire into the memory system; the warp does not wait.
            self.ready_cycle = cycle + ALU_LATENCY
        else:
            self.ready_cycle = completion

    def _shared_conflict_degree(self, addrs: np.ndarray) -> int:
        """n-way bank conflict factor: max distinct addresses per bank.

        Duplicate addresses broadcast (no conflict); distinct addresses in
        the same bank serialize.
        """
        if addrs.size <= 1:
            return 1
        distinct = np.unique(addrs)
        if distinct.size == 1:
            return 1
        banks = distinct % SHARED_BANKS
        return int(np.bincount(banks).max())

    def _local_physical(
        self, offsets: np.ndarray, mask: np.ndarray, hi: int, store: bool
    ) -> np.ndarray:
        """Physical addresses of the active lanes' local word offsets
        (bounds-checked; ``hi`` is the highest, -1 for no lane).

        CUDA's interleaved local layout: word ``offset`` of every thread
        is contiguous across lanes, so lane-uniform offsets coalesce.
        """
        base = self._gpu.local_arena_base(self.tb.smx.smx_id)
        threads = self._cfg.max_resident_threads
        if store and hi >= 0:
            # Every lane id is below ``threads``: the end of row ``hi``.
            end = base + (hi + 1) * threads
            if end > self._mem.written_end:
                self._mem.written_end = end
        lane_ids = self.context_slot * WARP_SIZE + np.flatnonzero(mask)
        return base + offsets * threads + lane_ids

    # ------------------------------------------------------------------
    # Warp-level primitives (shuffle / vote)
    # ------------------------------------------------------------------
    def _h_shfl_idx(self, instr, frame, mask, cycle):
        source = np.asarray(self._val_i(instr.a))
        lanes = np.asarray(self._val_i(instr.b)) % WARP_SIZE
        if source.ndim == 0:
            source = np.full(WARP_SIZE, source, dtype=np.int64)
        if lanes.ndim == 0:
            lanes = np.full(WARP_SIZE, lanes, dtype=np.int64)
        self._write_i(instr.dst, source[lanes], mask)
        self._alu_done(cycle)
        return False

    def _h_shfl_down(self, instr, frame, mask, cycle):
        source = np.asarray(self._val_i(instr.a))
        delta = int(np.asarray(self._val_i(instr.b)).max())
        if source.ndim == 0:
            source = np.full(WARP_SIZE, source, dtype=np.int64)
        lanes = np.arange(WARP_SIZE) + delta
        lanes = np.where(lanes < WARP_SIZE, lanes, np.arange(WARP_SIZE))
        self._write_i(instr.dst, source[lanes], mask)
        self._alu_done(cycle)
        return False

    def _h_vote(self, instr, frame, mask, cycle):
        predicate = np.asarray(self._val_i(instr.a)) != 0
        if predicate.ndim == 0:
            predicate = np.full(WARP_SIZE, bool(predicate))
        active = predicate & mask
        if instr.op == Opcode.VOTE_ANY:
            result = int(active.any())
        elif instr.op == Opcode.VOTE_ALL:
            result = int((predicate | ~mask).all())
        else:  # VOTE_BALLOT: bit i set iff lane i is active and true
            result = int(
                (active * (np.int64(1) << np.arange(WARP_SIZE, dtype=np.int64))).sum()
            )
        self._write_i(instr.dst, result, mask)
        self._alu_done(cycle)
        return False

    # ------------------------------------------------------------------
    # Atomics (serialized per lane, as hardware does for address conflicts)
    # ------------------------------------------------------------------
    def _h_atomic(self, instr, frame, mask, cycle):
        addrs_full = self._val_i(instr.a)
        lanes = np.flatnonzero(mask)
        mem = self._mem_i
        combine = ATOMIC[instr.op].scalar
        bvals = self._val_i(instr.b)
        cvals = self._val_i(instr.c) if instr.c is not None else None
        old = np.zeros(WARP_SIZE, dtype=np.int64)
        active_addrs = np.empty(lanes.size, dtype=np.int64)
        for pos, lane in enumerate(lanes):
            addr = int(addrs_full[lane]) if isinstance(addrs_full, np.ndarray) else int(addrs_full)
            addr += instr.offset
            if addr < 0 or addr >= self._mem_size:
                raise ExecutionError(
                    f"kernel {self.tb.func.name!r}: atomic out of range at {addr}"
                )
            active_addrs[pos] = addr
            value = int(bvals[lane]) if isinstance(bvals, np.ndarray) else int(bvals)
            current = int(mem[addr])
            old[lane] = current
            new = None
            if cvals is not None:  # ATOM_CAS: b is compare, c is the new value
                new = int(cvals[lane]) if isinstance(cvals, np.ndarray) else int(cvals)
            mem[addr] = combine(current, value, new)
            if addr >= self._mem.written_end:
                self._mem.written_end = addr + 1
        if instr.dst is not None:
            self._write_i(instr.dst, old, mask)
        self._memory_timing(active_addrs, False, cycle)
        return False

    # ------------------------------------------------------------------
    # Control flow
    # ------------------------------------------------------------------
    def _h_bra(self, instr, frame, mask, cycle):
        pc = frame[0]
        self._alu_done(cycle)
        if instr.pred is None:
            frame[0] = instr.target
            return True
        predv = self.regs_i[instr.pred.idx] != 0
        if not instr.pred_sense:
            predv = ~predv
        taken = mask & predv
        n_taken = int(np.count_nonzero(taken))
        if n_taken == 0:
            self._stats.branches_uniform += 1
            frame[0] = pc + 1
            return True
        if n_taken == int(np.count_nonzero(mask)):
            self._stats.branches_uniform += 1
            frame[0] = instr.target
            return True
        # Divergence: rewrite the current frame into the reconvergence
        # frame and push one frame per path (taken executes first).
        self._stats.branches_diverged += 1
        rpc = instr.reconv
        fall = mask & ~predv
        frame[0] = rpc
        self.stack.append([pc + 1, rpc, fall])
        self.stack.append([instr.target, rpc, taken])
        return True

    def _h_join(self, instr, frame, mask, cycle):
        # Reconvergence marker (and NOP): frames are popped in step();
        # executing one just costs a cycle for the merged warp.
        self.ready_cycle = cycle + 1
        return False

    def _h_bar(self, instr, frame, mask, cycle):
        frame[0] += 1
        self.at_barrier = True
        self.tb.arrive_barrier(self, cycle)
        return True

    def _h_exit(self, instr, frame, mask, cycle):
        self.finished = True
        self.tb.warp_finished(self, cycle)
        return True

    # ------------------------------------------------------------------
    # Special registers
    # ------------------------------------------------------------------
    def _h_read_special(self, instr, frame, mask, cycle):
        self._write_i(instr.dst, SPECIAL[instr.special](self), mask)
        self._alu_done(cycle)
        return False

    # ------------------------------------------------------------------
    # Device runtime: parameter buffers, streams, launches
    # ------------------------------------------------------------------
    def _h_stream_create(self, instr, frame, mask, cycle):
        ids = self._gpu.runtime.create_streams(int(np.count_nonzero(mask)))
        values = np.zeros(WARP_SIZE, dtype=np.int64)
        values[mask] = ids
        self._write_i(instr.dst, values, mask)
        self.ready_cycle = cycle + self._lat.stream_create
        return False

    def _h_get_param_buf(self, instr, frame, mask, cycle):
        count = int(np.count_nonzero(mask))
        bases = self._gpu.runtime.alloc_param_buffers(count, instr.size)
        values = np.zeros(WARP_SIZE, dtype=np.int64)
        values[mask] = bases
        self._write_i(instr.dst, values, mask)
        self.ready_cycle = cycle + self._lat.param_buffer_cycles(count)
        return False

    def _dim_lane(self, operand, lane: int) -> int:
        value = self._val_i(operand)
        if isinstance(value, np.ndarray):
            return int(value[lane])
        return int(value)

    def _collect_launches(self, instr, mask: np.ndarray):
        lanes = np.flatnonzero(mask)
        params = self._val_i(instr.a)
        requests = []
        for lane in lanes:
            lane = int(lane)
            grid = tuple(self._dim_lane(op, lane) for op in instr.grid_dims)
            block = tuple(self._dim_lane(op, lane) for op in instr.block_dims)
            param = int(params[lane]) if isinstance(params, np.ndarray) else int(params)
            requests.append((instr.kernel, param, grid, block, self.hw_slot_base + lane))
        return requests

    def _h_launch_device(self, instr, frame, mask, cycle):
        requests = self._collect_launches(instr, mask)
        stall = self._lat.launch_device_cycles(len(requests))
        self._gpu.runtime.submit("device_launch_batch", requests, cycle + stall)
        self.ready_cycle = cycle + stall
        return False

    def _h_launch_agg(self, instr, frame, mask, cycle):
        requests = self._collect_launches(instr, mask)
        # Section 4.3: KDE search is pipelined over the 32 entries and the
        # AGT probe is a single-cycle hash; parameter-buffer allocation (the
        # dominant cost) was already paid at GET_PARAM_BUF.
        stall = (
            self._lat.kde_search_cycles(self._cfg.max_concurrent_kernels)
            + self._lat.agt_probe
        )
        self._gpu.runtime.submit("agg_launch_batch", requests, cycle + stall)
        self.ready_cycle = cycle + stall
        return False


_DISPATCH: Dict[Opcode, Callable] = {
    **dict.fromkeys(ALU, Warp._h_alu),
    **dict.fromkeys(ATOMIC, Warp._h_atomic),
    **dict.fromkeys(MEMORY, Warp._h_memory),
    Opcode.SHFL_IDX: Warp._h_shfl_idx,
    Opcode.SHFL_DOWN: Warp._h_shfl_down,
    Opcode.VOTE_ANY: Warp._h_vote,
    Opcode.VOTE_ALL: Warp._h_vote,
    Opcode.VOTE_BALLOT: Warp._h_vote,
    Opcode.BRA: Warp._h_bra,
    Opcode.JOIN: Warp._h_join,
    Opcode.BAR: Warp._h_bar,
    Opcode.EXIT: Warp._h_exit,
    Opcode.NOP: Warp._h_join,
    Opcode.READ_SPECIAL: Warp._h_read_special,
    Opcode.STREAM_CREATE: Warp._h_stream_create,
    Opcode.GET_PARAM_BUF: Warp._h_get_param_buf,
    Opcode.LAUNCH_DEVICE: Warp._h_launch_device,
    Opcode.LAUNCH_AGG: Warp._h_launch_agg,
}
