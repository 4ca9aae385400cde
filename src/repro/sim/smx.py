"""The Streaming Multiprocessor (SMX): resources and warp scheduling.

Resources (Table 2 limits): resident thread blocks, resident threads,
registers, shared memory, and warp-context slots.  The warp scheduler is
greedy-then-oldest (GTO, [Rogers et al. MICRO'12]); under this simulator's
in-order dependent-issue model a warp is never ready again in the cycle it
issued, so GTO reduces to oldest-ready-first, implemented as a lazy-deletion
min-heap keyed by (ready_cycle, age).
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING, List, Optional

from ..config import (
    CONTEXT_SETUP_CYCLES, ISSUE_WIDTH, L1_ASSOC, L1_SIZE,
    SEGMENT_BYTES, SHARED_MEM_SIZE, WORD_BYTES,
)
from ..errors import LaunchError
from ..memory.cache import Cache
from .kernel import KernelFunction, LaunchDims, dims_total
from .thread_block import ThreadBlock
from .warp import Warp

if TYPE_CHECKING:  # pragma: no cover
    from .gpu import GPU


class SMX:
    """One streaming multiprocessor."""

    STATE = (
        ("free_threads", "value", "max_resident_threads"),
        ("free_blocks", "value", "max_resident_blocks"),
        ("free_regs", "value", "registers_per_smx"),
        ("free_shared", "value", SHARED_MEM_SIZE),
        ("free_warp_slots", "value", "max_resident_warps"),
        ("resident_warps", "value", 0),
        ("_seq", "value"),
        ("_free_slots", "copy", "max_resident_warps"),
        ("l1", Cache),
        ("blocks", [ThreadBlock], 0),
    )
    NOT_STATE = (
        "smx_id", "gpu", "_cfg",  # identity and wiring
        "_ready_heap",  # derived from the resident warps
    )

    def __init__(self, smx_id: int, gpu: "GPU") -> None:
        self.smx_id = smx_id
        self.gpu = gpu
        cfg = gpu.config
        self._cfg = cfg
        self.free_threads = cfg.max_resident_threads
        self.free_blocks = cfg.max_resident_blocks
        self.free_regs = cfg.registers_per_smx
        self.free_shared = SHARED_MEM_SIZE
        self.free_warp_slots = cfg.max_resident_warps
        self.blocks: List[ThreadBlock] = []
        self.resident_warps = 0
        self._ready_heap: list = []
        # Plain int age counter (not itertools.count) so checkpoints can
        # serialize and restore it exactly.
        self._seq = 0
        #: Free warp-context slots; a resident warp owns one slot, which
        #: also determines its hardware thread indices and local-memory
        #: segment.
        self._free_slots: List[int] = list(range(cfg.max_resident_warps - 1, -1, -1))
        #: Per-SMX L1 (local-memory cache on this Kepler-like baseline).
        self.l1 = Cache(L1_SIZE, SEGMENT_BYTES, L1_ASSOC)

    # ------------------------------------------------------------------
    # Resource admission
    # ------------------------------------------------------------------
    def can_accept(self, func: KernelFunction, block_dims: LaunchDims) -> bool:
        threads = dims_total(block_dims)
        warps = func.warps_per_block(block_dims)
        return (
            self.free_blocks >= 1
            and self.free_threads >= threads
            and self.free_warp_slots >= warps
            and self.free_regs >= threads * func.regs_per_thread
            and self.free_shared >= func.shared_words * WORD_BYTES
        )

    def add_block(
        self,
        func: KernelFunction,
        grid_dims: LaunchDims,
        block_dims: LaunchDims,
        block_linear_index: int,
        param_addr: int,
        kde_entry,
        age,
        cycle: int,
    ) -> ThreadBlock:
        if not self.can_accept(func, block_dims):
            raise LaunchError(
                f"SMX {self.smx_id} cannot accept a block of kernel {func.name!r}"
            )
        threads = dims_total(block_dims)
        warps = func.warps_per_block(block_dims)
        self.free_blocks -= 1
        self.free_threads -= threads
        self.free_warp_slots -= warps
        self.free_regs -= threads * func.regs_per_thread
        self.free_shared -= func.shared_words * WORD_BYTES

        # Hardware thread index of the block's first lane.  The SMX id is
        # folded in so that identical warp slots on different SMXs hash to
        # different AGT entries (see DESIGN.md; the paper's per-SMX hw_tid
        # would alias systematically across SMXs in a shared AGT).
        slots = [self._free_slots.pop() for _ in range(warps)]
        # Context setup: the first block of a kernel not already resident
        # on this SMX pays function-load / partitioning setup; co-resident
        # blocks of the same kernel (native or coalesced aggregated TBs)
        # share the context (Section 4.2's coalescing benefit).
        start_cycle = cycle
        if not any(tb.func is func for tb in self.blocks):
            start_cycle += CONTEXT_SETUP_CYCLES
        tb = ThreadBlock(
            self,
            func,
            grid_dims,
            block_dims,
            block_linear_index,
            param_addr,
            kde_entry,
            age,
            slots,
        )
        if self.gpu.sanitizer is not None:
            self.gpu.sanitizer.on_block_start(tb, start_cycle)
        self.blocks.append(tb)
        self.resident_warps += len(tb.warps)
        self.gpu.active_warps += len(tb.warps)
        gheap = self.gpu._gheap
        smx_id = self.smx_id
        for warp in tb.warps:
            warp.ready_cycle = start_cycle
            warp.age = self._seq
            self._seq += 1
            if gheap is not None:
                heapq.heappush(
                    gheap, (start_cycle, smx_id, start_cycle, warp.age, warp)
                )
            else:
                heapq.heappush(self._ready_heap, (start_cycle, warp.age, warp))
        return tb

    # ------------------------------------------------------------------
    # Warp lifecycle callbacks
    # ------------------------------------------------------------------
    def requeue_warp(self, warp: Warp) -> None:
        """Re-arm a warp released from a barrier."""
        gheap = self.gpu._gheap
        if gheap is not None:
            heapq.heappush(
                gheap,
                (warp.ready_cycle, self.smx_id, warp.ready_cycle, warp.age, warp),
            )
        else:
            heapq.heappush(self._ready_heap, (warp.ready_cycle, warp.age, warp))

    def warp_retired(self, warp: Warp, cycle: int) -> None:
        self.resident_warps -= 1
        self.gpu.active_warps -= 1

    def block_finished(self, tb: ThreadBlock, cycle: int) -> None:
        threads = tb.block_threads
        warps = len(tb.warps)
        self.free_blocks += 1
        self.free_threads += threads
        self.free_warp_slots += warps
        self.free_regs += threads * tb.func.regs_per_thread
        self.free_shared += tb.func.shared_words * WORD_BYTES
        for warp in tb.warps:
            self._free_slots.append(warp.context_slot)
        self.blocks.remove(tb)
        if self.gpu.sanitizer is not None:
            self.gpu.sanitizer.on_block_finished(tb, cycle)
        self.gpu.stats.blocks_completed += 1
        self.gpu.scheduler.on_block_complete(tb, cycle)
        # The block and its warps point at each other; without this only
        # the cycle collector would free them, and every warp holds the
        # global store's arrays (see ``GlobalMemory.release``).
        tb.warps = []

    # ------------------------------------------------------------------
    # Issue
    # ------------------------------------------------------------------
    def tick(self, cycle: int) -> int:
        """Issue up to ``ISSUE_WIDTH`` instructions from ready warps.

        Under "gto" the heap key keeps a warp's original age, yielding
        oldest-ready-first (GTO's behaviour under this simulator's
        dependent-issue model, where the greedy warp is never ready again
        in its issue cycle).  Under "rr" an issued warp is re-aged to the
        back of the queue, giving a loose round-robin.
        """
        heap = self._ready_heap
        issued = 0
        budget = ISSUE_WIDTH
        round_robin = self._cfg.warp_scheduler == "rr"
        while heap and issued < budget:
            ready_cycle, age, warp = heap[0]
            if warp.finished or warp.at_barrier or ready_cycle != warp.ready_cycle:
                heapq.heappop(heap)  # stale entry
                continue
            if ready_cycle > cycle:
                break
            heapq.heappop(heap)
            warp.step(cycle)
            issued += 1
            if not warp.finished and not warp.at_barrier:
                if round_robin:
                    warp.age = self._seq
                    self._seq += 1
                heapq.heappush(heap, (warp.ready_cycle, warp.age, warp))
        return issued

    def next_ready_cycle(self) -> Optional[int]:
        """Earliest cycle any resident warp can issue, or None if idle."""
        heap = self._ready_heap
        while heap:
            ready_cycle, age, warp = heap[0]
            if warp.finished or warp.at_barrier or ready_cycle != warp.ready_cycle:
                heapq.heappop(heap)
                continue
            return ready_cycle
        return None
