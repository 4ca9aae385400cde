"""The SMX scheduler: FCFS kernel selection, TB distribution, and the DTBL
scheduling procedure of Section 4.2 / Fig. 5.

The scheduler owns the FCFS controller (the queue of *marked* Kernel
Distributor entries), distributes native and aggregated thread blocks to
SMXs with free resources, and processes aggregation operation commands:
eligible-kernel search, AGT allocation via the single-probe hash, the
NAGEI/LAGEI scheduling pool, and the fall-back to a device-kernel launch
when no eligible kernel exists.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Deque, List, Optional, Sequence, Tuple

from ..config import SEGMENT_WORDS
from ..dtbl.agt import AggregatedGroupEntry, AggregatedGroupTable
from ..dtbl.aggregation import AggLaunchRequest
from .kernel import dims_total
from .kernel_distributor import KDEEntry
from .stats import LaunchKind, LaunchRecord

if TYPE_CHECKING:  # pragma: no cover
    from .gpu import GPU
    from .smx import SMX
    from .thread_block import ThreadBlock


class SMXScheduler:
    """FCFS controller + TB distribution + DTBL extension."""

    STATE = (
        ("fcfs", ["kde"], 0),
        ("agt", AggregatedGroupTable),
        ("_distribute_scheduled", "value"),
        ("_gate_retries", "copy"),
        ("_smx_cursor", "value"),
    )
    NOT_STATE = ("_gpu",)  # wiring

    def __init__(self, gpu: "GPU") -> None:
        self._gpu = gpu
        self.fcfs: Deque[KDEEntry] = deque()
        self.agt = AggregatedGroupTable(gpu.config.agt_entries)
        self._distribute_scheduled = False
        #: Cycles with a pending gate-retry event (deduplicates the
        #: fetch-gate wake-ups the same way _distribute_scheduled
        #: deduplicates same-cycle passes; without this, every pass that
        #: sees a gated group stacks another retry at the same cycle and
        #: each retry grants a fresh per-SMX quota).
        self._gate_retries: set = set()
        self._smx_cursor = 0

    # ------------------------------------------------------------------
    # FCFS marking
    # ------------------------------------------------------------------
    def mark(self, entry: KDEEntry, cycle: int) -> None:
        """Queue a KDE entry for TB distribution (the FCFS 'marked' bit)."""
        assert not entry.marked
        entry.marked = True
        entry.ever_marked = True
        self.fcfs.append(entry)
        self.notify(cycle)

    def notify(self, cycle: int) -> None:
        """Request a distribution pass (deduplicated per cycle)."""
        if self._distribute_scheduled or not self.fcfs:
            return
        self._distribute_scheduled = True
        self._gpu.schedule_event(cycle, kind="distribute")

    def _run_distribute(self, cycle: int) -> None:
        self._distribute_scheduled = False
        self.distribute(cycle)

    def _make_gate_retry(self, when: int):
        def retry(at: int) -> None:
            self._gate_retries.discard(when)
            self.distribute(at)

        return retry

    # ------------------------------------------------------------------
    # TB distribution
    # ------------------------------------------------------------------
    def distribute(self, cycle: int) -> None:
        """Distribute up to one TB per SMX this cycle, FCFS over entries."""
        gpu = self._gpu
        quota = gpu.config.num_smx
        queue = self.fcfs
        gates: List[int] = []
        index = 0
        while quota > 0 and index < len(queue):
            entry = queue[index]
            while quota > 0:
                spec = self._next_tb(entry, cycle, gates)
                if spec is None:
                    break
                smx = self._find_smx(entry)
                if smx is None:
                    break
                self._place(entry, spec, smx, cycle)
                quota -= 1
            if entry.fully_distributed:
                self._unmark(entry, cycle)
                del queue[index]
                continue
            index += 1
        if quota == 0 and any(not e.fully_distributed for e in queue):
            self.notify(cycle + 1)
        if gates:
            when = min(gates)
            if when not in self._gate_retries:
                self._gate_retries.add(when)
                self._gpu.schedule_event(when, kind="gate_retry", payload=when)
        # When blocked purely by SMX capacity, on_block_complete re-notifies.

    def _next_tb(
        self, entry: KDEEntry, cycle: int, gates: List[int]
    ) -> Optional[Tuple[Optional[AggregatedGroupEntry], int]]:
        """Next distributable TB of ``entry``: (group-or-None, block index)."""
        if entry.next_block < entry.total_blocks:
            return (None, entry.next_block)
        entry.advance_nagei()
        group = entry.nagei
        if group is None:
            return None
        if not group.in_agt:
            # Group information lives in global memory: the scheduler must
            # fetch it before the group's TBs can be distributed; the cost
            # depends on current memory traffic (Section 4.3).
            if not group.fetch_issued:
                group.fetch_issued = True
                segment = group.param_addr // SEGMENT_WORDS
                group.gate_until = self._gpu.memsys.read_latency(segment, cycle)
            if group.gate_until is not None and group.gate_until > cycle:
                gates.append(group.gate_until)
                return None
        return (group, group.next_block)

    def _find_smx(self, entry: KDEEntry) -> Optional["SMX"]:
        smxs = self._gpu.smxs
        n = len(smxs)
        for step in range(n):
            smx = smxs[(self._smx_cursor + step) % n]
            if smx.can_accept(entry.func, entry.block_dims):
                self._smx_cursor = (self._smx_cursor + step + 1) % n
                return smx
        return None

    def _place(
        self,
        entry: KDEEntry,
        spec: Tuple[Optional[AggregatedGroupEntry], int],
        smx: "SMX",
        cycle: int,
    ) -> None:
        group, block_index = spec
        if group is None:
            grid_dims = entry.grid_dims
            param = entry.param_addr
            entry.next_block += 1
            entry.exe_blocks += 1
            record = entry.record
        else:
            grid_dims = group.agg_dims
            param = group.param_addr
            group.next_block += 1
            group.exe_blocks += 1
            entry.agg_exe_blocks += 1
            record = group.record
        if record.first_exec_cycle is None:
            record.first_exec_cycle = cycle
        smx.add_block(
            entry.func,
            grid_dims,
            entry.block_dims,
            block_index,
            param,
            entry,
            group,
            cycle,
        )
        if group is not None and group.fully_distributed:
            record.fully_distributed_cycle = cycle
            self._gpu.stats.release_footprint(record.pending_bytes)

    def _unmark(self, entry: KDEEntry, cycle: int) -> None:
        entry.marked = False
        record = entry.record
        if record.fully_distributed_cycle is None:
            record.fully_distributed_cycle = cycle
            if record.kind is LaunchKind.DEVICE_KERNEL:
                self._gpu.stats.release_footprint(record.pending_bytes)
        if entry.completed:
            self._release_entry(entry, cycle)

    # ------------------------------------------------------------------
    # Completion
    # ------------------------------------------------------------------
    def on_block_complete(self, tb: "ThreadBlock", cycle: int) -> None:
        entry = tb.kde_entry
        group = tb.age
        if group is not None:
            group.exe_blocks -= 1
            entry.agg_exe_blocks -= 1
            if group.done:
                group.record.completed_cycle = cycle
                if group.in_agt:
                    self.agt.free(group)
        else:
            entry.exe_blocks -= 1
        if not entry.marked and entry.completed:
            self._release_entry(entry, cycle)
        # Freed SMX resources may unblock distribution.
        self.notify(cycle)

    def _release_entry(self, entry: KDEEntry, cycle: int) -> None:
        gpu = self._gpu
        entry.record.completed_cycle = cycle
        gpu.distributor.free(entry)
        gpu.stats.kernels_completed += 1
        gpu.kmu.host_queues.head_completed(entry.stream_id)
        gpu.kmu.try_dispatch(cycle)

    # ------------------------------------------------------------------
    # Aggregation operation command (Fig. 5)
    # ------------------------------------------------------------------
    def process_aggregation(
        self, requests: Sequence[AggLaunchRequest], cycle: int
    ) -> None:
        """Run the DTBL scheduling procedure for each launched group."""
        gpu = self._gpu
        stats = gpu.stats
        for req in requests:
            func = gpu.kernels[req.kernel_name]
            if gpu.config.dtbl_no_coalescing:
                # Section 4.3's alternative design point: every group is
                # independently scheduled from the KDE.
                entry = None
            else:
                entry = gpu.distributor.find_eligible(func, req.block_dims)
            if entry is None:
                # No eligible kernel: launch the group as a device kernel.
                stats.agg_unmatched += 1
                gpu.kmu.launch_device(
                    req.kernel_name, req.agg_dims, req.block_dims,
                    req.param_addr, cycle,
                )
                continue
            stats.agg_matched += 1
            blocks = dims_total(req.agg_dims)
            record = LaunchRecord(
                kind=LaunchKind.AGG_GROUP,
                kernel_name=req.kernel_name,
                launch_cycle=cycle,
                total_blocks=blocks,
                total_threads=blocks * dims_total(req.block_dims),
                param_bytes=gpu.runtime.param_bytes_for(req.param_addr),
                record_bytes=gpu.config.dtbl_pending_group_bytes,
            )
            stats.launches.append(record)
            stats.add_footprint(record.pending_bytes)
            age = AggregatedGroupEntry(req.agg_dims, req.param_addr, record)
            if self.agt.try_alloc(req.hw_tid, age):
                stats.agt_hash_hits += 1
            else:
                stats.agt_hash_spills += 1
            entry.append_group(age)
            if not entry.marked:
                self.mark(entry, cycle)
            else:
                self.notify(cycle)

