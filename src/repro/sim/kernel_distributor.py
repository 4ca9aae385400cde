"""The Kernel Distributor and its entries (KDE).

The Kernel Distributor holds the kernels ready for execution — at most 32
entries on the baseline (the maximum kernel-level concurrency, Section 2.2).
Under DTBL each entry additionally carries the NAGEI / LAGEI registers
that link the kernel's pending aggregated groups into a scheduling pool
(Section 4.2).
"""

from __future__ import annotations

from typing import List, Optional

from ..dtbl.agt import AggregatedGroupEntry
from ..errors import LaunchError
from .kernel import KernelFunction, LaunchDims, dims_total
from .stats import LaunchRecord


class KDEEntry:
    """One Kernel Distributor entry plus the DTBL extension registers."""

    __slots__ = (
        "index",
        "func",
        "grid_dims",
        "block_dims",
        "param_addr",
        "total_blocks",
        "next_block",
        "exe_blocks",
        "nagei",
        "lagei",
        "agg_exe_blocks",
        "marked",
        "ever_marked",
        "record",
        "stream_id",
    )
    STATE = (
        ("index", "arg:value"),
        ("func", "arg:kernel"),
        ("grid_dims", "arg:value"),
        ("block_dims", "arg:value"),
        ("param_addr", "arg:value"),
        ("record", "arg:record"),
        ("stream_id", "arg:value"),
        ("next_block", "value"),
        ("exe_blocks", "value"),
        ("nagei", "age"),
        ("lagei", "age"),
        ("agg_exe_blocks", "value"),
        ("marked", "value"),
        ("ever_marked", "value"),
    )
    NOT_STATE = ("total_blocks",)  # derived from grid_dims

    def __init__(
        self,
        index: int,
        func: KernelFunction,
        grid_dims: LaunchDims,
        block_dims: LaunchDims,
        param_addr: int,
        record: LaunchRecord,
        stream_id: Optional[int],
    ) -> None:
        self.index = index
        self.func = func
        self.grid_dims = grid_dims
        self.block_dims = block_dims
        self.param_addr = param_addr
        self.total_blocks = dims_total(grid_dims)
        self.next_block = 0
        #: TBs distributed to SMXs and not yet completed (the ExeBL field).
        self.exe_blocks = 0
        #: Next aggregated group to schedule (NAGEI).
        self.nagei: Optional[AggregatedGroupEntry] = None
        #: Last aggregated group coalesced to this kernel (LAGEI).
        self.lagei: Optional[AggregatedGroupEntry] = None
        #: Aggregated TBs in execution across all groups of this kernel
        #: (kept as a separate counter because fully distributed groups are
        #: unlinked from the NAGEI chain while their TBs may still run).
        self.agg_exe_blocks = 0
        #: Whether the entry currently sits in the FCFS controller's queue.
        self.marked = False
        #: The FCFS controller's extra bit: has this entry been marked before?
        self.ever_marked = False
        self.record = record
        self.stream_id = stream_id

    # ------------------------------------------------------------------
    @property
    def native_fully_distributed(self) -> bool:
        return self.next_block >= self.total_blocks

    @property
    def fully_distributed(self) -> bool:
        if not self.native_fully_distributed:
            return False
        group = self.nagei
        while group is not None:
            if not group.fully_distributed:
                return False
            group = group.next
        return True

    @property
    def completed(self) -> bool:
        """All TBs (native and aggregated) distributed and finished."""
        return (
            self.fully_distributed
            and self.exe_blocks == 0
            and self.agg_exe_blocks == 0
        )

    def append_group(self, age: AggregatedGroupEntry) -> None:
        """Link a new aggregated group at the tail (LAGEI update).

        NAGEI is updated only when the scheduling pool is currently empty —
        either this is the first group ever coalesced to the kernel, or all
        previously coalesced groups have already been distributed (the two
        scenarios of Section 4.2).
        """
        if self.lagei is not None:
            self.lagei.next = age
        self.lagei = age
        self.advance_nagei()
        if self.nagei is None:
            self.nagei = age

    def advance_nagei(self) -> None:
        """Drop fully distributed groups from the head of the pool."""
        while self.nagei is not None and self.nagei.fully_distributed:
            # Keep the chain intact for exe_blocks tracking via the group
            # objects themselves; NAGEI only tracks what remains to issue.
            self.nagei = self.nagei.next


class KernelDistributor:
    """Fixed pool of KDE entries (32 on the GK110 baseline)."""

    STATE = (
        ("_entries", [KDEEntry]),
        ("occupied", "value", 0),
        ("peak_occupied", "value"),
    )
    NOT_STATE = ("num_entries",)  # geometry

    def __init__(self, num_entries: int) -> None:
        self.num_entries = num_entries
        self._entries: List[Optional[KDEEntry]] = [None] * num_entries
        self.occupied = 0
        self.peak_occupied = 0

    @property
    def has_free(self) -> bool:
        return self.occupied < self.num_entries

    def allocate(
        self,
        func: KernelFunction,
        grid_dims: LaunchDims,
        block_dims: LaunchDims,
        param_addr: int,
        record: LaunchRecord,
        stream_id: Optional[int],
    ) -> KDEEntry:
        for index, slot in enumerate(self._entries):
            if slot is None:
                entry = KDEEntry(
                    index, func, grid_dims, block_dims, param_addr, record, stream_id
                )
                self._entries[index] = entry
                self.occupied += 1
                if self.occupied > self.peak_occupied:
                    self.peak_occupied = self.occupied
                return entry
        raise LaunchError("Kernel Distributor is full")

    def free(self, entry: KDEEntry) -> None:
        assert self._entries[entry.index] is entry
        self._entries[entry.index] = None
        self.occupied -= 1

    def find_eligible(
        self, func: KernelFunction, block_dims: LaunchDims
    ) -> Optional[KDEEntry]:
        """Eligible-kernel search for TB coalescing (Section 4.2).

        Eligible kernels have the same entry PC (same kernel function) and
        the same thread-block configuration as the aggregated group.
        """
        for entry in self._entries:
            if (
                entry is not None
                and entry.func is func
                and entry.block_dims == block_dims
            ):
                return entry
        return None
