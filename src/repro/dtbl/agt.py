"""The Aggregated Group Table (AGT) and Aggregated Group Entries (AGE).

Section 4.2: the AGT is an on-chip table tracking every pending aggregated
group.  Free-entry lookup uses the paper's hash, ``ind = hw_tid &
(AGT_size - 1)`` — a single-cycle probe of one slot.  If the probed slot is
busy the group's information stays in global memory instead ("spilled");
when the SMX scheduler later reaches a spilled group it must first fetch
the information from DRAM, paying a memory-traffic-dependent penalty.
"""

from __future__ import annotations

from typing import List, Optional

from ..errors import ConfigError
from ..sim.kernel import LaunchDims, dims_total
from ..sim.stats import LaunchRecord


class AggregatedGroupEntry:
    """One aggregated group: dimensions, parameters, and scheduling state.

    Mirrors the paper's AGE fields: the three-dimensional aggregated-group
    size (``AggDim``), the parameter address (``Param``), the link to the
    next group coalesced to the same kernel (``Next``), and the count of
    TBs in execution (``ExeBL``).
    """

    __slots__ = (
        "agg_dims",
        "param_addr",
        "next",
        "total_blocks",
        "next_block",
        "exe_blocks",
        "in_agt",
        "agt_index",
        "gate_until",
        "fetch_issued",
        "record",
    )
    STATE = (
        ("agg_dims", "arg:value"),
        ("param_addr", "arg:value"),
        ("record", "arg:record"),
        ("next", "age"),
        ("next_block", "value"),
        ("exe_blocks", "value"),
        ("in_agt", "value"),
        ("agt_index", "value"),
        ("gate_until", "value"),
        ("fetch_issued", "value"),
    )
    NOT_STATE = ("total_blocks",)  # derived from agg_dims

    def __init__(self, agg_dims: LaunchDims, param_addr: int, record: LaunchRecord) -> None:
        self.agg_dims = agg_dims
        self.param_addr = param_addr
        self.next: Optional["AggregatedGroupEntry"] = None
        self.total_blocks = dims_total(agg_dims)
        self.next_block = 0
        self.exe_blocks = 0
        #: True while this group's information is held on-chip in the AGT.
        self.in_agt = False
        self.agt_index: Optional[int] = None
        #: For spilled groups: cycle at which the DRAM fetch of the group
        #: information completes (None until the fetch is issued).
        self.gate_until: Optional[int] = None
        self.fetch_issued = False
        self.record = record

    @property
    def fully_distributed(self) -> bool:
        return self.next_block >= self.total_blocks

    @property
    def done(self) -> bool:
        return self.fully_distributed and self.exe_blocks == 0


class AggregatedGroupTable:
    """Fixed-size on-chip AGT with single-probe hash allocation."""

    STATE = (
        ("_slots", ["age"]),
        ("occupied", "value", 0),
        ("peak_occupied", "value"),
    )
    NOT_STATE = ("size",)  # geometry

    def __init__(self, entries: int) -> None:
        if entries <= 0 or entries & (entries - 1):
            raise ConfigError("AGT size must be a positive power of two")
        self.size = entries
        self._slots: List[Optional[AggregatedGroupEntry]] = [None] * entries
        self.occupied = 0
        self.peak_occupied = 0

    def hash_index(self, hw_tid: int) -> int:
        """The paper's hash: ``ind = hw_tid & (AGT_size - 1)``."""
        return hw_tid & (self.size - 1)

    def try_alloc(self, hw_tid: int, age: AggregatedGroupEntry) -> bool:
        """Probe the hashed slot once; on success the group lives on-chip."""
        index = self.hash_index(hw_tid)
        if self._slots[index] is not None:
            return False
        self._slots[index] = age
        age.in_agt = True
        age.agt_index = index
        self.occupied += 1
        if self.occupied > self.peak_occupied:
            self.peak_occupied = self.occupied
        return True

    def free(self, age: AggregatedGroupEntry) -> None:
        """Release a group's slot once all of its TBs completed."""
        if age.agt_index is None:
            return
        assert self._slots[age.agt_index] is age
        self._slots[age.agt_index] = None
        age.agt_index = None
        age.in_agt = False
        self.occupied -= 1

    def slot(self, index: int) -> Optional[AggregatedGroupEntry]:
        return self._slots[index]
