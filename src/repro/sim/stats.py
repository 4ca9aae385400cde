"""Simulation statistics.

Collects exactly the quantities the paper's evaluation (Section 5.2)
reports:

* **warp activity percentage** (Fig. 6): mean fraction of active lanes per
  issued warp instruction;
* **DRAM efficiency** (Fig. 7): via :class:`~repro.memory.dram.DramStats`;
* **SMX occupancy** (Fig. 8): time-weighted mean resident warps per SMX
  over the maximum (64), in percent;
* **waiting time** (Fig. 9): launch-to-first-execution latency of each
  dynamically launched kernel / aggregated group;
* **memory footprint** (Fig. 10): peak bytes reserved for pending dynamic
  launches (records + parameter buffers);
* **total cycles** (Fig. 11 speedups);
* eligible-kernel match rate for DTBL coalescing (Section 4.2's 98%).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, fields
from typing import List, Optional

from ..config import WARP_SIZE, GPUConfig
from ..memory.coalescing import CoalescingStats
from ..memory.dram import DramStats


class LaunchKind(enum.Enum):
    """What kind of dynamic launch a :class:`LaunchRecord` describes."""

    HOST_KERNEL = "host_kernel"
    DEVICE_KERNEL = "device_kernel"
    AGG_GROUP = "agg_group"


@dataclass
class LaunchRecord:
    """Lifecycle of one launch, for waiting-time and footprint metrics."""

    kind: LaunchKind
    kernel_name: str
    launch_cycle: int
    total_blocks: int
    total_threads: int
    param_bytes: int = 0
    record_bytes: int = 0
    first_exec_cycle: Optional[int] = None
    fully_distributed_cycle: Optional[int] = None
    completed_cycle: Optional[int] = None

    @property
    def waiting_cycles(self) -> Optional[int]:
        if self.first_exec_cycle is None:
            return None
        return self.first_exec_cycle - self.launch_cycle

    @property
    def pending_bytes(self) -> int:
        return self.param_bytes + self.record_bytes


#: :class:`LaunchRecord`'s fields in constructor order: the table's columns.
LAUNCH_FIELDS = tuple(field.name for field in fields(LaunchRecord))
_KINDS = {kind.value: kind for kind in LaunchKind}
#: :meth:`SimStats.launches_by_kernel`'s count keys: host, device, agg.
_KIND_KEYS = {kind: kind.value.split("_")[0] for kind in LaunchKind}


def launch_columns(records: List[LaunchRecord]) -> dict:
    """The launch table as one JSON-safe list per :data:`LAUNCH_FIELDS`
    entry, ``kind`` as its string value; :func:`launch_records` inverts it."""
    columns = {name: [getattr(r, name) for r in records] for name in LAUNCH_FIELDS}
    columns["kind"] = [kind.value for kind in columns["kind"]]
    return columns


def launch_records(columns: dict) -> List[LaunchRecord]:
    """Rebuild the records :func:`launch_columns` encoded, exactly.

    Raises :class:`ValueError` for a missing column, columns of unequal
    length, an unknown ``kind`` or the older list-of-objects layout.
    """
    try:
        kinds, *values = [columns[name] for name in LAUNCH_FIELDS]  # kind comes first
    except (KeyError, TypeError):
        raise ValueError("launch table is not one column per LaunchRecord field") from None
    if len(set(map(len, (kinds, *values)))) > 1:
        raise ValueError("launch table columns differ in length")
    try:
        kinds = [_KINDS[value] for value in kinds]
    except KeyError as exc:
        raise ValueError(f"unknown launch kind {exc.args[0]!r}") from None
    return list(map(LaunchRecord, kinds, *values))


class SimStats:
    """Mutable counters for one simulation run."""

    STATE = (
        ("cycles", "value"),
        ("issued_instructions", "value"),
        ("active_lane_sum", "value"),
        ("resident_warp_cycles", "value"),
        ("footprint_bytes", "value", 0),
        ("peak_footprint_bytes", "value"),
        ("agg_matched", "value"),
        ("agg_unmatched", "value"),
        ("agt_hash_hits", "value"),
        ("agt_hash_spills", "value"),
        ("branches_uniform", "value"),
        ("branches_diverged", "value"),
        ("blocks_completed", "value"),
        ("kernels_completed", "value"),
        ("coalescing", CoalescingStats),
    )
    NOT_STATE = (
        "config",  # constructor input
        "dram",  # the DRAM controller's own stats object, a row there
        "launches",  # the launch-record registry
    )

    def __init__(self, config: GPUConfig) -> None:
        self.config = config
        self.cycles = 0
        self.issued_instructions = 0
        self.active_lane_sum = 0
        self.coalescing = CoalescingStats()
        self.dram: DramStats = DramStats()  # replaced by the live object at GPU init
        self.launches: List[LaunchRecord] = []
        # Occupancy: integral of (resident unfinished warps across all SMXs)
        # over cycles.
        self.resident_warp_cycles = 0
        # Footprint accounting for pending dynamic launches.
        self.footprint_bytes = 0
        self.peak_footprint_bytes = 0
        # DTBL coalescing outcome counters.
        self.agg_matched = 0
        self.agg_unmatched = 0
        self.agt_hash_hits = 0
        self.agt_hash_spills = 0
        # Branch behaviour.
        self.branches_uniform = 0
        self.branches_diverged = 0
        # Completed thread blocks / kernels.
        self.blocks_completed = 0
        self.kernels_completed = 0

    # ------------------------------------------------------------------
    # Recording hooks (called from the hot path; keep them tiny)
    # ------------------------------------------------------------------
    def record_issue(self, active_lanes: int) -> None:
        self.issued_instructions += 1
        self.active_lane_sum += active_lanes

    def add_footprint(self, nbytes: int) -> None:
        self.footprint_bytes += nbytes
        if self.footprint_bytes > self.peak_footprint_bytes:
            self.peak_footprint_bytes = self.footprint_bytes

    def release_footprint(self, nbytes: int) -> None:
        self.footprint_bytes -= nbytes

    # ------------------------------------------------------------------
    # Derived metrics
    # ------------------------------------------------------------------
    @property
    def warp_activity_pct(self) -> float:
        """Fig. 6 metric: average % of active threads per issued warp instr."""
        if not self.issued_instructions:
            return 0.0
        return 100.0 * self.active_lane_sum / (self.issued_instructions * WARP_SIZE)

    @property
    def dram_efficiency(self) -> float:
        """Fig. 7 metric."""
        return self.dram.efficiency

    @property
    def smx_occupancy_pct(self) -> float:
        """Fig. 8 metric: mean resident warps per SMX / 64, in percent."""
        if not self.cycles:
            return 0.0
        denom = self.cycles * self.config.num_smx * self.config.max_resident_warps
        return 100.0 * self.resident_warp_cycles / denom

    def dynamic_launches(self) -> List[LaunchRecord]:
        return [r for r in self.launches if r.kind is not LaunchKind.HOST_KERNEL]

    @property
    def avg_waiting_cycles(self) -> float:
        """Fig. 9 metric, over dynamic launches that began executing."""
        waits = [
            wait
            for wait in (r.waiting_cycles for r in self.dynamic_launches())
            if wait is not None
        ]
        if not waits:
            return 0.0
        return sum(waits) / len(waits)

    @property
    def branch_divergence_rate(self) -> float:
        """Fraction of executed conditional branches that diverged."""
        total = self.branches_uniform + self.branches_diverged
        return self.branches_diverged / total if total else 0.0

    @property
    def agg_match_rate(self) -> float:
        total = self.agg_matched + self.agg_unmatched
        return self.agg_matched / total if total else 0.0

    @property
    def avg_dynamic_threads(self) -> float:
        """Mean thread count of dynamically launched kernels / groups."""
        dyn = self.dynamic_launches()
        if not dyn:
            return 0.0
        return sum(r.total_threads for r in dyn) / len(dyn)

    def launches_by_kernel(self) -> dict:
        """Launch-record roll-up keyed by kernel name.

        Each value holds counts per launch kind plus total blocks/threads
        and the mean waiting time of that kernel's dynamic launches.
        """
        rollup: dict = {}
        for record in self.launches:
            entry = rollup.setdefault(
                record.kernel_name,
                {
                    "host": 0,
                    "device": 0,
                    "agg": 0,
                    "blocks": 0,
                    "threads": 0,
                    "waits": [],
                },
            )
            entry[_KIND_KEYS[record.kind]] += 1
            entry["blocks"] += record.total_blocks
            entry["threads"] += record.total_threads
            wait = record.waiting_cycles
            if record.kind is not LaunchKind.HOST_KERNEL and wait is not None:
                entry["waits"].append(wait)
        for entry in rollup.values():
            waits = entry.pop("waits")
            entry["avg_wait"] = sum(waits) / len(waits) if waits else 0.0
        return rollup

    # ------------------------------------------------------------------
    # Serialization (exact round trip; repro.exec's on-disk cache and the
    # multi-process sweep engine move SimStats across process boundaries)
    # ------------------------------------------------------------------

    #: Plain integer counters copied verbatim by to_dict/from_dict.
    _COUNTER_FIELDS = tuple(row[0] for row in STATE if row[1] == "value")

    def to_dict(self) -> dict:
        """Every counter, nested stat and launch record, JSON-safe.

        ``launches`` holds one list per :class:`LaunchRecord` field
        (:func:`launch_columns`), not one keyed object per launch.
        ``SimStats.from_dict(stats.to_dict())`` reproduces the object
        bit-exactly — including after a ``json.dumps``/``loads`` round
        trip, which is what the on-disk result cache relies on.
        """
        data = {name: getattr(self, name) for name in self._COUNTER_FIELDS}
        data["config"] = self.config.to_dict()
        data["coalescing"] = self.coalescing.to_dict()
        data["dram"] = self.dram.to_dict()
        data["launches"] = launch_columns(self.launches)
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "SimStats":
        stats = cls(GPUConfig.from_dict(data["config"]))
        for name in cls._COUNTER_FIELDS:
            setattr(stats, name, int(data[name]))
        stats.coalescing = CoalescingStats.from_dict(data["coalescing"])
        stats.dram = DramStats.from_dict(data["dram"])
        stats.launches = launch_records(data["launches"])
        return stats

    def summary(self) -> dict:
        """Flat dictionary of the headline metrics, for harness reports."""
        return {
            "cycles": self.cycles,
            "instructions": self.issued_instructions,
            "warp_activity_pct": self.warp_activity_pct,
            "dram_efficiency": self.dram_efficiency,
            "smx_occupancy_pct": self.smx_occupancy_pct,
            "avg_waiting_cycles": self.avg_waiting_cycles,
            "peak_footprint_bytes": self.peak_footprint_bytes,
            "dynamic_launches": len(self.dynamic_launches()),
            "avg_dynamic_threads": self.avg_dynamic_threads,
            "agg_match_rate": self.agg_match_rate,
            "branch_divergence_rate": self.branch_divergence_rate,
            "blocks_completed": self.blocks_completed,
            "kernels_completed": self.kernels_completed,
        }
