"""DRAM controller and the combined L2+DRAM memory subsystem.

The controller models banked DRAM with open-row (row-buffer) timing: a
transaction to a bank's open row is serviced in a short slot, a row miss
pays precharge+activate.  This is the mechanism behind the paper's *DRAM
efficiency* metric, which it defines (Section 5.2A) as::

    dram_efficiency = (n_rd + n_write) / n_activity

where ``n_rd``/``n_write`` are memory commands issued by the controller and
``n_activity`` is the number of cycles in which at least one memory request
is pending.  Coalesced, sequential access streams produce row hits and
back-to-back commands (high efficiency); scattered access streams produce
row misses and idle gaps (low efficiency).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import L2_ASSOC, L2_HIT_LATENCY, SEGMENT_BYTES, GPUConfig
from .cache import Cache


@dataclass
class DramStats:
    """Counters backing the paper's Figure 7."""

    STATE = (
        ("n_read", "value"),
        ("n_write", "value"),
        ("row_hits", "value"),
        ("row_misses", "value"),
        ("n_activity", "value"),
    )
    NOT_STATE = ()

    n_read: int = 0
    n_write: int = 0
    row_hits: int = 0
    row_misses: int = 0
    #: Cycles with at least one pending DRAM request (interval union).
    n_activity: int = 0

    @property
    def commands(self) -> int:
        return self.n_read + self.n_write

    @property
    def efficiency(self) -> float:
        """The paper's dram_efficiency; 0.0 when no DRAM traffic occurred."""
        if not self.n_activity:
            return 0.0
        return self.commands / self.n_activity

    def to_dict(self) -> dict:
        """All counters as a JSON-safe dictionary (exact round trip)."""
        return {name: getattr(self, name) for name, _kind in self.STATE}

    @classmethod
    def from_dict(cls, data: dict) -> "DramStats":
        return cls(**{name: int(data[name]) for name, _kind in cls.STATE})


class DramController:
    """Banked open-row DRAM with analytic (event-based) service timing."""

    STATE = (
        ("stats", DramStats),
        ("_bank_next_free", "copy"),
        ("_bank_open_row", "copy"),
        ("_bus_next_free", "value"),
        ("_activity_end", "value"),
    )
    NOT_STATE = ("_config", "_rows_per_segment", "_banks")  # geometry

    def __init__(self, config: GPUConfig) -> None:
        self._config = config
        self._rows_per_segment = config.dram_row_bytes // SEGMENT_BYTES
        self._banks = config.dram_banks
        # Plain Python lists: the service loop reads and writes single
        # scalar slots, where list indexing is several times cheaper
        # than ndarray element access.
        self._bank_next_free = [0] * self._banks
        self._bank_open_row = [-1] * self._banks
        self._bus_next_free = 0
        self.stats = DramStats()
        # Online interval-union state for n_activity.
        self._activity_end = 0

    def service(self, segment: int, is_write: bool, arrival: int) -> int:
        """Service one transaction; returns its data-return cycle.

        The shared command bus bounds throughput to one command per
        ``dram_bus_cycles``; each bank is additionally busy for the
        row-hit / row-miss slot, and the issuing warp sees the longer
        data-return latency.  ``arrival`` values must be non-decreasing
        across calls (the simulator processes events in time order),
        which lets the activity union be computed online.
        """
        cfg = self._config
        row = segment // self._rows_per_segment
        bank = row % self._banks
        start = max(arrival, self._bank_next_free[bank], self._bus_next_free)
        if self._bank_open_row[bank] == row:
            slot = cfg.dram_row_hit_cycles
            latency = cfg.dram_hit_latency
            self.stats.row_hits += 1
        else:
            slot = cfg.dram_row_miss_cycles
            latency = cfg.dram_miss_latency
            self.stats.row_misses += 1
            self._bank_open_row[bank] = row
        self._bus_next_free = start + cfg.dram_bus_cycles
        self._bank_next_free[bank] = start + slot
        completion = start + latency
        if is_write:
            self.stats.n_write += 1
        else:
            self.stats.n_read += 1
        # Union of [arrival, completion) intervals, processed in time order.
        overlap_start = max(arrival, self._activity_end)
        if completion > overlap_start:
            self.stats.n_activity += completion - overlap_start
            self._activity_end = completion
        return completion


class MemorySubsystem:
    """L2 tag store in front of the DRAM controller.

    ``warp_access`` is the single entry point used by the warp execution
    engine: it takes the coalesced segment list of one warp memory
    instruction and returns the cycle at which the slowest transaction
    completes (loads block the warp until then; stores are fire-and-forget
    but still generate traffic).
    """

    STATE = (("l2", Cache), ("dram", DramController))
    NOT_STATE = ("_config",)

    def __init__(self, config: GPUConfig) -> None:
        self._config = config
        self.l2 = Cache(config.l2_size, SEGMENT_BYTES, L2_ASSOC)
        self.dram = DramController(config)

    def warp_access(self, segments: np.ndarray, is_write: bool, cycle: int) -> int:
        """Process one warp memory instruction's transactions."""
        completion = cycle + L2_HIT_LATENCY
        arrival = completion + self._config.dram_base_latency
        for segment in segments:
            if self.l2.access(int(segment)):
                done = cycle + L2_HIT_LATENCY
            else:
                done = self.dram.service(int(segment), is_write, arrival)
            if done > completion:
                completion = done
        return int(completion)

    def warp_access_list(self, segments, is_write: bool, cycle: int) -> int:
        """Fast-core variant of :meth:`warp_access` for plain int lists.

        ``segments`` must be ascending (the order ``np.unique`` /
        :func:`~repro.memory.coalescing.coalesce_address_list` produce) so
        that DRAM state evolves identically to the reference path.

        The L2 probe is inlined here (same tag/LRU/stats semantics as
        :meth:`Cache.access <repro.memory.cache.Cache.access>`, covered
        by the differential suite): this is the hottest call chain in
        the fast core, and skipping a method call plus per-probe stats
        attribute churn per segment is a measurable win.
        """
        l2 = self.l2
        completion = cycle + L2_HIT_LATENCY
        arrival = completion + self._config.dram_base_latency
        service = self.dram.service
        sets = l2._sets
        num_sets = l2.num_sets
        assoc = l2.assoc
        cstats = l2.stats
        acc = hits = 0
        for segment in segments:
            ways = sets[segment % num_sets]
            tag = segment // num_sets
            acc += 1
            if tag in ways:
                del ways[tag]
                ways[tag] = None
                hits += 1
                continue
            if len(ways) >= assoc:
                del ways[next(iter(ways))]
                cstats.evictions += 1
            ways[tag] = None
            done = service(segment, is_write, arrival)
            if done > completion:
                completion = done
        cstats.accesses += acc
        cstats.hits += hits
        cstats.misses += acc - hits
        return completion

    def read_latency(self, segment: int, cycle: int) -> int:
        """Latency path for a single internal read (e.g. AGT spill fetch)."""
        return self.warp_access(np.asarray([segment], dtype=np.int64), False, cycle)

    @property
    def dram_stats(self) -> DramStats:
        return self.dram.stats
