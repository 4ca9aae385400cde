"""A set-associative cache with LRU replacement.

Used for the L2 (global-memory accesses on our Kepler-like baseline bypass
the per-SMX L1, which is reserved for local data, so the L2 is the cache
that matters for the paper's workloads).  The cache is a *tag store only*:
data always lives in :class:`~repro.memory.global_memory.GlobalMemory`;
the cache decides hit/miss timing and tracks statistics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from ..errors import ConfigError


@dataclass
class CacheStats:
    STATE = (
        ("accesses", "value"),
        ("hits", "value"),
        ("misses", "value"),
        ("evictions", "value"),
    )
    NOT_STATE = ()

    accesses: int = 0
    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0


class Cache:
    """Set-associative, write-allocate, LRU tag store.

    Addresses given to :meth:`access` are *segment* (line) indices, i.e.
    already divided by the line size, since the coalescer produces
    line-granular transactions.
    """

    STATE = (("_sets", "copy"), ("stats", CacheStats))
    NOT_STATE = ("num_sets", "assoc", "line_bytes")  # geometry

    def __init__(self, size_bytes: int, line_bytes: int, assoc: int) -> None:
        if size_bytes <= 0 or line_bytes <= 0 or assoc <= 0:
            raise ConfigError("cache geometry must be positive")
        lines = size_bytes // line_bytes
        if lines % assoc:
            raise ConfigError("cache lines must divide evenly into sets")
        self.num_sets = lines // assoc
        if self.num_sets == 0:
            raise ConfigError("cache too small for its associativity")
        self.assoc = assoc
        self.line_bytes = line_bytes
        # Per set: tags as an insertion-ordered dict used as an LRU list
        # (first key = LRU, last key = MRU).  O(1) lookup/refresh versus
        # the O(assoc) list scan this store originally used; semantics
        # are identical (covered by the unit tests).
        self._sets: List[Dict[int, None]] = [{} for _ in range(self.num_sets)]
        self.stats = CacheStats()

    def access(self, segment: int) -> bool:
        """Look up one line; returns True on hit.  Misses allocate."""
        set_idx = segment % self.num_sets
        tag = segment // self.num_sets
        ways = self._sets[set_idx]
        stats = self.stats
        stats.accesses += 1
        if tag in ways:
            del ways[tag]
            ways[tag] = None
            stats.hits += 1
            return True
        stats.misses += 1
        if len(ways) >= self.assoc:
            del ways[next(iter(ways))]
            stats.evictions += 1
        ways[tag] = None
        return False

    def flush(self) -> None:
        """Invalidate every line (does not reset statistics)."""
        for ways in self._sets:
            ways.clear()

    def contents_by_set(self) -> Dict[int, List[int]]:
        """Snapshot of resident tags per set (for tests)."""
        return {idx: list(ways) for idx, ways in enumerate(self._sets) if ways}
