"""The per-warp memory coalescing unit.

A warp's 32 lane addresses are mapped to 128-byte aligned segments; each
distinct segment becomes one memory transaction.  Consecutive word
addresses across the warp therefore coalesce into the minimum number of
transactions, while scattered addresses produce up to one transaction per
active lane — exactly the *memory divergence* behaviour the paper's flat
implementations suffer from.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..config import SEGMENT_WORDS, WARP_SIZE


@dataclass
class CoalescingStats:
    """Aggregate coalescer counters for one simulation run."""

    STATE = (
        ("warp_accesses", "value"),
        ("transactions", "value"),
        ("lanes", "value"),
        ("histogram", "copy"),
    )
    NOT_STATE = ()

    #: Warp-level memory instructions processed.
    warp_accesses: int = 0
    #: Total transactions (segments) generated.
    transactions: int = 0
    #: Total active lanes across all processed accesses.
    lanes: int = 0
    #: Histogram of transactions-per-access, index = transaction count.
    histogram: np.ndarray = field(
        default_factory=lambda: np.zeros(WARP_SIZE + 1, dtype=np.int64)
    )

    def record(self, lanes: int, transactions: int) -> None:
        self.warp_accesses += 1
        self.transactions += transactions
        self.lanes += lanes
        if transactions <= WARP_SIZE:
            self.histogram[transactions] += 1

    @property
    def average_transactions(self) -> float:
        """Mean transactions per warp memory access (1.0–2.0 is coalesced
        for 8-byte words; 32 is fully divergent)."""
        if not self.warp_accesses:
            return 0.0
        return self.transactions / self.warp_accesses

    def to_dict(self) -> dict:
        """All counters as a JSON-safe dictionary (exact round trip)."""
        return {
            "warp_accesses": self.warp_accesses,
            "transactions": self.transactions,
            "lanes": self.lanes,
            "histogram": [int(n) for n in self.histogram],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CoalescingStats":
        histogram = np.asarray(data["histogram"], dtype=np.int64)
        if histogram.shape != (WARP_SIZE + 1,):
            raise ValueError(
                f"coalescing histogram must have {WARP_SIZE + 1} bins, "
                f"got {histogram.shape}"
            )
        return cls(
            warp_accesses=int(data["warp_accesses"]),
            transactions=int(data["transactions"]),
            lanes=int(data["lanes"]),
            histogram=histogram,
        )


def coalesce_address_list(addresses) -> list:
    """Fast-core variant of :func:`coalesce_addresses` for plain int lists.

    Produces the distinct segment ids in ascending order — the exact order
    ``np.unique`` gives — because downstream DRAM bank/row state and the
    L2's LRU depend on the order transactions are issued.
    """
    return sorted({addr // SEGMENT_WORDS for addr in addresses})


def coalesce_addresses(addresses: np.ndarray) -> np.ndarray:
    """Map active-lane word addresses to unique 128-byte segment ids.

    Parameters
    ----------
    addresses:
        int64 array of the word addresses of the *active* lanes only.

    Returns
    -------
    Sorted array of distinct segment indices (segment = addr // 16 words).
    """
    if addresses.size == 0:
        return addresses
    return np.unique(addresses // SEGMENT_WORDS)
