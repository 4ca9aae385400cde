"""Packet / string inputs for the regular-expression benchmark.

* :func:`darpa_packets` stands in for the DARPA intrusion-detection
  network traces: structured packets where only some protocols contain
  pattern-prefix bytes, so candidate-match density varies a lot between
  packets.
* :func:`random_strings` stands in for the paper's random string
  collection: a small alphabet makes pattern prefixes frequent, so almost
  every string spawns dynamic verification work (the paper's highest-DFP
  benchmark, regx_string).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from .memo import memoised


@dataclass(frozen=True)
class PacketSet:
    """Byte strings encoded as int arrays plus the patterns to match
    (tuples in a memoised build)."""

    packets: Sequence[np.ndarray]
    patterns: Sequence[str]
    alphabet: int

    @property
    def count(self) -> int:
        return len(self.packets)


_PROTOCOL_HEADERS = [b"GET ", b"POST", b"HELO", b"USER", b"\x00\x01\x02\x03"]


@memoised
def darpa_packets(
    n: int = 360, min_len: int = 48, max_len: int = 200, seed: int = 37
) -> PacketSet:
    """Structured packets: a protocol header followed by payload bytes.

    Payloads of the text protocols embed occurrences of attack-signature
    fragments with protocol-dependent probability, giving per-packet
    candidate counts from zero to dozens.
    """
    rng = np.random.default_rng(seed)
    patterns = ["USER root", "GET /etc/"]
    packets: List[np.ndarray] = []
    for _ in range(n):
        proto = rng.integers(0, len(_PROTOCOL_HEADERS))
        header = _PROTOCOL_HEADERS[proto]
        length = int(rng.integers(min_len, max_len))
        body = rng.integers(32, 127, size=length).astype(np.int64)
        if proto < 4:  # text protocols: seed signature fragments
            for _ in range(int(rng.integers(0, 14))):
                frag = patterns[int(rng.integers(0, len(patterns)))][: int(rng.integers(1, 9))]
                pos = int(rng.integers(0, max(1, length - len(frag))))
                body[pos : pos + len(frag)] = np.frombuffer(
                    frag.encode(), dtype=np.uint8
                ).astype(np.int64)
        head = np.frombuffer(header, dtype=np.uint8).astype(np.int64)
        packets.append(np.concatenate([head, body]))
    return PacketSet(packets=packets, patterns=patterns, alphabet=256)


@memoised
def random_strings(
    n: int = 320, min_len: int = 64, max_len: int = 220, alphabet: int = 8, seed: int = 41
) -> PacketSet:
    """Small-alphabet random strings: pattern prefixes occur constantly."""
    rng = np.random.default_rng(seed)
    letters = "abcdefghijklmnop"[:alphabet]
    patterns = [letters[0] + letters[1] + letters[2] + letters[1], letters[2] + letters[0] * 2]
    packets = [
        rng.integers(ord("a"), ord("a") + alphabet, size=int(rng.integers(min_len, max_len))).astype(np.int64)
        for _ in range(n)
    ]
    # The DFA's symbol space is the byte range the packets actually use
    # (lowercase ASCII), not the logical letter count.
    return PacketSet(packets=packets, patterns=patterns, alphabet=128)
