"""Relations for the hash-join benchmark.

The paper evaluates join on uniformly distributed and gaussian
(skewed) key data.  Uniform keys yield small, even hash buckets; gaussian
keys concentrate probes on a few hot buckets with long match lists — the
imbalance that dynamic launches absorb.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .memo import memoised


@dataclass(frozen=True)
class JoinInput:
    """Build relation R and probe relation S, keys plus payload values."""

    r_keys: np.ndarray
    r_values: np.ndarray
    s_keys: np.ndarray
    s_values: np.ndarray
    num_keys: int

    @property
    def r_size(self) -> int:
        return len(self.r_keys)

    @property
    def s_size(self) -> int:
        return len(self.s_keys)


@memoised
def join_tables(
    distribution: str = "uniform",
    r_size: int = 1600,
    s_size: int = 1200,
    num_keys: int = 400,
    seed: int = 47,
) -> JoinInput:
    """Generate R ⋈ S input with the requested key distribution."""
    rng = np.random.default_rng(seed)
    if distribution == "uniform":
        r_keys = rng.integers(0, num_keys, size=r_size)
        s_keys = rng.integers(0, num_keys, size=s_size)
    elif distribution == "gaussian":
        center = num_keys / 2.0
        sigma = num_keys / 14.0
        r_keys = np.clip(rng.normal(center, sigma, r_size), 0, num_keys - 1).astype(int)
        s_keys = np.clip(rng.normal(center, sigma, s_size), 0, num_keys - 1).astype(int)
    else:
        raise ValueError(f"unknown key distribution {distribution!r}")
    return JoinInput(
        r_keys=r_keys.astype(np.int64),
        r_values=rng.integers(0, 1000, size=r_size).astype(np.int64),
        s_keys=s_keys.astype(np.int64),
        s_values=rng.integers(0, 1000, size=s_size).astype(np.int64),
        num_keys=num_keys,
    )
