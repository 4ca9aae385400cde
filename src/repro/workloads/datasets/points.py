"""Random point sets for the Barnes–Hut tree benchmark.

Points are drawn from a mixture of gaussian clusters (as in typical n-body
initial conditions), which makes quadtree leaf populations uneven — the
source of dynamically formed parallelism in BHT.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .memo import memoised


@dataclass(frozen=True)
class PointSet:
    """2D bodies with masses for the Barnes–Hut benchmark."""

    x: np.ndarray
    y: np.ndarray
    mass: np.ndarray

    @property
    def count(self) -> int:
        return len(self.x)


@memoised
def random_points(n: int = 1400, clusters: int = 6, seed: int = 31) -> PointSet:
    """Gaussian-mixture point cloud in the unit square."""
    rng = np.random.default_rng(seed)
    xs = []
    ys = []
    per = n // clusters
    for c in range(clusters):
        cx, cy = rng.uniform(0.15, 0.85, size=2)
        sigma = rng.uniform(0.02, 0.12)
        count = per if c < clusters - 1 else n - per * (clusters - 1)
        xs.append(np.clip(rng.normal(cx, sigma, count), 0.0, 1.0))
        ys.append(np.clip(rng.normal(cy, sigma, count), 0.0, 1.0))
    return PointSet(
        x=np.concatenate(xs),
        y=np.concatenate(ys),
        mass=rng.uniform(0.5, 2.0, n),
    )
