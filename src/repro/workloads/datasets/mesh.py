"""AMR input: a 2D energy field with hot spots (combustion-simulation
stand-in, cf. the paper's Kuhl thermodynamic-explosion dataset).

Cells whose energy exceeds the refinement threshold are recursively
subdivided; hot spots make refinement spatially clustered and highly
imbalanced across threads — exactly the irregularity AMR exhibits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .memo import memoised


@dataclass(frozen=True)
class AmrGrid:
    """Initial level-0 grid for adaptive mesh refinement."""

    #: Cell energies, flattened row-major (side * side values).
    energy: np.ndarray
    side: int
    #: Refine a cell when its energy exceeds this.
    threshold: float
    #: Energy decay factor per refinement level.
    decay: float
    #: Maximum refinement depth below the root grid.
    max_depth: int

    @property
    def num_cells(self) -> int:
        return self.side * self.side


@memoised
def amr_grid(
    side: int = 28,
    hot_spots: int = 5,
    threshold: float = 1.2,
    decay: float = 0.52,
    max_depth: int = 2,
    seed: int = 29,
) -> AmrGrid:
    """Generate a level-0 grid whose energy field has gaussian hot spots."""
    rng = np.random.default_rng(seed)
    ys, xs = np.mgrid[0:side, 0:side]
    energy = np.full((side, side), 0.08)
    for _ in range(hot_spots):
        cx, cy = rng.uniform(0, side, size=2)
        amplitude = rng.uniform(2.0, 5.0)
        sigma = rng.uniform(1.0, float(side) / 7.0)
        energy += amplitude * np.exp(-((xs - cx) ** 2 + (ys - cy) ** 2) / (2 * sigma**2))
    return AmrGrid(
        energy=energy.ravel().astype(np.float64),
        side=side,
        threshold=threshold,
        decay=decay,
        max_depth=max_depth,
    )
