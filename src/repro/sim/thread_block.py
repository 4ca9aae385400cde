"""Thread blocks (CTAs) resident on an SMX."""

from __future__ import annotations

from typing import TYPE_CHECKING, List

import numpy as np

from ..config import WARP_SIZE
from .fast_warp import FastWarp
from .kernel import KernelFunction, LaunchDims, dims_total
from .warp import Warp

if TYPE_CHECKING:  # pragma: no cover
    from .smx import SMX


class ThreadBlock:
    """One CTA: a set of warps plus shared memory and barrier state.

    ``kde_entry`` points back at the Kernel Distributor entry the block
    belongs to; ``age`` is the Aggregated Group Entry when the block is an
    *aggregated* TB (``None`` for native TBs).
    """

    __slots__ = (
        "gpu",
        "smx",
        "func",
        "grid_dims",
        "block_dims",
        "block_linear_index",
        "ctaid",
        "param_addr",
        "kde_entry",
        "age",
        "shared",
        "warps",
        "block_threads",
        "_alive_warps",
        "_barrier_arrivals",
        "san_uid",
    )
    STATE = (
        ("smx", "arg:smx"),
        ("func", "arg:kernel"),
        ("grid_dims", "arg:value"),
        ("block_dims", "arg:value"),
        ("block_linear_index", "arg:value"),
        ("param_addr", "arg:value"),
        ("kde_entry", "arg:kde"),
        ("age", "arg:age"),
        ("slots", "arg:value"),
        ("shared", "copy"),
        ("warps", [Warp]),
        ("_alive_warps", "value"),
        ("_barrier_arrivals", "value"),
        ("san_uid", "value"),
    )
    NOT_STATE = (
        "gpu",  # wiring
        "ctaid", "block_threads",  # derived from the launch dimensions
    )

    def __init__(
        self,
        smx: "SMX",
        func: KernelFunction,
        grid_dims: LaunchDims,
        block_dims: LaunchDims,
        block_linear_index: int,
        param_addr: int,
        kde_entry,
        age,
        slots: List[int],
    ) -> None:
        self.gpu = smx.gpu
        self.smx = smx
        self.func = func
        self.grid_dims = grid_dims
        self.block_dims = block_dims
        self.block_linear_index = block_linear_index
        gx, gy, _gz = grid_dims
        self.ctaid = (
            block_linear_index % gx,
            (block_linear_index // gx) % gy,
            block_linear_index // (gx * gy),
        )
        self.param_addr = param_addr
        self.kde_entry = kde_entry
        self.age = age
        self.block_threads = dims_total(block_dims)
        self.shared = np.zeros(max(1, func.shared_words), dtype=np.int64)
        n_warps = (self.block_threads + WARP_SIZE - 1) // WARP_SIZE
        assert len(slots) == n_warps
        warp_cls = FastWarp if self.gpu.fast_core else Warp
        self.warps: List[Warp] = [
            warp_cls(self, w, slots[w]) for w in range(n_warps)
        ]
        self._alive_warps = n_warps
        self._barrier_arrivals = 0
        #: Sanitizer block uid (0 = untracked; assigned in on_block_start).
        self.san_uid = 0

    # ------------------------------------------------------------------
    def warp_finished(self, warp: Warp, cycle: int) -> None:
        san = self.gpu.sanitizer
        if san is not None and self._barrier_arrivals:
            san.on_exit_during_barrier(self, warp, cycle)
        self._alive_warps -= 1
        self.smx.warp_retired(warp, cycle)
        if self._alive_warps == 0:
            self.smx.block_finished(self, cycle)
        elif self._barrier_arrivals and self._barrier_arrivals >= self._alive_warps:
            # A warp exiting can release a barrier the remaining warps hold.
            self._release_barrier(cycle)

    def arrive_barrier(self, warp: Warp, cycle: int) -> None:
        san = self.gpu.sanitizer
        if san is not None and self._alive_warps < len(self.warps):
            san.on_barrier_after_exit(self, warp, cycle)
        self._barrier_arrivals += 1
        if self._barrier_arrivals >= self._alive_warps:
            self._release_barrier(cycle)

    def _release_barrier(self, cycle: int) -> None:
        san = self.gpu.sanitizer
        if san is not None:
            san.on_barrier_release(self)
        latency = self.gpu.config.barrier_latency
        for warp in self.warps:
            if warp.at_barrier:
                warp.at_barrier = False
                warp.ready_cycle = cycle + latency
                self.smx.requeue_warp(warp)
        self._barrier_arrivals = 0

    @property
    def alive_warps(self) -> int:
        return self._alive_warps

    @property
    def slots(self) -> List[int]:
        """The warp-context slots the block was constructed with."""
        return [warp.context_slot for warp in self.warps]
