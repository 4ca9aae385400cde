"""Product recommendation — item-based collaborative filtering (Table 4:
MovieLens data).

The similarity-accumulation skeleton of item-based CF (Nadungodage et
al. [25]): for every item ``i``, iterate over the users who rated ``i``
and accumulate ``r_ui * r_uj`` contributions across each such user's other
rated items.  One parent thread per item; the per-item sweep over its
raters is the DFP.  Item popularity is power-law distributed, so rater
lists range from empty to hundreds of users — and the dynamically
launched children are *coarse-grained* (each child thread still loops
over one user's rating list), which is why the paper sees only small
occupancy/waiting-time changes for pre.
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..isa.builder import KernelBuilder, Value
from ..runtime import Device, ExecutionMode
from ..sim.kernel import KernelFunction
from .base import Workload
from .common import emit_dfp, emit_dynamic_launch
from .datasets.ratings import RatingSet

_P = dict(
    NITEMS=0, IPTR=1, IUSERS=2, IRATINGS=3, UPTR=4, URATINGS=5, SIM=6,
)
_C = dict(
    COUNT=0, RSTART=1, IUSERS=2, IRATINGS=3, UPTR=4, URATINGS=5, SIMSLOT=6,
)


def _emit_user_sweep(
    k: KernelBuilder,
    rater_slot: Value,
    iusers: Value,
    iratings: Value,
    uptr: Value,
    uratings: Value,
    sim_slot,
) -> None:
    """Accumulate r_ui * r_uj over every rating j of the rater at ``slot``."""
    user = k.ld(k.iadd(iusers, rater_slot))
    r_ui = k.ld(k.iadd(iratings, rater_slot))
    user_ptr = k.iadd(uptr, user)
    ustart = k.ld(user_ptr)
    uend = k.ld(user_ptr, offset=1)
    acc = k.mov(0)
    with k.for_range(ustart, uend) as j:
        r_uj = k.ld(k.iadd(uratings, j))
        k.iadd(acc, k.imul(r_ui, r_uj), dst=acc)
    k.atom_add(sim_slot, acc)


def build_pre_child(block: int) -> KernelFunction:
    """One thread per rater of the item."""
    k = KernelBuilder("pre_sweep")
    gtid = k.gtid()
    param = k.param()
    count = k.ld(param, offset=_C["COUNT"])
    with k.if_(k.lt(gtid, count)):
        rstart = k.ld(param, offset=_C["RSTART"])
        iusers = k.ld(param, offset=_C["IUSERS"])
        iratings = k.ld(param, offset=_C["IRATINGS"])
        uptr = k.ld(param, offset=_C["UPTR"])
        uratings = k.ld(param, offset=_C["URATINGS"])
        sim_slot = k.ld(param, offset=_C["SIMSLOT"])
        _emit_user_sweep(
            k, k.iadd(rstart, gtid), iusers, iratings, uptr, uratings, sim_slot
        )
    k.exit()
    return KernelFunction("pre_sweep", k.build())


def build_pre_kernel(mode: ExecutionMode, threshold: int, block: int) -> KernelFunction:
    """One thread per item."""
    k = KernelBuilder("pre_items")
    gtid = k.gtid()
    param = k.param()
    nitems = k.ld(param, offset=_P["NITEMS"])
    with k.if_(k.lt(gtid, nitems)):
        iptr = k.ld(param, offset=_P["IPTR"])
        iusers = k.ld(param, offset=_P["IUSERS"])
        iratings = k.ld(param, offset=_P["IRATINGS"])
        uptr = k.ld(param, offset=_P["UPTR"])
        uratings = k.ld(param, offset=_P["URATINGS"])
        sim = k.ld(param, offset=_P["SIM"])
        item_ptr = k.iadd(iptr, gtid)
        rstart = k.ld(item_ptr)
        rend = k.ld(item_ptr, offset=1)
        raters = k.isub(rend, rstart)
        sim_slot = k.iadd(sim, gtid)

        def serial() -> None:
            with k.for_range(rstart, rend) as slot:
                _emit_user_sweep(k, slot, iusers, iratings, uptr, uratings, sim_slot)

        def launch() -> None:
            emit_dynamic_launch(
                k,
                mode,
                "pre_sweep",
                [raters, rstart, iusers, iratings, uptr, uratings, sim_slot],
                raters,
                block,
            )

        emit_dfp(k, mode, raters, threshold, launch, serial)
    k.exit()
    return KernelFunction("pre_items", k.build())


class RecommendationWorkload(Workload):
    """Item-based CF similarity accumulation."""

    app_name = "pre"
    parent_block = 64

    def __init__(
        self,
        name: str,
        mode: ExecutionMode,
        ratings: RatingSet,
        child_threshold: int = 32,
        child_block: int = 32,
    ) -> None:
        super().__init__(name, mode)
        self.ratings = ratings
        self.child_threshold = child_threshold
        self.child_block = child_block

    def build_kernels(self) -> List[KernelFunction]:
        kernels = [build_pre_kernel(self.mode, self.child_threshold, self.child_block)]
        if self.mode.is_dynamic:
            kernels.append(build_pre_child(self.child_block))
        return kernels

    def setup(self, device: Device) -> None:
        data = self.ratings
        self.iptr_addr = device.upload(data.item_indptr)
        self.iusers_addr = device.upload(data.item_users)
        self.iratings_addr = device.upload(data.item_ratings)
        self.uptr_addr = device.upload(data.user_indptr)
        self.uratings_addr = device.upload(data.user_ratings)
        self.sim_addr = device.alloc(data.num_items)

    def run(self, device: Device) -> None:
        device.launch(
            "pre_items",
            grid=self.grid_for(self.ratings.num_items, self.parent_block),
            block=self.parent_block,
            params=[
                self.ratings.num_items,
                self.iptr_addr,
                self.iusers_addr,
                self.iratings_addr,
                self.uptr_addr,
                self.uratings_addr,
                self.sim_addr,
            ],
        )

    # ------------------------------------------------------------------
    def reference_similarity(self) -> np.ndarray:
        data = self.ratings
        item_indptr = data.item_indptr.tolist()
        item_users = data.item_users.tolist()
        item_ratings = data.item_ratings.tolist()
        user_indptr = data.user_indptr.tolist()
        user_ratings = data.user_ratings.tolist()
        sim = [0] * data.num_items
        for item in range(data.num_items):
            lo, hi = item_indptr[item], item_indptr[item + 1]
            for slot in range(lo, hi):
                user = item_users[slot]
                r_ui = item_ratings[slot]
                ulo, uhi = user_indptr[user], user_indptr[user + 1]
                sim[item] += r_ui * sum(user_ratings[ulo:uhi])
        return np.array(sim, dtype=np.int64)

    def check(self, device: Device) -> None:
        got = device.download_ints(self.sim_addr, self.ratings.num_items)
        expected = self.reference_similarity()
        mismatches = int((got != expected).sum())
        self.expect(mismatches == 0, f"{mismatches} similarity sums differ")
