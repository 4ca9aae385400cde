"""Relational hash join (Table 4: uniform and gaussian key data).

Hash join in the multi-BSP style of Diamos et al. [12]: the build
relation R is partitioned into hash buckets (CSR layout, built host-side),
then a probe kernel assigns one thread per S tuple.  Scanning the probe
tuple's bucket — comparing keys and emitting joined pairs — is the DFP:
serial per thread in flat mode, a child launch per sufficiently large
bucket in CDP / DTBL.  Gaussian keys concentrate probes on a few long
buckets, the imbalance dynamic launches absorb.

The join result is materialized as (r_value + s_value) pair sums appended
to an output buffer, plus a global checksum, so flat and dynamic variants
can be compared bit-for-bit against a Python reference.
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..isa.builder import KernelBuilder
from ..runtime import Device, ExecutionMode
from ..sim.kernel import KernelFunction
from .base import Workload
from .common import emit_dfp, emit_dynamic_launch
from .datasets.memo import memoised_derived
from .datasets.relations import JoinInput

_NUM_BUCKETS = 64

_P = dict(
    SSIZE=0, SKEYS=1, SVALS=2, BPTR=3, BKEYS=4, BVALS=5, OUTCNT=6, CHECKSUM=7,
)
_C = dict(
    COUNT=0, BSTART=1, BKEYS=2, BVALS=3, SKEY=4, SVAL=5, OUTCNT=6, CHECKSUM=7,
)


def _emit_match(k: KernelBuilder, rkey, rval, skey, sval, outcnt, checksum) -> None:
    with k.if_(k.eq(rkey, skey)):
        k.atom_add(outcnt, 1)
        k.atom_add(checksum, k.iadd(rval, sval))


def build_join_child(block: int) -> KernelFunction:
    """One thread per build-side tuple in the probed bucket."""
    k = KernelBuilder("join_scan")
    gtid = k.gtid()
    param = k.param()
    count = k.ld(param, offset=_C["COUNT"])
    with k.if_(k.lt(gtid, count)):
        bstart = k.ld(param, offset=_C["BSTART"])
        bkeys = k.ld(param, offset=_C["BKEYS"])
        bvals = k.ld(param, offset=_C["BVALS"])
        skey = k.ld(param, offset=_C["SKEY"])
        sval = k.ld(param, offset=_C["SVAL"])
        outcnt = k.ld(param, offset=_C["OUTCNT"])
        checksum = k.ld(param, offset=_C["CHECKSUM"])
        slot = k.iadd(bstart, gtid)
        rkey = k.ld(k.iadd(bkeys, slot))
        rval = k.ld(k.iadd(bvals, slot))
        _emit_match(k, rkey, rval, skey, sval, outcnt, checksum)
    k.exit()
    return KernelFunction("join_scan", k.build())


def build_join_kernel(
    mode: ExecutionMode, threshold: int, block: int, num_keys: int
) -> KernelFunction:
    """Probe kernel: one thread per S tuple."""
    k = KernelBuilder("join_probe")
    gtid = k.gtid()
    param = k.param()
    ssize = k.ld(param, offset=_P["SSIZE"])
    with k.if_(k.lt(gtid, ssize)):
        skeys = k.ld(param, offset=_P["SKEYS"])
        svals = k.ld(param, offset=_P["SVALS"])
        bptr = k.ld(param, offset=_P["BPTR"])
        bkeys = k.ld(param, offset=_P["BKEYS"])
        bvals = k.ld(param, offset=_P["BVALS"])
        outcnt = k.ld(param, offset=_P["OUTCNT"])
        checksum = k.ld(param, offset=_P["CHECKSUM"])
        skey = k.ld(k.iadd(skeys, gtid))
        sval = k.ld(k.iadd(svals, gtid))
        # Range partitioning preserves key skew: duplicate-heavy keys land
        # in the same long bucket (the Diamos et al. partitioned join).
        bucket = k.idiv(k.imul(skey, _NUM_BUCKETS), num_keys)
        bucket_ptr = k.iadd(bptr, bucket)
        start = k.ld(bucket_ptr)
        end = k.ld(bucket_ptr, offset=1)
        count = k.isub(end, start)

        def serial() -> None:
            with k.for_range(start, end) as slot:
                rkey = k.ld(k.iadd(bkeys, slot))
                rval = k.ld(k.iadd(bvals, slot))
                _emit_match(k, rkey, rval, skey, sval, outcnt, checksum)

        def launch() -> None:
            emit_dynamic_launch(
                k,
                mode,
                "join_scan",
                [count, start, bkeys, bvals, skey, sval, outcnt, checksum],
                count,
                block,
            )

        emit_dfp(k, mode, count, threshold, launch, serial)
    k.exit()
    return KernelFunction("join_probe", k.build())


class JoinWorkload(Workload):
    """Bucketized hash join R ⋈ S on integer keys."""

    app_name = "join"
    parent_block = 128
    child_threshold = 32
    child_block = 32

    def __init__(self, name: str, mode: ExecutionMode, data: JoinInput) -> None:
        super().__init__(name, mode)
        self.data = data

    def build_kernels(self) -> List[KernelFunction]:
        kernels = [
            build_join_kernel(
                self.mode, self.child_threshold, self.child_block, self.data.num_keys
            )
        ]
        if self.mode.is_dynamic:
            kernels.append(build_join_child(self.child_block))
        return kernels

    def setup(self, device: Device) -> None:
        data = self.data
        # Host-side build phase: range-partition R into _NUM_BUCKETS buckets.
        buckets = data.r_keys * _NUM_BUCKETS // data.num_keys
        order = np.argsort(buckets, kind="stable")
        bptr = np.zeros(_NUM_BUCKETS + 1, dtype=np.int64)
        np.add.at(bptr, buckets + 1, 1)
        bptr = np.cumsum(bptr)
        self.bptr_addr = device.upload(bptr)
        self.bkeys_addr = device.upload(data.r_keys[order])
        self.bvals_addr = device.upload(data.r_values[order])
        self.skeys_addr = device.upload(data.s_keys)
        self.svals_addr = device.upload(data.s_values)
        self.outcnt_addr = device.alloc(1)
        self.checksum_addr = device.alloc(1)

    def run(self, device: Device) -> None:
        device.launch(
            "join_probe",
            grid=self.grid_for(self.data.s_size, self.parent_block),
            block=self.parent_block,
            params=[
                self.data.s_size,
                self.skeys_addr,
                self.svals_addr,
                self.bptr_addr,
                self.bkeys_addr,
                self.bvals_addr,
                self.outcnt_addr,
                self.checksum_addr,
            ],
        )

    # ------------------------------------------------------------------
    @memoised_derived("data")
    def reference(self) -> tuple:
        data = self.data
        count = 0
        checksum = 0
        by_key: dict = {}
        for key, value in zip(data.r_keys.tolist(), data.r_values.tolist()):
            by_key.setdefault(key, []).append(value)
        for key, value in zip(data.s_keys.tolist(), data.s_values.tolist()):
            for rval in by_key.get(key, ()):
                count += 1
                checksum += rval + value
        return count, checksum

    def check(self, device: Device) -> None:
        count, checksum = self.reference()
        got_count = device.read_int(self.outcnt_addr)
        got_checksum = device.read_int(self.checksum_addr)
        self.expect(got_count == count, f"join count {got_count} != {count}")
        self.expect(got_checksum == checksum, f"join checksum {got_checksum} != {checksum}")
