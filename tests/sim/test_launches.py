"""Device-side launching: CDP kernels and DTBL aggregated groups."""

import numpy as np
import pytest

from repro import Device, ExecutionMode, GPUConfig, KernelBuilder, KernelFunction
from repro.config import LatencyModel
from repro.sim.stats import LaunchKind


def child_sum_kernel() -> KernelFunction:
    """Child: params [count, base, out]; atomically sums base[0:count]."""
    k = KernelBuilder("child")
    gtid = k.gtid()
    param = k.param()
    count = k.ld(param, offset=0)
    with k.if_(k.lt(gtid, count)):
        base = k.ld(param, offset=1)
        out = k.ld(param, offset=2)
        k.atom_add(out, k.ld(k.iadd(base, gtid)))
    k.exit()
    return KernelFunction("child", k.build())


def parent_kernel(use_dtbl: bool, threshold: int = 0) -> KernelFunction:
    """Parent: params [nitems, counts, bases, out]; one launch per item."""
    k = KernelBuilder("parent")
    gtid = k.gtid()
    param = k.param()
    nitems = k.ld(param, offset=0)
    with k.if_(k.lt(gtid, nitems)):
        counts = k.ld(param, offset=1)
        bases = k.ld(param, offset=2)
        out = k.ld(param, offset=3)
        cnt = k.ld(k.iadd(counts, gtid))
        base = k.ld(k.iadd(bases, gtid))
        with k.if_(k.gt(cnt, threshold)):
            buf = k.get_param_buffer(3)
            k.st(buf, cnt, offset=0)
            k.st(buf, base, offset=1)
            k.st(buf, out, offset=2)
            blocks = k.idiv(k.iadd(cnt, 31), 32)
            if use_dtbl:
                k.launch_agg("child", buf, agg=blocks, block=32)
            else:
                k.stream_create()
                k.launch_device("child", buf, grid=blocks, block=32)
    k.exit()
    return KernelFunction("parent", k.build())


def run_nested(mode: ExecutionMode, nitems: int = 100, seed: int = 3,
               latency_scale: float = 1.0):
    dev = Device(mode=mode, latency=mode.latency_model(latency_scale))
    dev.register(child_sum_kernel())
    dev.register(parent_kernel(mode.uses_dtbl))
    rng = np.random.default_rng(seed)
    counts = rng.integers(1, 70, nitems)
    bases = np.zeros(nitems, dtype=np.int64)
    total = 0
    for i, c in enumerate(counts):
        arr = rng.integers(0, 50, c)
        total += int(arr.sum())
        bases[i] = dev.upload(arr)
    caddr = dev.upload(counts)
    baddr = dev.upload(bases)
    out = dev.alloc(1)
    dev.launch("parent", grid=2, block=64, params=[nitems, caddr, baddr, out])
    stats = dev.synchronize()
    return dev, out, total, stats


class TestCdpLaunch:
    def test_functional_result(self):
        dev, out, total, _ = run_nested(ExecutionMode.CDP)
        assert dev.read_int(out) == total

    def test_launch_records_created(self):
        _, _, _, stats = run_nested(ExecutionMode.CDP)
        dyn = stats.dynamic_launches()
        assert len(dyn) == 100
        assert all(r.kind is LaunchKind.DEVICE_KERNEL for r in dyn)
        assert all(r.first_exec_cycle is not None for r in dyn)
        assert all(r.completed_cycle is not None for r in dyn)

    def test_waiting_time_positive_with_latency(self):
        _, _, _, stats = run_nested(ExecutionMode.CDP)
        assert stats.avg_waiting_cycles > 0

    def test_ideal_faster_than_measured(self):
        _, _, _, measured = run_nested(ExecutionMode.CDP)
        _, _, _, ideal = run_nested(ExecutionMode.CDP, latency_scale=0)
        assert ideal.cycles < measured.cycles

    def test_footprint_rises_and_falls(self):
        _, _, _, stats = run_nested(ExecutionMode.CDP)
        assert stats.peak_footprint_bytes > 0
        assert stats.footprint_bytes == 0  # everything released at the end


class TestDtblLaunch:
    def test_functional_result(self):
        dev, out, total, _ = run_nested(ExecutionMode.DTBL)
        assert dev.read_int(out) == total

    def test_agg_records(self):
        _, _, _, stats = run_nested(ExecutionMode.DTBL, latency_scale=0)
        dyn = stats.dynamic_launches()
        assert len(dyn) == 100
        kinds = {r.kind for r in dyn}
        assert LaunchKind.AGG_GROUP in kinds

    def test_coalescing_match_rate_high_when_dense(self):
        _, _, _, stats = run_nested(ExecutionMode.DTBL, latency_scale=0)
        # With zero launch latency all launches land close together, so
        # nearly all groups find the eligible kernel (paper: ~98%).
        assert stats.agg_match_rate > 0.9

    def test_dtbl_beats_cdp(self):
        _, _, _, cdp = run_nested(ExecutionMode.CDP)
        _, _, _, dtbl = run_nested(ExecutionMode.DTBL)
        assert dtbl.cycles < cdp.cycles

    def test_dtbl_footprint_below_cdp(self):
        _, _, _, cdp = run_nested(ExecutionMode.CDP, latency_scale=0)
        _, _, _, dtbl = run_nested(ExecutionMode.DTBL, latency_scale=0)
        assert dtbl.peak_footprint_bytes < cdp.peak_footprint_bytes

    def test_mismatched_block_shape_falls_back_to_device_kernel(self):
        # A group whose TB shape differs from every active kernel cannot
        # coalesce and must be launched as a device kernel.
        k = KernelBuilder("parent")
        param = k.param()
        tid = k.tid()
        with k.if_(k.eq(tid, 0)):
            buf = k.get_param_buffer(3)
            k.st(buf, 1, offset=0)
            k.st(buf, k.ld(param, offset=0), offset=1)
            k.st(buf, k.ld(param, offset=1), offset=2)
            k.launch_agg("child", buf, agg=1, block=64)  # parent uses 32
        k.exit()
        parent = KernelFunction("parent", k.build())
        dev = Device(mode=ExecutionMode.DTBL, latency=LatencyModel.ideal())
        dev.register(child_sum_kernel())
        dev.register(parent)
        data = dev.upload(np.array([41], dtype=np.int64))
        out = dev.alloc(1)
        dev.launch("parent", grid=1, block=32, params=[data, out])
        stats = dev.synchronize()
        assert dev.read_int(out) == 41
        assert stats.agg_unmatched >= 1


class TestNestedDepth:
    def test_recursive_agg_launch(self):
        # A kernel that launches itself until depth exhausts.
        k = KernelBuilder("recurse")
        param = k.param()
        tid = k.tid()
        depth = k.ld(param, offset=0)
        out = k.ld(param, offset=1)
        with k.if_(k.eq(tid, 0)):
            k.atom_add(out, 1)
            with k.if_(k.gt(depth, 0)):
                buf = k.get_param_buffer(2)
                k.st(buf, k.isub(depth, 1), offset=0)
                k.st(buf, out, offset=1)
                k.launch_agg("recurse", buf, agg=1, block=32)
        k.exit()
        func = KernelFunction("recurse", k.build())
        dev = Device(mode=ExecutionMode.DTBL, latency=LatencyModel.ideal())
        dev.register(func)
        out = dev.alloc(1)
        dev.launch("recurse", grid=1, block=32, params=[6, out])
        dev.synchronize()
        assert dev.read_int(out) == 7  # root + 6 nested generations


class TestConcurrencyLimit:
    def test_kde_limit_respected(self):
        # More pending device kernels than KDE entries: peak occupancy of
        # the distributor must never exceed max_concurrent_kernels.
        _, _, _, stats = run_nested(ExecutionMode.CDP, nitems=128, latency_scale=0)
        # (the distributor itself asserts; this is a smoke check)
        assert stats.kernels_completed >= 128


class TestHostStreams:
    def test_same_stream_serializes(self):
        k = KernelBuilder("mark")
        param = k.param()
        tid = k.tid()
        out = k.ld(param, offset=0)
        value = k.ld(param, offset=1)
        with k.if_(k.eq(tid, 0)):
            k.atom_exch(out, value)
        k.exit()
        func = KernelFunction("mark", k.build())
        dev = Device()
        dev.register(func)
        out = dev.alloc(1)
        dev.launch("mark", grid=1, block=32, params=[out, 1], stream=0)
        dev.launch("mark", grid=1, block=32, params=[out, 2], stream=0)
        dev.synchronize()
        assert dev.read_int(out) == 2  # in-order within a stream
