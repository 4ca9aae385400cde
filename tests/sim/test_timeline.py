"""Timeline sampling of machine state."""

import numpy as np
import pytest

from repro import Device, ExecutionMode
from repro.sim.timeline import TimelineSampler
from repro.workloads.bfs import BfsWorkload
from repro.workloads.datasets.graphs import citation_network

from tests.helpers import make_device, map_kernel


def run_sampled(interval=200):
    func = map_kernel("tl", lambda k, v: k.imul(v, 3))
    dev = make_device()
    sampler = TimelineSampler(dev.gpu, interval=interval)
    dev.attach_tracer(sampler)
    dev.register(func)
    n = 2000
    src = dev.upload(np.arange(n))
    dst = dev.alloc(n)
    dev.launch("tl", grid=16, block=128, params=[n, src, dst])
    dev.synchronize()
    return sampler


class TestSampler:
    def test_samples_collected_in_order(self):
        sampler = run_sampled()
        assert len(sampler.samples) >= 2
        cycles = sampler.series("cycle")
        assert cycles == sorted(cycles)

    def test_interval_respected(self):
        sampler = run_sampled(interval=300)
        cycles = sampler.series("cycle")
        assert all(b - a >= 300 for a, b in zip(cycles, cycles[1:]))

    def test_resident_warps_positive_mid_run(self):
        sampler = run_sampled()
        assert sampler.peak("resident_warps") > 0
        assert sampler.peak("kde_occupied") >= 1

    def test_invalid_interval(self):
        dev = make_device()
        with pytest.raises(ValueError):
            TimelineSampler(dev.gpu, interval=0)

    def test_resample_and_sparkline(self):
        sampler = run_sampled(interval=100)
        series = sampler.resample("resident_warps", buckets=10)
        assert len(series) == 10
        spark = sampler.sparkline("resident_warps", buckets=10)
        assert len(spark) == 10

    def test_empty_sampler(self):
        dev = make_device()
        sampler = TimelineSampler(dev.gpu)
        assert sampler.resample("resident_warps") == []
        assert sampler.sparkline("resident_warps") == ""
        assert sampler.peak("cycle") == 0


class TestDtblTimeline:
    def test_agt_occupancy_visible_during_dtbl_run(self):
        graph = citation_network(n=400, attach=5)
        workload = BfsWorkload("bfs_tl", ExecutionMode.DTBL, graph)
        device = Device(
            mode=ExecutionMode.DTBL,
            latency=ExecutionMode.DTBL.latency_model(0),
        )
        sampler = TimelineSampler(device.gpu, interval=50)
        device.attach_tracer(sampler)
        for func in workload.build_kernels():
            device.register(func)
        workload.setup(device)
        workload.run(device)
        device.synchronize()
        workload.check(device)
        assert sampler.peak("agt_occupied") >= 1
