"""Unit tests for KMU / HWQ / Kernel Distributor / SMX resource logic."""

import numpy as np
import pytest

from repro import Device, ExecutionMode, GPUConfig, KernelBuilder, KernelFunction
from repro.errors import LaunchError
from repro.sim.gpu import GPU
from repro.sim.hwq import HostLaunchSpec, HostQueues
from repro.sim.kernel import KernelFunction as KF, as_dims, dims_total
from repro.sim.kernel_distributor import KernelDistributor
from repro.sim.stats import LaunchKind, LaunchRecord


def tiny_kernel(name="k") -> KernelFunction:
    k = KernelBuilder(name)
    k.nop()
    k.exit()
    return KernelFunction(name, k.build())


def record() -> LaunchRecord:
    return LaunchRecord(LaunchKind.HOST_KERNEL, "k", 0, 1, 32)


class TestDims:
    def test_as_dims_int(self):
        assert as_dims(5) == (5, 1, 1)

    def test_as_dims_tuple(self):
        assert as_dims((2, 3)) == (2, 3, 1)
        assert as_dims((2, 3, 4)) == (2, 3, 4)

    def test_as_dims_rejects_bad(self):
        with pytest.raises(LaunchError):
            as_dims((1, 2, 3, 4))
        with pytest.raises(LaunchError):
            as_dims(0)

    def test_dims_total(self):
        assert dims_total((2, 3, 4)) == 24


class TestKernelFunction:
    def test_register_demand_inferred(self):
        func = tiny_kernel()
        assert func.regs_per_thread >= 0

    def test_block_validation(self):
        func = tiny_kernel()
        func.validate_block((256, 1, 1), GPUConfig())
        with pytest.raises(LaunchError):
            func.validate_block((4096, 1, 1), GPUConfig(max_resident_threads=2048))

    def test_block_over_the_register_file_refused(self):
        # Such a block fits no SMX, ever: it used to wait for room until
        # the simulator reported a deadlock.
        func = KernelFunction("k", tiny_kernel().program, regs_per_thread=8)
        needed = 256 * 8
        func.validate_block((256, 1, 1), GPUConfig(registers_per_smx=needed))
        with pytest.raises(LaunchError, match="registers"):
            func.validate_block((256, 1, 1), GPUConfig(registers_per_smx=needed - 1))

    def test_host_launch_over_the_register_file_refused(self):
        with Device(GPUConfig(registers_per_smx=1)) as dev:
            dev.register(KernelFunction("k", tiny_kernel().program, regs_per_thread=8))
            with pytest.raises(LaunchError, match="registers"):
                dev.launch("k", grid=1, block=32, params=[])

    def test_warps_per_block(self):
        func = tiny_kernel()
        assert func.warps_per_block((32, 1, 1)) == 1
        assert func.warps_per_block((33, 1, 1)) == 2
        assert func.warps_per_block((64, 2, 1)) == 4


class TestKernelDistributor:
    def test_allocate_until_full(self):
        dist = KernelDistributor(4)
        func = tiny_kernel()
        entries = [
            dist.allocate(func, (1, 1, 1), (32, 1, 1), 0, record(), None)
            for _ in range(4)
        ]
        assert not dist.has_free
        with pytest.raises(LaunchError):
            dist.allocate(func, (1, 1, 1), (32, 1, 1), 0, record(), None)
        dist.free(entries[2])
        assert dist.has_free

    def test_find_eligible_matches_func_and_block(self):
        dist = KernelDistributor(4)
        func_a = tiny_kernel("a")
        func_b = tiny_kernel("b")
        dist.allocate(func_a, (1, 1, 1), (32, 1, 1), 0, record(), None)
        assert dist.find_eligible(func_a, (32, 1, 1)) is not None
        assert dist.find_eligible(func_a, (64, 1, 1)) is None
        assert dist.find_eligible(func_b, (32, 1, 1)) is None

    def test_peak_occupancy_tracked(self):
        dist = KernelDistributor(4)
        func = tiny_kernel()
        e1 = dist.allocate(func, (1, 1, 1), (32, 1, 1), 0, record(), None)
        e2 = dist.allocate(func, (1, 1, 1), (32, 1, 1), 0, record(), None)
        dist.free(e1)
        dist.free(e2)
        assert dist.peak_occupied == 2
        assert dist.occupied == 0


class TestHostQueues:
    def spec(self, stream):
        return HostLaunchSpec("k", (1, 1, 1), (32, 1, 1), 0, stream)

    def test_stream_order_preserved(self):
        queues = HostQueues(4)
        a, b = self.spec(0), self.spec(0)
        queues.enqueue(a)
        queues.enqueue(b)
        head = queues.next_dispatchable()
        assert head is a
        queues.mark_dispatched(a)
        # Same HWQ blocked until head completes.
        assert queues.next_dispatchable() is None
        queues.head_completed(0)
        assert queues.next_dispatchable() is b

    def test_independent_streams_concurrent(self):
        queues = HostQueues(4)
        a, b = self.spec(0), self.spec(1)
        queues.enqueue(a)
        queues.enqueue(b)
        queues.mark_dispatched(queues.next_dispatchable())
        # Stream 1 maps to a different HWQ and stays dispatchable.
        assert queues.next_dispatchable() is b

    def test_excess_streams_share_hwqs(self):
        queues = HostQueues(2)
        a, b = self.spec(0), self.spec(2)  # 2 % 2 == 0: same HWQ
        queues.enqueue(a)
        queues.enqueue(b)
        queues.mark_dispatched(queues.next_dispatchable())
        assert queues.next_dispatchable() is None  # serialized

    def test_create_stream_ids_unique(self):
        queues = HostQueues(4)
        ids = {queues.create_stream() for _ in range(10)}
        assert len(ids) == 10


class TestSmxResources:
    def test_block_admission_limits(self):
        gpu = GPU(config=GPUConfig.small())
        smx = gpu.smxs[0]
        func = tiny_kernel()
        gpu.register_kernel(func)
        # Fill the SMX with max-size blocks.
        accepted = 0
        while smx.can_accept(func, (64, 1, 1)):
            smx.add_block(func, (100, 1, 1), (64, 1, 1), accepted, 0, None, None, 0)
            accepted += 1
        limit_by_blocks = GPUConfig.small().max_resident_blocks
        limit_by_threads = GPUConfig.small().max_resident_threads // 64
        assert accepted == min(limit_by_blocks, limit_by_threads)

    def test_add_block_rejects_when_full(self):
        gpu = GPU(config=GPUConfig.small())
        smx = gpu.smxs[0]
        func = tiny_kernel()
        while smx.can_accept(func, (64, 1, 1)):
            smx.add_block(func, (100, 1, 1), (64, 1, 1), 0, 0, None, None, 0)
        with pytest.raises(LaunchError):
            smx.add_block(func, (100, 1, 1), (64, 1, 1), 0, 0, None, None, 0)

    def test_shared_memory_limits_blocks(self):
        gpu = GPU()
        smx = gpu.smxs[0]
        # Each block claims 20KB of the 48KB shared memory: only 2 fit.
        func = KernelFunction("shared_hog", tiny_kernel().program, shared_words=2560)
        count = 0
        while smx.can_accept(func, (32, 1, 1)):
            smx.add_block(func, (10, 1, 1), (32, 1, 1), count, 0, None, None, 0)
            count += 1
        assert count == 2


class TestGpuApi:
    def test_unknown_kernel_rejected(self):
        dev = Device()
        with pytest.raises(LaunchError):
            dev.launch("nope", grid=1, block=32)

    def test_duplicate_kernel_rejected(self):
        dev = Device()
        dev.register(tiny_kernel())
        with pytest.raises(LaunchError):
            dev.register(tiny_kernel())

    def test_param_typing(self):
        dev = Device()
        addr = dev.gpu.write_params([7, 2.5, -1])
        assert dev.gpu.memory.i[addr] == 7
        assert dev.gpu.memory.f[addr + 1] == 2.5
        assert dev.gpu.memory.i[addr + 2] == -1

    def test_cycles_accumulate_across_launches(self):
        dev = Device()
        dev.register(tiny_kernel())
        dev.launch("k", grid=1, block=32)
        first = dev.synchronize().cycles
        dev.launch("k", grid=1, block=32)
        second = dev.synchronize().cycles
        assert second > first

    def test_watchdog_triggers(self):
        from repro.errors import SimulationError

        k = KernelBuilder("spin")
        i = k.mov(0)
        with k.while_(lambda: k.ge(i, 0)):  # never terminates
            k.iadd(i, 1, dst=i)
        k.exit()
        dev = Device()
        dev.register(KernelFunction("spin", k.build()))
        dev.launch("spin", grid=1, block=32)
        with pytest.raises(SimulationError):
            dev.synchronize(max_cycles=50_000)
