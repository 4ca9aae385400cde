"""The redesigned host API: DeviceArray, Event, Stream, Device lifecycle."""

import dataclasses
import gc
import tracemalloc
import weakref

import numpy as np
import pytest

from repro import Device, DeviceArray, Event, ExecutionMode, GPUConfig, LatencyModel, Stream
from repro.errors import ConfigError, DeviceError, MemoryError_, SimulationError

from tests.helpers import map_kernel


def small_device(**kwargs) -> Device:
    return Device(config=GPUConfig.small(), **kwargs)


class TestDeviceArray:
    def test_round_trips_dtype_and_shape(self):
        dev = small_device()
        src = np.linspace(0.0, 1.0, 12, dtype=np.float32).reshape(3, 4)
        arr = dev.upload(src)
        out = arr.download()
        assert out.dtype == np.float32
        assert out.shape == (3, 4)
        np.testing.assert_allclose(out, src, rtol=1e-6)

    def test_int32_round_trip(self):
        dev = small_device()
        src = np.arange(10, dtype=np.int32)
        out = dev.upload(src).download()
        assert out.dtype == np.int32
        np.testing.assert_array_equal(out, src)

    def test_is_an_int_address(self):
        dev = small_device()
        arr = dev.upload(np.arange(8))
        assert isinstance(arr, int)
        assert arr.addr == int(arr)
        assert arr.size == 8
        # Address arithmetic keeps working as with raw addresses.
        assert dev.read_int(arr + 3) == 3

    def test_alloc_defaults(self):
        dev = small_device()
        arr = dev.alloc(16)
        assert isinstance(arr, DeviceArray)
        assert arr.shape == (16,)
        assert arr.dtype == np.int64
        assert arr.download().shape == (16,)

    def test_device_download_dispatches_on_device_array(self):
        dev = small_device()
        arr = dev.upload(np.arange(5, dtype=np.int16))
        out = dev.download(arr)
        assert out.dtype == np.int16
        with pytest.raises(TypeError, match="derived from the DeviceArray"):
            dev.download(arr, count=5)

    def test_raw_address_download_requires_count(self):
        dev = small_device()
        arr = dev.upload(np.arange(5))
        with pytest.raises(TypeError, match="requires count"):
            dev.download(int(arr))
        np.testing.assert_array_equal(
            dev.download(int(arr), count=5), np.arange(5)
        )

    def test_free_reclaims_most_recent_allocation(self):
        dev = small_device()
        a = dev.alloc(32)
        b = dev.alloc(32)
        dev.free(b)
        c = dev.alloc(32)
        assert int(c) == int(b)  # LIFO rollback reused the words
        dev.free(a)  # not the top of the bump allocator: accepted, no-op
        d = dev.alloc(8)
        assert int(d) == int(c) + 32

    def test_double_free_raises(self):
        dev = small_device()
        arr = dev.alloc(16)
        dev.free(arr)
        with pytest.raises(MemoryError_, match="double free"):
            dev.free(arr)

    def test_download_after_free_raises(self):
        dev = small_device()
        arr = dev.upload(np.arange(8))
        dev.free(arr)
        with pytest.raises(MemoryError_, match="freed DeviceArray"):
            arr.download()

    def test_non_lifo_free_then_download_raises(self):
        dev = small_device()
        a = dev.upload(np.arange(8))
        b = dev.upload(np.arange(8) * 2)
        dev.free(a)  # non-LIFO: words stay allocated but the array is dead
        with pytest.raises(MemoryError_):
            a.download()
        np.testing.assert_array_equal(b.download(), np.arange(8) * 2)

    def test_raw_address_free_is_ignored(self):
        dev = small_device()
        arr = dev.alloc(16)
        dev.free(int(arr))  # raw int carries no extent: accepted, no-op
        dev.free(int(arr))  # and is not tracked, so no double-free either
        np.testing.assert_array_equal(arr.download(), np.zeros(16))


class TestEvent:
    def _launched_device(self):
        dev = small_device()
        dev.register(map_kernel("dbl", lambda k, v: k.imul(v, 2)))
        n = 256
        src = dev.upload(np.arange(n))
        dst = dev.alloc(n)
        evt = dev.launch("dbl", grid=2, block=128, params=[n, src, dst])
        return dev, evt, dst, n

    def test_wait_returns_event_and_completes(self):
        dev, evt, dst, n = self._launched_device()
        assert not evt.done
        assert evt.wait() is evt
        assert evt.done
        np.testing.assert_array_equal(dst.download(), np.arange(n) * 2)

    def test_elapsed_cycles(self):
        dev, evt, _, _ = self._launched_device()
        with pytest.raises(SimulationError, match="has not completed"):
            evt.elapsed_cycles()
        evt.wait()
        assert evt.elapsed_cycles() > 0
        record = evt.record
        assert evt.elapsed_cycles() == record.completed_cycle - record.launch_cycle

    def test_event_is_param_addr(self):
        dev, evt, _, _ = self._launched_device()
        assert isinstance(evt, Event)
        assert isinstance(evt, int)  # back-compat with the old return value
        dev.synchronize()


class TestStream:
    def test_streams_get_unique_ids(self):
        dev = small_device()
        s1, s2 = dev.stream(), dev.stream()
        assert isinstance(s1, Stream)
        assert s1.id != s2.id
        assert int(s1) == s1.id and s2.__index__() == s2.id

    def test_launch_and_synchronize_via_stream(self):
        dev = small_device()
        dev.register(map_kernel("inc", lambda k, v: k.iadd(v, 1)))
        n = 128
        src = dev.upload(np.arange(n))
        dst = dev.alloc(n)
        stream = dev.stream()
        evt = stream.launch("inc", grid=1, block=128, params=[n, src, dst])
        stream.synchronize()
        assert evt.done
        np.testing.assert_array_equal(dst.download(), np.arange(n) + 1)

    def test_same_stream_serializes(self):
        dev = small_device()
        dev.register(map_kernel("inc", lambda k, v: k.iadd(v, 1)))
        n = 128
        buf = dev.upload(np.zeros(n, dtype=np.int64))
        stream = dev.stream()
        first = stream.launch("inc", grid=1, block=128, params=[n, buf, buf])
        second = stream.launch("inc", grid=1, block=128, params=[n, buf, buf])
        second.wait()
        assert first.record.completed_cycle <= second.record.first_exec_cycle
        np.testing.assert_array_equal(buf.download(), np.full(n, 2))


class TestDeviceLifecycle:
    def test_context_manager_closes(self):
        with small_device() as dev:
            arr = dev.upload(np.arange(4))
            np.testing.assert_array_equal(arr.download(), np.arange(4))
        assert dev.closed
        with pytest.raises(DeviceError):
            dev.alloc(4)
        with pytest.raises(DeviceError):
            dev.synchronize()
        with pytest.raises(DeviceError):
            arr.download()

    def test_close_is_idempotent(self):
        dev = small_device()
        dev.close()
        dev.close()
        assert dev.closed

    @pytest.mark.parametrize("core", ["fast", "reference"])
    def test_close_frees_the_store_without_the_cycle_collector(self, core):
        """A running GPU is full of reference cycles; its global store
        must not wait for them.  Finished blocks let their warps go, so after a
        kernel ran nothing but the GlobalMemory holds the arrays."""
        gc.collect()
        gc.disable()
        try:
            dev = Device(config=dataclasses.replace(GPUConfig.small(), core=core),
                         memory_words=1 << 16)
            dev.register(map_kernel("inc", lambda k, v: k.iadd(v, 1)))
            n = 256
            src = dev.upload(np.arange(n))
            dst = dev.alloc(n)
            dev.launch("inc", grid=2, block=128, params=[n, src, dst]).wait()
            np.testing.assert_array_equal(dst.download(), np.arange(n) + 1)
            store = weakref.ref(dev.gpu.memory.i)
            dev.close()
            assert store() is None
            assert dev.gpu.memory.i.size == 0 and dev.gpu.memory.f.size == 0
        finally:
            gc.enable()

    def test_closing_lets_go_of_an_attached_sampler(self):
        """A TimelineSampler points back at its GPU; after close the two
        are no cycle, and the samples stay readable."""
        from repro.sim.timeline import TimelineSampler

        gc.collect()
        gc.disable()
        try:
            dev = Device(config=GPUConfig.small(), memory_words=1 << 16)
            sampler = TimelineSampler(dev.gpu, interval=50)
            dev.attach_tracer(sampler)
            dev.register(map_kernel("inc", lambda k, v: k.iadd(v, 1)))
            n = 256
            dev.launch("inc", grid=2, block=128,
                       params=[n, dev.upload(np.arange(n)), dev.alloc(n)]).wait()
            dev.close()
            assert sampler.samples
            gpu = weakref.ref(dev.gpu)
            del dev, sampler
            assert gpu() is None
        finally:
            gc.enable()

    def test_a_finished_job_leaves_no_store_behind(self, monkeypatch):
        """run_job closes the device it made: with the collector off, the
        32 MB stores of jobs run one after another do not pile up."""
        from repro import JobSpec, run_job

        monkeypatch.delenv("REPRO_SANITIZE", raising=False)

        spec = JobSpec.create("bfs_citation", "dtbl", scale=0.1, latency_scale=0.1)
        store_bytes = 8 * 4 * 1024 * 1024
        gc.collect()
        gc.disable()
        tracemalloc.start()
        try:
            for _ in range(2):
                run_job(spec)
                held, peak = tracemalloc.get_traced_memory()
                assert peak > store_bytes  # the store is traced ...
                assert held < store_bytes // 4  # ... and gone
        finally:
            tracemalloc.stop()
            gc.enable()

    @pytest.mark.parametrize("variant", ["plain", "traced", "sanitized"])
    @pytest.mark.parametrize("mode", ["flat", "cdp", "dtbl", "persistent"])
    @pytest.mark.parametrize("core", ["fast", "reference"])
    def test_a_finished_job_frees_its_gpu_without_the_collector(
        self, monkeypatch, core, mode, variant
    ):
        """Closing a device cuts every reference back to its GPU, so the
        GPU goes with its last reference, not at the next gc run."""
        from repro import JobSpec, run_job
        from repro.sim import gpu as gpu_module
        from repro.sim import profiler

        gpus = []
        init = gpu_module.GPU.__init__

        def tracked_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            gpus.append(weakref.ref(self))

        monkeypatch.setattr(gpu_module.GPU, "__init__", tracked_init)
        monkeypatch.setenv("REPRO_SANITIZE", "1" if variant == "sanitized" else "0")
        config = dataclasses.replace(GPUConfig.k20c(), core=core)
        spec = JobSpec.create("bfs_citation", mode, scale=0.1,
                              latency_scale=0.1, config=config)
        if variant == "traced":
            profiler.activate()
        gc.collect()
        gc.disable()
        try:
            result = run_job(spec)
        finally:
            gc.enable()
            if variant == "traced":
                profiler.deactivate()
        assert result.stats.cycles > 0
        assert len(gpus) == 1 and gpus[0]() is None


class TestModeLatencyValidation:
    def test_consistent_combinations_accepted(self):
        """Any mode runs under any latency model: the ideal one is how
        the paper's CDPI / DTBLI are built."""
        Device(config=GPUConfig.small(), mode=ExecutionMode.CDP,
               latency=LatencyModel.ideal())
        Device(config=GPUConfig.small(), mode=ExecutionMode.PERSISTENT,
               latency=LatencyModel.ideal())
        Device(config=GPUConfig.small(), mode=ExecutionMode.DTBL,
               latency=LatencyModel.measured_k20c().scaled(0.25))
        Device(config=GPUConfig.small(), mode=ExecutionMode.DTBL)


class TestLegacyShims:
    def test_download_ints_and_floats(self):
        dev = small_device()
        ints = dev.upload(np.arange(6))
        flts = dev.upload(np.linspace(0, 1, 6))
        np.testing.assert_array_equal(dev.download_ints(ints, 6), np.arange(6))
        np.testing.assert_allclose(dev.download_floats(flts, 6), np.linspace(0, 1, 6))
