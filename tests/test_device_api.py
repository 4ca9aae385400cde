"""Device host-API surface: memory utilities and events."""

import numpy as np
import pytest

from repro import Device
from repro.errors import MemoryError_, SimulationError

from tests.helpers import make_device, map_kernel


class TestMemoryUtilities:
    def test_memset(self):
        dev = make_device()
        addr = dev.alloc(16)
        dev.memset(addr, 7, 16)
        np.testing.assert_array_equal(dev.download_ints(addr, 16), np.full(16, 7))

    def test_memset_bounds_checked(self):
        dev = Device(memory_words=1024)
        addr = dev.alloc(8)
        with pytest.raises(MemoryError_):
            dev.memset(addr, 0, 100_000)

    def test_copy_device(self):
        dev = make_device()
        src = dev.upload(np.arange(32))
        dst = dev.alloc(32)
        dev.copy_device(dst, src, 32)
        np.testing.assert_array_equal(dev.download_ints(dst, 32), np.arange(32))

    def test_copy_overlapping_is_safe(self):
        dev = make_device()
        base = dev.upload(np.arange(16))
        dev.copy_device(base + 4, base, 8)  # overlapping ranges
        np.testing.assert_array_equal(
            dev.download_ints(base + 4, 8), np.arange(8)
        )

    def test_download_floats(self):
        dev = make_device()
        addr = dev.upload(np.linspace(0, 1, 10))
        np.testing.assert_allclose(dev.download_floats(addr, 10), np.linspace(0, 1, 10))


class TestEvents:
    def test_elapsed_between_launches(self):
        dev = make_device()
        func = map_kernel("work", lambda k, v: k.imul(v, 2))
        dev.register(func)
        n = 1000
        src = dev.upload(np.arange(n))
        dst = dev.alloc(n)
        start = dev.cycles
        first = dev.launch("work", grid=8, block=128, params=[n, src, dst]).wait()
        middle = dev.cycles
        second = dev.launch("work", grid=8, block=128, params=[n, dst, src]).wait()
        assert start == 0 < first.elapsed_cycles() <= middle
        assert 0 < second.elapsed_cycles() <= dev.cycles - middle
        assert second.record.launch_cycle >= first.record.completed_cycle

    def test_missing_event(self):
        """A launch not yet run has no elapsed time."""
        dev = make_device()
        dev.register(map_kernel("work", lambda k, v: v))
        evt = dev.launch("work", grid=1, block=32, params=[0, 0, 0])
        with pytest.raises(SimulationError, match="has not completed"):
            evt.elapsed_cycles()
