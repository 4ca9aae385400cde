"""Tests for the functional global-memory store and allocator."""

import numpy as np
import pytest

from repro.errors import MemoryError_
from repro.memory import GlobalMemory
from repro.memory.global_memory import (
    _SCAN_BLOCK,
    apply_image,
    image_extent,
    trim_image,
)


class TestAllocator:
    def test_word_zero_reserved_as_null(self):
        mem = GlobalMemory(1024)
        assert mem.alloc(4) != 0

    def test_sequential_allocation(self):
        mem = GlobalMemory(1024)
        a = mem.alloc(10)
        b = mem.alloc(10)
        assert b == a + 10

    def test_exhaustion_raises(self):
        mem = GlobalMemory(64)
        with pytest.raises(MemoryError_):
            mem.alloc(64)

    def test_zero_alloc_rejected(self):
        mem = GlobalMemory(64)
        with pytest.raises(MemoryError_):
            mem.alloc(0)

    def test_bytes_in_use(self):
        mem = GlobalMemory(1024)
        mem.alloc(10)
        assert mem.bytes_in_use == 11 * 8  # null word + 10


class TestFree:
    def test_lifo_free_reclaims_words(self):
        mem = GlobalMemory(1024)
        a = mem.alloc(10)
        mem.free(a)
        assert mem.alloc(10) == a  # the words were actually reclaimed

    def test_non_lifo_free_keeps_high_water_mark(self):
        mem = GlobalMemory(1024)
        a = mem.alloc(10)
        b = mem.alloc(10)
        mem.free(a)  # not the most recent allocation
        assert mem.live_range(a) is None
        assert mem.live_range(b) == 10
        # The bump pointer cannot roll back past b.
        assert mem.alloc(4) == b + 10

    def test_double_free_raises(self):
        mem = GlobalMemory(1024)
        a = mem.alloc(10)
        mem.free(a)
        with pytest.raises(MemoryError_, match="double free"):
            mem.free(a)

    def test_interior_pointer_free_raises(self):
        mem = GlobalMemory(1024)
        a = mem.alloc(10)
        with pytest.raises(MemoryError_, match="not a live allocation"):
            mem.free(a + 1)

    def test_never_allocated_free_raises(self):
        mem = GlobalMemory(1024)
        with pytest.raises(MemoryError_):
            mem.free(512)

    def test_extent_mismatch_raises(self):
        mem = GlobalMemory(1024)
        a = mem.alloc(10)
        with pytest.raises(MemoryError_, match="extent mismatch"):
            mem.free(a, words=4)

    def test_free_then_realloc_reuses_lifo_range(self):
        mem = GlobalMemory(1024)
        a = mem.alloc(8)
        b = mem.alloc(16)
        mem.free(b)
        mem.free(a)  # LIFO order: both roll back
        assert mem.alloc(24) == a
        assert mem.live_range(a) == 24

    def test_live_range_reports_extents(self):
        mem = GlobalMemory(1024)
        a = mem.alloc(3)
        assert mem.live_range(a) == 3
        assert mem.live_range(a + 1) is None


class TestViews:
    def test_int_float_views_share_storage(self):
        mem = GlobalMemory(64)
        addr = mem.alloc(1)
        mem.f[addr] = 1.0
        # Bit pattern of 1.0 as int64.
        assert mem.i[addr] == np.float64(1.0).view(np.int64)

    def test_alloc_array_int(self):
        mem = GlobalMemory(1024)
        base = mem.alloc_array(np.arange(16))
        np.testing.assert_array_equal(mem.read_ints(base, 16), np.arange(16))

    def test_alloc_array_float(self):
        mem = GlobalMemory(1024)
        values = np.linspace(0.0, 1.0, 8)
        base = mem.alloc_array(values)
        np.testing.assert_allclose(mem.read_floats(base, 8), values)

    def test_scalar_roundtrip(self):
        mem = GlobalMemory(64)
        addr = mem.alloc(2)
        mem.write_int(addr, -7)
        mem.write_float(addr + 1, 2.5)
        assert mem.read_int(addr) == -7
        assert mem.read_float(addr + 1) == 2.5

    def test_bounds_checked(self):
        mem = GlobalMemory(64)
        with pytest.raises(MemoryError_):
            mem.read_int(64)
        with pytest.raises(MemoryError_):
            mem.write_int(-1, 0)
        with pytest.raises(MemoryError_):
            mem.read_ints(60, 8)


class TestImage:
    """The trimmed image checkpoints carry: extent, copy, and put-back,
    each looking below a bound that may lie anywhere at or above the last
    set element."""

    #: Sizes and positions on both sides of every scan-block boundary.
    SIZE = 2 * _SCAN_BLOCK + 37
    TOPS = [0, 1, 36, 37, _SCAN_BLOCK - 1, _SCAN_BLOCK, _SCAN_BLOCK + 36,
            _SCAN_BLOCK + 37, 2 * _SCAN_BLOCK, SIZE - 1]

    @pytest.mark.parametrize("dtype", [np.int64, np.int32, np.bool_, np.float64])
    def test_extent_is_one_past_the_last_set_element(self, dtype):
        array = np.zeros(self.SIZE, dtype=dtype)
        assert image_extent(array) == 0
        assert trim_image(array, 0).size == trim_image(array, self.SIZE).size == 0
        for top in self.TOPS:
            array[:] = 0
            array[top] = 1
            array[top // 2] = 1
            assert image_extent(array) == top + 1
            for bound in {top + 1, top + 2, (top + self.SIZE) // 2 + 1, self.SIZE}:
                image = trim_image(array, bound)
                assert image.dtype == array.dtype and image.size == top + 1
                assert not np.shares_memory(image, array)

    def test_float_extent_reads_bits_not_values(self):
        array = np.zeros(100, dtype=np.float64)
        array[40] = -0.0
        assert image_extent(array) == 41
        array.view(np.int64)[70] = 0x7FF8_0000_0000_0001  # a NaN payload
        assert image_extent(array) == 71

    @pytest.mark.parametrize("dtype", [np.int64, np.bool_, np.float64])
    def test_apply_restores_every_element_of_a_dirty_target(self, dtype):
        rng = np.random.default_rng(7)
        for top in self.TOPS:
            source = np.zeros(self.SIZE, dtype=dtype)
            source[: top + 1] = rng.integers(0, 2, top + 1)
            source[top] = 1
            for dirt in self.TOPS:
                # The target's own bound: tight, or anywhere above its dirt.
                for bound in (dirt + 1, self.SIZE):
                    target = np.zeros(self.SIZE, dtype=dtype)
                    target[dirt] = 1
                    target[dirt // 3] = 1
                    apply_image(target, trim_image(source, top + 1), bound)
                    assert np.array_equal(target, source)

    def test_global_memory_image_roundtrip(self):
        mem = GlobalMemory(4096)
        base = mem.alloc_array(np.arange(1, 11))
        assert mem.written_end == base + 10
        image = trim_image(mem.i, mem.written_end)
        assert image.size == base + 10
        other = GlobalMemory(4096)
        other.write_ints(3000, np.full(10, 9))
        assert other.written_end == 3010
        apply_image(other.i, image, other.written_end)
        assert np.array_equal(other.i, mem.i)


class TestWrittenEnd:
    """Every host-side write raises the bound to one past what it wrote,
    zeros included; reads, allocation and ``free`` leave it alone."""

    def test_starts_at_zero_and_allocation_does_not_move_it(self):
        mem = GlobalMemory(4096)
        base = mem.alloc(100)
        mem.read_ints(base, 100)
        mem.read_float(base + 99)
        assert mem.written_end == 0 == image_extent(mem.i)

    def test_each_write_method_raises_it(self):
        mem = GlobalMemory(4096)
        a = mem.alloc_array(np.arange(1, 11))
        assert mem.written_end == a + 10
        b = mem.alloc_array(np.linspace(0.0, 1.0, 5))
        assert mem.written_end == b + 5
        mem.write_int(100, 7)
        assert mem.written_end == 101
        mem.write_float(200, -0.0)
        assert mem.written_end == 201
        mem.write_ints(300, np.zeros(8, dtype=np.int64))  # zeros: still a write
        assert mem.written_end == 308
        mem.write_floats(400, np.ones(4))
        assert mem.written_end == 404
        mem.write_int(50, 1)  # below it: the bound never falls
        assert mem.written_end == 404
        assert image_extent(mem.i) <= mem.written_end

    def test_free_rolls_the_allocator_back_but_not_the_bound(self):
        mem = GlobalMemory(4096)
        mem.alloc(10)
        top = mem.alloc_array(np.arange(1, 6))
        mem.free(top)
        assert mem.words_in_use == top < mem.written_end == top + 5
        assert trim_image(mem.i, mem.written_end).size == top + 5

    def test_observer_still_hears_of_every_host_write(self):
        heard = []

        class Observer:
            def on_alloc(self, base, words): pass
            def on_free(self, base, words): pass
            def on_host_write(self, base, words): heard.append((base, words))

        mem = GlobalMemory(4096)
        mem.observer = Observer()
        base = mem.alloc_array(np.arange(4))
        mem.write_int(base, 3)
        mem.write_floats(base + 1, np.ones(2))
        assert heard == [(base, 4), (base, 1), (base + 1, 2)]
