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
    """The trimmed image checkpoints carry: extent, copy, and put-back."""

    #: Sizes and positions on both sides of every scan-block boundary.
    SIZE = 2 * _SCAN_BLOCK + 37
    TOPS = [0, 1, 36, 37, _SCAN_BLOCK - 1, _SCAN_BLOCK, _SCAN_BLOCK + 36,
            _SCAN_BLOCK + 37, 2 * _SCAN_BLOCK, SIZE - 1]

    @pytest.mark.parametrize("dtype", [np.int64, np.int32, np.bool_, np.float64])
    def test_extent_is_one_past_the_last_set_element(self, dtype):
        array = np.zeros(self.SIZE, dtype=dtype)
        assert image_extent(array) == 0
        assert trim_image(array).size == 0
        for top in self.TOPS:
            array[:] = 0
            array[top] = 1
            array[top // 2] = 1
            assert image_extent(array) == top + 1
            image = trim_image(array)
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
                target = np.zeros(self.SIZE, dtype=dtype)
                target[dirt] = 1
                target[dirt // 3] = 1
                apply_image(target, trim_image(source))
                assert np.array_equal(target, source)

    def test_global_memory_image_roundtrip(self):
        mem = GlobalMemory(4096)
        base = mem.alloc_array(np.arange(1, 11))
        image = trim_image(mem.i)
        assert image.size == base + 10
        other = GlobalMemory(4096)
        other.i[3000:3010] = 9
        apply_image(other.i, image)
        assert np.array_equal(other.i, mem.i)
