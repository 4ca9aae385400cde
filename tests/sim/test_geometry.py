"""2D/3D launch geometry: tid/ctaid decomposition and coverage."""

import numpy as np
import pytest

from repro import Device, KernelBuilder, KernelFunction
from repro.isa import Special

from tests.helpers import make_device


def coords_kernel() -> KernelFunction:
    """Writes flat_id = f(tid, ctaid) into out so the host can check the
    full 3D decomposition."""
    k = KernelBuilder("coords")
    param = k.param()
    out = k.ld(param, offset=0)
    tx = k.special(Special.TID_X)
    ty = k.special(Special.TID_Y)
    tz = k.special(Special.TID_Z)
    nx = k.special(Special.NTID_X)
    ny = k.special(Special.NTID_Y)
    cx = k.special(Special.CTAID_X)
    cy = k.special(Special.CTAID_Y)
    cz = k.special(Special.CTAID_Z)
    gx = k.special(Special.NCTAID_X)
    gy = k.special(Special.NCTAID_Y)
    # linear thread id within block
    tlin = k.iadd(tx, k.imul(nx, k.iadd(ty, k.imul(ny, tz))))
    # linear block id within grid
    block = k.iadd(cx, k.imul(gx, k.iadd(cy, k.imul(gy, cz))))
    nz = k.special(Special.NTID_Z)
    threads_per_block = k.imul(nx, k.imul(ny, nz))
    flat = k.iadd(tlin, k.imul(block, threads_per_block))
    k.st(k.iadd(out, flat), k.iadd(flat, 1000))
    k.exit()
    return KernelFunction("coords", k.build())


class TestGeometry:
    @pytest.mark.parametrize(
        "grid,block",
        [
            ((2, 3), (8, 4)),
            ((2, 2, 2), (4, 4, 2)),
            (5, 64),
            ((1, 1, 4), (32, 1, 2)),
        ],
    )
    def test_every_thread_covered_exactly_once(self, grid, block):
        dev = make_device()
        dev.register(coords_kernel())

        def total(dims):
            if isinstance(dims, int):
                return dims
            result = 1
            for d in dims:
                result *= d
            return result

        n = total(grid) * total(block)
        out = dev.alloc(n)
        dev.launch("coords", grid=grid, block=block, params=[out])
        dev.synchronize()
        got = dev.download_ints(out, n)
        np.testing.assert_array_equal(got, np.arange(n) + 1000)

    def test_gtid_matches_manual_flattening_1d(self):
        k = KernelBuilder("g")
        param = k.param()
        out = k.ld(param, offset=0)
        gtid = k.gtid()
        manual = k.iadd(k.tid(), k.imul(k.ctaid(), k.ntid()))
        k.st(k.iadd(out, gtid), k.isub(gtid, manual))
        k.exit()
        dev = make_device()
        dev.register(KernelFunction("g", k.build()))
        out = dev.alloc(256)
        dev.launch("g", grid=4, block=64, params=[out])
        dev.synchronize()
        assert (dev.download_ints(out, 256) == 0).all()

    def test_non_warp_multiple_block(self):
        # 2D block of 6x7 = 42 threads: 2 warps, second mostly inactive.
        dev = make_device()
        dev.register(coords_kernel())
        n = 2 * 42
        out = dev.alloc(n)
        dev.launch("coords", grid=2, block=(6, 7), params=[out])
        dev.synchronize()
        np.testing.assert_array_equal(dev.download_ints(out, n), np.arange(n) + 1000)


def _hits(*key) -> bool:
    """Whether ``_geometry(*key)`` is a cache hit (a miss caches ``key``)."""
    from repro.sim import fast_warp

    hits = fast_warp._geometry.cache_info().hits
    fast_warp._geometry(*key)
    return fast_warp._geometry.cache_info().hits == hits + 1


class TestGeometryCache:
    """The warp-geometry memo must stay bounded (LRU) and correct."""

    def test_cache_is_bounded_lru(self):
        from repro.sim import fast_warp

        fast_warp._geometry.cache_clear()
        limit = fast_warp._geometry.cache_info().maxsize
        # Insert far more distinct shapes than the cache may hold.
        for bx in range(1, limit + 50):
            fast_warp._geometry(bx, 1, bx, 0)
        assert fast_warp._geometry.cache_info().currsize == limit
        # The newest keys survive, the oldest were evicted.
        assert _hits(limit + 49, 1, limit + 49, 0)
        assert not _hits(1, 1, 1, 0)

    def test_hit_refreshes_recency(self):
        from repro.sim import fast_warp

        fast_warp._geometry.cache_clear()
        limit = fast_warp._geometry.cache_info().maxsize
        for bx in range(1, limit + 1):
            fast_warp._geometry(bx, 1, bx, 0)
        # Touch the oldest entry, then overflow by one: the second-oldest
        # must be the eviction victim instead.
        fast_warp._geometry(1, 1, 1, 0)
        fast_warp._geometry(limit + 1, 1, limit + 1, 0)
        assert _hits(1, 1, 1, 0)
        assert not _hits(2, 1, 2, 0)

    def test_cached_arrays_are_immutable_and_exact(self):
        from repro.config import WARP_SIZE
        from repro.sim import fast_warp

        fast_warp._geometry.cache_clear()
        a = fast_warp._geometry(6, 7, 42, 1)
        b = fast_warp._geometry(6, 7, 42, 1)
        assert a is b  # shared, not recomputed
        init_mask, tid_x, tid_y, tid_z, clamped, active = a
        assert active == int(init_mask.sum())
        with pytest.raises(ValueError):
            tid_x[0] = 99
        linear = 1 * WARP_SIZE + np.arange(WARP_SIZE)
        np.testing.assert_array_equal(init_mask, linear < 42)
