"""Local memory, shared-memory bank conflicts, shuffle and vote."""

import numpy as np
import pytest

from repro import Device, GPUConfig, KernelBuilder, KernelFunction
from repro.config import MAX_LOCAL_WORDS, SHARED_MEM_SIZE, WORD_BYTES
from repro.errors import ExecutionError, LaunchError

from tests.helpers import make_device


def run_kernel(func, params, grid=1, block=64, device=None):
    dev = device or make_device()
    dev.register(func)
    dev.launch(func.name, grid=grid, block=block, params=params)
    dev.synchronize()
    return dev


class TestLocalMemory:
    def test_local_roundtrip_is_private_per_thread(self):
        # Each thread writes its gtid at local[0..3], reads back, sums.
        k = KernelBuilder("local")
        gtid = k.gtid()
        param = k.param()
        out = k.ld(param, offset=0)
        for i in range(4):
            k.stl(i, k.iadd(gtid, i))
        acc = k.mov(0)
        with k.for_range(0, 4) as i:
            k.iadd(acc, k.ldl(i), dst=acc)
        k.st(k.iadd(out, gtid), acc)
        k.exit()
        func = KernelFunction("local", k.build(), local_words=4)
        dev = make_device()
        dev.register(func)
        out = dev.alloc(128)
        dev.launch("local", grid=2, block=64, params=[out])
        dev.synchronize()
        got = dev.download_ints(out, 128)
        expected = 4 * np.arange(128) + 6
        np.testing.assert_array_equal(got, expected)

    def test_local_stack_push_pop(self):
        # LIFO behaviour with a data-dependent stack pointer.
        k = KernelBuilder("stack")
        gtid = k.gtid()
        param = k.param()
        out = k.ld(param, offset=0)
        sp = k.mov(0)
        with k.for_range(0, 5) as i:
            k.stl(sp, k.imul(k.iadd(gtid, i), 2))
            k.iadd(sp, 1, dst=sp)
        acc = k.mov(0)
        with k.while_(lambda: k.gt(sp, 0)):
            k.iadd(sp, -1, dst=sp)
            k.iadd(acc, k.ldl(sp), dst=acc)
        k.st(k.iadd(out, gtid), acc)
        k.exit()
        func = KernelFunction("stack", k.build(), local_words=8)
        dev = make_device()
        dev.register(func)
        out = dev.alloc(64)
        dev.launch("stack", grid=1, block=64, params=[out])
        dev.synchronize()
        got = dev.download_ints(out, 64)
        expected = np.array([sum(2 * (g + i) for i in range(5)) for g in range(64)])
        np.testing.assert_array_equal(got, expected)

    def test_local_out_of_range_faults(self):
        k = KernelBuilder("oob")
        k.ldl(10)
        k.exit()
        func = KernelFunction("oob", k.build(), local_words=4)
        dev = make_device()
        dev.register(func)
        dev.launch("oob", grid=1, block=32)
        with pytest.raises(ExecutionError):
            dev.synchronize()

    def test_local_words_limit_enforced(self):
        k = KernelBuilder("big")
        k.nop()
        k.exit()
        func = KernelFunction("big", k.build(), local_words=MAX_LOCAL_WORDS + 1)
        dev = make_device()
        dev.register(func)
        # No SMX can ever accept this block: the launch is refused by
        # name, not left to wait until the simulator reports a deadlock.
        with pytest.raises(LaunchError, match="local-memory words"):
            dev.launch("big", grid=1, block=32)

    def test_uniform_offset_coalesces(self):
        # Interleaved local layout: lane-uniform offsets are contiguous.
        k = KernelBuilder("coal")
        k.stl(0, 7)
        k.ldl(0)
        k.exit()
        func = KernelFunction("coal", k.build(), local_words=2)
        dev = make_device()
        dev.register(func)
        dev.launch("coal", grid=1, block=32)
        stats = dev.synchronize()
        # One warp store + one warp load over contiguous lanes: at most 3
        # segments each (256B possibly unaligned), far below the 32 of a
        # scattered access.
        assert stats.coalescing.average_transactions <= 3.0


class TestBankConflicts:
    def _shared_kernel(self, stride: int) -> KernelFunction:
        k = KernelBuilder(f"bank_{stride}")
        tid = k.tid()
        k.sts(k.imul(tid, stride), tid)
        k.bar()
        k.lds(k.imul(tid, stride))
        k.exit()
        return KernelFunction(
            f"bank_{stride}", k.build(), shared_words=32 * stride + 1
        )

    def _cycles(self, stride: int) -> int:
        dev = make_device()
        dev.register(self._shared_kernel(stride))
        dev.launch(f"bank_{stride}", grid=1, block=32)
        return dev.synchronize().cycles

    def test_stride_32_conflicts_cost_more(self):
        # Stride 1: conflict-free.  Stride 32: all lanes hit bank 0.
        assert self._cycles(32) > self._cycles(1) + 100

    def test_broadcast_is_free(self):
        # All lanes reading the same address broadcast without conflict.
        k = KernelBuilder("bcast")
        k.sts(0, 1)
        k.bar()
        k.lds(0)
        k.exit()
        dev = make_device()
        dev.register(KernelFunction("bcast", k.build(), shared_words=4))
        dev.launch("bcast", grid=1, block=32)
        broadcast = dev.synchronize().cycles
        assert broadcast < self._cycles(32)

    def test_shared_words_limit_enforced(self):
        words = SHARED_MEM_SIZE // WORD_BYTES
        k = KernelBuilder("wide")
        k.nop()
        k.exit()
        dev = make_device()
        dev.register(KernelFunction("fits", k.build(), shared_words=words))
        dev.register(KernelFunction("wide", k.build(), shared_words=words + 1))
        dev.launch("fits", grid=1, block=32)
        with pytest.raises(LaunchError, match="shared memory"):
            dev.launch("wide", grid=1, block=32)
        dev.synchronize()


class TestShuffleVote:
    def _run(self, build_body, block=32):
        k = KernelBuilder("wp")
        gtid = k.gtid()
        param = k.param()
        out = k.ld(param, offset=0)
        result = build_body(k, gtid)
        k.st(k.iadd(out, gtid), result)
        k.exit()
        func = KernelFunction("wp", k.build())
        dev = make_device()
        dev.register(func)
        out = dev.alloc(block)
        dev.launch("wp", grid=1, block=block, params=[out])
        dev.synchronize()
        return dev.download_ints(out, block)

    def test_shfl_idx_reverse(self):
        got = self._run(lambda k, g: k.shfl_idx(k.imul(g, 10), k.isub(31, g)))
        np.testing.assert_array_equal(got, 10 * (31 - np.arange(32)))

    def test_shfl_down_reduction(self):
        # Classic warp tree-reduction: lane 0 ends with the warp sum.
        def body(k, g):
            value = k.mov(g)
            for delta in (16, 8, 4, 2, 1):
                k.iadd(value, k.shfl_down(value, delta), dst=value)
            return value

        got = self._run(body)
        assert got[0] == sum(range(32))

    def test_vote_any_all(self):
        def body(k, g):
            any_big = k.vote_any(k.gt(g, 30))    # lane 31 only -> 1
            all_pos = k.vote_all(k.ge(g, 0))     # everyone -> 1
            all_big = k.vote_all(k.gt(g, 0))     # lane 0 fails -> 0
            return k.iadd(k.imul(any_big, 100), k.iadd(k.imul(all_pos, 10), all_big))

        got = self._run(body)
        assert (got == 110).all()

    def test_ballot(self):
        got = self._run(lambda k, g: k.ballot(k.eq(k.imod(g, 2), 0)))
        expected = sum(1 << i for i in range(0, 32, 2))
        assert (got == expected).all()

    def test_ballot_respects_active_mask(self):
        # Only even lanes execute the ballot: odd lanes contribute 0 bits.
        def body(k, g):
            result = k.mov(-1)
            with k.if_(k.eq(k.imod(g, 2), 0)):
                k.ballot(k.ge(g, 0), dst=result)
            return result

        got = self._run(body)
        expected = sum(1 << i for i in range(0, 32, 2))
        assert (got[::2] == expected).all()
        assert (got[1::2] == -1).all()
