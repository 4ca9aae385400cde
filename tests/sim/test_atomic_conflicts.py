"""Atomics whose lanes collide on an address, on both cores.

The reference core serializes every atomic's active lanes in lane order
(``Warp._h_atomic``).  The fast core gathers, computes and scatters when
the addresses are distinct, and on a collision serializes the lanes
itself, over Python ints (``ATOMIC[op].scalar``) — it no longer hands the
instruction to the reference handler.  Memory, the destination register,
the coalescing statistics and every cycle must be equal either way.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import Device, KernelBuilder, KernelFunction
from repro.errors import ExecutionError
from repro.isa.instructions import Opcode
from repro.isa.semantics import ATOMIC
from repro.sim.warp import Warp

from tests.test_fast_core_differential import _config, fingerprint

N = 100  # 3 full warps and one with 4 active lanes (block 64, grid 2)
CELLS = 64
OPS = sorted(ATOMIC)


def _kernel(op: Opcode, alias: bool = False, odd_only: bool = False) -> KernelFunction:
    """``old = atom_op(cells + slot[gtid], value[gtid] [, swap[gtid]])``,
    ``old`` stored per thread, under a bounds branch (and, with
    ``odd_only``, a lane-parity one: a partial mask in every warp)."""
    name = f"atomic_{op.name.lower()}"
    k = KernelBuilder(name)
    gtid = k.gtid()
    param = k.param()

    def body():
        cell = k.iadd(k.ld(param, offset=1), k.ld(k.iadd(k.ld(param, offset=2), gtid)))
        value = k.ld(k.iadd(k.ld(param, offset=3), gtid))
        dst = value if alias else None
        if op is Opcode.ATOM_CAS:
            swap = k.ld(k.iadd(k.ld(param, offset=4), gtid))
            old = k.atom_cas(cell, value, swap, dst=dst)
        else:
            old = getattr(k, op.name.lower())(cell, value, dst=dst)
        k.st(k.iadd(k.ld(param, offset=5), gtid), old)

    with k.if_(k.lt(gtid, k.ld(param, offset=0))):
        if odd_only:
            with k.if_(k.eq(k.iand(gtid, 1), 1)):
                body()
        else:
            body()
    k.exit()
    return KernelFunction(name, k.build())


def _run(func, fast: bool, slots, values, swaps, cells, n: int = N):
    """(statistics, cells, ``old`` per thread) of ``n`` threads, 64 a block."""
    dev = Device(config=_config(fast))
    dev.register(func)
    cell_buf = dev.upload(np.asarray(cells, dtype=np.int64))
    out = dev.upload(np.full(N, -77, dtype=np.int64))
    params = [n, cell_buf] + [
        dev.upload(np.asarray(column, dtype=np.int64)) for column in (slots, values, swaps)
    ] + [out]
    dev.launch(func.name, grid=-(-n // 64), block=64, params=params)
    dev.synchronize()
    return fingerprint(dev.stats), cell_buf.download().tolist(), out.download().tolist()


LANES = np.arange(N)
SLOTS = {
    # every lane of every warp on one word
    "one_address": np.zeros(N, dtype=np.int64),
    # neighbouring lanes share a word
    "pairs": LANES // 2,
    # a distinct run, a three-way pile-up, and a far word that adds a segment
    "mixed": np.where(LANES % 8 < 5, LANES % 32, np.where(LANES % 8 < 7, 40, 63)),
}


def _serialized(op, slots, values, swaps, cells, active):
    """One warp's atomic, lane by lane in plain Python: (cells, old)."""
    cells = [int(word) for word in cells]
    old = [-77] * N
    for lane in np.flatnonzero(active).tolist():
        word = int(slots[lane])
        old[lane] = cells[word]
        cells[word] = ATOMIC[op].scalar(cells[word], int(values[lane]), int(swaps[lane]))
    return cells, old


@pytest.mark.parametrize("odd_only", [False, True], ids=["bounds_mask", "odd_lanes"])
@pytest.mark.parametrize("alias", [False, True], ids=["fresh_dst", "dst_is_operand"])
@pytest.mark.parametrize("pattern", sorted(SLOTS))
@pytest.mark.parametrize("op", OPS, ids=lambda op: op.name)
def test_colliding_lanes_equal_the_reference_core(op, pattern, alias, odd_only):
    slots = SLOTS[pattern]
    values = (LANES * 37 + 11) % 23 - 7  # repeats, negatives, zeros
    swaps = LANES + 1000
    cells = (np.arange(CELLS) * 5) % 9 - 2
    if op is Opcode.ATOM_CAS:
        values = (LANES % 3) * 5 - 2  # compare values that sometimes match
    func = lambda: _kernel(op, alias, odd_only)  # noqa: E731 - a fresh program per device
    fast = _run(func(), True, slots, values, swaps, cells)
    reference = _run(func(), False, slots, values, swaps, cells)
    assert fast[0] == reference[0], "statistics (cycles, coalescing, DRAM) differ"
    assert fast[1:] == reference[1:], "memory or destination registers differ"
    # And a single warp (20 of its lanes in range) against the lane-order
    # model: across warps the order is the scheduler's, within one it is
    # the lane index.
    alone = _run(func(), True, slots, values, swaps, cells, n=20)
    active = (LANES < 20) & ((LANES % 2 == 1) if odd_only else True)
    assert alone[1:] == _serialized(op, slots, values, swaps, cells, active)


def test_cas_chain_sees_the_value_an_earlier_lane_wrote():
    """Every lane CASes the same word, expecting its own lane index and
    writing index + 1: each compare only matches what the lane before it
    stored, so the word counts the lanes that ran — in lane order."""
    slots = np.zeros(N, dtype=np.int64)
    cells = np.zeros(CELLS, dtype=np.int64)
    results = [
        _run(_kernel(Opcode.ATOM_CAS), fast, slots, LANES, LANES + 1, cells, n=32)
        for fast in (True, False)
    ]
    assert results[0] == results[1]
    _stats, memory, old = results[0]
    assert memory[0] == 32 and old[:32] == list(range(32))


@pytest.mark.parametrize("op", OPS, ids=lambda op: op.name)
def test_out_of_range_lane_raises_the_reference_error(op):
    """A colliding warp whose lane 13 addresses past the end of memory:
    the same ``ExecutionError`` text, naming that first offender."""
    slots = np.where(LANES == 13, 1 << 40, np.where(LANES == 20, -(1 << 41), LANES // 2))
    messages = []
    for fast in (True, False):
        with pytest.raises(ExecutionError) as raised:
            _run(_kernel(op), fast, slots, LANES, LANES, np.zeros(CELLS, dtype=np.int64))
        messages.append(str(raised.value))
    assert messages[0] == messages[1]
    assert "atomic out of range at" in messages[0]


def test_fast_core_never_calls_the_reference_atomic_handler(monkeypatch):
    """Booby trap: a register-base atomic, colliding or not, stays in the
    fast core's own closure."""

    def trap(self, instr, frame, mask, cycle):
        raise AssertionError("fast core reached Warp._h_atomic")

    monkeypatch.setattr(Warp, "_h_atomic", trap)
    # _DISPATCH captured the original function at import; trap that too.
    from repro.sim.warp import _DISPATCH

    for op in ATOMIC:
        monkeypatch.setitem(_DISPATCH, op, trap)
    values = LANES % 5
    for op in OPS:
        for pattern in sorted(SLOTS):
            _run(_kernel(op), True, SLOTS[pattern], values, LANES, np.zeros(CELLS, dtype=np.int64))
    with pytest.raises(AssertionError, match="reached Warp._h_atomic"):
        _run(_kernel(Opcode.ATOM_ADD), False, SLOTS["pairs"], values, LANES,
             np.zeros(CELLS, dtype=np.int64))
