"""Property tests: random structured programs vs a Python evaluator.

Hypothesis generates small ASTs of arithmetic, divergent ``if``s and
bounded ``while`` loops over a per-lane accumulator.  Each AST is lowered
twice: through the KernelBuilder onto the simulated GPU, and through a
direct Python evaluator.  Per-lane results must match exactly — this
stresses the PDOM reconvergence stack with arbitrary nesting shapes.

The memory-op differential fuzz extends the grammar with global
loads/stores at computed addresses, shared-memory staging separated by
barriers, and atomic adds, and runs every program through both
execution cores (reference and fast) with the sanitizer enabled:
results must match the evaluator exactly and the sanitizer must stay
clean.  A second, unsanitized pass compares the cores' full
:class:`~repro.sim.stats.SimStats` — that is the path where the fast
core's superblock fusion and run-ahead windows engage (the sanitizer
forces per-instruction dispatch), so it is the differential that guards
them.
"""

from __future__ import annotations

import dataclasses
from typing import List, Tuple

import numpy as np
from hypothesis import given, settings, strategies as st

from repro import Device, ExecutionMode, GPUConfig, KernelBuilder, KernelFunction

from tests.helpers import make_device, map_kernel

# AST node encodings:
#   ("op", name, imm)      acc = acc <op> imm
#   ("if", cmp, imm, body) if acc <cmp> imm: body
#   ("while", imm, body)   while acc < imm: body + forced progress (acc += step)

_OPS = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "mul": lambda a, b: a * b,
    "xor": lambda a, b: a ^ b,
    "min": min,
    "max": max,
}

_CMPS = {
    "lt": lambda a, b: a < b,
    "ge": lambda a, b: a >= b,
    "eq": lambda a, b: a == b,
}


def _ast(depth: int):
    op_node = st.tuples(
        st.just("op"), st.sampled_from(sorted(_OPS)), st.integers(-9, 9)
    )
    if depth == 0:
        return st.lists(op_node, min_size=1, max_size=4)
    sub = _ast(depth - 1)
    if_node = st.tuples(
        st.just("if"), st.sampled_from(sorted(_CMPS)), st.integers(-20, 20), sub
    )
    while_node = st.tuples(
        st.just("while"), st.integers(0, 30), st.integers(1, 5), sub
    )
    return st.lists(st.one_of(op_node, if_node, while_node), min_size=1, max_size=4)


def emit(k, acc, nodes) -> None:
    for node in nodes:
        kind = node[0]
        if kind == "op":
            _, name, imm = node
            builder_op = {
                "add": k.iadd, "sub": k.isub, "mul": k.imul,
                "xor": k.ixor, "min": k.imin, "max": k.imax,
            }[name]
            builder_op(acc, imm, dst=acc)
        elif kind == "if":
            _, cmp_name, imm, body = node
            pred = {"lt": k.lt, "ge": k.ge, "eq": k.eq}[cmp_name](acc, imm)
            with k.if_(pred):
                emit(k, acc, body)
        else:  # while
            _, bound, step, body = node
            guard = k.mov(0)  # bounded trip count for termination
            with k.while_(lambda: k.iand(k.lt(acc, bound), k.lt(guard, 8))):
                emit(k, acc, body)
                k.iadd(acc, step, dst=acc)  # forced progress
                k.iadd(guard, 1, dst=guard)


def _wrap64(value: int) -> int:
    """Two's-complement int64 wrap-around (the GPU's register width)."""
    return ((value + (1 << 63)) % (1 << 64)) - (1 << 63)


def evaluate(value: int, nodes) -> int:
    acc = value
    for node in nodes:
        kind = node[0]
        if kind == "op":
            _, name, imm = node
            acc = _wrap64(_OPS[name](acc, imm))
        elif kind == "if":
            _, cmp_name, imm, body = node
            if _CMPS[cmp_name](acc, imm):
                acc = evaluate(acc, body)
        else:
            _, bound, step, body = node
            guard = 0
            while acc < bound and guard < 8:
                acc = evaluate(acc, body)
                acc = _wrap64(acc + step)
                guard += 1
    return acc


class TestRandomStructuredPrograms:
    @settings(max_examples=20, deadline=None)
    @given(
        nodes=_ast(depth=2),
        data=st.lists(st.integers(-30, 30), min_size=1, max_size=64),
    )
    def test_gpu_matches_evaluator(self, nodes, data):
        def body(k, v):
            acc = k.mov(v)
            emit(k, acc, nodes)
            return acc

        func = map_kernel("rand_prog", body)
        dev = make_device()
        dev.register(func)
        arr = np.asarray(data, dtype=np.int64)
        src = dev.upload(arr)
        dst = dev.alloc(len(arr))
        dev.launch(
            "rand_prog",
            grid=(len(arr) + 63) // 64,
            block=64,
            params=[len(arr), src, dst],
        )
        dev.synchronize()
        got = dev.download_ints(dst, len(arr))
        expected = np.array([evaluate(int(v), nodes) for v in data], dtype=np.int64)
        np.testing.assert_array_equal(got, expected)


# ======================================================================
# Memory-op differential fuzz
# ======================================================================
# Top-level phase encodings (uniform control flow, so barriers are legal):
#   ("ops", nodes)       per-lane arithmetic AST from _ast() above
#   ("shared", shift)    sts(tid, acc); bar(); acc += smem[(tid+shift)%B]; bar()
#   ("global", salt)     scratch[gtid*4 + (acc&3)] = acc^salt; acc += loaded back
#   ("atomic", imm)      atom_add(counter, (acc&7)+1); acc ^= imm

_BLOCK = 64


def _phases():
    ops = st.tuples(st.just("ops"), _ast(depth=1))
    shared = st.tuples(st.just("shared"), st.integers(1, _BLOCK - 1))
    global_ = st.tuples(st.just("global"), st.integers(0, 15))
    atomic = st.tuples(st.just("atomic"), st.integers(0, 31))
    return st.lists(st.one_of(ops, shared, global_, atomic), min_size=1, max_size=5)


def build_mem_fuzz(phases) -> KernelFunction:
    """Params: [n, src, dst, scratch, counter].  All block threads
    participate (inactive tails carry acc = 0) so the barriers in shared
    phases are uniform; only the final store is guarded."""
    k = KernelBuilder("mem_fuzz")
    gtid = k.gtid()
    tid = k.tid()
    param = k.param()
    n = k.ld(param, offset=0)
    src = k.ld(param, offset=1)
    dst = k.ld(param, offset=2)
    scratch = k.ld(param, offset=3)
    counter = k.ld(param, offset=4)
    acc = k.mov(0)
    with k.if_(k.lt(gtid, n)):
        k.ld(k.iadd(src, gtid), dst=acc)
    for kind, arg in phases:
        if kind == "ops":
            emit(k, acc, arg)
        elif kind == "shared":
            k.sts(tid, acc)
            k.bar()
            other = k.lds(k.imod(k.iadd(tid, arg), _BLOCK))
            k.iadd(acc, other, dst=acc)
            k.bar()
        elif kind == "global":
            addr = k.iadd(scratch, k.iadd(k.imul(gtid, 4), k.iand(acc, 3)))
            k.st(addr, k.ixor(acc, arg))
            k.iadd(acc, k.ld(addr), dst=acc)
        else:  # atomic
            k.atom_add(counter, k.iadd(k.iand(acc, 7), 1))
            k.ixor(acc, arg, dst=acc)
    with k.if_(k.lt(gtid, n)):
        k.st(k.iadd(dst, gtid), acc)
    k.exit()
    return KernelFunction("mem_fuzz", k.build(), shared_words=_BLOCK)


def evaluate_mem_fuzz(data, phases, blocks):
    """The same program over all ``blocks * _BLOCK`` threads in Python."""
    total = blocks * _BLOCK
    acc = [int(data[g]) if g < len(data) else 0 for g in range(total)]
    scratch = np.zeros(total * 4, dtype=np.int64)
    counter = 0
    for kind, arg in phases:
        if kind == "ops":
            acc = [evaluate(a, arg) for a in acc]
        elif kind == "shared":
            for b in range(blocks):
                base = b * _BLOCK
                smem = acc[base:base + _BLOCK]
                for t in range(_BLOCK):
                    acc[base + t] = _wrap64(acc[base + t] + smem[(t + arg) % _BLOCK])
        elif kind == "global":
            for g in range(total):
                value = acc[g] ^ arg
                scratch[g * 4 + (acc[g] & 3)] = value
                acc[g] = _wrap64(acc[g] + value)
        else:  # atomic
            for g in range(total):
                counter += (acc[g] & 7) + 1
                acc[g] ^= arg
    out = np.array([acc[g] for g in range(len(data))], dtype=np.int64)
    return out, scratch, counter


def _run_mem_fuzz(func, data, blocks, core, sanitize):
    """One run; returns (dst, scratch, counter, stats fingerprint)."""
    config = dataclasses.replace(GPUConfig.k20c(), core=core)
    dev = Device(config=config, mode=ExecutionMode.FLAT, sanitize=sanitize)
    dev.register(func)
    n = len(data)
    src = dev.upload(np.asarray(data, dtype=np.int64))
    dst = dev.alloc(n)
    scratch = dev.alloc(blocks * _BLOCK * 4)
    counter = dev.alloc(1)
    dev.write_int(counter.addr, 0)
    dev.launch("mem_fuzz", grid=blocks, block=_BLOCK,
               params=[n, src, dst, scratch, counter])
    dev.synchronize()
    if sanitize:
        assert dev.sanitizer_report().clean, dev.sanitizer_report().format()
    from tests.test_fast_core_differential import fingerprint

    return (
        dst.download(), scratch.download(), dev.read_int(counter.addr),
        fingerprint(dev.stats),
    )


class TestMemoryOpFuzz:
    @settings(max_examples=15, deadline=None)
    @given(
        phases=_phases(),
        data=st.lists(st.integers(-30, 30), min_size=1, max_size=2 * _BLOCK),
    )
    def test_all_cores_match_evaluator(self, phases, data):
        func = build_mem_fuzz(phases)
        blocks = (len(data) + _BLOCK - 1) // _BLOCK
        results = []
        for core in ("fast", "reference"):
            got = _run_mem_fuzz(func, data, blocks, core, sanitize=True)
            results.append(got)
        out, scr, cnt = evaluate_mem_fuzz(data, phases, blocks)
        for got_out, got_scr, got_cnt, _stats in results:
            np.testing.assert_array_equal(got_out, out)
            np.testing.assert_array_equal(got_scr, scr)
            assert got_cnt == cnt

    @settings(max_examples=15, deadline=None)
    @given(
        phases=_phases(),
        data=st.lists(st.integers(-30, 30), min_size=1, max_size=2 * _BLOCK),
    )
    def test_unsanitized_cores_agree_bit_exactly(self, phases, data):
        """Results *and* SimStats identical across cores without the
        sanitizer — the configuration where fusion and run-ahead run."""
        func = build_mem_fuzz(phases)
        blocks = (len(data) + _BLOCK - 1) // _BLOCK
        baseline = None
        for core in ("reference", "fast"):
            out, scr, cnt, stats = _run_mem_fuzz(
                func, data, blocks, core, sanitize=False
            )
            current = (out.tolist(), scr.tolist(), cnt, stats)
            if baseline is None:
                baseline = current
            else:
                assert current == baseline, f"core {core!r} diverged"
