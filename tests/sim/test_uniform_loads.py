"""Warp-uniform loads: the fast core's scalar path for one-word addresses.

``fast_warp.uniform_registers`` proves which int registers hold one value
in every lane a warp runs (a block-uniform special, or int ALU over such
registers, written once in the kernel's entry block), and the decoder
binds a global load through one of them, or from an immediate address,
to a scalar closure that reads lane 0.  These tests pin the rule (what
qualifies and what does not), that the scalar path is bit-exact with
the reference core under partial and divergent masks, on an out-of-range
address, on NaN payloads and across a checkpoint, and — as a Hypothesis
property over random programs — that every load the decoder marks
really sees one address across its active lanes on the reference core.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro import Device, ExecutionMode, GPUConfig, KernelBuilder, KernelFunction
from repro.errors import ExecutionError
from repro.isa.instructions import Bank, Opcode, Reg, Special
from repro.isa.program import Program
from repro.sim.fast_warp import decode_program, uniform_registers
from repro.state import load_checkpoint, prepare_resume

BLOCK = 48  # a full warp and a 16-lane one per block


def _program(build) -> Program:
    k = KernelBuilder("uniform")
    build(k)
    k.exit()
    return k.build()


def _uniform(build) -> frozenset:
    return uniform_registers(_program(build).instructions)


def scalar_load_pcs(program) -> set:
    """The pcs the decoder bound to the scalar closure."""
    return {
        pc for pc, (run, *_rest) in enumerate(decode_program(program)[0])
        if run.__name__ == "run_uniform"
    }


# ----------------------------------------------------------------------
# The rule
# ----------------------------------------------------------------------
class TestUniformRegisters:
    def test_a_param_read_once_in_the_entry_block_is_uniform(self):
        regs = {}

        def build(k):
            regs["param"] = k.param()
            regs["cta"] = k.ctaid()
            regs["ntid"] = k.ntid()
            regs["nctaid"] = k.nctaid()
            regs["stride"] = k.imul(regs["cta"], 4)
            regs["sum"] = k.iadd(regs["param"], regs["stride"])
            regs["pred"] = k.lt(regs["cta"], 3)
            k.ld(regs["sum"], offset=1)

        assert _uniform(build) == {reg.idx for reg in regs.values()}

    def test_loads_through_uniform_registers_and_immediates_are_scalar(self):
        def build(k):
            k.gtid()  # pc 0 (r0; the FLD below writes f0)
            param = k.param()
            k.ld(param, offset=2)  # pc 2
            k.fld(param)  # pc 3
            k.ld(5)  # pc 4
            k.ld(k.tid())  # pc 6: a lane index
            k.st(param, 1)  # pc 7: stores keep the lane closure
            k.lds(param)  # pc 8: so does shared space

        assert scalar_load_pcs(_program(build)) == {2, 3, 4}

    @pytest.mark.parametrize("where", ["entry", "after_branch", "other_bank", "loop"])
    def test_a_redefined_or_late_register_is_not_uniform(self, where):
        regs = {}

        def build(k):
            param = regs["param"] = k.param()
            if where == "entry":
                k.special(Special.CTAID_X, dst=param)
            elif where == "other_bank":
                # Counted by index: a float row of the same number is a
                # second definition.
                k.fmov(1.5, dst=Reg(Bank.FLT, param.idx))
            with k.if_(k.lt(k.tid(), 3)):
                late = regs["late"] = k.ntid()
                k.ld(late)
                if where == "after_branch":
                    k.mov(7, dst=param)
            k.ld(param)

        def build_loop(k):
            # The loop head is a branch target: its condition runs again
            # under whatever mask is left, so the entry block ends there.
            i = k.mov(0)
            with k.while_(lambda: k.lt(i, regs.setdefault("head", k.ntid()))):
                k.iadd(i, 1, dst=i)
            regs["param"] = k.param()

        uniform = _uniform(build_loop if where == "loop" else build)
        assert not uniform & {reg.idx for reg in regs.values()}

    @pytest.mark.parametrize(
        "special", [Special.GTID, Special.TID_X, Special.TID_Y, Special.TID_Z]
    )
    def test_thread_indices_are_never_uniform(self, special):
        regs = []

        def build(k):
            index = k.special(special)
            regs.extend([index, k.iadd(index, 0), k.iadd(k.param(), index)])
            k.ld(regs[-1])

        uniform = _uniform(build)
        assert not uniform & {reg.idx for reg in regs}
        assert not scalar_load_pcs(_program(build))


# ----------------------------------------------------------------------
# Exactness against the reference core
# ----------------------------------------------------------------------
def _param_kernel() -> KernelFunction:
    """Params [n, src, out, bias]: out[g] = bias + (src[g] on 2 lanes in 4).

    Every parameter read goes through the one ``param`` register: the
    tail warp of a block runs them under a 16-lane initial mask, the
    guard narrows it further, and ``src`` is re-read inside a divergent
    ``if_``."""
    k = KernelBuilder("param_reader")
    gtid = k.gtid()
    tid = k.tid()
    param = k.param()
    n = k.ld(param, offset=0)
    with k.if_(k.lt(gtid, n)):
        acc = k.ld(param, offset=3)
        with k.if_(k.lt(k.iand(tid, 3), 2)):
            src = k.ld(param, offset=1)
            k.iadd(acc, k.ld(k.iadd(src, gtid)), dst=acc)
        out = k.ld(param, offset=2)
        k.st(k.iadd(out, gtid), acc)
    k.exit()
    return KernelFunction("param_reader", k.build())


def _device(core: str, sanitize: bool = False, config=None) -> Device:
    config = dataclasses.replace(config or GPUConfig.small(), core=core)
    return Device(config=config, mode=ExecutionMode.FLAT, sanitize=sanitize)


def _stats(dev) -> dict:
    stats = dev.stats.to_dict()
    del stats["config"]  # it names the core
    return stats


class _Interrupt(Exception):
    pass


def _run_param_kernel(core, n=70, sanitize=False, checkpoint=None):
    """One run -> (out, stats).  ``checkpoint=(every, path, stop_at)``
    interrupts the run at its ``stop_at``-th checkpoint; with ``path``
    already holding a checkpoint the run resumes from it instead."""
    func = _param_kernel()
    with _device(core, sanitize) as dev:
        dev.register(func)
        src = dev.upload(np.arange(n, dtype=np.int64) * 7 - 5)
        out = dev.alloc(n)
        if checkpoint is not None:
            every, path, stop_at = checkpoint
            resume = load_checkpoint(path) if path.exists() else None

            def bomb(doc):
                bomb.count += 1
                if resume is None and bomb.count >= stop_at:
                    raise _Interrupt()

            bomb.count = 0
            dev.configure_checkpoint(every, path=str(path), on_checkpoint=bomb)
        dev.launch(func.name, grid=-(-n // BLOCK), block=BLOCK, params=[n, src, out, 1000])
        if checkpoint is not None and resume is not None:
            prepare_resume(dev.gpu, resume)
        dev.synchronize()
        if sanitize:
            assert dev.sanitizer_report().clean, dev.sanitizer_report().format()
        return dev.download_ints(out, n).tolist(), _stats(dev)


class TestExactness:
    @pytest.mark.parametrize("sanitize", [False, True], ids=["plain", "sanitized"])
    def test_param_loads_under_partial_and_divergent_masks(self, sanitize):
        program = _param_kernel().program
        param = next(
            instr.dst.idx for instr in program.instructions
            if instr.special is Special.PARAM
        )
        param_loads = {
            pc for pc, instr in enumerate(program.instructions)
            if instr.op is Opcode.LD and type(instr.a) is Reg and instr.a.idx == param
        }
        assert len(param_loads) == 4 and scalar_load_pcs(program) == param_loads
        fast = _run_param_kernel("fast", sanitize=sanitize)
        reference = _run_param_kernel("reference", sanitize=sanitize)
        assert fast == reference
        out, stats = fast
        assert out == [1000 + (g * 7 - 5 if g % BLOCK % 4 < 2 else 0) for g in range(70)]
        assert stats["branches_diverged"] > 0

    @pytest.mark.parametrize("offset, bias", [
        (1 << 40, 0),  # past the end
        (-(1 << 40), 0),  # below zero
        ((1 << 62) + 1, 1 << 62),  # base + offset wraps to a negative int64
    ])
    def test_an_out_of_range_load_raises_the_reference_message(self, offset, bias):
        k = KernelBuilder("stray")
        base = k.iadd(k.param(), bias)
        k.ld(base, offset=offset)
        k.exit()
        func = KernelFunction("stray", k.build())
        assert scalar_load_pcs(func.program) == {2}
        messages = []
        for core in ("fast", "reference"):
            with _device(core) as dev:
                dev.register(func)
                dev.launch("stray", grid=1, block=BLOCK, params=[0])
                with pytest.raises(ExecutionError) as excinfo:
                    dev.synchronize()
                messages.append(str(excinfo.value))
                limit = dev.gpu.memory.size_words
        assert messages[0] == messages[1]
        lo, _, rest = messages[0].partition("global access out of range (addr ")[2].partition("..")
        hi = rest.partition(",")[0]
        assert lo == hi and (int(lo) < 0) == (offset < 0 or bias > 0), messages[0]
        assert messages[0].endswith(f"mem size {limit})")

    def test_an_fld_of_a_nan_payload_stays_bit_exact(self):
        """Signalling, quiet and negative NaNs with payloads, and -0.0,
        reach the destination row as bit patterns, under a full and a
        partial mask."""
        words = np.array([
            0x7FF0000000000001, 0x7FF8000000000ABC, -0x0007FFFFFFFFF123, -(1 << 63),
        ], dtype=np.int64)
        k = KernelBuilder("nan_copy")
        gtid = k.gtid()
        param = k.param()
        out = k.ld(param, offset=len(words))
        for slot in range(len(words)):
            # Float rows numbered apart from the int ones: the rule counts
            # definitions by index over both banks.
            value = k.fld(param, offset=slot, dst=Reg(Bank.FLT, 8 + slot))
            k.fst(k.iadd(out, k.iadd(k.imul(gtid, len(words)), slot)), value)
        k.exit()
        func = KernelFunction("nan_copy", k.build())
        assert len(scalar_load_pcs(func.program)) == len(words) + 1
        results = []
        for core in ("fast", "reference"):
            with _device(core) as dev:
                dev.register(func)
                out_buf = dev.alloc(BLOCK * len(words))
                dev.launch("nan_copy", grid=1, block=BLOCK,
                           params=[*words.tolist(), out_buf])
                dev.synchronize()
                got = dev.download_ints(out_buf, BLOCK * len(words))
                results.append((got.tolist(), _stats(dev)))
        assert results[0] == results[1]
        np.testing.assert_array_equal(
            np.asarray(results[0][0]).reshape(BLOCK, len(words)),
            np.tile(words, (BLOCK, 1)),
        )

    def test_a_checkpoint_taken_mid_kernel_resumes_to_identical_stats(self, tmp_path):
        golden = _run_param_kernel("fast", n=200)
        assert golden == _run_param_kernel("reference", n=200)
        path = tmp_path / "uniform.ckpt"
        with pytest.raises(_Interrupt):
            _run_param_kernel("fast", n=200, checkpoint=(40, path, 3))
        doc = load_checkpoint(path)
        assert 0 < doc["cycle"] < golden[1]["cycles"]
        assert _run_param_kernel("fast", n=200, checkpoint=(40, path, 3)) == golden


# ----------------------------------------------------------------------
# Soundness property over random programs
# ----------------------------------------------------------------------
# Statements over a pool of six int registers R0..R5 (all start at 0):
#   ("special", r, s)      R[r] = special s
#   ("add", r, a, imm)     R[r] = R[a] + imm
#   ("addr", r, a, b)      R[r] = R[a] + R[b]
#   ("load", r, a, off)    R[r] = mem[R[a] + off], through R0..R3
#   ("if", imm, body)      if gtid % 8 < imm: body   (divergent)
#   ("loop", n, body)      body, n times (a backward branch)
# A program is a straight-line prologue writing R0..R3, where uniform
# registers are born, a body writing R2..R5, and a load through each of
# R0..R3 under the whole mask and one inside a divergent ``if``.
_POOL = 6
_BASES = 4
_SPECIALS = [Special.PARAM, Special.CTAID_X, Special.NTID_X, Special.NCTAID_X,
             Special.TID_X, Special.GTID]


def _leaves(dst, reg):
    return st.one_of(
        st.tuples(st.just("special"), dst, st.sampled_from(_SPECIALS)),
        st.tuples(st.just("add"), dst, reg, st.integers(0, 40)),
        st.tuples(st.just("addr"), dst, reg, reg),
        st.tuples(st.just("load"), dst, st.integers(0, _BASES - 1), st.integers(0, 6)),
    )


def _body(depth: int):
    # The body never writes R0 or R1, and may (re)define R2 and R3.
    leaf = _leaves(st.integers(2, _POOL - 1), st.integers(0, _POOL - 1))
    if depth == 0:
        return st.lists(leaf, min_size=1, max_size=5)
    body = _body(depth - 1)
    return st.lists(
        st.one_of(
            leaf,
            st.tuples(st.just("if"), st.integers(1, 7), body),
            st.tuples(st.just("loop"), st.integers(1, 2), body),
        ),
        min_size=1, max_size=6,
    )


def _programs():
    base = st.integers(0, _BASES - 1)
    specials = st.lists(
        st.tuples(st.just("special"), base, st.sampled_from(_SPECIALS)),
        min_size=1, max_size=3,
    )
    prologue = st.lists(_leaves(base, base), max_size=3)
    return st.builds(
        lambda *parts: [statement for part in parts for statement in part],
        specials, prologue, _body(depth=2),
    )


def _emit(k, regs, statements) -> None:
    for statement in statements:
        kind = statement[0]
        if kind == "special":
            k.special(statement[2], dst=regs[statement[1]])
        elif kind == "add":
            k.iadd(regs[statement[2]], statement[3], dst=regs[statement[1]])
        elif kind == "addr":
            k.iadd(regs[statement[2]], regs[statement[3]], dst=regs[statement[1]])
        elif kind == "load":
            k.ld(regs[statement[2]], offset=statement[3], dst=regs[statement[1]])
        elif kind == "if":
            with k.if_(k.lt(k.iand(k.gtid(), 7), statement[1])):
                _emit(k, regs, statement[2])
        else:
            with k.for_range(0, statement[1]):
                _emit(k, regs, statement[2])


def _random_kernel(statements) -> KernelFunction:
    k = KernelBuilder("uniform_fuzz")
    regs = [k.ireg() for _ in range(_POOL)]
    _emit(k, regs, statements)
    gtid = k.gtid()
    for base in regs[:_BASES]:
        k.ld(base, offset=1)
    with k.if_(k.lt(k.iand(gtid, 7), 3)):
        for base in regs[:_BASES]:
            k.ld(base, offset=2)
    out = k.iadd(k.param(), 8)
    for slot, reg in enumerate(regs):
        k.st(k.iadd(out, k.iadd(k.imul(gtid, _POOL), slot)), reg)
    k.exit()
    return KernelFunction("uniform_fuzz", k.build())


class _BaseChecker:
    """Tracer: at every issue of a marked load, the reference core's
    active lanes must all name one address."""

    def __init__(self, marked: set) -> None:
        self.marked = marked
        self.checked = 0

    def on_issue(self, warp, pc, opcode, active, cycle) -> None:
        if pc not in self.marked or not active:
            return
        instr = warp._instrs[pc]
        if type(instr.a) is Reg:
            bases = warp.regs_i[instr.a.idx][warp.stack[-1][2]] + instr.offset
            assert len(set(bases.tolist())) == 1, (pc, instr, bases)
        self.checked += 1


def _run_random(func, core, tracer=None):
    """(stats, memory) or the error both cores must agree on."""
    with _device(core) as dev:
        dev.register(func)
        if tracer is not None:
            dev.attach_tracer(tracer)
        threads = 2 * BLOCK
        dev.launch(func.name, grid=2, block=BLOCK,
                   params=[3, 1, 4, 1, 5, 9, 2, 6] + [0] * (threads * _POOL))
        try:
            dev.synchronize()
        except ExecutionError as exc:
            return str(exc)
        return _stats(dev), dev.gpu.memory.i[: dev.gpu.memory.words_in_use].tolist()


class TestSoundnessProperty:
    @settings(max_examples=30, deadline=None)
    @given(statements=_programs())
    # The shapes an unsound rule would get wrong: a register defined once
    # but under a divergent mask, redefined there, or computed from a
    # lane index.
    @example([("special", 0, Special.PARAM), ("if", 3, [("special", 2, Special.NTID_X)])])
    @example([("special", 2, Special.PARAM), ("if", 3, [("special", 2, Special.CTAID_X)])])
    @example([("special", 0, Special.TID_X), ("add", 1, 0, 5)])
    def test_marked_loads_see_one_address_on_the_reference_core(self, statements):
        func = _random_kernel(statements)
        program = func.program
        marked = scalar_load_pcs(program)
        uniform = uniform_registers(program.instructions)
        for pc in marked:
            instr = program.instructions[pc]
            assert instr.op in (Opcode.LD, Opcode.FLD)
            assert type(instr.a) is not Reg or instr.a.idx in uniform
        checker = _BaseChecker(marked)
        reference = _run_random(func, "reference", checker)
        assert _run_random(func, "fast") == reference
