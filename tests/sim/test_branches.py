"""Predicated branches on both cores, and the fast paths that skip NumPy.

``BRA`` is the most frequent op of the spin-polling workloads.  The fast
core counts a predicate row's true lanes in one C call and builds lane
masks only when a branch diverges; a warp's atomic on one word folds
over Python ints.  The tests here pin both against the reference core
and an independent model, and check that those ops, once decoded, never
enter NumPy's Python layer.
"""

from __future__ import annotations

import dataclasses
import os
import sys

import numpy as np
import pytest

from repro import Device, GPUConfig, KernelFunction
from repro.isa import parse_program
from repro.isa.instructions import Opcode
from repro.isa.semantics import ATOMIC
from repro.sim.fast_warp import decode_program
from repro.sim.tracing import InstructionTrace

from tests.sim.test_atomic_conflicts import LANES, SLOTS, _append_kernel, _kernel


def _branch_kernel(sense: str) -> KernelFunction:
    """Per thread: ``1`` down the fall-through path, ``1010`` down the
    taken one, plus ``100`` where a nested branch on ``gtid % 3`` falls
    through — under a bounds branch, so a short last warp branches with
    a partial mask.  ``sense`` is ``""`` or ``"!"``."""
    name = "bra_not" if sense else "bra"
    text = f"""
    .kernel {name}
    read_special %r0 gtid
    read_special %r1 param
    ld %r2 %r1 off=0
    setp %r3 %r0 %r2 lt
    bra ->end @!%r3 reconv=end
    ld %r4 %r1 off=1
    iadd %r5 %r4 %r0
    ld %r6 %r5
    ld %r7 %r1 off=2
    iadd %r8 %r7 %r0
    mov %r9 #0
    imod %r10 %r0 #3
    bra ->taken @{sense}%r6 reconv=join1
    iadd %r9 %r9 #1
    bra ->join1
    taken:
    iadd %r9 %r9 #10
    bra ->join2 @%r10 reconv=join2
    iadd %r9 %r9 #100
    join2:
    join
    iadd %r9 %r9 #1000
    join1:
    join
    st %r8 %r9
    end:
    join
    exit
    """
    return KernelFunction(name, parse_program(text))


_WARP = np.arange(64) % 32
#: One predicate value a thread, for two warps.
ROWS = {
    "zeros": np.zeros(64, dtype=np.int64),
    "ones": np.ones(64, dtype=np.int64),
    "twos": np.full(64, 2, dtype=np.int64),
    "minus_ones": np.full(64, -1, dtype=np.int64),
    "mixed": np.array([0, 1, 2, -1], dtype=np.int64)[_WARP % 4],
    # Uniform over the 20 lanes a short second warp has, not over its row.
    "tail": np.where(_WARP < 20, -1, 0),
}


def _model(row, sense: str, n: int):
    """(outputs, branches_uniform, branches_diverged), lane by lane."""
    out, uniform, diverged = [], 0, 0

    def count(takers, active):
        nonlocal uniform, diverged
        if 0 < takers < active:
            diverged += 1
        else:
            uniform += 1

    for warp in (range(0, 32), range(32, 64)):
        active = [t for t in warp if t < n]
        count(len(warp) - len(active), len(warp))  # the bounds branch, @!
        taken = [t for t in active if (row[t] != 0) != (sense == "!")]
        count(len(taken), len(active))
        if taken:
            count(sum(t % 3 != 0 for t in taken), len(taken))
        out += [(1010 + 100 * (t % 3 == 0) if t in taken else 1) for t in active]
    return out, uniform, diverged


def _run(func, core: str, row, n: int, tracer=None, **config):
    config = dataclasses.replace(GPUConfig.small(), core=core, **config)
    dev = Device(config=config)
    if tracer is not None:
        dev.attach_tracer(tracer)
    dev.register(func)
    preds = dev.upload(row)
    out = dev.alloc(64)
    dev.launch(func.name, grid=1, block=64, params=[n, preds, out])
    dev.synchronize()
    stats = dev.stats
    return (
        dev.download_ints(out, n).tolist(), stats.branches_uniform,
        stats.branches_diverged, stats.cycles, stats.issued_instructions,
    )


@pytest.mark.parametrize("n", [64, 52], ids=["full", "partial"])
@pytest.mark.parametrize("sense", ["", "!"], ids=["taken_if_set", "taken_if_clear"])
@pytest.mark.parametrize("row", sorted(ROWS))
def test_branch_equals_the_model_on_both_cores(row, sense, n):
    """Rows of 0, 1, 2 and -1, both senses, full and partial masks:
    uniformly taken, uniformly not taken and divergent, with a nested
    branch and an unconditional one.  Outputs and branch counters equal
    the model; traced, both cores issue the same records; untraced (the
    fast core runs ahead) the same statistics."""
    expected = _model(ROWS[row], sense, n)
    traces, runs = [], []
    for core in ("fast", "reference"):
        trace = InstructionTrace()
        func = _branch_kernel(sense)  # a fresh program per device
        traced = _run(func, core, ROWS[row], n, trace)
        assert traced[:3] == expected
        assert len(trace.records) == traced[4]
        traces.append(list(trace.records))
        runs += [traced, _run(_branch_kernel(sense), core, ROWS[row], n)]
    assert traces[0] == traces[1]
    assert runs[0] == runs[1] == runs[2] == runs[3]
    # Each issue carries its frame's lane count: the bodies adding 1
    # (fall-through), 10 (taken) and 100 (nested fall-through) issue
    # with as many lanes as the model sends down each.
    lanes = {}
    for record in traces[0]:
        instr = func.program.instructions[record.pc]
        if instr.op is Opcode.IADD and instr.a.idx == 9:
            lanes[instr.b.value] = lanes.get(instr.b.value, 0) + record.active
    outputs = expected[0]
    assert lanes.get(1, 0) == outputs.count(1)
    assert lanes.get(10, 0) == len(outputs) - outputs.count(1)
    assert lanes.get(100, 0) == outputs.count(1110)


def _atomic_run(func, slots, n: int, scheduler: str) -> None:
    """``_kernel``'s parameters: zeroed cells, then slots, values, swaps."""
    dev = Device(config=dataclasses.replace(GPUConfig.small(), warp_scheduler=scheduler))
    dev.register(func)
    params = [n, dev.upload(np.zeros(64, dtype=np.int64))] + [
        dev.upload(np.asarray(column, dtype=np.int64)) for column in (slots, LANES % 5, LANES)
    ] + [dev.alloc(100)]
    dev.launch(func.name, grid=-(-n // 64), block=64, params=params)
    dev.synchronize()


def _numpy_python_calls(codes, run) -> tuple:
    """The functions of NumPy's ``.py`` files called while a function of
    ``codes`` is on the stack, during ``run()``, and how often ``codes``
    were entered."""
    numpy_dir = os.path.dirname(np.__file__) + os.sep
    calls, depth, entered = [], 0, 0

    def profile(frame, event, arg):
        nonlocal depth, entered
        code = frame.f_code
        if event == "call":
            if code in codes:
                depth += 1
                entered += 1
            elif depth and code.co_filename.startswith(numpy_dir):
                if code.co_filename.endswith(".py"):
                    calls.append(f"{code.co_filename}:{code.co_name}")
        elif event == "return" and code in codes:
            depth -= 1

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return calls, entered


@pytest.mark.parametrize("scheduler", ["gto", "rr"], ids=["run_ahead", "step"])
def test_branches_and_atomics_never_enter_numpy_python_code(scheduler):
    """A branch and a one-word atomic, as decoded closures, call only
    NumPy's C layer: a warm-up run decodes and compiles, then every branch
    kernel, and every atomic op with all lanes on one word, with one lane
    and as a worklist append, runs under ``sys.setprofile``.  GTO
    scheduling enters the closures from run-ahead, ``rr`` from ``step()``.
    (Lanes on distinct words may: ``ATOM_CAS``'s lane form is
    ``np.where``, whose dispatcher is Python.)"""
    kernels = [(_branch_kernel(s), ROWS[r], n) for s in ("", "!") for r in ROWS for n in (64, 52)]
    atomics = [_kernel(op) for op in sorted(ATOMIC)] + [_append_kernel(None), _append_kernel(1)]
    codes = {
        run.__code__
        for func in [kernel for kernel, _, _ in kernels] + atomics
        for run, op, _, _ in decode_program(func.program)[0]
        if op is Opcode.BRA or op in ATOMIC
    }

    def branches():
        for func, row, n in kernels:
            _run(func, "fast", row, n, warp_scheduler=scheduler)

    def atomic_runs():
        for func in atomics:
            _atomic_run(func, SLOTS["one_address"], 100, scheduler)
            for slots in SLOTS.values():
                _atomic_run(func, slots, 65, scheduler)

    for run in (branches, atomic_runs):
        run()  # warm-up: imports, generated code
        calls, entered = _numpy_python_calls(codes, run)
        assert entered and not calls, sorted(set(calls))
