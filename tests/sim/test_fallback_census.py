"""The fallback census: what the fast core still runs on the reference
core's handlers.

``decode_program`` reports the pcs it could not decode natively
(``fallback_pcs``).  In every kernel of every benchmark, in every mode,
each of them must be an opcode of ``fast_warp.REFERENCE_OPS`` — the
launch API and the warp-wide exchanges — so no memory, atomic or ALU
instruction of the suite pays the reference handlers' per-issue cost or
ends a run-ahead window.
"""

from __future__ import annotations

import pytest

from repro import ExecutionMode, KernelFunction
from repro.isa import parse_program
from repro.isa.instructions import Opcode
from repro.isa.semantics import ALU, ATOMIC, FUSABLE_OPS, MEMORY
from repro.sim.fast_warp import _BUILDERS, REFERENCE_OPS, decode_program
from repro.workloads import benchmark_names, get_benchmark


def offenders(kernels):
    """``(kernel, pc, instruction)`` of every reference fallback whose
    opcode is not on the allow-list."""
    found = []
    for func in kernels:
        instructions = func.program.instructions
        for pc in sorted(decode_program(func.program)[4]):
            if instructions[pc].op not in REFERENCE_OPS:
                found.append((func.name, pc, instructions[pc]))
    return found


class _Registered(Exception):
    pass


def registered_kernels(name: str, mode: ExecutionMode, monkeypatch):
    """The kernels ``Workload._execute`` registers — after the mode's
    transforms — without running them."""
    workload = get_benchmark(name, mode, scale=0.1)
    devices = []

    def stop(self, device):
        devices.append(device)
        raise _Registered

    monkeypatch.setattr(type(workload), "setup", stop)
    with pytest.raises(_Registered):
        workload.execute(verify=False)
    (device,) = devices
    kernels = list(device.gpu.kernels.values())
    device.close()
    return kernels


def test_the_allow_list_is_what_has_no_builder():
    assert REFERENCE_OPS == set(Opcode) - FUSABLE_OPS - set(_BUILDERS)
    assert not REFERENCE_OPS & (set(MEMORY) | set(ATOMIC) | set(ALU))


@pytest.mark.parametrize("name", benchmark_names())
def test_every_fallback_of_the_suite_is_on_the_allow_list(name, monkeypatch):
    for mode in ExecutionMode:
        kernels = registered_kernels(name, mode, monkeypatch)
        assert kernels and offenders(kernels) == [], (name, mode.value)
        if mode.uses_cdp or mode is ExecutionMode.DTBL:
            # Not vacuous: the launch API is there, and is reported.
            assert any(decode_program(func.program)[4] for func in kernels)


def test_a_float_immediate_base_still_delegates_and_is_reported():
    program = parse_program("""
    .kernel odd
        read_special %r0 gtid
        fld %f0 #2.5
        ld %r1 #2
        fst %r0 %f0
        exit
    """)
    func = KernelFunction("odd", program)
    table, _, _, _, fallback_pcs = decode_program(program)
    assert fallback_pcs == {1}
    assert table[1][2] == 0 and table[2][2] == 2, "a fallback is klass 0, a native load 2"
    assert offenders([func]) == [("odd", 1, program.instructions[1])]
