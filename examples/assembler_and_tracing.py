#!/usr/bin/env python
"""Tooling tour: write a kernel in assembly text, trace its execution,
and profile issue counts per opcode and per kernel.

Demonstrates three library facilities beyond the benchmark harness:

* the text assembler (`repro.isa.parse_program`) and its round-trip with
  `Program.to_assembly()`;
* the CUDA-style launch sugar (`repro.runtime.bind`);
* execution tracing (`repro.sim.tracing`) and the issue profiler
  (`repro.sim.HotPathProfiler`).

Run:  python examples/assembler_and_tracing.py
"""

import numpy as np

from repro import Device, KernelFunction
from repro.isa import parse_program
from repro.runtime.sugar import bind
from repro.sim import HotPathProfiler
from repro.sim.tracing import InstructionTrace

COLLATZ_ASM = """
.kernel collatz_steps
; out[i] = number of Collatz steps from x[i] (bounded at 200)
read_special %r0 gtid
read_special %r1 param
ld %r2 %r1 off=0          ; n
setp %r3 %r0 %r2 lt
bra ->end @!%r3 reconv=end
ld %r4 %r1 off=1          ; x base
iadd %r5 %r4 %r0
ld %r6 %r5                ; v = x[gtid]
mov %r7 #0                ; steps
loop:
setp %r8 %r6 #1 gt
mov %r9 #200
setp %r10 %r7 %r9 lt
iand %r11 %r8 %r10
bra ->done @!%r11 reconv=done
imod %r12 %r6 #2
setp %r13 %r12 #0 eq
bra ->even @%r13 reconv=step
imul %r6 %r6 #3           ; odd: v = 3v + 1
iadd %r6 %r6 #1
bra ->step
even:
idiv %r6 %r6 #2           ; even: v = v / 2
step:
join
iadd %r7 %r7 #1
bra ->loop
done:
join
ld %r14 %r1 off=2         ; out base
iadd %r15 %r14 %r0
st %r15 %r7
end:
join
exit
"""


def collatz_reference(v: int) -> int:
    steps = 0
    while v > 1 and steps < 200:
        v = 3 * v + 1 if v % 2 else v // 2
        steps += 1
    return steps


def main() -> None:
    program = parse_program(COLLATZ_ASM)
    print("Round-trip check: reparsing canonical assembly is stable:",
          parse_program(program.to_assembly()).to_assembly() == program.to_assembly())
    print()

    device = Device()
    profiler = HotPathProfiler()
    device.attach_tracer(profiler)

    kernel = bind(device, KernelFunction("collatz_steps", program))
    n = 256
    values = np.arange(1, n + 1)
    x = device.upload(values)
    out = device.alloc(n)
    kernel[(n + 127) // 128, 128](n, x, out)
    stats = device.synchronize()

    got = device.download_ints(out, n)
    expected = np.array([collatz_reference(int(v)) for v in values])
    assert (got == expected).all(), "Collatz step counts diverged from Python!"
    print(f"collatz over {n} values verified; {stats.cycles:,} cycles, "
          f"warp activity {stats.warp_activity_pct:.1f}% "
          f"(data-dependent loop trip counts diverge heavily)")
    print()
    print("Per-kernel opcode profile:")
    print(profiler.report())

    # Re-run with an instruction ring trace and show the tail.
    device2 = Device()
    trace = InstructionTrace(capacity=2000)
    device2.attach_tracer(trace)
    kernel2 = bind(device2, KernelFunction("collatz_steps", parse_program(COLLATZ_ASM)))
    x2 = device2.upload(values[:32])
    out2 = device2.alloc(32)
    kernel2[1, 32](32, x2, out2)
    device2.synchronize()
    print()
    print("Last 8 issued instructions (one warp):")
    print(trace.format(limit=8))


if __name__ == "__main__":
    main()
