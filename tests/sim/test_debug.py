"""State-dump debugging helpers."""

import dataclasses
import heapq
import re

from repro import GPUConfig, KernelBuilder, KernelFunction
from repro.state import dump_state, dump_warp

from tests.helpers import make_device


def paused_device(core="fast"):
    """A device stopped mid-flight: launch work but don't run to idle."""
    k = KernelBuilder("spin")
    param = k.param()
    out = k.ld(param, offset=0)
    acc = k.mov(0)
    with k.for_range(0, 2000) as i:
        k.iadd(acc, i, dst=acc)
    k.atom_add(out, acc)
    k.exit()
    dev = make_device(config=dataclasses.replace(GPUConfig.k20c(), core=core))
    dev.register(KernelFunction("spin", k.build()))
    out = dev.alloc(1)
    dev.launch("spin", grid=30, block=128, params=[out])
    # Prime the machine without draining it: run the event loop briefly by
    # stepping the GPU manually for a bounded number of cycles.
    gpu = dev.gpu
    # 283 cycles of KMU dispatch latency precede any execution.
    for _ in range(600):
        while gpu._events and gpu._events[0][0] <= gpu.cycle:
            heapq.heappop(gpu._events)[2](gpu.cycle)
        for smx in gpu.smxs:
            smx.tick(gpu.cycle)
        gpu.cycle += 1
    return dev


class TestDumpState:
    def test_mid_flight_snapshot(self):
        dev = paused_device()
        text = dump_state(dev.gpu)
        # The occupied KDE entry, by kernel name, with its native and
        # aggregated progress; the (by now drained) FCFS queue; the AGT.
        assert "distributor: _entries=1/32 occupied=1" in text
        entry = next(
            line for line in text.splitlines()
            if line.startswith("distributor._entries[0]:")
        )
        assert "func=spin" in entry and "grid_dims=(30, 1, 1)" in entry
        assert "next_block=30 exe_blocks=30" in entry and "agg_exe_blocks=0" in entry
        assert "fcfs=(empty)" in text
        assert "scheduler.agt: _slots=0/1024 occupied=0" in text
        # Per-SMX resources and resident blocks, down to each warp's stack.
        assert "smxs[0]: free_threads=1664" in text
        assert "smxs[0].blocks[0]: smx=smx0 func=spin" in text
        assert "kde_entry=spin[0]" in text
        assert "smxs[0].blocks[0].warps[0]: " in text
        assert "record=spin@283" in entry

    def test_fcfs_order(self):
        dev = make_device()
        for name in ("first", "second"):
            k = KernelBuilder(name)
            k.exit()
            dev.register(KernelFunction(name, k.build()))
            dev.launch(name, grid=1, block=32, stream=dev.stream())
        gpu = dev.gpu
        # Deliver the KMU's events only: both kernels get marked, and no
        # distribution pass takes them off the queue again.
        while len(gpu.scheduler.fcfs) < 2:
            cycle, _seq, fn, kind, _payload = heapq.heappop(gpu._events)
            if kind != "distribute":
                fn(cycle)
        assert "fcfs=first[0] -> second[1]" in dump_state(gpu)

    def test_idle_snapshot(self):
        dev = make_device()
        text = dump_state(dev.gpu)
        assert "_entries=0/32" in text
        assert "fcfs=(empty)" in text
        assert "smxs[" not in text and "hwqs[" not in text  # idle: left out

    def test_dump_warp(self):
        """Frames are three long on the reference core, five on the fast."""
        for core, frame in (
            ("reference", r"\[\d+, -1, <32/32>\]"),
            ("fast", r"\[\d+, -1, <32/32>, 32, True\]"),
        ):
            warp = paused_device(core).gpu.smxs[0].blocks[0].warps[0]
            warp.stack.append(list(warp.stack[0]))
            text = dump_warp(warp)
            assert text.startswith("warp 0 slot=0 block=0 kernel=spin: ")
            assert re.search(rf"stack=\[{frame}, {frame}\] ready_cycle=\d+", text)
