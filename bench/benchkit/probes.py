"""Per-layer micro-probes: one number per layer of the program.

Each probe calls one layer through its documented functions, imports it
lazily, and is run through :meth:`core.RunResult.probe`, so a probe whose
target was refactored away reports ``null`` with the reason while every
other number — and every end-to-end metric — is still produced.

The probes do not depend on the workload: every traced run carries the
whole layer ledger, and the workload's own spans say how much each layer
mattered *there*.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Tuple

from . import core
from .simload import LATENCY_SCALE, WARM_SCALE

Probe = Tuple[Tuple[str, ...], Callable[[core.RunResult], Dict[str, float]]]

_GRID = 8
_BLOCK = 128


# ----------------------------------------------------------------------
# isa
# ----------------------------------------------------------------------
def probe_isa(_result: core.RunResult) -> Dict[str, float]:
    """Kernel construction and fast-core decode over all 16 benchmarks."""
    from repro import ExecutionMode
    from repro.sim.fast_warp import decode_program
    from repro.workloads import benchmark_names, get_benchmark

    workloads = [
        get_benchmark(name, mode, WARM_SCALE)
        for name in benchmark_names()
        for mode in (ExecutionMode.FLAT, ExecutionMode.DTBL)
    ]
    build, decode = [], []
    for _ in range(3):
        start = time.perf_counter()
        kernels = [func for w in workloads for func in w.build_kernels()]
        middle = time.perf_counter()
        for func in kernels:
            decode_program(func.program)
        end = time.perf_counter()
        instrs = sum(len(func.program) for func in kernels)
        build.append(1e6 * (middle - start) / instrs)
        decode.append(1e6 * (end - middle) / instrs)
    return {
        "isa.build_us_per_instr": core.median(build),
        "isa.decode_us_per_instr": core.median(decode),
    }


# ----------------------------------------------------------------------
# sim: synthetic kernels, one op class each
# ----------------------------------------------------------------------
def _kernel_alu_fused(k, base, iters):
    acc = k.mov(k.gtid())
    with k.for_range(0, iters):
        for _ in range(4):
            k.iadd(k.imul(acc, 3), 7, dst=acc)
            k.ixor(acc, 0x55, dst=acc)
            k.iand(acc, 0xFFFF, dst=acc)
    k.st(k.iadd(base, k.gtid()), acc)


def _kernel_alu_divergent(k, base, iters):
    gtid = k.gtid()
    acc = k.mov(gtid)
    with k.for_range(0, iters):
        with k.if_(k.eq(k.iand(gtid, 1), 0)):
            for _ in range(4):
                k.iadd(k.imul(acc, 3), 7, dst=acc)
                k.ixor(acc, 0x55, dst=acc)
                k.iand(acc, 0xFFFF, dst=acc)
    k.st(k.iadd(base, gtid), acc)


def _kernel_global_coalesced(k, base, iters):
    gtid = k.gtid()
    acc = k.mov(0)
    with k.for_range(0, iters) as i:
        addr = k.iadd(base, k.iadd(gtid, k.imul(i, _GRID * _BLOCK)))
        k.iadd(acc, k.ld(addr), dst=acc)
    k.st(k.iadd(base, gtid), acc)


def _kernel_global_scattered(k, base, iters):
    gtid = k.gtid()
    acc = k.mov(0)
    with k.for_range(0, iters) as i:
        index = k.iand(k.iadd(k.imul(gtid, 1031), k.imul(i, 4099)), 0xFFFF)
        k.iadd(acc, k.ld(k.iadd(base, index)), dst=acc)
    k.st(k.iadd(base, gtid), acc)


def _kernel_shared(k, base, iters):
    tid = k.tid()
    acc = k.mov(0)
    k.sts(tid, tid)
    with k.for_range(0, iters):
        k.iadd(acc, k.lds(tid), dst=acc)
        k.sts(tid, acc)
    k.st(k.iadd(base, k.gtid()), acc)


def _kernel_atomic(k, base, iters):
    slot = k.iadd(base, k.iand(k.gtid(), 7))
    with k.for_range(0, iters):
        k.atom_add(slot, 1)


def _kernel_branch_loop(k, base, iters):
    gtid = k.gtid()
    acc = k.mov(0)
    trips = k.iadd(iters, k.iand(gtid, 7))
    with k.for_range(0, trips):
        k.iadd(acc, 1, dst=acc)
    k.st(k.iadd(base, gtid), acc)


def _kernel_barrier(k, base, iters):
    acc = k.mov(0)
    with k.for_range(0, iters):
        k.iadd(acc, 1, dst=acc)
        k.bar()
    k.st(k.iadd(base, k.gtid()), acc)


#: name -> (body, loop iterations, shared words)
_OP_CLASSES = {
    "alu_fused": (_kernel_alu_fused, 24, 0),
    "alu_divergent": (_kernel_alu_divergent, 24, 0),
    "global_coalesced": (_kernel_global_coalesced, 48, 0),
    "global_scattered": (_kernel_global_scattered, 48, 0),
    "shared": (_kernel_shared, 64, _BLOCK),
    "atomic": (_kernel_atomic, 48, 0),
    "branch_loop": (_kernel_branch_loop, 96, 0),
    "barrier": (_kernel_barrier, 64, 0),
}


def _run_op_class(name: str) -> Tuple[float, object, object]:
    """Build, launch and drain one synthetic kernel; host seconds + output."""
    from repro import Device, ExecutionMode, KernelBuilder, KernelFunction

    body, iters, shared_words = _OP_CLASSES[name]
    k = KernelBuilder(f"probe_{name}")
    base = k.ld(k.param(), offset=0)
    body(k, base, iters)
    k.exit()
    with Device(mode=ExecutionMode.FLAT) as dev:
        dev.register(KernelFunction(f"probe_{name}", k.build(), shared_words=shared_words))
        buf = dev.alloc(1 << 17)
        start = time.perf_counter()
        dev.launch(f"probe_{name}", grid=_GRID, block=_BLOCK, params=[buf])
        stats = dev.synchronize()
        elapsed = time.perf_counter() - start
        return elapsed, stats, buf.download()[: _GRID * _BLOCK]


def probe_sim_ops(result: core.RunResult) -> Dict[str, float]:
    """Host microseconds per issued instruction, one op class at a time."""
    out: Dict[str, float] = {}
    for name, (_body, iters, _shared) in _OP_CLASSES.items():
        samples = []
        for _ in range(3):
            core.settle()
            elapsed, stats, values = _run_op_class(name)
            samples.append(1e6 * elapsed / stats.issued_instructions)
        out[f"sim.us_per_issue.{name}"] = core.median(samples)
        result.attempted += 1
        if name == "atomic" and int(values[:8].sum()) != _GRID * _BLOCK * iters:
            result.fail("probe atomic: counters do not add up")
        if name == "barrier" and not (values == iters).all():
            result.fail("probe barrier: wrong trip count")
        if name == "branch_loop" and int(values[7]) != iters + 7:
            result.fail("probe branch_loop: wrong trip count")
    return out


SIM_OP_METRICS = tuple(f"sim.us_per_issue.{name}" for name in _OP_CLASSES)


# ----------------------------------------------------------------------
# memory
# ----------------------------------------------------------------------
def probe_memory(_result: core.RunResult) -> Dict[str, float]:
    import numpy as np
    from repro import GPUConfig
    from repro.memory import MemorySubsystem, coalesce_addresses

    unit = np.arange(32, dtype=np.int64)
    scattered = unit * 1031
    out = {
        "memory.coalesce_us.unit":
            1e6 * core.time_per_call(lambda: coalesce_addresses(unit), 2000),
        "memory.coalesce_us.scattered":
            1e6 * core.time_per_call(lambda: coalesce_addresses(scattered), 2000),
    }
    config = GPUConfig.k20c()
    segments_per_row = max(1, config.dram_row_bytes // 128)
    same_bank = segments_per_row * config.dram_banks

    def access_cost(stride: int) -> float:
        """Every access is a fresh segment (an L2 miss) ``stride`` apart."""
        samples = []
        for _ in range(5):
            memsys = MemorySubsystem(config)
            start = time.perf_counter()
            for i in range(2000):
                memsys.warp_access_list([i * stride], False, i * 1000)
            samples.append((time.perf_counter() - start) / 2000)
        return 1e6 * core.median(samples)

    out["memory.dram_access_us.row_hit"] = access_cost(1)
    out["memory.dram_access_us.row_miss"] = access_cost(same_bank)
    return out


# ----------------------------------------------------------------------
# runtime: one child launch per warp
# ----------------------------------------------------------------------
_LAUNCH_WARPS = 128


def _launch_probe(mode_name: str) -> Tuple[float, int, int]:
    """(host seconds, device cycles, children) for one launch per warp."""
    from repro import Device, ExecutionMode, KernelBuilder, KernelFunction
    from repro.workloads.common import emit_dynamic_launch

    mode = ExecutionMode.parse(mode_name)
    child = KernelBuilder("probe_child")
    cparam = child.param()
    out = child.ld(cparam, offset=0)
    owner = child.ld(cparam, offset=1)
    with child.if_(child.eq(child.gtid(), 0)):
        child.st(child.iadd(out, owner), 1)
    child.exit()

    parent = KernelBuilder("probe_parent")
    gtid = parent.gtid()
    buf = parent.ld(parent.param(), offset=0)
    with parent.if_(parent.eq(parent.iand(gtid, 31), 0)):
        emit_dynamic_launch(
            parent, mode, "probe_child", [buf, parent.ishr(gtid, 5)], 32, 32)
    parent.exit()

    kernels = [
        KernelFunction("probe_parent", parent.build()),
        KernelFunction("probe_child", child.build()),
    ]
    device = Device(mode=mode, latency=mode.latency_model(LATENCY_SCALE))
    persistent = None
    if mode.persistent:
        from repro.runtime import PersistentRuntime

        persistent = PersistentRuntime(device)
        kernels = list(persistent.transform(kernels))
    for func in kernels:
        device.register(func)
    flags = device.alloc(_LAUNCH_WARPS)
    start = time.perf_counter()
    device.launch("probe_parent", grid=_LAUNCH_WARPS // 4, block=128, params=[flags])
    device.synchronize()
    elapsed = time.perf_counter() - start
    if persistent is not None:
        persistent.verify_drained()
    return elapsed, device.cycles, int(flags.download().sum())


def probe_runtime(result: core.RunResult) -> Dict[str, float]:
    out: Dict[str, float] = {}
    for mode_name in ("cdp", "dtbl", "persistent"):
        samples = []
        for _ in range(3):
            core.settle()
            elapsed, cycles, children = _launch_probe(mode_name)
            samples.append(1e6 * elapsed / _LAUNCH_WARPS)
        result.attempted += 1
        if children != _LAUNCH_WARPS:
            result.fail(f"probe launch {mode_name}: {children} of {_LAUNCH_WARPS} children ran")
        out[f"runtime.us_per_launch.{mode_name}"] = core.median(samples)
        out[f"runtime.cycles_per_launch.{mode_name}"] = cycles / _LAUNCH_WARPS
    return out


RUNTIME_METRICS = tuple(
    f"runtime.{kind}_per_launch.{mode}"
    for kind in ("us", "cycles") for mode in ("cdp", "dtbl", "persistent")
)


# ----------------------------------------------------------------------
# dtbl
# ----------------------------------------------------------------------
def probe_dtbl(_result: core.RunResult) -> Dict[str, float]:
    from repro.dtbl import AggregatedGroupEntry, AggregatedGroupTable
    from repro.sim import LaunchKind, LaunchRecord

    record = LaunchRecord(LaunchKind.AGG_GROUP, "probe", 0, 1, 32)
    table = AggregatedGroupTable(1024)
    entries = [AggregatedGroupEntry((1, 1, 1), 0, record) for _ in range(1024)]

    def insert_all() -> None:
        for tid, age in enumerate(entries):
            table.try_alloc(tid, age)
        for age in entries:
            table.free(age)

    insert = core.time_per_call(insert_all, 5) / len(entries)
    for tid, age in enumerate(entries):
        table.try_alloc(tid, age)
    extra = AggregatedGroupEntry((1, 1, 1), 0, record)

    def spill_all() -> None:
        for tid in range(1024):
            table.try_alloc(tid, extra)

    spill = core.time_per_call(spill_all, 5) / 1024
    return {"dtbl.agt_insert_us": 1e6 * insert, "dtbl.agt_spill_us": 1e6 * spill}


# ----------------------------------------------------------------------
# state
# ----------------------------------------------------------------------
#: ``bht``/``dtbl`` at scale 0.1 runs ~55k cycles: two checkpoints.
_CKPT_EVERY = 25_000


def probe_state(result: core.RunResult) -> Dict[str, float]:
    """Checkpoint documents of a real mid-flight job (``bht``/``dtbl``).

    ``state.capture_ms`` is what one checkpoint adds to the job's wall
    time (state capture in flight), from the same job run with and
    without ``checkpoint_every``.
    """
    import dataclasses

    from repro import JobSpec, run_job
    from repro.state import load_checkpoint, save_checkpoint

    spec = JobSpec.create("bht", "dtbl", scale=WARM_SCALE, latency_scale=LATENCY_SCALE)
    stamped = dataclasses.replace(spec, checkpoint_every=_CKPT_EVERY)
    docs: List[dict] = []
    result.attempted += 2
    core.settle()
    start = time.perf_counter()
    plain = run_job(spec)
    plain_s = time.perf_counter() - start
    core.settle()
    start = time.perf_counter()
    checkpointed = run_job(stamped, on_checkpoint=docs.append)
    stamped_s = time.perf_counter() - start
    if plain.stats.to_dict() != checkpointed.stats.to_dict():
        result.fail("probe state: checkpointing changed the simulation's statistics")
    if not docs:
        raise RuntimeError("no checkpoint document was produced")
    out = {
        "state.ckpt_overhead_frac": stamped_s / plain_s - 1.0,
        "state.capture_ms": 1e3 * (stamped_s - plain_s) / len(docs),
    }
    doc = docs[-1]
    with core.workdir("ckpt") as root:
        path = root / "probe.ckpt"
        out["state.save_ms"] = 1e3 * core.time_per_call(lambda: save_checkpoint(path, doc), 1, 3)
        out["state.ckpt_kb"] = path.stat().st_size / 1024.0
        out["state.load_ms"] = 1e3 * core.time_per_call(lambda: load_checkpoint(path), 1, 3)
    return out


_HUGEPAGE_CHILD = """
import sys, time
from repro import JobSpec, run_job
spec = JobSpec.create("bht", "dtbl", scale={scale}, latency_scale={latency},
                      checkpoint_every={every})
run_job(spec)
start = time.perf_counter()
run_job(spec, on_checkpoint=lambda doc: None)
print(repr(time.perf_counter() - start))
"""


def probe_hugepage(_result: core.RunResult) -> Dict[str, float]:
    """What ``NUMPY_MADVISE_HUGEPAGE=0`` in :data:`core.HOST_ENV` hides.

    The checkpointed ``bht``/``dtbl`` job in two fresh processes, one with
    NumPy's default huge-page advice and one without it (as every
    benchmark process runs).  Users and daemons run with the default.  The
    ratio has read 0.6-0.8 here when the kernel had huge pages to hand, and
    17 when a checkpoint's 32 MB copy stalled in huge-page compaction.
    """
    import subprocess
    import sys

    code = _HUGEPAGE_CHILD.format(scale=WARM_SCALE, latency=LATENCY_SCALE, every=_CKPT_EVERY)
    seconds = {}
    for advice in ("1", "0"):
        env = core.child_env()
        env["NUMPY_MADVISE_HUGEPAGE"] = advice
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=60, check=True)
        seconds[advice] = float(done.stdout.strip().splitlines()[-1])
    return {"state.hugepage_on_ratio": seconds["1"] / seconds["0"]}


# ----------------------------------------------------------------------
# exec
# ----------------------------------------------------------------------
_SWEEP_JOBS = (
    ("bht", "flat"), ("bht", "dtbl"), ("bfs_citation", "flat"), ("bfs_citation", "dtbl"),
    ("sssp_flight", "flat"), ("sssp_flight", "dtbl"), ("join_uniform", "flat"),
    ("join_uniform", "dtbl"),
)


def probe_exec(result: core.RunResult) -> Dict[str, float]:
    from repro import JobResult, JobSpec, ResultCache, SweepEngine

    specs = [
        JobSpec.create(bench, mode, scale=WARM_SCALE, latency_scale=LATENCY_SCALE)
        for bench, mode in _SWEEP_JOBS
    ]
    out = {"exec.fingerprint_us": 1e6 * core.time_per_call(specs[0].fingerprint, 200)}
    with core.workdir("exec") as root:
        cache = ResultCache(root / "cache")
        start = time.perf_counter()
        payloads = SweepEngine(max_workers=2).run(specs)
        for spec, payload in zip(specs, payloads):
            cache.store(spec.fingerprint(), payload)
        cold = time.perf_counter() - start
        result.attempted += len(specs)

        def warm() -> list:
            return [
                JobResult.from_payload(cache.load(spec.fingerprint()), source="cache")
                for spec in specs
            ]

        warm_s = core.time_per_call(warm, 1, 5)
        for spec, payload, hit in zip(specs, payloads, warm()):
            if hit.stats.to_dict() != payload["stats"]:
                result.fail(f"probe exec: cached {spec.label()} differs from the sweep")
        out["exec.sweep_cold_s"] = cold
        out["exec.sweep_warm_ms"] = 1e3 * warm_s
        out["exec.sweep_speedup"] = cold / warm_s

        key = specs[0].fingerprint()
        payload = payloads[0]
        keys = [f"{i:08x}" + key[8:] for i in range(50)]
        it = iter(keys)
        out["exec.cache_store_us"] = 1e6 * core.time_per_call(
            lambda: cache.store(next(it), payload), 10, 5)
        out["exec.cache_hit_us"] = 1e6 * core.time_per_call(lambda: cache.load(key), 50)
        missing = "f" * len(key)
        out["exec.cache_miss_us"] = 1e6 * core.time_per_call(lambda: cache.load(missing), 50)
    return out


#: Every workload-independent probe: (metric names, function).
PROBES: Tuple[Probe, ...] = (
    (("isa.build_us_per_instr", "isa.decode_us_per_instr"), probe_isa),
    (SIM_OP_METRICS, probe_sim_ops),
    (("memory.coalesce_us.unit", "memory.coalesce_us.scattered",
      "memory.dram_access_us.row_hit", "memory.dram_access_us.row_miss"), probe_memory),
    (RUNTIME_METRICS, probe_runtime),
    (("dtbl.agt_insert_us", "dtbl.agt_spill_us"), probe_dtbl),
    (("state.capture_ms", "state.save_ms", "state.load_ms", "state.ckpt_kb",
      "state.ckpt_overhead_frac"), probe_state),
    (("state.hugepage_on_ratio",), probe_hugepage),
    (("exec.fingerprint_us", "exec.cache_store_us", "exec.cache_hit_us",
      "exec.cache_miss_us", "exec.sweep_cold_s", "exec.sweep_warm_ms",
      "exec.sweep_speedup"), probe_exec),
)


def run_all(result: core.RunResult, spans: core.SpanLog) -> None:
    for names, fn in PROBES:
        with spans.span(f"probe.{fn.__name__[len('probe_'):]}"):
            result.probe(names, lambda fn=fn: fn(result))
