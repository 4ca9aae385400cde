"""The four simulator workloads: job lists, untraced and traced runs.

Why these four (one sentence each is in ``bench/README.md``): they use
the same ``sim`` core in four different ways — compute-bound warp
stepping, memory-latency-bound scheduling, the device-launch path, and
spin-polling atomics on a task queue — so a gain bought on one of them
at the cost of another shows up as a regression in its own row.
"""

from __future__ import annotations

import random
import statistics
import time
from typing import Dict, List, Optional, Tuple

from . import core

#: Dataset scale of the measured passes.  The issue sized the job lists at
#: scale 1.0 (~5 s a pass); the driver's total-time cap leaves ~12 s of
#: measuring per run, and five passes are needed for a steady median, so
#: the same job lists run at half scale (~2 s a pass).
SCALE = 0.5
#: Scale of the untimed warm-up pass (part of ``setup_s``) and of smoke runs.
WARM_SCALE = 0.1
LATENCY_SCALE = 0.25
MAX_CYCLES = 500_000_000
MEMORY_WORDS = 4 * 1024 * 1024

_GRAPH_DYN = [
    (bench, mode)
    for bench in ("amr", "join_gaussian", "bfs_cage15", "clr_citation")
    for mode in ("cdp", "dtbl")
]

JOBS: Dict[str, List[Tuple[str, str]]] = {
    "alu_flat": [
        ("regx_string", "flat"), ("bht", "flat"),
        ("amr", "flat"), ("join_gaussian", "flat"),
    ],
    "mem_flat": [
        ("clr_cage15", "flat"), ("sssp_cage15", "flat"),
        ("pre_movielens", "flat"), ("clr_citation", "flat"),
        ("bfs_usa_road", "flat"),
    ],
    "launch_dyn": _GRAPH_DYN + [("clr_citation", "cdpa"), ("bfs_cage15", "cons")],
    "persist_queue": [
        (bench, mode)
        for bench in ("bfs_cage15", "sssp_citation")
        for mode in ("persistent", "persistent-async")
    ],
}

#: Warm cache lookups timed for ``hit_p50_ms`` per pass (~400 over a full
#: run), in one small batch after every job; a batch stops early if
#: lookups are slow.
HITS_PER_PASS = 80
HIT_BATCH_SECONDS = 0.05

#: Opcode name -> ``sim.prof.*_share`` class (``ATOM_*`` is "atomic", the
#: rest "alu"; fused regions are charged to "fused" as a unit).
_PROF_CLASS = {
    **dict.fromkeys(("LD", "ST", "FLD", "FST", "LDL", "STL"), "global"),
    **dict.fromkeys(("LDS", "STS"), "shared"),
    **dict.fromkeys(("BRA", "JOIN", "BAR", "EXIT", "NOP"), "ctrl"),
    **dict.fromkeys(("STREAM_CREATE", "GET_PARAM_BUF", "LAUNCH_DEVICE", "LAUNCH_AGG"),
                    "launch"),
}


def make_specs(workload: str, scale: float) -> list:
    from repro import JobSpec

    return [
        JobSpec.create(bench, mode, scale=scale, latency_scale=LATENCY_SCALE)
        for bench, mode in JOBS[workload]
    ]


def warm_up(workload: str) -> None:
    """The untimed small pass: imports, decode caches, allocator pools."""
    from repro import run_job

    for spec in make_specs(workload, WARM_SCALE):
        run_job(spec)


def _shuffled(specs: list, rng: random.Random) -> list:
    order = list(specs)
    rng.shuffle(order)
    return order


class _JobLog:
    """One job's ``run_job`` samples across passes, and the digest of its
    ``SimStats`` that every pass must repeat."""

    def __init__(self) -> None:
        self.outer: List[float] = []
        self.inner: List[float] = []
        self.digests: set = set()
        self.stats = None
        self.payload = None


def _timed_run_job(spec, log: _JobLog, result: core.RunResult) -> None:
    from repro import run_job

    core.settle()
    result.host.sample()
    result.attempted += 1
    start = time.perf_counter()
    try:
        job_result = run_job(spec)
    except Exception as exc:  # verification mismatch or simulator error
        result.fail(f"{spec.label()}: {type(exc).__name__}: {exc}")
        return
    log.outer.append(time.perf_counter() - start)
    log.inner.append(job_result.wall_seconds)
    log.stats = job_result.stats
    log.payload = job_result.to_payload()
    log.digests.add(core.stats_digest(log.payload["stats"]))


def _check_digests(logs: Dict[str, _JobLog], result: core.RunResult) -> None:
    for label, log in logs.items():
        if len(log.digests) > 1:
            result.fail(f"{label}: SimStats differed between two passes of run_job")


def _end_to_end(logs: Dict[str, _JobLog], hits: Dict[str, List[float]],
                result: core.RunResult) -> None:
    """The run's raw readings, and the same at the reference host speed.

    Each reading is a sum or mean over the job list of per-job medians
    over passes: the jobs differ (a cache entry of ``launch_dyn`` is five
    times the size of one of ``alu_flat``), and a median over the pooled
    samples would jump with whichever job happens to sit in the middle.
    """
    done = [log for log in logs.values() if log.outer]
    if not done:
        return
    wall = sum(core.median(log.outer) for log in done)
    raw = {
        "wall_s": wall,
        "jobs_per_s": len(done) / wall,
        "cold_overhead_ms": 1e3 * statistics.mean(
            core.median([o - i for o, i in zip(log.outer, log.inner)]) for log in done),
    }
    if hits:
        raw["hit_p50_ms"] = 1e3 * statistics.mean(
            core.median(samples) for samples in hits.values())
    factor = result.host.factor
    for name, value in raw.items():
        result.values[f"norm_{name}"] = value / factor if name == "jobs_per_s" else value * factor
    result.notes["raw"] = raw
    result.notes["passes"] = min(len(log.outer) for log in done)
    result.notes["hit_samples"] = sum(len(samples) for samples in hits.values())
    result.notes["job_wall_s"] = {
        label: core.median(log.outer) for label, log in logs.items() if log.outer
    }


class _HitProbe:
    """Warm re-resolution of the workload's jobs through a ``ResultCache``.

    The in-process twin of the daemon's cache hit: fingerprint the spec,
    load the entry, decode it into a ``JobResult``.  A small batch is
    taken after every job, on the job just run, so the samples see the
    whole run's host weather rather than a few instants of it.
    """

    def __init__(self, root) -> None:
        from repro import ResultCache

        self.cache = ResultCache(root / "cache")
        self.samples: Dict[str, List[float]] = {}

    def batch(self, spec, log: _JobLog, count: int, result: core.RunResult) -> None:
        """Store ``spec``'s result on first sight, then time ``count`` hits."""
        from repro import JobResult

        if log.payload is None:
            return
        label = spec.label()
        if label not in self.samples:
            self.cache.store(spec.fingerprint(), log.payload)
            hit = JobResult.from_payload(self.cache.load(spec.fingerprint()))
            if core.stats_digest(hit.stats.to_dict()) not in log.digests:
                result.fail(f"{label}: cached result differs from the run")
        samples = self.samples.setdefault(label, [])
        begin = time.perf_counter()
        for _ in range(count):
            if time.perf_counter() - begin > HIT_BATCH_SECONDS:
                break
            result.attempted += 1
            start = time.perf_counter()
            key = spec.fingerprint()
            payload = self.cache.load(key)
            if payload is not None:
                JobResult.from_payload(payload, fingerprint=key)
            samples.append(time.perf_counter() - start)
            if payload is None:
                result.fail(f"{label}: cache miss on a stored entry")


def run_untraced(workload: str, seed: int, seconds: float, scale: float,
                 result: core.RunResult) -> None:
    """Closed loop, one job at a time: passes until ``seconds`` are used."""
    rng = random.Random(seed)
    specs = make_specs(workload, scale)
    logs = {spec.label(): _JobLog() for spec in specs}
    orders: List[List[str]] = []
    with core.workdir("cache") as root:
        hits = _HitProbe(root)
        for _ in core.passes(seconds, minimum=2):
            order = _shuffled(specs, rng)
            orders.append([spec.label() for spec in order])
            for spec in order:
                _timed_run_job(spec, logs[spec.label()], result)
                hits.batch(spec, logs[spec.label()], -(-HITS_PER_PASS // len(specs)), result)
            result.host.sample()
    _check_digests(logs, result)
    _end_to_end(logs, hits.samples, result)
    result.notes["job_order"] = orders[:2]


# ----------------------------------------------------------------------
# Traced run: replay Workload._execute's public steps under spans
# ----------------------------------------------------------------------
#: Stage span -> the per-layer metric its time is charged to.
_STAGE_METRIC = {
    "workloads.get_benchmark": "workloads.build_s",
    "runtime.device_init": "workloads.build_s",
    "workloads.build_kernels": "workloads.build_s",
    "runtime.register": "workloads.build_s",
    "workloads.setup": "workloads.build_s",
    "isa.transform": "isa.transform_s",
    "sim.run": "sim.run_s",
    "workloads.check": "workloads.check_s",
    "exec.fingerprint": None,
}


def staged_job(spec, spans: core.SpanLog, job_id: str):
    """One job through the same public steps ``run_job`` takes, with spans.

    Returns the device's ``SimStats``.  The steps are those of the private
    ``Workload._execute``, so this is the one place that has to follow it
    when it gains or moves a step; :class:`Replay` notices when it has not.
    """
    from repro import Device, ExecutionMode
    from repro.workloads import get_benchmark

    mode = spec.mode
    with spans.span("job", job=job_id):
        with spans.span("workloads.get_benchmark"):
            workload = get_benchmark(spec.benchmark, mode, spec.scale)
        with spans.span("runtime.device_init"):
            device = Device(
                config=spec.config, mode=mode,
                latency=mode.latency_model(spec.latency_scale),
                memory_words=MEMORY_WORDS,
            )
        with spans.span("workloads.build_kernels"):
            kernels = workload.build_kernels()
        # On a flat job this stage is the two mode checks: microseconds.
        with spans.span("isa.transform"):
            persistent = None
            if mode.compiler_optimized:
                from repro.isa.dynopt import transform_kernels

                kernels = transform_kernels(kernels, mode)
            if mode.persistent:
                from repro.runtime import PersistentRuntime

                persistent = PersistentRuntime(
                    device, async_=mode is ExecutionMode.PERSISTENT_ASYNC
                )
                kernels = persistent.transform(kernels)
        with spans.span("runtime.register"):
            for func in kernels:
                device.register(func)
        with spans.span("workloads.setup"):
            workload.setup(device)
        with spans.span("sim.run"):
            workload.run(device)
            device.synchronize(max_cycles=MAX_CYCLES)
            if persistent is not None:
                persistent.verify_drained()
        with spans.span("workloads.check"):
            workload.check(device)
        with spans.span("exec.fingerprint"):
            spec.fingerprint()
    return device.stats


class Replay:
    """The staged replays of one traced run.

    A replay that raises, or whose ``SimStats`` are not digest-equal to
    ``run_job``'s, says the replay has fallen behind ``Workload._execute``
    (a step was added, a module moved) — a fault of this benchmark, not
    of the program.  So it is not a failed operation: the first one ends
    the replays, and the metrics that rest on them are reported ``null``
    with :attr:`broken` as the reason.
    """

    def __init__(self, spans: core.SpanLog) -> None:
        self.spans = spans
        self.broken: Optional[str] = None

    def job(self, spec, log: _JobLog) -> None:
        """Replay ``spec`` once; ``log`` holds what ``run_job`` made of it."""
        if self.broken is not None:
            return
        core.settle()
        label = spec.label()
        try:
            digest = core.stats_digest(staged_job(spec, self.spans, label).to_dict())
        except Exception as exc:  # boundary: see the class docstring
            self.broken = f"staged replay of {label} raised {type(exc).__name__}: {exc}"
            return
        if log.digests and digest not in log.digests:
            self.broken = (f"staged replay of {label} no longer mirrors run_job: "
                           f"their SimStats differ")

    def require(self) -> None:
        if self.broken is not None:
            raise RuntimeError(self.broken)


STAGE_METRICS = (
    "workloads.build_s", "workloads.check_s", "isa.transform_s", "sim.run_s",
    "sim.kinstr_per_s", "sim.us_per_issue", "sim.max_job_s",
)
PAIR_METRICS = ("trace.stage_sum_ratio", "trace.overhead_frac")
PROFILE_METRICS = (
    "sim.prof.alu_share", "sim.prof.fused_share", "sim.prof.global_share",
    "sim.prof.shared_share", "sim.prof.atomic_share", "sim.prof.ctrl_share",
    "sim.prof.launch_share", "sim.prof.coverage", "isa.fused_instr_frac",
)
COUNT_METRICS = (
    "sim.issued", "sim.cycles", "memory.transactions", "memory.l2_hit_rate",
    "memory.dram_efficiency", "memory.replays_per_access", "dtbl.match_rate",
    "dtbl.agt_spill_frac",
)


def stage_metrics(replay: Replay, logs: Dict[str, _JobLog]) -> Dict[str, float]:
    """Host seconds per layer: Σ over jobs of each stage's median over passes."""
    replay.require()
    by_stage = {stage: replay.spans.durations(stage) for stage in _STAGE_METRIC}
    out = {"workloads.build_s": 0.0, "isa.transform_s": 0.0,
           "sim.run_s": 0.0, "workloads.check_s": 0.0}
    for stage, metric in _STAGE_METRIC.items():
        if metric is not None:
            out[metric] += sum(core.median(times) for times in by_stage[stage].values())
    out["sim.max_job_s"] = max(core.median(times) for times in by_stage["sim.run"].values())
    issued = sum(log.stats.issued_instructions for log in logs.values())
    out["sim.kinstr_per_s"] = issued / out["sim.run_s"] / 1e3
    out["sim.us_per_issue"] = 1e6 * out["sim.run_s"] / issued
    return out


def pair_metrics(replay: Replay, logs: Dict[str, _JobLog]) -> Dict[str, float]:
    """Each staged replay against the ``run_job`` beside it.

    One ratio per (job, pass) pair.  Two executions of one job differ by
    ~12 % on this host, so the pairs' interquartile mean speaks for the
    run: as robust as their median and a third steadier.
    """
    replay.require()
    by_stage = {stage: replay.spans.durations(stage) for stage in _STAGE_METRIC}
    whole_jobs = replay.spans.durations("job")
    ratios, overheads = [], []
    for label, log in logs.items():
        for index, outer in enumerate(log.outer[:len(whole_jobs.get(label, ()))]):
            stage_sum = sum(times[label][index] for times in by_stage.values()
                            if index < len(times.get(label, ())))
            ratios.append(stage_sum / outer)
            overheads.append(whole_jobs[label][index] / outer - 1.0)
    return {"trace.stage_sum_ratio": core.midmean(ratios),
            "trace.overhead_frac": core.midmean(overheads)}


def count_metrics(logs: Dict[str, _JobLog]) -> Dict[str, float]:
    """Exact simulated counts, from the ``SimStats`` ``run_job`` returned."""
    stats = [log.stats for log in logs.values() if log.stats is not None]
    transactions = sum(s.coalescing.transactions for s in stats)
    accesses = sum(s.coalescing.warp_accesses for s in stats)
    commands = sum(s.dram.commands for s in stats)
    activity = sum(s.dram.n_activity for s in stats)
    matched = sum(s.agg_matched for s in stats)
    unmatched = sum(s.agg_unmatched for s in stats)
    hits = sum(s.agt_hash_hits for s in stats)
    spills = sum(s.agt_hash_spills for s in stats)
    return {
        "sim.issued": sum(s.issued_instructions for s in stats),
        "sim.cycles": sum(s.cycles for s in stats),
        "memory.transactions": transactions,
        "memory.l2_hit_rate": 1.0 - commands / transactions if transactions else 0.0,
        "memory.dram_efficiency": commands / activity if activity else 0.0,
        "memory.replays_per_access": transactions / accesses if accesses else 0.0,
        "dtbl.match_rate": matched / (matched + unmatched) if matched + unmatched else 0.0,
        "dtbl.agt_spill_frac": spills / (hits + spills) if hits + spills else 0.0,
    }


def profiled_pass(specs: list) -> Dict[str, float]:
    """One extra staged pass with the hot-path profiler on every GPU.

    A fresh profiler per job: the profiler charges the time between two
    of its callbacks to the earlier one, so one kept across jobs would
    charge a whole build/check/setup gap to the last opcode of a job.
    """
    from repro.sim.profiler import activate, deactivate

    spans = core.SpanLog()
    shares = {name: 0.0 for name in
              ("alu", "fused", "global", "shared", "atomic", "ctrl", "launch")}
    issues = fused = 0
    for spec in specs:
        core.settle()
        profiler = activate()
        try:
            staged_job(spec, spans, spec.label())
        finally:
            deactivate()
        for opcode, cost in profiler.opcodes.items():
            name = opcode.name
            default = "atomic" if name.startswith("ATOM_") else "alu"
            shares[_PROF_CLASS.get(name, default)] += cost.host_seconds
        shares["fused"] += sum(cost.host_seconds for cost in profiler.regions.values())
        issues += profiler.total_issues
        fused += profiler.fused_instructions
    total = sum(shares.values())
    run_seconds = sum(sum(times) for times in spans.durations("sim.run").values())
    out = {f"sim.prof.{name}_share": value / total for name, value in shares.items()}
    out["sim.prof.coverage"] = total / run_seconds
    out["isa.fused_instr_frac"] = fused / issues
    return out


def _layer_report(specs: list, replay: Replay, logs: Dict[str, _JobLog],
                  result: core.RunResult) -> None:
    """Every per-layer number a set of replayed jobs yields, probe by probe."""
    result.probe(STAGE_METRICS, lambda: stage_metrics(replay, logs))
    result.probe(COUNT_METRICS, lambda: count_metrics(logs))

    def profiled() -> Dict[str, float]:
        replay.require()
        return profiled_pass(specs)

    result.probe(PROFILE_METRICS, profiled)


def replay_reference(specs: list, reference: dict, result: core.RunResult,
                     spans: core.SpanLog) -> None:
    """``serve_sweep``'s traced run: one staged pass over the jobs the daemon
    serves, held against the direct ``run_job`` results of the set-up."""
    logs = {}
    replay = Replay(spans)
    for spec in specs:
        log = logs[spec.label()] = _JobLog()
        direct = reference.get(spec.label())
        if direct is not None:
            log.stats = direct.stats
            log.digests.add(core.stats_digest(direct.stats.to_dict()))
        replay.job(spec, log)
    _layer_report(specs, replay, logs, result)


def run_traced(workload: str, seed: int, seconds: float, scale: float,
               result: core.RunResult, spans: core.SpanLog) -> None:
    """Each job twice back to back: ``run_job`` and the staged replay.

    Pairing them job by job puts both under the same host noise, and
    alternating which goes first cancels what the first leaves warm for
    the second (~3 % here).
    """
    rng = random.Random(seed)
    specs = make_specs(workload, scale)
    logs = {spec.label(): _JobLog() for spec in specs}
    replay = Replay(spans)
    staged_first = False
    for number in core.passes(seconds, minimum=2):
        for spec in _shuffled(specs, rng):
            log = logs[spec.label()]
            if staged_first and log.digests:
                replay.job(spec, log)
                _timed_run_job(spec, log, result)
            else:
                _timed_run_job(spec, log, result)
                replay.job(spec, log)
            staged_first = not staged_first
    _check_digests(logs, result)
    _layer_report(specs, replay, logs, result)
    result.probe(PAIR_METRICS, lambda: pair_metrics(replay, logs))
    result.values["host.wall_raw_s"] = sum(
        core.median(log.outer) for log in logs.values() if log.outer)
    result.notes["passes"] = number + 1
    result.notes["pairs"] = sum(len(log.outer) for log in logs.values())
