"""Benchmark grid runner on top of the :mod:`repro.exec` subsystem.

Full-grid experiments (Figs. 6-11) all consume the same (benchmark, mode)
simulations.  Every requested simulation is reduced to a
:class:`~repro.exec.jobspec.JobSpec` and its content fingerprint,
then resolved through three layers:

1. an **in-process memo** (`_CACHE`) keyed by the fingerprint — the old
   per-process behaviour, now collision-free: the key covers the full GPU
   configuration, dataset scale, latency scale, verification and
   sanitizer state (``config=None`` and an explicit default config are
   one key, and two grids differing only in latency scale never alias);
2. an optional **on-disk result cache**
   (:class:`~repro.exec.cache.ResultCache`) — warm reruns of a grid cost
   zero simulations, across processes and machines;
3. the **sweep engine** (:class:`~repro.exec.pool.SweepEngine`) — cache
   misses fan out over ``jobs`` worker processes; the engine itself runs
   them in-process when ``jobs=1`` or no worker can be forked.

All three paths produce bit-identical :class:`~repro.sim.stats.SimStats`
(`tests/exec/test_pool.py` and `tests/harness/test_runner.py` assert it).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..config import GPUConfig
from ..errors import ReproError
from ..exec import JobResult, JobSpec, ProgressEvent, ResultCache, SweepEngine
from ..runtime import ExecutionMode
from ..sim.stats import SimStats
from ..workloads import benchmark_names

#: Launch-latency scale used for the evaluation grid (see DESIGN.md:
#: datasets are scaled down ~3 orders of magnitude from the paper's, so
#: the measured K20c launch latencies are shrunk to keep the
#: overhead-to-work ratio representative; all CDP:DTBL ratios from
#: Table 3 are preserved).
DEFAULT_LATENCY_SCALE = 0.25

#: Default dataset scale for the evaluation grid.
DEFAULT_SCALE = 1.0

#: The full comparison grid: the paper's five modes plus the
#: compiler-optimized rivals, derived from the enum so new modes join
#: the default grid automatically.
ALL_MODES: Tuple[ExecutionMode, ...] = ExecutionMode.comparison_order()


@dataclass
class BenchmarkRun:
    """One (benchmark, mode) simulation outcome."""

    benchmark: str
    mode: ExecutionMode
    #: What the job produced, as decoded by the one payload codec
    #: (:meth:`~repro.exec.JobResult.from_payload` / ``to_payload``).  Its
    #: ``sanitizer`` is the report when the run was sanitized (always
    #: clean — findings raise before a result exists), ``None`` otherwise.
    result: JobResult

    @property
    def stats(self) -> SimStats:
        return self.result.stats

    @property
    def wall_seconds(self) -> float:
        return self.result.wall_seconds

    @property
    def cycles(self) -> int:
        return self.result.cycles


class GridResults:
    """Results of a (benchmark x mode) grid, keyed for figure generation."""

    def __init__(self) -> None:
        self._runs: Dict[Tuple[str, ExecutionMode], BenchmarkRun] = {}

    def add(self, run: BenchmarkRun) -> None:
        self._runs[(run.benchmark, run.mode)] = run

    def get(self, benchmark: str, mode: ExecutionMode) -> BenchmarkRun:
        return self._runs[(benchmark, mode)]

    def has(self, benchmark: str, mode: ExecutionMode) -> bool:
        return (benchmark, mode) in self._runs

    def benchmarks(self) -> List[str]:
        return sorted({name for name, _ in self._runs})

    def speedup(self, benchmark: str, mode: ExecutionMode) -> float:
        """Cycles(flat) / cycles(mode) for one benchmark."""
        flat = self.get(benchmark, ExecutionMode.FLAT).cycles
        other = self.get(benchmark, mode).cycles
        return flat / other if other else 0.0


_CACHE: Dict[str, BenchmarkRun] = {}


def _print_run(job: JobSpec, result: JobResult, note: str = "") -> None:
    suffix = f"  [{note}]" if note else ""
    print(
        f"  {job.benchmark:14s} {job.mode.value:6s} cycles={result.cycles:>10,} "
        f"({result.wall_seconds:.1f}s){suffix}"
    )


def run_jobs(
    specs: Sequence[JobSpec],
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
    use_memo: bool = True,
    verbose: bool = False,
    engine: Optional[SweepEngine] = None,
    checkpoint_every: Optional[int] = None,
    checkpoint_dir=None,
) -> List[BenchmarkRun]:
    """Resolve each job through memo -> disk cache -> sweep engine.

    Returns one :class:`BenchmarkRun` per spec, in input order.  Within
    one call, duplicate fingerprints are simulated once.  ``engine``
    overrides the default ``SweepEngine(max_workers=jobs)`` (tests inject
    fault configurations through it).

    With ``checkpoint_dir`` set, simulations checkpoint their state every
    ``checkpoint_every`` cycles under ``<dir>/<fingerprint>.ckpt`` and
    every attempt — serial, worker, retry or fallback — resumes from an
    existing checkpoint (see :mod:`repro.state`).  The policy is stamped
    onto each spec (specs that already carry one keep theirs), so one
    :class:`~repro.exec.JobSpec` is the only parameter bundle the engine
    ever sees.
    """
    if checkpoint_every is not None or checkpoint_dir is not None:
        specs = [
            spec.with_policy(
                checkpoint_every=checkpoint_every, checkpoint_dir=checkpoint_dir
            )
            if spec.checkpoint_every is None and spec.checkpoint_dir is None
            else spec
            for spec in specs
        ]
    runs: Dict[int, BenchmarkRun] = {}
    keys = [job.fingerprint() for job in specs]
    todo: List[int] = []
    seen: Dict[str, int] = {}
    for i, (job, key) in enumerate(zip(specs, keys)):
        if use_memo and key in _CACHE:
            runs[i] = _CACHE[key]
            # Write through: the disk cache must end up covering every
            # requested job, so a warm rerun in a *fresh* process (no
            # memo) still simulates nothing.
            if cache is not None and not cache.contains(key):
                cache.store(key, runs[i].result.to_payload())
            if verbose:
                _print_run(job, runs[i].result, "memo")
            continue
        if cache is not None:
            payload = cache.load(key)
            if payload is not None:
                try:
                    result = JobResult.from_payload(payload, key)
                except (ReproError, KeyError, ValueError, TypeError):
                    # Structurally valid JSON whose payload cannot be
                    # decoded by this code version: drop it and re-run.
                    cache.invalidate(key)
                else:
                    runs[i] = BenchmarkRun(job.benchmark, job.mode, result)
                    if use_memo:
                        _CACHE[key] = runs[i]
                    if verbose:
                        _print_run(job, result, "cached")
                    continue
        if key in seen:
            continue  # duplicate of an earlier miss; filled in below
        seen[key] = i
        todo.append(i)

    if todo:
        engine = engine or SweepEngine(max_workers=jobs)

        def on_event(event: ProgressEvent) -> None:
            if event.kind == "done":
                note = []
                if event.source != "worker" and engine.max_workers > 1:
                    note.append(event.source)  # news only if workers were asked for
                if event.attempts > 1:
                    note.append(f"attempt {event.attempts}")
                _print_run(
                    event.job, JobResult.from_payload(event.payload),
                    " ".join(note),
                )
            elif event.kind == "retry":
                print(f"  {event.job.label()}: worker failed, retrying "
                      f"(attempt {event.attempts})")
            elif event.kind == "fallback":
                print(f"  {event.job.label()}: retries exhausted, "
                      f"running in-process")

        payloads = engine.run(
            [specs[i] for i in todo], progress=on_event if verbose else None
        )
        for i, payload in zip(todo, payloads):
            job, key = specs[i], keys[i]
            runs[i] = BenchmarkRun(
                job.benchmark, job.mode,
                JobResult.from_payload(payload, key, source="run"),
            )
            if cache is not None:
                cache.store(key, payload)
            if use_memo:
                _CACHE[key] = runs[i]

    # Fill duplicates of simulated keys.
    for i, key in enumerate(keys):
        if i not in runs:
            runs[i] = runs[seen[key]]
    return [runs[i] for i in range(len(specs))]


def run_benchmark(
    name: str,
    mode: ExecutionMode,
    scale: float = DEFAULT_SCALE,
    latency_scale: float = DEFAULT_LATENCY_SCALE,
    config: Optional[GPUConfig] = None,
    verify: bool = True,
    use_cache: bool = True,
    cache: Optional[ResultCache] = None,
) -> BenchmarkRun:
    """Simulate one (benchmark, mode) pair.

    ``use_cache`` controls the in-process memo; ``cache`` attaches the
    on-disk result store (both reads and writes — ``cache=None`` bypasses
    the disk entirely).
    """
    job = JobSpec.create(
        name, mode, scale, latency_scale, config=config, verify=verify
    )
    return run_jobs([job], cache=cache, use_memo=use_cache)[0]


def run_grid(
    benchmarks: Optional[Iterable[str]] = None,
    modes: Iterable[ExecutionMode] = ALL_MODES,
    scale: float = DEFAULT_SCALE,
    latency_scale: float = DEFAULT_LATENCY_SCALE,
    config: Optional[GPUConfig] = None,
    verify: bool = True,
    verbose: bool = False,
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
    engine: Optional[SweepEngine] = None,
    checkpoint_every: Optional[int] = None,
    checkpoint_dir=None,
) -> GridResults:
    """Simulate the full (benchmark x mode) grid.

    ``jobs > 1`` fans cache misses out over that many worker processes;
    ``cache`` persists results on disk so a warm rerun simulates nothing;
    ``checkpoint_every``/``checkpoint_dir`` enable mid-run checkpointing
    with resume-on-retry (see :func:`run_jobs`).
    """
    names = list(benchmarks) if benchmarks is not None else benchmark_names()
    specs = [
        JobSpec.create(
            name, mode, scale, latency_scale, config=config, verify=verify
        )
        for name in names
        for mode in modes
    ]
    grid = GridResults()
    for run in run_jobs(
        specs, jobs=jobs, cache=cache, verbose=verbose, engine=engine,
        checkpoint_every=checkpoint_every, checkpoint_dir=checkpoint_dir,
    ):
        grid.add(run)
    return grid


def clear_cache() -> None:
    """Drop memoized runs (tests use this to force fresh simulations)."""
    _CACHE.clear()
