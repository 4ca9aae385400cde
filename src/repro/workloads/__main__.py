"""Command-line entry point: run one benchmark and print its counters.

Usage::

    python -m repro.workloads bfs_citation --mode dtbl
    python -m repro.workloads join_gaussian --mode flat cdp dtbl --scale 0.5
    python -m repro.workloads bht --jobs 3          # one worker per mode
    python -m repro.workloads --list

Runs go through the harness's :func:`~repro.harness.runner.run_jobs`:
the requested modes become :class:`~repro.exec.JobSpec`\\ s (built by
``JobSpec.from_args`` from the shared flag set in :mod:`repro.exec.cli`),
execute in parallel under ``--jobs``, and results persist in the on-disk
cache (``--cache-dir``, default ``.repro-cache/``) unless ``--no-cache``.
"""

from __future__ import annotations

import argparse
import sys

import json

from ..exec import (
    JobSpec,
    ResultCache,
    add_execution_flags,
    add_job_flags,
    validate_execution_flags,
)
from ..harness.runner import run_jobs
from ..runtime import ExecutionMode
from ..sim import profiler as _profiler
from .registry import benchmark_names


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.workloads",
        description="Run one Table 4 benchmark on the simulated GPU.",
    )
    parser.add_argument("benchmark", nargs="?", help="benchmark id (see --list)")
    parser.add_argument("--mode", nargs="*", default=["flat", "cdp", "dtbl"],
                        choices=[mode.value for mode in ExecutionMode],
                        help="execution modes (default: flat cdp dtbl)")
    parser.add_argument("--no-verify", action="store_true",
                        help="skip the reference-result check")
    add_job_flags(parser)
    add_execution_flags(parser, profile_json=True)
    parser.add_argument("--list", action="store_true", help="list benchmarks")
    args = parser.parse_args(argv)

    if args.list or not args.benchmark:
        for name in benchmark_names():
            print(name)
        return 0
    checkpoint_dir = validate_execution_flags(parser, args)

    profiler = None
    if args.profile:
        # Only in-process simulations are observed: pin one worker and
        # bypass the cache so every mode actually simulates here.
        args.jobs = 1
        args.cache = False
        profiler = _profiler.activate()
    cache = ResultCache(args.cache_dir) if args.cache else None
    jobs = [
        JobSpec.from_args(
            args,
            args.benchmark,
            ExecutionMode.parse(mode_name),
            checkpoint_dir=checkpoint_dir,
        )
        for mode_name in args.mode
    ]

    runs = run_jobs(jobs, jobs=args.jobs, cache=cache)

    baseline = None
    for job, run in zip(jobs, runs):
        stats = run.stats
        if baseline is None:
            baseline = stats.cycles
        print(f"== {args.benchmark} [{job.mode.value}]")
        print(f"   cycles            {stats.cycles:,}")
        print(f"   speedup vs first  {baseline / stats.cycles:.2f}x")
        for key, value in stats.summary().items():
            if key == "cycles":
                continue
            if isinstance(value, float):
                print(f"   {key:18s}{value:.3f}")
            else:
                print(f"   {key:18s}{value}")
    if profiler is not None:
        _profiler.deactivate()
        print()
        print(profiler.report())
        if args.profile_json:
            with open(args.profile_json, "w", encoding="utf-8") as fh:
                json.dump(profiler.to_dict(), fh, indent=2)
            print(f"[profile] wrote {args.profile_json}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
