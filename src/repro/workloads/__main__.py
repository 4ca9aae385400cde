"""Command-line entry point: run one benchmark and print its counters.

Usage::

    python -m repro.workloads bfs_citation --mode dtbl
    python -m repro.workloads join_gaussian --mode flat cdp dtbl --scale 0.5
    python -m repro.workloads amr --mode dtbl --latency-scale 0   # DTBLI
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
import json
import os
import sys

from ..exec import (
    JobSpec,
    ResultCache,
    add_execution_flags,
    add_job_flags,
    validate_execution_flags,
)
from ..harness.runner import run_jobs
from ..sim import profiler as _profiler
from .registry import benchmark_names


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.workloads",
        description="Run one Table 4 benchmark on the simulated GPU.",
    )
    parser.add_argument("benchmark", nargs="?", help="benchmark id (see --list)")
    parser.add_argument("--mode", nargs="*", default=["flat", "cdp", "dtbl"],
                        help="execution modes (default: flat cdp dtbl)")
    parser.add_argument("--no-verify", action="store_true",
                        help="skip the reference-result check")
    add_job_flags(parser)
    add_execution_flags(parser, profile_json=True)
    parser.add_argument("--list", action="store_true", help="list benchmarks")
    args = parser.parse_args(argv)

    if args.list or not args.benchmark:
        return _write(lambda: print("\n".join(benchmark_names())))
    checkpoint_dir = validate_execution_flags(parser, args)
    try:  # a bad mode name is refused with the valid ones (or, for cdpi, the flags)
        jobs = [JobSpec.from_args(args, args.benchmark, name, checkpoint_dir=checkpoint_dir)
                for name in args.mode]
    except ValueError as exc:
        parser.error(str(exc))

    profiler = _profiler.activate() if args.profile else None
    cache = ResultCache(args.cache_dir) if args.cache else None

    runs = run_jobs(jobs, jobs=args.jobs, cache=cache)
    if profiler is not None:
        _profiler.deactivate()
        if args.profile_json:
            with open(args.profile_json, "w", encoding="utf-8") as fh:
                json.dump(profiler.to_dict(), fh, indent=2)
    return _write(lambda: _report(args, jobs, runs, profiler))


def _report(args, jobs, runs, profiler) -> None:
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
        print()
        print(profiler.report())
        if args.profile_json:
            print(f"[profile] wrote {args.profile_json}")


def _write(report) -> int:
    """Run ``report``, which prints to stdout.  A reader that went away
    (``| head``) stops it quietly: stdout is pointed at devnull so that
    the interpreter's last flush cannot raise again (Python's documented
    way to handle SIGPIPE), and the exit status is 1."""
    try:
        report()
        sys.stdout.flush()  # a closed pipe raises here, not at exit
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
