"""Command-line entry point: regenerate the paper's tables and figures.

Usage::

    python -m repro.harness                      # everything (minutes)
    python -m repro.harness --jobs 4             # 4 worker processes
    python -m repro.harness --benchmarks bfs_citation amr
    python -m repro.harness --scale 0.25         # quick, scaled-down pass
    python -m repro.harness --figure 11          # a single figure
    python -m repro.harness --no-cache           # ignore .repro-cache/
    python -m repro.harness --checkpoint-every 2000000

Standard output is the document alone — EXPERIMENTS.md for a full run,
one table for ``--figure`` — so two runs compare equal; progress, cache
statistics and timing go to standard error.  Results persist in a
content-addressed on-disk cache (``--cache-dir``, default
``.repro-cache/``): a warm rerun simulates nothing.
``--checkpoint-every`` snapshots long simulations periodically, and a
rerun of an interrupted sweep continues each job from its checkpoint.
"""

from __future__ import annotations

import argparse
import functools
import sys
import time

from ..exec import (
    ResultCache,
    add_execution_flags,
    add_job_flags,
    config_from_flags,
    validate_execution_flags,
)
from ..sim import profiler as _profiler
from .experiments import evaluate
from .paper import FIGURES
from .runner import DEFAULT_LATENCY_SCALE, run_jobs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness",
        description="Regenerate the DTBL paper's evaluation tables/figures.",
    )
    parser.add_argument("--benchmarks", nargs="*", default=None,
                        help="benchmark subset (default: all of Table 4)")
    parser.add_argument("--figure", default=None, metavar="FIGURE",
                        choices=[figure.id for figure in FIGURES],
                        help="one of: 6-12, table2, table3, table4, overhead")
    add_job_flags(parser, latency_scale_default=DEFAULT_LATENCY_SCALE)
    add_execution_flags(parser)
    parser.add_argument("--quiet", action="store_true", help="suppress progress")
    args = parser.parse_args(argv)

    checkpoint_dir = validate_execution_flags(parser, args)
    profiler = None
    if args.profile:
        # Only in-process simulations are observed: pin one worker and
        # bypass the cache so the profiled figures actually simulate.
        args.jobs = 1
        args.cache = False
        profiler = _profiler.activate()
    cache = ResultCache(args.cache_dir) if args.cache else None

    start = time.time()
    evaluation = evaluate(
        functools.partial(
            run_jobs, jobs=args.jobs, cache=cache, verbose=not args.quiet,
            checkpoint_every=args.checkpoint_every, checkpoint_dir=checkpoint_dir,
        ),
        figure=args.figure,
        benchmarks=args.benchmarks or None,
        scale=args.scale,
        latency_scale=args.latency_scale,
        config=config_from_flags(args),
    )
    if args.figure is None:
        sys.stdout.write(evaluation.document())
    else:
        print(evaluation.experiments[args.figure].render())

    def note(text: str) -> None:
        print(text, file=sys.stderr)

    if args.sanitize:
        # A finding raises out of its simulation; a result without a
        # report means the flag did not reach that cell's GPU.
        unchecked = [r for r in evaluation.results
                     if r.sanitizer is None or not r.sanitizer.clean]
        if unchecked:
            note(f"sanitizer: {len(unchecked)} results carry no clean report")
            return 1
        note(f"sanitizer: clean (no findings across {len(evaluation.results)} "
             "simulations)")
    if profiler is not None:
        _profiler.deactivate()
        note("\n" + profiler.report())
    if not args.quiet:
        if cache is not None:
            note(f"\n[cache] {cache.stats.format()} ({args.cache_dir})")
        note(f"[{time.time() - start:.1f}s]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
