"""Job resolution on top of the :mod:`repro.exec` subsystem.

Every requested simulation is a :class:`~repro.exec.jobspec.JobSpec`;
:func:`run_jobs` resolves a list of them through two layers, both keyed
by the spec's content fingerprint:

1. an optional **on-disk result cache**
   (:class:`~repro.exec.cache.ResultCache`) — warm reruns cost zero
   simulations, across processes and machines;
2. the **sweep engine** (:class:`~repro.exec.pool.SweepEngine`) — cache
   misses fan out over ``jobs`` worker processes; the engine itself runs
   them in-process when ``jobs=1`` or no worker can be forked.

Both paths produce bit-identical :class:`~repro.sim.stats.SimStats`
(`tests/exec/test_pool.py` and `tests/harness/test_runner.py` assert it).
One evaluation (:func:`repro.harness.experiments.evaluate`) is one call,
and a call simulates each fingerprint once, so no state outlives it.
"""

from __future__ import annotations

import sys
from typing import Dict, List, Optional, Sequence

from ..errors import ReproError
from ..exec import JobResult, JobSpec, ProgressEvent, ResultCache, SweepEngine

#: Launch-latency scale used for the evaluation grid (see DESIGN.md:
#: datasets are scaled down ~3 orders of magnitude from the paper's, so
#: the measured K20c launch latencies are shrunk to keep the
#: overhead-to-work ratio representative; all CDP:DTBL ratios from
#: Table 3 are preserved).
DEFAULT_LATENCY_SCALE = 0.25

#: Default dataset scale for the evaluation grid.
DEFAULT_SCALE = 1.0


def _progress(text: str) -> None:
    """Progress goes to stderr: stdout is the rendered document alone."""
    print(text, file=sys.stderr)


def _print_run(job: JobSpec, result: JobResult, note: str = "") -> None:
    suffix = f"  [{note}]" if note else ""
    _progress(
        f"  {job.label():28s} "
        f"cycles={result.cycles:>10,} ({result.wall_seconds:.1f}s){suffix}"
    )


def run_jobs(
    specs: Sequence[JobSpec],
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
    verbose: bool = False,
    engine: Optional[SweepEngine] = None,
    checkpoint_every: Optional[int] = None,
    checkpoint_dir=None,
) -> List[JobResult]:
    """Resolve each job through disk cache -> sweep engine.

    Returns one :class:`~repro.exec.JobResult` per spec, in input order.
    Within one call, duplicate fingerprints are simulated once and share
    one result.  ``engine`` overrides the default
    ``SweepEngine(max_workers=jobs)`` (tests pass one in to read its
    ``stats``).

    With ``checkpoint_dir`` set, simulations checkpoint their state every
    ``checkpoint_every`` cycles under ``<dir>/<fingerprint>.ckpt`` and
    every attempt — serial, worker, retry or fallback — continues from an
    existing checkpoint (see :mod:`repro.state`).  The policy is stamped
    onto each spec (specs that already carry one keep theirs), so one
    :class:`~repro.exec.JobSpec` is the only parameter bundle the engine
    ever sees.
    """
    specs = [
        spec.with_default_policy(checkpoint_every, checkpoint_dir)
        for spec in specs
    ]
    keys = [job.fingerprint() for job in specs]
    results: Dict[str, JobResult] = {}
    todo: Dict[str, JobSpec] = {}
    for job, key in zip(specs, keys):
        if key in results or key in todo:
            continue  # duplicate of an earlier spec of this call
        payload = cache.load(key) if cache is not None else None
        if payload is not None:
            try:
                results[key] = JobResult.from_payload(payload, key)
            except (ReproError, KeyError, ValueError, TypeError):
                # Structurally valid JSON whose payload cannot be
                # decoded by this code version: drop it and re-run.
                cache.invalidate(key)
            else:
                if verbose:
                    _print_run(job, results[key], "cached")
                continue
        todo[key] = job

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
                _progress(f"  {event.job.label()}: worker failed, retrying "
                          f"(attempt {event.attempts})")
            elif event.kind == "fallback":
                _progress(f"  {event.job.label()}: retries exhausted, "
                          f"running in-process")

        payloads = engine.run(
            list(todo.values()), progress=on_event if verbose else None
        )
        for key, payload in zip(todo, payloads):
            results[key] = JobResult.from_payload(payload, key, source="run")
            if cache is not None:
                cache.store(key, payload)
    return [results[key] for key in keys]

