"""repro.exec: the experiment-execution subsystem.

Four layers, composed by the harness (:mod:`repro.harness.runner`) and
the serving daemon (:mod:`repro.serve`):

* :mod:`repro.exec.jobspec` — the canonical job model:
  :class:`JobSpec` (what to simulate + how to run it),
  :class:`JobResult`, and :func:`run_job`, the single in-process
  execution path every runner shares;
* :mod:`repro.exec.fingerprint` — deterministic content hashing of a
  job's identity, so identical jobs are identical keys across processes
  and runs;
* :mod:`repro.exec.cache` — a content-addressed on-disk result store
  (:class:`ResultCache`) with atomic writes and corrupt-entry
  quarantine, its entries written and read by :mod:`repro.exec.codec`,
  the JSON codec the serving daemon's wire shares;
* :mod:`repro.exec.pool` — the resident worker process both schedulers
  launch jobs onto, and a multi-process sweep engine
  (:class:`SweepEngine`) over it with bounded retry and in-process
  fallback.

``spec -> fingerprint -> cache -> pool``: a requested job is
fingerprinted, the cache is consulted, and only misses are simulated —
in parallel.

:mod:`repro.exec.cli` holds the argparse flags both command-line entry
points share, including ``--checkpoint-every`` backed by
:mod:`repro.state`; ``JobSpec.from_args`` turns a parsed namespace into
specs, so every flag is declared exactly once.
"""

from .cache import DEFAULT_CACHE_DIR, CacheStats, ResultCache
from .fingerprint import CODE_VERSION, canonical_json, digest
from .jobspec import JobResult, JobSpec, SpecError, run_job
from .cli import (
    DEFAULT_CHECKPOINT_DIR,
    add_execution_flags,
    add_job_flags,
    config_from_flags,
    validate_execution_flags,
)
from .pool import EngineStats, ProgressEvent, SweepEngine, SweepError

__all__ = [
    "CODE_VERSION",
    "DEFAULT_CACHE_DIR",
    "DEFAULT_CHECKPOINT_DIR",
    "CacheStats",
    "EngineStats",
    "JobResult",
    "JobSpec",
    "ProgressEvent",
    "ResultCache",
    "SpecError",
    "SweepEngine",
    "SweepError",
    "add_execution_flags",
    "add_job_flags",
    "canonical_json",
    "config_from_flags",
    "digest",
    "run_job",
    "validate_execution_flags",
]
