"""Shared CLI flags: every job/execution flag is declared exactly once.

``python -m repro.harness``, ``python -m repro.workloads`` and
``python -m repro.serve`` expose the same execution surface — worker
processes, the on-disk result cache, the hot-path profiler, and
checkpointing — and used to duplicate the argparse wiring.  This
module is the single definition:

* :func:`add_job_flags` declares the job-shape flags (``--scale``,
  ``--latency-scale``, ``--core``, ``--sanitize``) that feed
  :meth:`repro.exec.jobspec.JobSpec.from_args`;
* :func:`add_execution_flags` declares the execution-policy flags
  (``--jobs``, ``--cache*``, ``--profile*``, ``--checkpoint*``);
* :func:`validate_execution_flags` applies the shared consistency rules;
* :func:`config_from_flags` applies ``--core`` / ``--sanitize`` to the
  Table 2 GPU, so neither CLI reaches for the environment.
"""

from __future__ import annotations

import argparse
import dataclasses
from typing import Optional

from ..config import CORES, GPUConfig
from .cache import DEFAULT_CACHE_DIR

#: Default directory for ``--checkpoint-every`` state.
DEFAULT_CHECKPOINT_DIR = ".repro-checkpoints"


def add_job_flags(
    parser: argparse.ArgumentParser, latency_scale_default: float = 0.25
) -> None:
    """Declare the flags that describe the simulation jobs themselves."""
    parser.add_argument("--scale", type=float, default=1.0,
                        help="dataset scale factor (default 1.0)")
    parser.add_argument("--latency-scale", type=float,
                        default=latency_scale_default,
                        help="Table 3 launch-latency scale "
                             f"(default {latency_scale_default})")
    parser.add_argument("--core", default=None,
                        choices=CORES,
                        help="execution core for every simulation "
                             "(default: fast); the two are "
                             "statistic-exact")
    parser.add_argument("--sanitize", action="store_true",
                        help="run every simulation with the execution "
                             "sanitizer (race/OOB/uninit/barrier/launch "
                             "checks); any finding fails the run")


def config_from_flags(args: argparse.Namespace) -> GPUConfig:
    """The Table 2 GPU with ``--core`` / ``--sanitize`` applied.

    Both are :class:`~repro.config.GPUConfig` fields and both are in the
    job fingerprint, so the flags travel with each spec to whichever
    process runs it.
    """
    changes = {}
    if getattr(args, "core", None):
        changes["core"] = args.core
    if getattr(args, "sanitize", False):
        changes["sanitize"] = True
    return dataclasses.replace(GPUConfig.k20c(), **changes)


def add_execution_flags(
    parser: argparse.ArgumentParser, profile_json: bool = False
) -> None:
    """Declare the execution flags shared by both CLIs.

    ``profile_json`` additionally declares ``--profile-json`` (only the
    workloads CLI exposes a JSON profile report).
    """
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker processes for the simulation sweep "
                             "(default 1: in-process)")
    parser.add_argument("--cache", dest="cache", action="store_true",
                        default=True,
                        help="persist results in the on-disk cache (default)")
    parser.add_argument("--no-cache", dest="cache", action="store_false",
                        help="bypass the on-disk cache entirely "
                             "(no reads, no writes)")
    parser.add_argument("--cache-dir", default=DEFAULT_CACHE_DIR,
                        help=f"cache directory (default {DEFAULT_CACHE_DIR})")
    parser.add_argument("--profile", action="store_true",
                        help="profile the simulation hot path (issues and "
                             "host time per opcode); forces "
                             "--jobs 1 and bypasses the result cache")
    if profile_json:
        parser.add_argument("--profile-json", metavar="PATH", default=None,
                            help="write the profile report as JSON to PATH "
                                 "(implies --profile)")
    parser.add_argument("--checkpoint-every", type=int, default=None,
                        metavar="CYCLES",
                        help="checkpoint each simulation's full state every "
                             "CYCLES simulated cycles; a job continues from "
                             "its checkpoint in --checkpoint-dir when one "
                             "exists (a crashed job's retry, or a rerun of "
                             "an interrupted sweep; stale or corrupt files "
                             "are quarantined and the job starts fresh)")
    parser.add_argument("--checkpoint-dir", default=DEFAULT_CHECKPOINT_DIR,
                        help="checkpoint directory (default "
                             f"{DEFAULT_CHECKPOINT_DIR})")


def validate_execution_flags(
    parser: argparse.ArgumentParser, args: argparse.Namespace
) -> Optional[str]:
    """Apply the shared consistency rules; returns the checkpoint dir.

    Returns the effective checkpoint directory — ``None`` unless
    checkpointing was requested — after validating that

    * ``--jobs`` is positive,
    * ``--checkpoint-every`` is positive when given, and
    * ``--profile`` is not combined with checkpointing (the profiler's
      tracer state is not serializable, so a checkpoint would refuse to
      capture mid-run).
    """
    if args.jobs < 1:
        parser.error("--jobs must be >= 1")
    if getattr(args, "scale", 1.0) <= 0:
        parser.error("--scale must be > 0")
    if getattr(args, "latency_scale", 1.0) <= 0:
        parser.error("--latency-scale must be > 0")
    if args.checkpoint_every is not None and args.checkpoint_every < 1:
        parser.error("--checkpoint-every must be >= 1")
    if getattr(args, "profile_json", None):
        args.profile = True
    if args.profile and args.checkpoint_every:
        parser.error(
            "--profile cannot be combined with --checkpoint-every: "
            "profiler state is not checkpointable"
        )
    if args.checkpoint_every:
        return args.checkpoint_dir
    return None
