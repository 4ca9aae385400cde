"""repro: a reproduction of "Dynamic Thread Block Launch" (ISCA 2015).

A pure-Python cycle-level GPU simulator (Kepler/GK110-like baseline) with
three execution models for dynamically formed parallelism:

* **flat** — nested work serialized within each thread;
* **CDP** — device-side kernel launches with the paper's measured launch
  latencies;
* **DTBL** — the paper's contribution: device-side *thread block* launches
  coalesced onto existing kernels through the Aggregated Group Table.

Quick start::

    from repro import Device, ExecutionMode, KernelBuilder, KernelFunction

Batch execution goes through :class:`JobSpec` — the one canonical job
description consumed by ``python -m repro.harness``,
``python -m repro.workloads``, the :class:`SweepEngine` worker pool and
the ``python -m repro.serve`` daemon alike::

    from repro import ExecutionMode, JobSpec, run_job

    spec = JobSpec.create("bfs_citation", ExecutionMode.DTBL,
                          scale=0.1, latency_scale=0.25)
    result = run_job(spec)          # JobResult; result.stats is SimStats

See ``examples/quickstart.py``, ``docs/serving.md`` and README.md.
"""

# Defined before the subpackage imports: repro.exec reads it for the
# cache-key code salt while this module is still initializing.
__version__ = "1.4.0"

from .config import GPUConfig, LatencyModel, WARP_SIZE
from .errors import ReproError
from .isa import KernelBuilder, Program
from .runtime import Device, DeviceArray, Event, ExecutionMode, Stream
from .sim import GPU, KernelFunction, SanitizerFinding, SanitizerReport, SimStats
from .exec import (
    JobResult,
    JobSpec,
    ResultCache,
    SpecError,
    SweepEngine,
    run_job,
)

__all__ = [
    # Host API
    "Device",
    "DeviceArray",
    "Event",
    "ExecutionMode",
    "Stream",
    # Simulator
    "GPU",
    "GPUConfig",
    "KernelBuilder",
    "KernelFunction",
    "LatencyModel",
    "Program",
    "ReproError",
    "SanitizerFinding",
    "SanitizerReport",
    "SimStats",
    "WARP_SIZE",
    # Job execution (see repro.exec for the full surface)
    "JobResult",
    "JobSpec",
    "ResultCache",
    "SpecError",
    "SweepEngine",
    "run_job",
    "__version__",
]
