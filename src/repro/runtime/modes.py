"""Execution modes evaluated in the paper (Section 5) and its rivals.

* ``FLAT`` — the original implementation: nested parallelism flattened and
  serialized within each thread.
* ``CDP`` — device-side *kernel* launches (CUDA Dynamic Parallelism).
* ``DTBL`` — the paper's aggregated-group launches.
* ``CDP_AGG`` — CDP rewritten by the :mod:`repro.isa.dynopt` compiler
  passes: child launches below a thread-count threshold are serialized
  into the parent, the rest are aggregated per block into one batched
  launch (Olabi et al., *A Compiler Framework for Optimizing Dynamic
  Parallelism on GPUs*).
* ``CONSOLIDATED`` — CDP rewritten so per-thread child work is
  consolidated into fewer, densely packed kernels (Wu & Becchi,
  *Compiler-Assisted Workload Consolidation*).
* ``PERSISTENT`` / ``PERSISTENT_ASYNC`` — no device launches at all: a
  fixed grid of resident worker blocks pulls block-tasks from a global
  MPMC queue (Atos / persistent-threads).  Launch sites become queue
  pushes via the :mod:`repro.isa.persist` rewrite; the sync variant
  claims published tickets with a CAS, the async variant takes
  optimistic tickets and recovers dead ones at quiescence.

The paper's ideal configurations, CDPI and DTBLI, are not modes: they are
``CDP`` and ``DTBL`` at launch-latency scale 0, which
:meth:`ExecutionMode.latency_model` maps to :meth:`LatencyModel.ideal`.

The software-optimized modes run on the plain CDP device runtime — the
transformation happens entirely in the IR, so they use the measured CDP
launch latencies.  The persistent modes run no dynamic launches but keep
the measured latency model for their one host launch per drain.
"""

from __future__ import annotations

import enum

from ..config import LatencyModel


class ExecutionMode(enum.Enum):
    """Declaration order is the order of comparison grids and figures:
    baseline, the paper's modes, the compiler-optimized rivals, then the
    persistent-threads rivals (Fig. 11's columns, after its two ideal
    ones)."""

    FLAT = "flat"
    CDP = "cdp"
    DTBL = "dtbl"
    CDP_AGG = "cdpa"
    CONSOLIDATED = "cons"
    PERSISTENT = "persistent"
    PERSISTENT_ASYNC = "persistent-async"

    @property
    def uses_cdp(self) -> bool:
        """True when kernels are built with CDP-style device launches.

        The compiler-optimized modes start from the same CDP kernel shape
        (the dynopt passes rewrite it afterwards), so they count here —
        and so do the persistent modes, whose runtime rewrites the same
        launch sites into task-queue pushes.
        """
        return self in (
            ExecutionMode.CDP,
            ExecutionMode.CDP_AGG,
            ExecutionMode.CONSOLIDATED,
            ExecutionMode.PERSISTENT,
            ExecutionMode.PERSISTENT_ASYNC,
        )

    @property
    def uses_dtbl(self) -> bool:
        return self is ExecutionMode.DTBL

    @property
    def compiler_optimized(self) -> bool:
        """True for modes produced by the :mod:`repro.isa.dynopt` passes."""
        return self in (ExecutionMode.CDP_AGG, ExecutionMode.CONSOLIDATED)

    @property
    def persistent(self) -> bool:
        """True for the resident-worker task-queue modes (Atos)."""
        return self in (
            ExecutionMode.PERSISTENT,
            ExecutionMode.PERSISTENT_ASYNC,
        )

    @property
    def is_dynamic(self) -> bool:
        return self is not ExecutionMode.FLAT

    def latency_model(self, scale: float = 1.0) -> LatencyModel:
        """The launch-latency model this mode runs under.

        ``scale`` < 1 shrinks the measured Table 3 launch latencies for
        scaled-down workloads (see :meth:`LatencyModel.scaled`).  Scale 0
        is the paper's ideal configuration (CDPI / DTBLI):
        :meth:`LatencyModel.ideal` exactly, whose KDE search and AGT probe
        are free too, where :meth:`~LatencyModel.scaled` keeps them.
        """
        if scale == 0:
            return LatencyModel.ideal()
        return LatencyModel.measured_k20c().scaled(scale)

    @classmethod
    def parse(cls, name: str) -> "ExecutionMode":
        """Look a mode up by its short name (case-insensitive).

        Raises :class:`ValueError` listing the valid names, so CLI users
        see the whole menu instead of guessing.
        """
        for mode in cls:
            if mode.value == name.lower():
                return mode
        if name.lower() in ("cdpi", "dtbli"):
            raise ValueError(f"{name!r} is not a mode: the ideal configuration "
                             f"is --mode {name.lower()[:-1]} --latency-scale 0")
        valid = ", ".join(mode.value for mode in cls)
        raise ValueError(
            f"unknown execution mode {name!r} (valid modes: {valid})"
        )
