"""Execution modes evaluated in the paper (Section 5) and its rivals.

* ``FLAT`` — the original implementation: nested parallelism flattened and
  serialized within each thread.
* ``CDP`` / ``CDP_IDEAL`` — device-side *kernel* launches (CUDA Dynamic
  Parallelism), with measured / zero launch latencies.
* ``DTBL`` / ``DTBL_IDEAL`` — the paper's aggregated-group launches, with
  measured / zero launch latencies.
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

The software-optimized modes run on the plain CDP device runtime — the
transformation happens entirely in the IR, so they use the measured CDP
launch latencies.  The persistent modes run no dynamic launches but keep
the measured latency model for their one host launch per drain.
"""

from __future__ import annotations

import enum
from typing import Tuple

from ..config import LatencyModel


class ExecutionMode(enum.Enum):
    FLAT = "flat"
    CDP = "cdp"
    CDP_IDEAL = "cdpi"
    DTBL = "dtbl"
    DTBL_IDEAL = "dtbli"
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
            ExecutionMode.CDP_IDEAL,
            ExecutionMode.CDP_AGG,
            ExecutionMode.CONSOLIDATED,
            ExecutionMode.PERSISTENT,
            ExecutionMode.PERSISTENT_ASYNC,
        )

    @property
    def uses_dtbl(self) -> bool:
        return self in (ExecutionMode.DTBL, ExecutionMode.DTBL_IDEAL)

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

    @property
    def ideal(self) -> bool:
        return self in (ExecutionMode.CDP_IDEAL, ExecutionMode.DTBL_IDEAL)

    def latency_model(self, scale: float = 1.0) -> LatencyModel:
        """The launch-latency model this mode runs under.

        ``scale`` < 1 shrinks the measured Table 3 launch latencies for
        scaled-down workloads (see :meth:`LatencyModel.scaled`); it has no
        effect on the ideal modes, which are all-zero by definition.
        """
        if self.ideal:
            return LatencyModel.ideal()
        model = LatencyModel.measured_k20c()
        if scale != 1.0:
            model = model.scaled(scale)
        return model

    @classmethod
    def parse(cls, name: str) -> "ExecutionMode":
        """Look a mode up by its short name (case-insensitive).

        Raises :class:`ValueError` listing the valid names, so CLI users
        see the whole menu instead of guessing.
        """
        for mode in cls:
            if mode.value == name.lower():
                return mode
        valid = ", ".join(mode.value for mode in cls)
        raise ValueError(
            f"unknown execution mode {name!r} (valid modes: {valid})"
        )

    @classmethod
    def comparison_order(cls) -> Tuple["ExecutionMode", ...]:
        """Canonical mode order for comparison grids and figures.

        Baseline first, then the paper's modes ideal-to-measured, then the
        compiler-optimized rivals, then the persistent-threads rivals —
        the order the Fig. 11 columns use.
        """
        return (
            cls.FLAT,
            cls.CDP_IDEAL,
            cls.DTBL_IDEAL,
            cls.CDP,
            cls.DTBL,
            cls.CDP_AGG,
            cls.CONSOLIDATED,
            cls.PERSISTENT,
            cls.PERSISTENT_ASYNC,
        )
