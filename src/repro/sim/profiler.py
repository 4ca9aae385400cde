"""Hot-path profiler: simulated issues and host wall-time per opcode.

:class:`HotPathProfiler` is a :class:`~repro.sim.tracing.Tracer` that
both CLIs expose as ``--profile``.  It answers the two questions perf
work on the simulator keeps asking:

* *where do the simulated instructions go?* — per-opcode issue and
  active-lane counts whose totals match ``SimStats.issued_instructions``
  / ``active_lane_sum`` exactly;
* *where does the host CPU time go?* — wall-time between consecutive
  tracer callbacks, attributed to the previously issued opcode.  This is
  a sampling-free, low-overhead attribution: it folds the
  scheduler/bookkeeping cost that follows an instruction into that
  instruction.

Because a profiler must follow every GPU a workload constructs (the
harness builds devices deep inside ``Workload.execute``), the module
also keeps one process-global *active* profiler: while installed via
:func:`activate`, every new :class:`~repro.sim.gpu.GPU` attaches it as
its tracer.  Simulation results are bit-identical with or without it.

What a traced run cannot see: a tracer switches off run-ahead
(``FastWarp.step_free_window``), the only path that fuses, so a profiled
run executes every instruction singly and its fused share is 0 by
construction.  What an untraced run fuses is
:attr:`repro.sim.fast_warp.FusedRegion.executions`; issue and lane
totals are exact either way.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional

from ..isa.instructions import Opcode
from .tracing import Tracer


class OpcodeCost:
    """Aggregated per-opcode counters."""

    __slots__ = ("issues", "lanes", "host_seconds")

    def __init__(self) -> None:
        self.issues = 0
        self.lanes = 0
        self.host_seconds = 0.0


class HotPathProfiler(Tracer):
    """Attribute simulated issues and host wall-time to opcodes."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.opcodes: Dict[Opcode, OpcodeCost] = {}
        # Always empty and 0 (a traced run fuses nothing); kept only for
        # bench/benchkit/simload.py::profiled_pass, until its fused share
        # reads FusedRegion.executions (ROADMAP item 4).
        self.regions: dict = {}
        self.fused_instructions = 0
        #: Issues a fast-core warp ran on the reference core's handlers
        #: (``FastWarp.fallback_pcs``), and the host time charged to them.
        self.fallback_issues = 0
        self.fallback_host_seconds = 0.0
        self._clock = clock
        self._prev: Optional[OpcodeCost] = None
        self._prev_t: float = 0.0
        self._prev_fallback = False

    # ------------------------------------------------------------------
    # Tracer hooks
    # ------------------------------------------------------------------
    def on_issue(self, warp, pc, opcode, active, cycle) -> None:
        cost = self.opcodes.get(opcode)
        if cost is None:
            cost = self.opcodes[opcode] = OpcodeCost()
        cost.issues += 1
        cost.lanes += active
        fallback = pc in getattr(warp, "fallback_pcs", ())
        self.fallback_issues += fallback
        # The host time since the previous issue is that issue's.
        now = self._clock()
        if self._prev is not None:
            self._prev.host_seconds += now - self._prev_t
            if self._prev_fallback:
                self.fallback_host_seconds += now - self._prev_t
        self._prev = cost
        self._prev_t = now
        self._prev_fallback = fallback

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    @property
    def total_issues(self) -> int:
        return sum(cost.issues for cost in self.opcodes.values())

    @property
    def total_lanes(self) -> int:
        return sum(cost.lanes for cost in self.opcodes.values())

    def to_dict(self) -> dict:
        """JSON-ready report (the ``--profile`` machine format)."""
        return {
            "total_issues": self.total_issues,
            "total_lanes": self.total_lanes,
            "fallback_issues": self.fallback_issues,
            "fallback_host_seconds": self.fallback_host_seconds,
            "opcodes": {
                opcode.name.lower(): {
                    "issues": cost.issues,
                    "lanes": cost.lanes,
                    "host_seconds": cost.host_seconds,
                }
                for opcode, cost in sorted(
                    self.opcodes.items(), key=lambda kv: -kv[1].issues
                )
            },
        }

    def report(self, top: int = 15) -> str:
        """Human-readable hot-path table."""
        total = self.total_issues
        host_total = sum(c.host_seconds for c in self.opcodes.values())
        lines: List[str] = []
        lines.append("== hot-path profile ==")
        lines.append(f"issues {total:,}   host {host_total * 1e3:.1f}ms attributed")
        lines.append(
            f"reference fallbacks {self.fallback_issues:,} issues "
            f"({100.0 * self.fallback_issues / total if total else 0.0:.2f}%)   "
            f"host {self.fallback_host_seconds * 1e3:.1f}ms "
            f"({100.0 * self.fallback_host_seconds / host_total if host_total else 0.0:.2f}%)"
        )
        lines.append(f"{'opcode':<14s} {'issues':>12s} "
                     f"{'lanes/issue':>11s} {'host_ms':>9s} {'issue%':>7s}")
        by_issues = sorted(self.opcodes.items(), key=lambda kv: -kv[1].issues)
        for opcode, cost in by_issues[:top]:
            lines.append(
                f"{opcode.name.lower():<14s} {cost.issues:>12,} "
                f"{cost.lanes / cost.issues:>11.1f} "
                f"{cost.host_seconds * 1e3:>9.1f} "
                f"{100.0 * cost.issues / total if total else 0.0:>6.1f}%"
            )
        if len(by_issues) > top:
            rest = sum(cost.issues for _, cost in by_issues[top:])
            lines.append(f"{'(other)':<14s} {rest:>12,}")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Process-global activation (used by the CLIs' --profile)
# ----------------------------------------------------------------------
_ACTIVE: Optional[HotPathProfiler] = None


def activate(profiler: Optional[HotPathProfiler] = None) -> HotPathProfiler:
    """Install a profiler as the tracer of every subsequently built GPU.

    Returns the installed instance (a fresh one when not supplied).
    Counts aggregate across all simulations run while active; only
    in-process simulations are observed, so callers should pin
    ``jobs=1`` and bypass result caches for the profiled run.
    """
    global _ACTIVE
    _ACTIVE = profiler if profiler is not None else HotPathProfiler()
    return _ACTIVE


def deactivate() -> None:
    """Uninstall the process-global profiler."""
    global _ACTIVE
    _ACTIVE = None


def active_profiler() -> Optional[HotPathProfiler]:
    """The installed profiler, or ``None`` (read by ``GPU.__init__``)."""
    return _ACTIVE
