"""Hot-path profiler: simulated issues and host wall-time per kernel and opcode.

:class:`HotPathProfiler` is the one issue profiler, a
:class:`~repro.sim.tracing.Tracer` that both CLIs expose as
``--profile``.  It keeps one table keyed by (kernel name, opcode), read
through two roll-ups, :attr:`~HotPathProfiler.opcodes` and
:attr:`~HotPathProfiler.kernels`, and answers the two questions perf
work on the simulator keeps asking:

* *where do the simulated instructions go?* — issue and active-lane
  counts, per opcode and per kernel (a rewrite's own kernels beside the
  application's), whose totals match ``SimStats.issued_instructions``
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
from typing import Dict, List, Optional, Tuple

from ..config import WARP_SIZE
from ..isa.instructions import Opcode
from .tracing import Tracer


class IssueCost:
    """Aggregated counters of one table row or roll-up."""

    __slots__ = ("issues", "lanes", "host_seconds")

    def __init__(self) -> None:
        self.issues = 0
        self.lanes = 0
        self.host_seconds = 0.0

    def to_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}


class HotPathProfiler(Tracer):
    """Attribute simulated issues and host wall-time to (kernel, opcode)."""

    def __init__(self, clock=time.perf_counter) -> None:
        #: The one table: (kernel name, opcode) -> counters.
        self.costs: Dict[Tuple[str, Opcode], IssueCost] = {}
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
        self._prev: Optional[IssueCost] = None
        self._prev_t: float = 0.0
        self._prev_fallback = False

    # ------------------------------------------------------------------
    # Tracer hooks
    # ------------------------------------------------------------------
    def on_issue(self, warp, pc, opcode, active, cycle) -> None:
        key = (warp.tb.func.name, opcode)
        cost = self.costs.get(key)
        if cost is None:
            cost = self.costs[key] = IssueCost()
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
    # Roll-ups and reporting
    # ------------------------------------------------------------------
    def _roll_up(self, part: int) -> dict:
        """``costs`` summed over one half of its key (0: kernel, 1: opcode),
        most issues first."""
        table: dict = {}
        for key, cost in self.costs.items():
            total = table.get(key[part])
            if total is None:
                total = table[key[part]] = IssueCost()
            total.issues += cost.issues
            total.lanes += cost.lanes
            total.host_seconds += cost.host_seconds
        return dict(sorted(table.items(), key=lambda kv: -kv[1].issues))

    @property
    def opcodes(self) -> Dict[Opcode, IssueCost]:
        return self._roll_up(1)

    @property
    def kernels(self) -> Dict[str, IssueCost]:
        return self._roll_up(0)

    @property
    def total_issues(self) -> int:
        return sum(cost.issues for cost in self.costs.values())

    @property
    def total_lanes(self) -> int:
        return sum(cost.lanes for cost in self.costs.values())

    def to_dict(self) -> dict:
        """JSON-ready report (the ``--profile`` machine format)."""
        return {
            "total_issues": self.total_issues,
            "total_lanes": self.total_lanes,
            "fallback_issues": self.fallback_issues,
            "fallback_host_seconds": self.fallback_host_seconds,
            "opcodes": {op.name.lower(): c.to_dict() for op, c in self.opcodes.items()},
            "kernels": {name: c.to_dict() for name, c in self.kernels.items()},
        }

    def report(self, top: int = 15) -> str:
        """Human-readable hot-path table, then one line per kernel."""
        total = self.total_issues
        host_total = sum(c.host_seconds for c in self.costs.values())
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
        by_issues = list(self.opcodes.items())
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
        for name, cost in self.kernels.items():
            lines.append(
                f"{name}: {cost.issues:,} issues, "
                f"{100.0 * cost.lanes / (cost.issues * WARP_SIZE):.1f}% warp activity"
            )
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Process-global activation (used by the CLIs' --profile)
# ----------------------------------------------------------------------
_ACTIVE: Optional[HotPathProfiler] = None


def activate(profiler: Optional[HotPathProfiler] = None) -> HotPathProfiler:
    """Install a profiler as the tracer of every subsequently built GPU.

    Returns the installed instance (a fresh one when not supplied).
    Counts aggregate across all simulations run while active; only
    in-process simulations are observed, so callers pin ``jobs=1`` and
    bypass result caches for the profiled run
    (:func:`repro.exec.cli.validate_execution_flags` does for the CLIs).
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
