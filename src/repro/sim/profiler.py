"""Hot-path profiler: simulated issues and host wall-time per opcode and
per fused superblock region.

:class:`HotPathProfiler` is a :class:`~repro.sim.tracing.Tracer` that
both CLIs expose as ``--profile``.  It answers the two questions perf
work on the simulator keeps asking:

* *where do the simulated instructions go?* — per-opcode issue and
  active-lane counts whose totals match ``SimStats.issued_instructions``
  / ``active_lane_sum`` exactly (fused regions are expanded into their
  member opcodes);
* *where does the host CPU time go?* — wall-time between consecutive
  tracer callbacks, attributed to the previously issued opcode (or fused
  region).  This is a sampling-free, low-overhead attribution: it folds
  the scheduler/bookkeeping cost that follows an instruction into that
  instruction, which is exactly the per-dispatch overhead superblock
  fusion removes, so fused regions show up as fewer, cheaper entries.

Because a profiler must follow every GPU a workload constructs (the
harness builds devices deep inside ``Workload.execute``), the module
also keeps one process-global *active* profiler: while installed via
:func:`activate`, every new :class:`~repro.sim.gpu.GPU` attaches it as
its tracer.  Simulation results are bit-identical with or without it.

What a traced run cannot see: a tracer observes the global interleaving,
so it switches off budget-safe run-ahead (``step_free_window``), where an
untraced run executes most of its fused regions.  The fused counts here
are therefore those of ``step_window``'s sole-actor windows only — a
lower bound, often a distant one, on what an untraced run fuses (read
that from :attr:`repro.sim.fast_warp.FusedRegion.executions`); issue and
lane totals are exact either way.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Tuple

from ..isa.instructions import Opcode
from .tracing import Tracer


class OpcodeCost:
    """Aggregated per-opcode counters."""

    __slots__ = ("issues", "lanes", "host_seconds", "fused_issues")

    def __init__(self) -> None:
        self.issues = 0
        self.lanes = 0
        self.host_seconds = 0.0
        #: Of ``issues``, how many were executed inside a fused region.
        self.fused_issues = 0


class RegionCost:
    """Aggregated counters for one fused region (kernel, start pc)."""

    __slots__ = ("kernel", "start", "length", "ops", "executions", "host_seconds")

    def __init__(self, kernel: str, start: int, length: int, ops: Tuple[Opcode, ...]) -> None:
        self.kernel = kernel
        self.start = start
        self.length = length
        self.ops = ops
        self.executions = 0
        self.host_seconds = 0.0


class HotPathProfiler(Tracer):
    """Attribute simulated issues and host wall-time to opcodes/regions."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.opcodes: Dict[Opcode, OpcodeCost] = {}
        self.regions: Dict[Tuple[str, int], RegionCost] = {}
        #: Total instructions issued through fused regions.
        self.fused_instructions = 0
        #: Total fused-region executions (one per region entry).
        self.fused_executions = 0
        #: Issues a fast-core warp ran on the reference core's handlers
        #: (``FastWarp.fallback_pcs``), and the host time charged to them.
        self.fallback_issues = 0
        self.fallback_host_seconds = 0.0
        self._clock = clock
        self._prev: Optional[object] = None  # OpcodeCost | RegionCost
        self._prev_t: float = 0.0
        self._prev_fallback = False

    # ------------------------------------------------------------------
    # Tracer hooks
    # ------------------------------------------------------------------
    def _charge(self, entry, fallback: bool = False) -> None:
        now = self._clock()
        prev = self._prev
        if prev is not None:
            prev.host_seconds += now - self._prev_t
            if self._prev_fallback:
                self.fallback_host_seconds += now - self._prev_t
        self._prev = entry
        self._prev_t = now
        self._prev_fallback = fallback

    def on_issue(self, warp, pc, opcode, active, cycle) -> None:
        cost = self.opcodes.get(opcode)
        if cost is None:
            cost = self.opcodes[opcode] = OpcodeCost()
        cost.issues += 1
        cost.lanes += active
        fallback = pc in getattr(warp, "fallback_pcs", ())
        self.fallback_issues += fallback
        self._charge(cost, fallback)

    def on_fused(self, warp, pc, region, active, cycle) -> None:
        # Expand the region into its member opcodes so per-opcode issue
        # and lane totals stay equal to SimStats regardless of fusion
        # (every instruction of a region issues with the entering
        # frame's ``active`` lanes), but attribute host time to the
        # region as a unit.
        opcodes = self.opcodes
        for opcode in region.ops:
            cost = opcodes.get(opcode)
            if cost is None:
                cost = opcodes[opcode] = OpcodeCost()
            cost.issues += 1
            cost.lanes += active
            cost.fused_issues += 1
        self.fused_instructions += region.length
        self.fused_executions += 1
        key = (warp.tb.func.name, region.start)
        rcost = self.regions.get(key)
        if rcost is None:
            rcost = self.regions[key] = RegionCost(
                key[0], region.start, region.length, region.ops
            )
        rcost.executions += 1
        self._charge(rcost)

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
            "fused_instructions": self.fused_instructions,
            "fused_executions": self.fused_executions,
            "fallback_issues": self.fallback_issues,
            "fallback_host_seconds": self.fallback_host_seconds,
            "opcodes": {
                opcode.name.lower(): {
                    "issues": cost.issues,
                    "fused_issues": cost.fused_issues,
                    "lanes": cost.lanes,
                    "host_seconds": cost.host_seconds,
                }
                for opcode, cost in sorted(
                    self.opcodes.items(), key=lambda kv: -kv[1].issues
                )
            },
            "regions": [
                {
                    "kernel": cost.kernel,
                    "start_pc": cost.start,
                    "length": cost.length,
                    "ops": [op.name.lower() for op in cost.ops],
                    "executions": cost.executions,
                    "host_seconds": cost.host_seconds,
                }
                for cost in sorted(
                    self.regions.values(), key=lambda c: -c.executions
                )
            ],
        }

    def report(self, top: int = 15) -> str:
        """Human-readable hot-path table."""
        total = self.total_issues
        host_total = sum(c.host_seconds for c in self.opcodes.values()) + sum(
            c.host_seconds for c in self.regions.values()
        )
        lines: List[str] = []
        lines.append("== hot-path profile ==")
        lines.append(
            f"issues {total:,}   fused {self.fused_instructions:,} "
            f"({100.0 * self.fused_instructions / total if total else 0.0:.1f}%) "
            f"in {self.fused_executions:,} region executions   "
            f"host {host_total * 1e3:.1f}ms attributed"
        )
        lines.append(
            "(a traced run has no run-ahead windows: 'fused' counts sole-actor "
            "windows only, an untraced run fuses more)"
        )
        lines.append(
            f"reference fallbacks {self.fallback_issues:,} issues "
            f"({100.0 * self.fallback_issues / total if total else 0.0:.2f}%)   "
            f"host {self.fallback_host_seconds * 1e3:.1f}ms "
            f"({100.0 * self.fallback_host_seconds / host_total if host_total else 0.0:.2f}%)"
        )
        lines.append(f"{'opcode':<14s} {'issues':>12s} {'fused%':>7s} "
                     f"{'lanes/issue':>11s} {'host_ms':>9s} {'issue%':>7s}")
        by_issues = sorted(self.opcodes.items(), key=lambda kv: -kv[1].issues)
        for opcode, cost in by_issues[:top]:
            lines.append(
                f"{opcode.name.lower():<14s} {cost.issues:>12,} "
                f"{100.0 * cost.fused_issues / cost.issues:>6.1f}% "
                f"{cost.lanes / cost.issues:>11.1f} "
                f"{cost.host_seconds * 1e3:>9.1f} "
                f"{100.0 * cost.issues / total if total else 0.0:>6.1f}%"
            )
        if len(by_issues) > top:
            rest = sum(cost.issues for _, cost in by_issues[top:])
            lines.append(f"{'(other)':<14s} {rest:>12,}")
        if self.regions:
            lines.append("-- fused regions --")
            lines.append(f"{'kernel:pc':<24s} {'len':>4s} {'execs':>10s} "
                         f"{'instrs':>12s} {'host_ms':>9s}")
            by_execs = sorted(self.regions.values(), key=lambda c: -c.executions)
            for cost in by_execs[:top]:
                label = f"{cost.kernel}:{cost.start}"
                lines.append(
                    f"{label:<24s} {cost.length:>4d} {cost.executions:>10,} "
                    f"{cost.executions * cost.length:>12,} "
                    f"{cost.host_seconds * 1e3:>9.1f}"
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
