"""Execution tracing and profiling hooks.

A :class:`Tracer` attached to a :class:`~repro.sim.gpu.GPU` (or via
``Device.attach_tracer``) observes every issued warp instruction.  Two
implementations ship:

* :class:`OpcodeProfiler` — per-kernel, per-opcode issue histograms plus
  active-lane counts: a lightweight profiler for kernel tuning;
* :class:`InstructionTrace` — a bounded ring of (cycle, smx, kernel, pc,
  opcode, active) records for debugging execution order.

Tracing costs one attribute check per issued instruction when disabled.
"""

from __future__ import annotations

import collections
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Deque, Dict, List, Optional, Tuple

from ..isa.instructions import Opcode

if TYPE_CHECKING:  # pragma: no cover
    from .warp import Warp


class Tracer:
    """Base tracer: subclass and override :meth:`on_issue`."""

    def on_issue(self, warp: "Warp", pc: int, opcode: Opcode, active: int, cycle: int) -> None:
        raise NotImplementedError

    def on_fused(self, warp: "Warp", pc: int, region, active: int, cycle: int) -> None:
        """A fused superblock region executed in one call (fast core).

        The default replays the region as per-instruction
        :meth:`on_issue` callbacks at the exact cycles unfused execution
        would have issued them, each with the ``active`` lanes of the
        frame that ran the region (a region runs under any mask, and no
        instruction inside one can change it), keeping every subclass's
        output identical whether or not fusion engaged.  Profilers that
        want to see regions as units override this instead.
        """
        alu = warp._alu_lat
        sfu = warp._sfu_lat
        c = cycle
        for i, opcode in enumerate(region.ops):
            self.on_issue(warp, pc + i, opcode, active, c)
            c += sfu if region.sfu_flags[i] else alu


@dataclass
class KernelProfile:
    """Aggregated issue counts for one kernel."""

    issues: int = 0
    active_lanes: int = 0
    by_opcode: Dict[Opcode, int] = field(default_factory=dict)

    @property
    def warp_activity_pct(self) -> float:
        from ..config import WARP_SIZE

        if not self.issues:
            return 0.0
        return 100.0 * self.active_lanes / (self.issues * WARP_SIZE)

    def top_opcodes(self, n: int = 5) -> List[Tuple[Opcode, int]]:
        return sorted(self.by_opcode.items(), key=lambda kv: -kv[1])[:n]


class OpcodeProfiler(Tracer):
    """Per-kernel opcode histograms."""

    def __init__(self) -> None:
        self.kernels: Dict[str, KernelProfile] = {}

    def on_issue(self, warp, pc, opcode, active, cycle) -> None:
        name = warp.tb.func.name
        profile = self.kernels.get(name)
        if profile is None:
            profile = self.kernels[name] = KernelProfile()
        profile.issues += 1
        profile.active_lanes += active
        profile.by_opcode[opcode] = profile.by_opcode.get(opcode, 0) + 1

    def report(self) -> str:
        lines = []
        for name, profile in sorted(self.kernels.items()):
            lines.append(
                f"{name}: {profile.issues} issues, "
                f"{profile.warp_activity_pct:.1f}% warp activity"
            )
            for opcode, count in profile.top_opcodes():
                lines.append(f"    {opcode.name.lower():14s} {count}")
        return "\n".join(lines)


@dataclass(frozen=True)
class TraceRecord:
    cycle: int
    smx: int
    kernel: str
    pc: int
    opcode: Opcode
    active: int


class InstructionTrace(Tracer):
    """Bounded ring buffer of issued instructions."""

    def __init__(self, capacity: int = 10_000) -> None:
        self.records: Deque[TraceRecord] = collections.deque(maxlen=capacity)

    def on_issue(self, warp, pc, opcode, active, cycle) -> None:
        self.records.append(
            TraceRecord(
                cycle=cycle,
                smx=warp.tb.smx.smx_id,
                kernel=warp.tb.func.name,
                pc=pc,
                opcode=opcode,
                active=active,
            )
        )

    def of_kernel(self, name: str) -> List[TraceRecord]:
        return [r for r in self.records if r.kernel == name]

    def format(self, limit: Optional[int] = 50) -> str:
        records = list(self.records)
        if limit is not None:
            records = records[-limit:]
        return "\n".join(
            f"{r.cycle:>10d}  smx{r.smx:<2d} {r.kernel:<16s} pc={r.pc:<4d} "
            f"{r.opcode.name.lower():<14s} active={r.active}"
            for r in records
        )
