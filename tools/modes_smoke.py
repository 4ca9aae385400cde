#!/usr/bin/env python
"""Modes smoke check: the full 9-mode grid, plus the persistent sweep.

Runs a small benchmark under every :class:`ExecutionMode`, and two more
graph benchmarks under ``flat`` and the two persistent-scheduler modes,
all with the sanitizer on and result verification enabled (each run's
output buffers are compared against the host reference — the
flat-equality guarantee — and a drained task queue is asserted inside
``Workload._execute``), then cross-checks the stats for the orderings
the platform promises:

* flat issues no dynamic launches; every dynamic mode's cycle count is
  positive and its launch counters are internally consistent;
* an ideal mode never runs slower than its measured twin (cdpi <= cdp,
  dtbli <= dtbl);
* the compiler-optimized modes (cdpa, cons) issue **at most** as many
  device launches as plain cdp — the whole point of aggregation;
* cons never uses more child blocks than cdpa for the same work —
  consolidation packs partial blocks denser;
* the persistent modes issue **zero** device-side dynamic launches —
  every canonical CDP launch site was rewritten into task-queue pushes,
  and the resident worker grid replaces the requested kernels;
* the software scheduler is not free: persistent modes execute more
  instructions than flat for the same traversal (spin polling, claim
  CAS, publish/finish atomics) — the Section 6 overhead story.

Exits non-zero with a per-run table on any violation.
"""

from __future__ import annotations

import pathlib
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

import dataclasses  # noqa: E402

from repro.config import GPUConfig  # noqa: E402
from repro.runtime import ExecutionMode  # noqa: E402
from repro.workloads import get_benchmark  # noqa: E402

GRID_BENCHMARK = "bfs_cage15"
GRID_SCALE = 0.2  # large enough that the DFP thresholds actually fire
PERSISTENT_BENCHMARKS = ("sssp_citation", "bht")
PERSISTENT_SCALE = 0.1
PERSISTENT_MODES = (ExecutionMode.PERSISTENT, ExecutionMode.PERSISTENT_ASYNC)
LATENCY_SCALE = 0.25


def simulate(bench: str, mode: ExecutionMode, scale: float):
    workload = get_benchmark(bench, mode, scale)
    config = dataclasses.replace(GPUConfig.k20c(), sanitize=True)
    result = workload.execute(
        config=config, latency_scale=LATENCY_SCALE, verify=True
    )
    stats = result.stats
    print(
        f"  {bench:14s} {mode.value:16s} "
        f"cycles={stats.cycles:>9,}  "
        f"instr={stats.issued_instructions:>9,}  "
        f"dynamic_launches={len(stats.dynamic_launches())}"
    )
    return stats


def main() -> int:
    failures = []

    def check(condition: bool, message: str) -> None:
        if not condition:
            failures.append(message)

    def check_persistent(bench: str, by_mode: dict) -> None:
        flat = by_mode[ExecutionMode.FLAT]
        for mode in PERSISTENT_MODES:
            check(
                len(by_mode[mode].dynamic_launches()) == 0,
                f"{bench}/{mode.value}: launch sites survived the persist rewrite",
            )
            check(
                by_mode[mode].issued_instructions > flat.issued_instructions,
                f"{bench}/{mode.value}: software scheduling executed no more "
                "instructions than flat — the queue protocol is not running",
            )

    stats = {
        mode: simulate(GRID_BENCHMARK, mode, GRID_SCALE)
        for mode in ExecutionMode.comparison_order()
    }

    def cycles(mode):
        return stats[mode].cycles

    def launches(mode):
        return len(stats[mode].dynamic_launches())

    def blocks(mode):
        return sum(r.total_blocks for r in stats[mode].dynamic_launches())

    for mode in stats:
        check(cycles(mode) > 0, f"{mode.value}: no cycles simulated")
    check(launches(ExecutionMode.FLAT) == 0, "flat issued dynamic launches")
    check(
        launches(ExecutionMode.CDP) > 0,
        f"cdp issued no dynamic launches at scale {GRID_SCALE} — the smoke "
        "check needs a scale where the DFP thresholds fire",
    )
    check(
        cycles(ExecutionMode.CDP_IDEAL) <= cycles(ExecutionMode.CDP),
        "ideal cdp ran slower than measured cdp",
    )
    check(
        cycles(ExecutionMode.DTBL_IDEAL) <= cycles(ExecutionMode.DTBL),
        "ideal dtbl ran slower than measured dtbl",
    )
    for mode in (ExecutionMode.CDP_AGG, ExecutionMode.CONSOLIDATED):
        check(
            launches(mode) <= launches(ExecutionMode.CDP),
            f"{mode.value} issued more launches than plain cdp "
            f"({launches(mode)} > {launches(ExecutionMode.CDP)})",
        )
    check(
        blocks(ExecutionMode.CONSOLIDATED) <= blocks(ExecutionMode.CDP_AGG),
        "cons used more child blocks than cdpa "
        f"({blocks(ExecutionMode.CONSOLIDATED)} > "
        f"{blocks(ExecutionMode.CDP_AGG)})",
    )
    check_persistent(GRID_BENCHMARK, stats)

    for bench in PERSISTENT_BENCHMARKS:
        by_mode = {
            mode: simulate(bench, mode, PERSISTENT_SCALE)
            for mode in (ExecutionMode.FLAT,) + PERSISTENT_MODES
        }
        for mode, run in by_mode.items():
            check(run.cycles > 0, f"{bench}/{mode.value}: no cycles simulated")
        check_persistent(bench, by_mode)

    if failures:
        print("modes smoke: FAILED")
        for message in failures:
            print(f"  - {message}")
        return 1
    print(
        f"modes smoke: OK ({len(stats)} modes on {GRID_BENCHMARK}, "
        f"persistent modes on {len(PERSISTENT_BENCHMARKS) + 1} benchmarks, "
        "outputs verified, queues drained, sanitizer clean)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
