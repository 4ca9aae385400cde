#!/usr/bin/env python
"""Profile smoke check: run one small workload under ``--profile`` and
verify the report is well-formed and consistent with the simulation.

Two layers:

1. **CLI**: runs ``python -m repro.workloads <bench> --profile
   --profile-json <tmp>`` in a subprocess and checks the JSON report
   parses and is internally consistent (per-opcode issues sum to the
   reported total; fused counters match the region list), and that the
   reference-fallback line is there with under 1 % of the issues: what
   the fast core still delegates is the launch API and the warp-wide
   exchanges, never a hot instruction.
2. **In-process**: re-runs the same (benchmark, mode) with a
   :class:`~repro.sim.profiler.HotPathProfiler` installed and asserts
   the profiler's opcode issue / active-lane totals equal the
   simulation's ``SimStats`` counters *exactly* — the profiler must
   observe every issued instruction, fused or not.

The (benchmark, mode) cell comes from ``argv`` — ``profile_smoke.py
[bench [mode]]``, default ``bht dtbl``.  CI also runs ``amr flat``, the
most divergent cell (0.5 % of its issues carry a full mask), so the
totals contract is exercised with masked fused regions end to end, and
``bfs_cage15 persistent``, whose task-queue polls (one-lane loads from an
immediate address) and worker mailbox (shared memory) ran on the
reference handlers, one issue in six, before they had a native form.

Exits non-zero on any mismatch.  Used by the CI ``smoke`` job.
"""

from __future__ import annotations

import json
import pathlib
import subprocess
import sys
import tempfile

REPO = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

BENCH = sys.argv[1] if len(sys.argv) > 1 else "bht"
MODE = sys.argv[2] if len(sys.argv) > 2 else "dtbl"
SCALE = 0.1


def fail(message: str) -> None:
    print(f"profile smoke: FAIL — {message}")
    sys.exit(1)


def check_cli_report() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        out = pathlib.Path(tmp) / "profile.json"
        command = [
            sys.executable, "-m", "repro.workloads", BENCH,
            "--mode", MODE, "--scale", str(SCALE),
            "--profile", "--profile-json", str(out), "--no-verify",
        ]
        result = subprocess.run(
            command, cwd=REPO, capture_output=True, text=True,
            env={**dict(__import__("os").environ), "PYTHONPATH": str(REPO / "src")},
        )
        if result.returncode != 0:
            fail(f"CLI run failed (exit {result.returncode}):\n{result.stderr[-2000:]}")
        if "== hot-path profile ==" not in result.stdout:
            fail("CLI output lacks the hot-path profile table")
        if "reference fallbacks " not in result.stdout:
            fail("CLI output lacks the reference-fallback line")
        try:
            report = json.loads(out.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            fail(f"--profile-json report unreadable: {exc}")
        opcode_issues = sum(e["issues"] for e in report["opcodes"].values())
        if opcode_issues != report["total_issues"]:
            fail(
                f"per-opcode issues sum to {opcode_issues}, report says "
                f"{report['total_issues']}"
            )
        fused_issues = sum(e["fused_issues"] for e in report["opcodes"].values())
        if fused_issues != report["fused_instructions"]:
            fail(
                f"per-opcode fused issues sum to {fused_issues}, report "
                f"says {report['fused_instructions']}"
            )
        region_instrs = sum(
            r["executions"] * r["length"] for r in report["regions"]
        )
        if region_instrs != report["fused_instructions"]:
            fail(
                f"region executions imply {region_instrs} fused "
                f"instructions, report says {report['fused_instructions']}"
            )
        fallback_share = report["fallback_issues"] / report["total_issues"]
        if fallback_share >= 0.01:
            fail(
                f"{report['fallback_issues']} of {report['total_issues']} issues "
                f"({100 * fallback_share:.2f}%) ran on the reference core's handlers"
            )
        print(
            f"profile smoke: CLI report OK "
            f"({report['total_issues']:,} issues, "
            f"{report['fused_instructions']:,} fused in "
            f"{len(report['regions'])} regions, "
            f"{report['fallback_issues']:,} reference fallbacks "
            f"with {1e3 * report['fallback_host_seconds']:.1f} ms of host time)"
        )


def check_against_simstats() -> None:
    from repro.exec import JobSpec, run_job
    from repro.harness.runner import DEFAULT_LATENCY_SCALE
    from repro.runtime.modes import ExecutionMode
    from repro.sim import profiler as profiler_mod

    prof = profiler_mod.activate()
    try:
        run = run_job(JobSpec.create(
            BENCH, ExecutionMode(MODE), SCALE, DEFAULT_LATENCY_SCALE
        ))
    finally:
        profiler_mod.deactivate()
    stats = run.stats
    if prof.total_issues != stats.issued_instructions:
        fail(
            f"profiler saw {prof.total_issues} issues, SimStats "
            f"counted {stats.issued_instructions}"
        )
    if prof.total_lanes != stats.active_lane_sum:
        fail(
            f"profiler saw {prof.total_lanes} active lanes, "
            f"SimStats counted {stats.active_lane_sum}"
        )
    print(
        f"profile smoke: SimStats match OK "
        f"({stats.issued_instructions:,} issues, "
        f"{stats.active_lane_sum:,} lanes)"
    )


def main() -> int:
    check_cli_report()
    check_against_simstats()
    print("profile smoke: PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
