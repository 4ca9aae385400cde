"""Unit tests for the hot-path profiler (``--profile``)."""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from repro import Device, GPUConfig, KernelBuilder, KernelFunction
from repro.exec import JobSpec, run_job
from repro.exec.cli import add_execution_flags, add_job_flags, validate_execution_flags
from repro.harness.runner import DEFAULT_LATENCY_SCALE
from repro.runtime.modes import ExecutionMode
from repro.sim import HotPathProfiler
from repro.sim import profiler as profiler_mod
from repro.sim.fast_warp import decode_program

REPO = pathlib.Path(__file__).resolve().parent.parent.parent


def _kernel() -> KernelFunction:
    k = KernelBuilder("prof")
    gtid = k.gtid()
    param = k.param()
    n = k.ld(param, offset=0)
    src = k.ld(param, offset=1)
    dst = k.ld(param, offset=2)
    a = k.imul(gtid, 3)
    b = k.iadd(a, 7)
    c = k.ixor(b, gtid)
    with k.if_(k.lt(gtid, n)):
        k.st(k.iadd(dst, gtid), k.iadd(c, k.ld(k.iadd(src, gtid))))
    k.exit()
    return KernelFunction("prof", k.build())


def _run(profiler=None, core="fast", func=None, **config):
    """``func`` (default :func:`_kernel`) over 300 elements on a small GPU
    with ``config`` overrides, traced by ``profiler`` if given."""
    dev = Device(config=dataclasses.replace(GPUConfig.small(), core=core, **config))
    if profiler is not None:
        dev.attach_tracer(profiler)
    dev.register(func or _kernel())
    n = 300
    data = dev.upload(np.arange(n, dtype=np.int64))
    out = dev.alloc(n)
    dev.launch("prof", grid=5, block=64, params=[n, data, out])
    dev.synchronize()
    return dev.stats, out.download()


class TestHotPathProfiler:
    @pytest.mark.parametrize("fast", [True, False], ids=["fast", "reference"])
    def test_totals_match_simstats(self, fast):
        prof = HotPathProfiler()
        stats, _ = _run(prof, core=("fast" if fast else "reference"))
        assert prof.total_issues == stats.issued_instructions
        assert prof.total_lanes == stats.active_lane_sum
        assert sum(c.issues for c in prof.opcodes.values()) == prof.total_issues

    def test_profiling_does_not_change_results_or_stats(self):
        prof = HotPathProfiler()
        stats_prof, out_prof = _run(prof)
        stats_plain, out_plain = _run()
        assert stats_prof.cycles == stats_plain.cycles
        assert stats_prof.issued_instructions == stats_plain.issued_instructions
        np.testing.assert_array_equal(out_prof, out_plain)

    def test_host_time_attribution_accumulates(self):
        prof = HotPathProfiler(clock=iter(range(10**6)).__next__)
        _run(prof)
        total = sum(c.host_seconds for c in prof.opcodes.values())
        # The fake clock advances 1s per callback; all but the last tick
        # must be attributed somewhere.
        assert total > 0

    @pytest.mark.parametrize("fast", [True, False], ids=["fast", "reference"])
    def test_reference_fallbacks_are_counted_and_timed(self, fast):
        """A vote has no native form: each of its issues on the fast core
        is a fallback, charged one tick of the fake clock.  The reference
        core has no fallbacks (it is the reference)."""
        k = KernelBuilder("votes")
        gtid = k.gtid()
        out = k.ld(k.param(), offset=0)
        k.st(k.iadd(out, gtid), k.vote_any(k.lt(gtid, 40)))
        k.exit()
        prof = HotPathProfiler(clock=iter(range(10**6)).__next__)
        config = dataclasses.replace(GPUConfig.small(), core=("fast" if fast else "reference"))
        with Device(config=config) as dev:
            dev.attach_tracer(prof)
            dev.register(KernelFunction("votes", k.build()))
            dev.launch("votes", grid=2, block=64, params=[dev.alloc(128)])
            dev.synchronize()
        doc = prof.to_dict()
        assert doc["fallback_issues"] == (4 if fast else 0)
        assert doc["fallback_host_seconds"] == doc["fallback_issues"]
        assert f"reference fallbacks {doc['fallback_issues']} issues" in prof.report()

    def test_to_dict_and_report_are_consistent(self):
        prof = HotPathProfiler()
        _run(prof)
        doc = prof.to_dict()
        assert doc["total_issues"] == prof.total_issues
        assert sum(e["issues"] for e in doc["opcodes"].values()) == doc["total_issues"]
        text = prof.report()
        assert "hot-path profile" in text
        assert f"issues {doc['total_issues']:,}" in text


class TestGlobalActivation:
    def test_activate_installs_on_new_gpus(self):
        prof = profiler_mod.activate()
        try:
            config = dataclasses.replace(GPUConfig.small(), core="fast")
            dev = Device(config=config)
            dev.register(_kernel())
            n = 100
            data = dev.upload(np.arange(n, dtype=np.int64))
            out = dev.alloc(n)
            dev.launch("prof", grid=2, block=64, params=[n, data, out])
            dev.synchronize()
        finally:
            profiler_mod.deactivate()
        assert prof.total_issues == dev.stats.issued_instructions
        assert profiler_mod.active_profiler() is None

    def test_deactivated_gpus_have_no_tracer(self):
        config = dataclasses.replace(GPUConfig.small(), core="fast")
        dev = Device(config=config)
        assert dev.gpu.tracer is None


class TestTracedRunsFuseNothing:
    """Run-ahead is the only path that fuses, and a tracer switches it off:
    a traced run issues every instruction singly, whatever the scheduler
    or the sanitizer, and the profiler sees each one."""

    @pytest.mark.parametrize("config", [
        {}, {"warp_scheduler": "rr"}, {"sanitize": True},
    ], ids=["gto", "rr", "sanitized"])
    def test_region_executions_unchanged_and_totals_exact(self, config, monkeypatch):
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        func = _kernel()
        regions = decode_program(func.program)[3].values()
        assert regions
        prof = HotPathProfiler()
        stats, _ = _run(prof, func=func, **config)
        assert [region.executions for region in regions] == [0] * len(regions)
        assert prof.total_issues == stats.issued_instructions
        assert prof.total_lanes == stats.active_lane_sum
        # The same launch untraced under GTO fuses: the check above is
        # not vacuous.
        untraced, _ = _run(func=func)
        assert sum(region.executions for region in regions) > 0
        assert untraced.issued_instructions == stats.issued_instructions


#: Whole jobs profiled end to end: a DTBL job; the most divergent flat job (0.5 %
#: of its issues carry a full mask); a task-queue job whose polls (one-lane
#: loads from an immediate address) and worker mailbox (shared memory)
#: ran on the reference handlers, one issue in six, before they had a
#: native form.
PROFILED_CELLS = [("bht", "dtbl"), ("amr", "flat"), ("bfs_cage15", "persistent")]


class TestProfileCli:
    def test_profile_pins_one_worker_and_no_cache(self):
        """Both CLIs read the pinning from the one flag check."""
        parser = argparse.ArgumentParser()
        add_job_flags(parser)
        add_execution_flags(parser, profile_json=True)
        args = parser.parse_args(["--jobs", "4", "--profile-json", "p.json"])
        validate_execution_flags(parser, args)
        assert (args.profile, args.jobs, args.cache) == (True, 1, False)

    @pytest.mark.parametrize(
        "bench,mode", PROFILED_CELLS, ids=[f"{b}-{m}" for b, m in PROFILED_CELLS]
    )
    def test_report_is_consistent_and_equals_simstats(self, tmp_path, bench, mode):
        """``--profile --profile-json`` on a whole job: the table, the
        fallback line and the kernel lines are printed, the JSON (per
        opcode and per kernel) adds up, the fast core hands
        under 1 % of the issues to the reference handlers (the launch API
        and the warp-wide exchanges, never a hot instruction), and a run
        under :func:`profiler.activate` counts what ``SimStats`` counts."""
        report_path = tmp_path / "profile.json"
        cli = subprocess.run(
            [sys.executable, "-m", "repro.workloads", bench, "--mode", mode,
             "--scale", "0.1", "--profile", "--profile-json", str(report_path),
             "--no-verify"],
            cwd=tmp_path, env={**os.environ, "PYTHONPATH": str(REPO / "src")},
            capture_output=True, text=True,
        )
        assert cli.returncode == 0, cli.stderr[-2000:]
        assert "== hot-path profile ==" in cli.stdout
        assert "reference fallbacks " in cli.stdout
        report = json.loads(report_path.read_text())
        for name in report["kernels"]:
            assert f"\n{name}: " in cli.stdout
        total = report["total_issues"]
        assert sum(e["issues"] for e in report["opcodes"].values()) == total
        assert sum(e["issues"] for e in report["kernels"].values()) == total
        assert report["fallback_issues"] < 0.01 * total

        prof = profiler_mod.activate()
        try:
            stats = run_job(JobSpec.create(
                bench, ExecutionMode(mode), 0.1, DEFAULT_LATENCY_SCALE
            )).stats
        finally:
            profiler_mod.deactivate()
        assert prof.total_issues == stats.issued_instructions == total
        assert prof.total_lanes == stats.active_lane_sum
