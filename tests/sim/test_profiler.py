"""Unit tests for the hot-path profiler (``--profile``)."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro import Device, GPUConfig, KernelBuilder, KernelFunction
from repro.config import WARP_SIZE
from repro.sim import HotPathProfiler
from repro.sim import profiler as profiler_mod


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


def _run(profiler, fast=True, fake_clock=False):
    if fake_clock:
        profiler._clock = iter(range(10**6)).__next__
    config = dataclasses.replace(GPUConfig.small(), core=("fast" if fast else "reference"))
    dev = Device(config=config)
    dev.attach_tracer(profiler)
    dev.register(_kernel())
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
        stats, _ = _run(prof, fast=fast)
        assert prof.total_issues == stats.issued_instructions
        assert prof.total_lanes == stats.active_lane_sum
        assert sum(c.issues for c in prof.opcodes.values()) == prof.total_issues

    def test_fused_issues_expand_to_member_opcodes(self, monkeypatch):
        # Fusion only engages unsanitized (a sanitizer forces single steps).
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        prof = HotPathProfiler()
        _run(prof, fast=True)
        assert prof.fused_executions > 0
        assert prof.fused_instructions == sum(
            r.executions * r.length for r in prof.regions.values()
        )
        assert prof.fused_instructions == sum(
            c.fused_issues for c in prof.opcodes.values()
        )
        for (kernel, start), cost in prof.regions.items():
            assert kernel == "prof"
            assert cost.length == len(cost.ops) >= 2

    def test_profiling_does_not_change_results_or_stats(self):
        prof = HotPathProfiler()
        stats_prof, out_prof = _run(prof, fast=True)
        stats_plain, out_plain = _run_plain()
        assert stats_prof.cycles == stats_plain.cycles
        assert stats_prof.issued_instructions == stats_plain.issued_instructions
        np.testing.assert_array_equal(out_prof, out_plain)

    def test_host_time_attribution_accumulates(self):
        prof = HotPathProfiler()
        _run(prof, fast=True, fake_clock=True)
        total = sum(c.host_seconds for c in prof.opcodes.values()) + sum(
            c.host_seconds for c in prof.regions.values()
        )
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

    def test_to_dict_and_report_are_consistent(self, monkeypatch):
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)  # needs fused regions
        prof = HotPathProfiler()
        _run(prof, fast=True)
        doc = prof.to_dict()
        assert doc["total_issues"] == prof.total_issues
        assert sum(e["issues"] for e in doc["opcodes"].values()) == doc["total_issues"]
        assert doc["fused_instructions"] == sum(
            r["executions"] * r["length"] for r in doc["regions"]
        )
        text = prof.report()
        assert "hot-path profile" in text
        assert "fused regions" in text


def _run_plain():
    config = dataclasses.replace(GPUConfig.small(), core="fast")
    dev = Device(config=config)
    dev.register(_kernel())
    n = 300
    data = dev.upload(np.arange(n, dtype=np.int64))
    out = dev.alloc(n)
    dev.launch("prof", grid=5, block=64, params=[n, data, out])
    dev.synchronize()
    return dev.stats, out.download()


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
