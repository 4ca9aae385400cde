"""Negative tests for the execution sanitizer.

Every detector has a seeded-violation program that must trigger it, and
every scenario runs under both execution cores (reference ``Warp`` and
``FastWarp``) asserting the *identical* structured findings — the
sanitizer is part of the stat-exact contract between the two cores.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro import (
    Device,
    ExecutionMode,
    GPUConfig,
    KernelBuilder,
    KernelFunction,
    SanitizerReport,
)
from repro.errors import ConfigError


def _device(fast: bool, mode: ExecutionMode = ExecutionMode.FLAT, sanitize=True) -> Device:
    config = dataclasses.replace(GPUConfig.k20c(), core=("fast" if fast else "reference"))
    return Device(config=config, mode=mode, sanitize=sanitize)


def run_both(scenario, mode: ExecutionMode = ExecutionMode.FLAT) -> SanitizerReport:
    """Run ``scenario(device)`` under both cores; findings must be identical."""
    reports = []
    for fast in (True, False):
        dev = _device(fast, mode)
        scenario(dev)
        reports.append(dev.sanitizer_report())
    fast_report, ref_report = reports
    assert fast_report.counts == ref_report.counts
    assert fast_report.findings == ref_report.findings
    return fast_report


def _launch(dev, func, grid=1, block=32, params=()):
    dev.register(func)
    dev.launch(func.name, grid=grid, block=block, params=list(params))
    dev.synchronize()


# ----------------------------------------------------------------------
# Clean baseline
# ----------------------------------------------------------------------
class TestCleanPrograms:
    def test_racefree_map_kernel_is_clean(self):
        def scenario(dev):
            k = KernelBuilder("clean_map")
            out = k.ld(k.param())
            gtid = k.gtid()
            k.st(k.iadd(out, gtid), k.imul(gtid, 3))
            buf = dev.alloc(64)
            _launch(dev, KernelFunction("clean_map", k.build()),
                    grid=2, block=32, params=[buf.addr])

        report = run_both(scenario)
        assert report.clean
        assert report.total() == 0
        assert report.format() == "sanitizer: clean (no findings)"

    def test_same_value_flag_stores_are_tolerated(self):
        # The graph-coloring idiom: many threads (and divergent lanes of
        # one warp) clear the same flag word with the same value.
        def scenario(dev):
            k = KernelBuilder("flag_clear")
            flag = k.ld(k.param())
            k.st(flag, 0)
            buf = dev.alloc(1)
            dev.write_int(buf.addr, 1)
            _launch(dev, KernelFunction("flag_clear", k.build()),
                    grid=2, block=64, params=[buf.addr])

        assert run_both(scenario).clean

    def test_atomic_contention_is_tolerated(self):
        # Atomic-vs-atomic and the SSSP idiom of a plain reset racing an
        # atomic claim are treated as synchronization, not races.
        def scenario(dev):
            k = KernelBuilder("atomic_mix")
            word = k.ld(k.param())
            k.atom_add(word, 1)
            with k.if_(k.eq(k.gtid(), 0)):
                k.st(word, 0)  # plain reset of the atomically-updated word
            buf = dev.alloc(1)
            dev.write_int(buf.addr, 0)
            _launch(dev, KernelFunction("atomic_mix", k.build()),
                    grid=2, block=32, params=[buf.addr])

        assert run_both(scenario).clean


# ----------------------------------------------------------------------
# Data races
# ----------------------------------------------------------------------
class TestDataRace:
    def test_conflicting_stores_to_one_word(self):
        def scenario(dev):
            k = KernelBuilder("racy")
            out = k.ld(k.param())
            k.st(out, k.gtid())  # every thread stores a *different* value
            buf = dev.alloc(1)
            scenario.addr = buf.addr
            _launch(dev, KernelFunction("racy", k.build()),
                    grid=2, block=32, params=[buf.addr])

        report = run_both(scenario)
        assert report.counts.get("data-race", 0) > 0
        finding = report.by_kind("data-race")[0]
        assert finding.kernel == "racy"
        assert finding.pc >= 0
        assert finding.address == scenario.addr
        assert finding.lanes  # the offending lanes are recorded

    def test_store_racing_prior_read(self):
        def scenario(dev):
            k = KernelBuilder("rw_race")
            base = k.ld(k.param())
            gtid = k.gtid()
            k.ld(base)  # every thread reads word 0 ...
            with k.if_(k.eq(gtid, 33)):
                k.st(base, 7)  # ... then a thread in another warp writes it
            buf = dev.alloc(1)
            dev.write_int(buf.addr, 1)
            _launch(dev, KernelFunction("rw_race", k.build()),
                    grid=1, block=64, params=[buf.addr])

        report = run_both(scenario)
        assert report.counts.get("data-race", 0) > 0
        assert "read" in report.by_kind("data-race")[0].detail

    def test_divergent_lanes_storing_different_values(self):
        def scenario(dev):
            k = KernelBuilder("lane_race")
            out = k.ld(k.param())
            k.st(k.iadd(out, k.imod(k.gtid(), 2)), k.gtid())
            buf = dev.alloc(2)
            _launch(dev, KernelFunction("lane_race", k.build()),
                    grid=1, block=32, params=[buf.addr])

        report = run_both(scenario)
        assert report.counts.get("data-race", 0) > 0


# ----------------------------------------------------------------------
# Shared-memory races
# ----------------------------------------------------------------------
class TestSharedRace:
    def test_unbarriered_shared_store_conflict(self):
        def scenario(dev):
            k = KernelBuilder("smem_race")
            k.sts(0, k.tid())  # all threads store to shared word 0
            func = KernelFunction("smem_race", k.build(), shared_words=4)
            _launch(dev, func, grid=1, block=64)

        report = run_both(scenario)
        assert report.counts.get("shared-race", 0) > 0
        assert report.by_kind("shared-race")[0].address == 0

    def test_barriered_shared_exchange_is_clean(self):
        def scenario(dev):
            k = KernelBuilder("smem_ok")
            out = k.ld(k.param())
            tid = k.tid()
            k.sts(tid, k.imul(tid, 2))
            k.bar()
            other = k.lds(k.imod(k.iadd(tid, 1), 64))
            k.st(k.iadd(out, k.gtid()), other)
            buf = dev.alloc(64)
            func = KernelFunction("smem_ok", k.build(), shared_words=64)
            _launch(dev, func, grid=1, block=64, params=[buf.addr])

        assert run_both(scenario).clean


# ----------------------------------------------------------------------
# Allocator checks
# ----------------------------------------------------------------------
class TestMemoryChecks:
    def test_oob_read_past_allocation(self):
        def scenario(dev):
            k = KernelBuilder("oob_read")
            base = k.ld(k.param())
            k.ld(base, offset=100)  # far past the 4-word allocation
            buf = dev.alloc(4)
            dev.write_int(buf.addr, 0)
            scenario.addr = buf.addr + 100
            _launch(dev, KernelFunction("oob_read", k.build()),
                    grid=1, block=32, params=[buf.addr])

        report = run_both(scenario)
        assert report.counts.get("oob", 0) > 0
        assert report.by_kind("oob")[0].address == scenario.addr

    def test_use_after_free(self):
        def scenario(dev):
            k = KernelBuilder("uaf")
            base = k.ld(k.param())
            k.ld(base)
            buf = dev.alloc(8)
            dev.alloc(4)  # pin the bump pointer: free() below can't roll back
            dev.write_int(buf.addr, 3)
            addr = buf.addr
            dev.free(buf)
            scenario.addr = addr
            _launch(dev, KernelFunction("uaf", k.build()),
                    grid=1, block=32, params=[addr])

        report = run_both(scenario)
        assert report.counts.get("use-after-free", 0) > 0
        assert report.by_kind("use-after-free")[0].address == scenario.addr

    def test_uninitialized_read(self):
        def scenario(dev):
            k = KernelBuilder("uninit")
            base = k.ld(k.param())
            k.ld(base)  # nothing ever wrote this allocation
            buf = dev.alloc(4)
            _launch(dev, KernelFunction("uninit", k.build()),
                    grid=1, block=32, params=[buf.addr])

        report = run_both(scenario)
        assert report.counts.get("uninit-read", 0) > 0

    def test_initialized_read_is_clean(self):
        def scenario(dev):
            k = KernelBuilder("init_ok")
            base = k.ld(k.param())
            k.ld(base)
            buf = dev.alloc(4)
            dev.write_int(buf.addr, 42)
            _launch(dev, KernelFunction("init_ok", k.build()),
                    grid=1, block=32, params=[buf.addr])

        assert run_both(scenario).clean


# ----------------------------------------------------------------------
# Barrier divergence
# ----------------------------------------------------------------------
class TestBarrierDivergence:
    def test_bar_under_divergence(self):
        def scenario(dev):
            k = KernelBuilder("divergent_bar")
            with k.if_(k.lt(k.tid(), 16)):  # half the warp can never arrive
                k.bar()
            _launch(dev, KernelFunction("divergent_bar", k.build()),
                    grid=1, block=32)

        report = run_both(scenario)
        assert report.counts.get("barrier-divergence", 0) > 0
        finding = report.by_kind("barrier-divergence")[0]
        assert "partial active mask" in finding.detail
        assert finding.lanes  # the lanes that can never arrive

    def test_warp_exit_with_sibling_at_barrier(self):
        def scenario(dev):
            k = KernelBuilder("exit_bar")
            with k.if_(k.lt(k.tid(), 32)):  # warp 0 barriers, warp 1 exits
                k.bar()
            _launch(dev, KernelFunction("exit_bar", k.build()),
                    grid=1, block=64)

        report = run_both(scenario)
        assert report.counts.get("barrier-divergence", 0) > 0


# ----------------------------------------------------------------------
# Device-launch validation
# ----------------------------------------------------------------------
class TestBadLaunch:
    @pytest.mark.parametrize("mode", [ExecutionMode.CDP, ExecutionMode.DTBL])
    def test_zero_dim_device_launch(self, mode):
        def scenario(dev):
            child = KernelBuilder("child")
            child.exit()
            k = KernelBuilder("parent")
            with k.if_(k.eq(k.gtid(), 0)):
                buf = k.get_param_buffer(1)
                k.st(buf, 7, offset=0)
                zero = k.mov(0)
                if mode is ExecutionMode.DTBL:
                    k.launch_agg("child", buf, agg=zero, block=32)
                else:
                    k.stream_create()
                    k.launch_device("child", buf, grid=zero, block=32)
            k.exit()
            dev.register(KernelFunction("child", child.build()))
            _launch(dev, KernelFunction("parent", k.build()), grid=1, block=32)

        report = run_both(scenario, mode=mode)
        assert report.counts.get("bad-launch", 0) > 0
        assert "non-positive dimension" in report.by_kind("bad-launch")[0].detail


def test_access_classes_are_read_off_the_semantics_rows():
    """The sanitizer's global-access classes, derived from the ``MEMORY``
    and ``ATOMIC`` rows, against the literals they replaced."""
    from repro.isa.instructions import Opcode as O
    from repro.sim import sanitizer

    atomics = {O.ATOM_ADD, O.ATOM_MIN, O.ATOM_MAX, O.ATOM_OR, O.ATOM_EXCH, O.ATOM_CAS}
    assert sanitizer._PLAIN_READS == {O.LD, O.FLD}
    assert sanitizer._GLOBAL_WRITES == {O.ST, O.FST} | atomics
    assert sanitizer._GLOBAL_ACCESSES == {O.LD, O.FLD, O.ST, O.FST} | atomics


# ----------------------------------------------------------------------
# Reporting API
# ----------------------------------------------------------------------
class TestReportingAPI:
    def _racy_kernel(self):
        k = KernelBuilder("racy")
        k.st(k.ld(k.param()), k.gtid())
        return KernelFunction("racy", k.build())

    def _clean_kernel(self):
        k = KernelBuilder("clean")
        out = k.ld(k.param())
        k.st(k.iadd(out, k.gtid()), 1)
        return KernelFunction("clean", k.build())

    def test_sanitizer_disabled_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        dev = Device(config=GPUConfig.k20c(), mode=ExecutionMode.FLAT)
        assert not dev.sanitizing
        with pytest.raises(ConfigError):
            dev.sanitizer_report()

    def test_event_report_requires_sanitizer(self, monkeypatch):
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        dev = Device(config=GPUConfig.k20c(), mode=ExecutionMode.FLAT)
        dev.register(self._clean_kernel())
        buf = dev.alloc(64)
        event = dev.launch("clean", grid=1, block=32, params=[buf.addr])
        dev.synchronize()
        with pytest.raises(ConfigError):
            event.sanitizer_report()

    def test_event_report_windows_findings(self):
        dev = _device(fast=True)
        dev.register(self._racy_kernel())
        dev.register(self._clean_kernel())
        racy_buf = dev.alloc(1)
        clean_buf = dev.alloc(64)
        racy = dev.launch("racy", grid=1, block=32, params=[racy_buf.addr])
        dev.synchronize()
        clean = dev.launch("clean", grid=1, block=32, params=[clean_buf.addr])
        dev.synchronize()
        assert not racy.sanitizer_report().clean
        assert clean.sanitizer_report().clean
        # The device-wide report keeps everything.
        assert dev.sanitizer_report().counts.get("data-race", 0) > 0

    def test_report_counts_every_occurrence_but_dedups_sites(self):
        dev = _device(fast=True)
        dev.register(self._racy_kernel())
        buf = dev.alloc(1)
        for _ in range(3):
            dev.launch("racy", grid=1, block=32, params=[buf.addr])
            dev.synchronize()
        report = dev.sanitizer_report()
        # One (kind, kernel, pc) site, many occurrences.
        assert len(report.by_kind("data-race")) == 1
        assert report.counts["data-race"] > len(report.by_kind("data-race"))
        assert "data-race" in report.format()

    def test_env_var_enables_sanitizer(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        dev = Device(config=GPUConfig.k20c(), mode=ExecutionMode.FLAT)
        assert dev.sanitizing

    def test_sanitizer_does_not_change_results_or_timing(self):
        def run(sanitize):
            dev = Device(config=GPUConfig.k20c(), mode=ExecutionMode.FLAT,
                         sanitize=sanitize)
            dev.register(self._racy_kernel())
            buf = dev.alloc(1)
            dev.launch("racy", grid=1, block=32, params=[buf.addr])
            stats = dev.synchronize()
            return dev.read_int(buf.addr), stats.cycles

        assert run(True) == run(False)


# ----------------------------------------------------------------------
# Task-queue protocol defects (repro.isa.taskqueue)
# ----------------------------------------------------------------------
class TestTaskQueueDefects:
    """The queue's ordering protocol is load-bearing: each seeded defect
    knob removes one ordering and must produce sanitizer findings, while
    the clean protocol stays silent (see tests/isa/test_taskqueue_fuzz.py
    for the functional differential)."""

    @staticmethod
    def _queue(dev, capacity, uploaded=True):
        import repro.isa.taskqueue as tq

        shape = tq.QueueLayout(0, capacity, 1)
        if uploaded:
            return dataclasses.replace(
                shape, base=int(dev.upload(shape.init_image()))
            )
        # Sparse init: header and sequence words only, so the ring's
        # payload words stay uninitialized in the sanitizer's shadow.
        arr = dev.alloc(shape.total_words)
        q = dataclasses.replace(shape, base=arr.addr)
        for off in range(tq.HEADER_WORDS):
            dev.write_int(q.field(off), capacity if off == tq.OFF_CAPACITY else 0)
        for i in range(capacity):
            dev.write_int(q.slot(i), i)
        return q

    def test_plain_reserve_is_a_data_race(self):
        # Non-atomic ticket reservation: two blocks read the same ticket
        # and collide on the reservation word and one slot's payload.
        from repro.isa.taskqueue import emit_enqueue

        def scenario(dev):
            q = self._queue(dev, 4)
            k = KernelBuilder("tq_plain_reserve")
            emit_enqueue(k, q, [k.iadd(k.ctaid(), 500)], defect="plain-reserve")
            _launch(dev, KernelFunction("tq_plain_reserve", k.build()),
                    grid=2, block=1)

        report = run_both(scenario)
        assert report.counts.get("data-race", 0) > 0

    # Note on the third defect knob, ``publish-before-store``: it swaps
    # the payload store past the sequence publish, which on real
    # hardware (store buffers, relaxed ordering) is the classic dropped
    # release fence.  The simulated cores are in-order and the late
    # store retires a couple of cycles after the publish — always before
    # any consumer's dependent load can arrive through the memory
    # latency model — so neither the sanitizer nor the functional
    # differential can observe it in-sim.  The knob stays for
    # documentation; the observable per-primitive defects are covered
    # below (enqueue: plain-reserve, dequeue: skip-empty-check).

    def test_runtime_plain_reserve_defect_is_caught(self):
        # The full equivalence net — watchdog, drain invariants,
        # sanitizer, output verify — must catch a seeded protocol defect
        # when driven through the real PersistentRuntime on a
        # child-launching workload, not just on a micro-kernel.  With a
        # de-atomized reservation two workers can claim the same ticket,
        # wedging the sequenced ring (watchdog) and racing on the slot
        # payload (sanitizer); the deterministic simulator makes the
        # outcome reproducible.
        from repro.errors import ReproError
        from repro.runtime.persistent import (
            PersistentRuntime,
            PersistentRuntimeError,
        )
        from repro.workloads import get_benchmark

        wl = get_benchmark("bht", ExecutionMode.PERSISTENT, scale=0.05)
        device = Device(
            config=GPUConfig.k20c(),
            mode=ExecutionMode.PERSISTENT,
            sanitize=True,
        )
        runtime = PersistentRuntime(device, defect="plain-reserve")
        kernels = runtime.transform(wl.build_kernels())
        for func in kernels:
            device.register(func)
        wl.setup(device)
        caught = []
        try:
            wl.run(device)
            device.synchronize(max_cycles=2_000_000)
            runtime.verify_drained()
            wl.check(device)
        except (ReproError, PersistentRuntimeError) as exc:
            caught.append(type(exc).__name__)
        if not device.sanitizer_report().clean:
            caught.append(
                f"sanitizer:{dict(device.sanitizer_report().counts)}"
            )
        assert caught, (
            "plain-reserve escaped every net: no exception, drained "
            "books, verified output, clean sanitizer"
        )

    def test_skip_empty_check_is_an_uninit_read(self):
        # Claiming from an empty queue without the sequence wait reads a
        # ring record no store ever wrote.
        from repro.isa.taskqueue import emit_dequeue_sync

        def scenario(dev):
            q = self._queue(dev, 4, uploaded=False)
            sink = dev.alloc(1)
            k = KernelBuilder("tq_skip_empty")

            def on_item(fields, ticket):
                k.st(sink.addr, fields[0])

            emit_dequeue_sync(k, q, on_item, defect="skip-empty-check")
            k.exit()
            _launch(dev, KernelFunction("tq_skip_empty", k.build()),
                    grid=1, block=1)
            scenario.payload_addr = q.slot(0) + 1

        report = run_both(scenario)
        assert report.counts.get("uninit-read", 0) > 0
        assert any(f.address == scenario.payload_addr
                   for f in report.by_kind("uninit-read"))

    def test_clean_protocol_is_clean(self):
        from repro.isa.taskqueue import OFF_FINISHED, emit_dequeue_sync, emit_enqueue

        def scenario(dev):
            q = self._queue(dev, 2)
            out = dev.alloc(4)
            k = KernelBuilder("tq_clean_pair")

            def produce():
                with k.for_range(0, 4) as j:
                    emit_enqueue(k, q, [k.iadd(j, 900)])

            def consume():
                done = k.mov(0)
                with k.while_(lambda: k.lt(done, 4)):
                    def on_item(fields, ticket):
                        k.st(k.iadd(out.addr, ticket), fields[0])
                        k.atom_add(q.field(OFF_FINISHED), 1)
                        k.iadd(done, 1, dst=done)
                    emit_dequeue_sync(k, q, on_item)

            k.if_else(k.eq(k.ctaid(), 0), produce, consume)
            k.exit()
            _launch(dev, KernelFunction("tq_clean_pair", k.build()),
                    grid=2, block=1)

        assert run_both(scenario).clean

    @pytest.mark.parametrize("mode_name", ["persistent", "persistent-async"])
    def test_persistent_mode_benchmark_is_clean(self, mode_name):
        from repro.workloads import get_benchmark

        config = dataclasses.replace(GPUConfig.k20c(), sanitize=True)
        wl = get_benchmark("bfs_citation", ExecutionMode.parse(mode_name),
                           scale=0.04)
        result = wl.execute(config=config, latency_scale=0.25)
        assert result.sanitizer is not None and result.sanitizer.clean
