"""Compiler-optimized dynamic parallelism (:mod:`repro.isa.dynopt`).

Synthetic parent/child kernels in the canonical CDP launch shape are
pushed through the ``cdpa`` / ``cons`` pipelines and executed on the
simulator; the transformed programs must produce bit-identical output
buffers while issuing fewer device launches.
"""

import numpy as np
import pytest

from repro import Device, ExecutionMode, GPUConfig, KernelBuilder, KernelFunction
from repro.errors import LaunchError
from repro.isa.dynopt import (
    aggregate,
    find_launch_sites,
    serialize,
    serialize_small_launches,
    transform_kernels,
    wrappable,
)
from repro.isa.dynopt.splice import summarize_body

BS = 32  #: child block size
STRIDE = 80  #: per-parent-thread output region (>= max child count)


@pytest.fixture
def serial_threshold(monkeypatch):
    """Set the ``cdpa`` serialization threshold for one test."""
    return lambda value: monkeypatch.setattr(serialize, "SERIAL_THRESHOLD", value)


def child_function(name: str = "child") -> KernelFunction:
    """Child over params [region, count, salt]: region[i] = salt + i."""
    k = KernelBuilder(name)
    gtid = k.gtid()
    param = k.param()
    count = k.ld(param, offset=1)
    with k.if_(k.lt(gtid, count)):
        region = k.ld(param, offset=0)
        salt = k.ld(param, offset=2)
        k.st(k.iadd(region, gtid), k.iadd(salt, gtid))
    k.exit()
    return KernelFunction(name, k.build())


def parent_function(
    name: str = "parent", child: str = "child"
) -> KernelFunction:
    """Parent over params [n, counts, dst]: thread i launches ``child``
    with counts[i] work items over its own output region."""
    k = KernelBuilder(name)
    gtid = k.gtid()
    param = k.param()
    n = k.ld(param, offset=0)
    with k.if_(k.lt(gtid, n)):
        counts = k.ld(param, offset=1)
        dst = k.ld(param, offset=2)
        count = k.ld(k.iadd(counts, gtid))
        region = k.iadd(dst, k.imul(gtid, STRIDE))
        buf = k.get_param_buffer(3)
        k.st(buf, region, offset=0)
        k.st(buf, count, offset=1)
        k.st(buf, k.imul(gtid, 1000), offset=2)
        blocks = k.idiv(k.iadd(count, BS - 1), BS)
        k.stream_create()
        k.launch_device(child, buf, grid=blocks, block=BS)
    k.exit()
    return KernelFunction(name, k.build())


def expected_output(counts) -> np.ndarray:
    out = np.zeros(len(counts) * STRIDE, dtype=np.int64)
    for i, count in enumerate(counts):
        out[i * STRIDE : i * STRIDE + count] = i * 1000 + np.arange(count)
    return out


def run_kernels(kernels, counts, *, sanitize=False):
    """Launch the parent over ``counts`` and return (output, stats, report)."""
    dev = Device(config=GPUConfig.k20c(), mode=ExecutionMode.CDP,
                 sanitize=sanitize)
    for func in kernels:
        dev.register(func)
    n = len(counts)
    src = dev.upload(np.asarray(counts, dtype=np.int64))
    dst = dev.alloc(n * STRIDE)
    dev.memset(dst, 0, n * STRIDE)
    dev.launch("parent", grid=(n + BS - 1) // BS, block=BS,
               params=[n, src, dst])
    dev.synchronize()
    out = dev.download_ints(dst, n * STRIDE)
    report = dev.sanitizer_report() if sanitize else None
    return out, dev.stats, report


class TestSiteDiscovery:
    def test_finds_canonical_site(self):
        func = parent_function()
        sites = find_launch_sites(func.program)
        assert len(sites) == 1
        site = sites[0]
        assert site.kernel == "child"
        assert site.block_size == BS
        assert site.work is not None  # the counts[i] register

    def test_no_sites_in_child(self):
        assert find_launch_sites(child_function().program) == []


class TestWrappable:
    def test_child_is_wrappable_both_flavors(self):
        func = child_function()
        assert wrappable(func, "agg")
        assert wrappable(func, "cons")

    def test_barrier_blocks_cons(self):
        k = KernelBuilder("barrier_child")
        k.param()
        k.bar()
        k.exit()
        func = KernelFunction("barrier_child", k.build())
        assert not wrappable(func, "cons")

    def test_summary_reports_specials(self):
        summary = summarize_body(child_function().program)
        assert summary.trailing_exit
        assert not summary.has_bar


class TestSerialize:
    def test_small_launches_become_inline_loops(self, serial_threshold):
        parent = parent_function()
        kernels = {"child": child_function()}
        serial_threshold(1 << 30)  # serialize all
        program = serialize_small_launches(
            parent.program.definalize(), kernels
        )
        counts = [5, 0, 17, 31]
        transformed = [KernelFunction("parent", program), kernels["child"]]
        out, stats, _ = run_kernels(transformed, counts)
        np.testing.assert_array_equal(out, expected_output(counts))
        # Every pocket is under the threshold: no device launch remains.
        assert len(stats.dynamic_launches()) == 0


class TestSerializeLocalMemory:
    """An inlined child runs in its parent's thread: a child with local
    memory must stay a launch, or its words overwrite the parent's."""

    @staticmethod
    def kernels():
        child = KernelBuilder("child")
        child.stl(0, 99)
        child.exit()
        k = KernelBuilder("parent")
        gtid = k.gtid()
        param = k.param()
        k.stl(0, k.iadd(gtid, 7))
        buf = k.get_param_buffer(1)
        k.st(buf, 0)
        count = k.mov(4)  # a 4-item launch: under the threshold
        blocks = k.idiv(k.iadd(count, BS - 1), BS)
        k.stream_create()
        k.launch_device("child", buf, grid=blocks, block=BS)
        k.st(k.iadd(k.ld(param), gtid), k.ldl(0))
        k.exit()
        return [
            KernelFunction("parent", k.build(), local_words=1),
            KernelFunction("child", child.build(), local_words=1),
        ]

    @pytest.mark.parametrize("mode", ["cdp", "cdpa", "cons"])
    def test_parent_local_word_survives_the_child(self, mode):
        kernels = self.kernels()
        if mode != "cdp":
            kernels = transform_kernels(kernels, mode)
        with Device(config=GPUConfig.k20c(), mode=ExecutionMode.CDP) as dev:
            for func in kernels:
                dev.register(func)
            dst = dev.alloc(4)
            dev.launch("parent", grid=1, block=4, params=[dst])
            dev.synchronize()
            out = dev.download_ints(dst, 4)
        np.testing.assert_array_equal(out, [7, 8, 9, 10])

    def test_a_child_with_local_memory_is_not_inlined(self):
        parent, child = self.kernels()
        program = parent.program.definalize()
        assert serialize_small_launches(program, {"child": child}) is program


class TestPipeline:
    @pytest.mark.parametrize("mode", ["cdpa", "cons"])
    def test_output_matches_plain_cdp(self, mode, serial_threshold):
        counts = [5, 40, 63, 32, 1, 77, 40]
        baseline, base_stats, _ = run_kernels(
            [parent_function(), child_function()], counts
        )
        np.testing.assert_array_equal(baseline, expected_output(counts))

        serial_threshold(0)  # isolate the aggregation
        transformed = transform_kernels([parent_function(), child_function()], mode)
        out, stats, report = run_kernels(transformed, counts, sanitize=True)
        np.testing.assert_array_equal(out, baseline)
        assert report.clean
        # One batched launch replaces the per-thread launches.
        assert len(stats.dynamic_launches()) <= 1
        # Plain CDP issues one launch per parent thread.
        assert len(base_stats.dynamic_launches()) == len(counts)

    @pytest.mark.parametrize("mode", ["cdpa", "cons"])
    def test_empty_pocket_folds_into_the_batch(self, mode, serial_threshold):
        """An empty pocket's launch has a zero grid, which plain CDP
        refuses at issue as CUDA does; the aggregated rewrites stage it
        with no work and launch only the others' blocks."""
        counts = [5, 40, 0, 63, 32, 1, 77, 40]
        with pytest.raises(LaunchError, match="launch dims must be positive"):
            run_kernels([parent_function(), child_function()], counts)

        serial_threshold(0)  # isolate the aggregation
        transformed = transform_kernels([parent_function(), child_function()], mode)
        out, stats, report = run_kernels(transformed, counts, sanitize=True)
        np.testing.assert_array_equal(out, expected_output(counts))
        assert report.clean
        assert len(stats.dynamic_launches()) == 1

    def test_consolidation_packs_blocks_denser(self, serial_threshold):
        # 8 pockets of 5 items: cdpa keeps one block per pocket (8 blocks),
        # cons repacks 40 items into ceil(40/32) = 2 blocks.
        counts = [5] * 8
        serial_threshold(0)
        blocks = {}
        for mode in ("cdpa", "cons"):
            transformed = transform_kernels([parent_function(), child_function()], mode)
            out, stats, _ = run_kernels(transformed, counts)
            np.testing.assert_array_equal(out, expected_output(counts))
            launches = stats.dynamic_launches()
            assert len(launches) == 1
            blocks[mode] = sum(r.total_blocks for r in launches)
        assert blocks["cdpa"] == 8
        assert blocks["cons"] == 2

    def test_overflow_degrades_to_plain_launches(self, serial_threshold, monkeypatch):
        # Capacity 2 forces every pocket past the staging table to take
        # the plain-CDP overflow path; output must still be exact.
        counts = [40, 40, 40, 40, 40, 40]
        serial_threshold(0)
        monkeypatch.setattr(aggregate, "STAGING_CAPACITY", 2)
        transformed = transform_kernels([parent_function(), child_function()], "cdpa")
        out, stats, report = run_kernels(transformed, counts, sanitize=True)
        np.testing.assert_array_equal(out, expected_output(counts))
        assert report.clean
        # 1 batched launch for the 2 staged pockets + 4 overflow launches.
        assert len(stats.dynamic_launches()) == 5

    def test_serialization_threshold_applies_under_cdpa(self, serial_threshold):
        counts = [3, 2, 4, 1]  # all under the threshold
        serial_threshold(8)
        transformed = transform_kernels([parent_function(), child_function()], "cdpa")
        out, stats, _ = run_kernels(transformed, counts)
        np.testing.assert_array_equal(out, expected_output(counts))
        assert len(stats.dynamic_launches()) == 0

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            transform_kernels([child_function()], "dtbl")

    def test_accepts_execution_mode_values(self):
        transformed = transform_kernels(
            [parent_function(), child_function()], ExecutionMode.CDP_AGG
        )
        names = {func.name for func in transformed}
        assert names == {"parent", "child", "child__agg"}
