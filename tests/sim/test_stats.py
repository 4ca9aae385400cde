"""Statistics bookkeeping."""

import pytest

from repro.config import CDP_PENDING_KERNEL_BYTES, DTBL_PENDING_GROUP_BYTES, GPUConfig
from repro.sim.stats import LaunchKind, LaunchRecord, SimStats


class TestLaunchRecord:
    def test_waiting_cycles(self):
        record = LaunchRecord(LaunchKind.AGG_GROUP, "k", 100, 2, 64)
        assert record.waiting_cycles is None
        record.first_exec_cycle = 180
        assert record.waiting_cycles == 80

    def test_pending_bytes(self):
        record = LaunchRecord(
            LaunchKind.DEVICE_KERNEL, "k", 0, 1, 32, param_bytes=56, record_bytes=2048
        )
        assert record.pending_bytes == 2104


class TestSimStats:
    def setup_method(self):
        self.stats = SimStats(GPUConfig.k20c())

    def test_warp_activity(self):
        self.stats.record_issue(32)
        self.stats.record_issue(16)
        assert self.stats.warp_activity_pct == pytest.approx(75.0)

    def test_warp_activity_empty(self):
        assert self.stats.warp_activity_pct == 0.0

    def test_footprint_peak(self):
        stats = self.stats
        host = stats.open_launch(LaunchKind.HOST_KERNEL, "k", 0, (4, 1, 1), (64, 1, 1))
        kernel = stats.open_launch(
            LaunchKind.DEVICE_KERNEL, "k", 5, (3, 1, 1), (32, 1, 1), param_bytes=24
        )
        group = stats.open_launch(LaunchKind.AGG_GROUP, "k", 7, (2, 2, 1), (32, 1, 1), 16)
        assert stats.launches == [host, kernel, group]
        assert (host.total_blocks, host.total_threads) == (4, 256)
        assert (group.total_blocks, group.total_threads) == (4, 128)
        assert [r.record_bytes for r in stats.launches] == [
            0, CDP_PENDING_KERNEL_BYTES, DTBL_PENDING_GROUP_BYTES,
        ]
        peak = CDP_PENDING_KERNEL_BYTES + 24 + DTBL_PENDING_GROUP_BYTES + 16
        assert stats.footprint_bytes == stats.peak_footprint_bytes == peak

        stats.launch_distributed(kernel, 9)
        assert kernel.fully_distributed_cycle == 9
        assert stats.footprint_bytes == DTBL_PENDING_GROUP_BYTES + 16
        stats.launch_distributed(kernel, 12)  # a second call releases nothing
        assert kernel.fully_distributed_cycle == 9
        assert stats.footprint_bytes == DTBL_PENDING_GROUP_BYTES + 16
        stats.launch_distributed(host, 12)
        stats.launch_distributed(group, 13)
        assert stats.footprint_bytes == 0
        assert stats.peak_footprint_bytes == peak

    def test_occupancy(self):
        cfg = GPUConfig.k20c()
        self.stats.cycles = 100
        full = 100 * cfg.num_smx * cfg.max_resident_warps
        self.stats.resident_warp_cycles = full // 2
        assert self.stats.smx_occupancy_pct == pytest.approx(50.0)

    def test_avg_waiting_ignores_unstarted(self):
        r1 = LaunchRecord(LaunchKind.AGG_GROUP, "k", 0, 1, 32)
        r1.first_exec_cycle = 40
        r2 = LaunchRecord(LaunchKind.AGG_GROUP, "k", 0, 1, 32)  # never ran
        host = LaunchRecord(LaunchKind.HOST_KERNEL, "k", 0, 1, 32)
        host.first_exec_cycle = 1000
        self.stats.launches.extend([r1, r2, host])
        assert self.stats.avg_waiting_cycles == 40.0  # host excluded

    def test_match_rate(self):
        self.stats.agg_matched = 98
        self.stats.agg_unmatched = 2
        assert self.stats.agg_match_rate == pytest.approx(0.98)

    def test_launches_by_kernel(self):
        host = LaunchRecord(LaunchKind.HOST_KERNEL, "parent", 0, 4, 512)
        child1 = LaunchRecord(LaunchKind.AGG_GROUP, "child", 10, 2, 64)
        child1.first_exec_cycle = 30
        child2 = LaunchRecord(LaunchKind.DEVICE_KERNEL, "child", 20, 1, 32)
        child2.first_exec_cycle = 60
        self.stats.launches.extend([host, child1, child2])
        rollup = self.stats.launches_by_kernel()
        assert rollup["parent"]["host"] == 1
        assert rollup["child"]["agg"] == 1
        assert rollup["child"]["device"] == 1
        assert rollup["child"]["blocks"] == 3
        assert rollup["child"]["avg_wait"] == pytest.approx(30.0)
        assert rollup["parent"]["avg_wait"] == 0.0

    def test_summary_keys(self):
        summary = self.stats.summary()
        for key in (
            "cycles",
            "warp_activity_pct",
            "dram_efficiency",
            "smx_occupancy_pct",
            "avg_waiting_cycles",
            "peak_footprint_bytes",
            "dynamic_launches",
            "agg_match_rate",
        ):
            assert key in summary
