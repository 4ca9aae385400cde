"""Exact serialization round trips for SimStats and its components."""

import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.config import GPUConfig
from repro.exec import JobResult, ResultCache
from repro.memory.coalescing import CoalescingStats
from repro.memory.dram import DramStats
from repro.runtime import ExecutionMode
from repro.sim.sanitizer import SanitizerFinding, SanitizerReport
from repro.sim.stats import (
    LAUNCH_FIELDS,
    LaunchKind,
    LaunchRecord,
    SimStats,
    launch_columns,
    launch_records,
)
from repro.workloads import get_benchmark


def json_round_trip(data: dict) -> dict:
    return json.loads(json.dumps(data))


class TestSimStatsRoundTrip:
    @pytest.mark.parametrize("mode", [
        ExecutionMode.FLAT, ExecutionMode.CDP, ExecutionMode.DTBL,
    ])
    def test_real_run_exact(self, mode):
        """to_dict -> JSON -> from_dict -> to_dict is the identity."""
        workload = get_benchmark("bfs_citation", mode, 0.08)
        stats = workload.execute(latency_scale=0.25).stats
        data = stats.to_dict()
        rebuilt = SimStats.from_dict(json_round_trip(data))
        assert rebuilt.to_dict() == data
        # Derived metrics (what the figures consume) follow exactly.
        assert rebuilt.summary() == stats.summary()
        assert rebuilt.config == stats.config
        assert len(rebuilt.launches) == len(stats.launches)
        assert [r.kind for r in rebuilt.launches] == [
            r.kind for r in stats.launches
        ]

    def test_nested_counters_preserved(self):
        workload = get_benchmark("bht", ExecutionMode.DTBL, 0.08)
        stats = workload.execute(latency_scale=0.25).stats
        rebuilt = SimStats.from_dict(json_round_trip(stats.to_dict()))
        assert rebuilt.dram.to_dict() == stats.dram.to_dict()
        assert rebuilt.coalescing.to_dict() == stats.coalescing.to_dict()
        assert (rebuilt.coalescing.histogram == stats.coalescing.histogram).all()
        assert rebuilt.dram.efficiency == stats.dram.efficiency


class TestComponentRoundTrips:
    def test_launch_record_with_nones(self):
        record = LaunchRecord(
            kind=LaunchKind.AGG_GROUP,
            kernel_name="child",
            launch_cycle=10,
            total_blocks=4,
            total_threads=128,
            param_bytes=64,
            record_bytes=256,
            first_exec_cycle=None,
            fully_distributed_cycle=None,
            completed_cycle=None,
        )
        (rebuilt,) = launch_records(json_round_trip(launch_columns([record])))
        assert rebuilt == record
        assert rebuilt.waiting_cycles is None

    def test_launch_record_completed(self):
        record = LaunchRecord(
            kind=LaunchKind.DEVICE_KERNEL, kernel_name="k",
            launch_cycle=5, total_blocks=1, total_threads=32,
            first_exec_cycle=40, fully_distributed_cycle=41,
            completed_cycle=99,
        )
        columns = launch_columns([record])
        assert columns["kind"] == ["device_kernel"]
        assert columns["completed_cycle"] == [99]
        (rebuilt,) = launch_records(json_round_trip(columns))
        assert rebuilt == record
        assert rebuilt.waiting_cycles == 35

    def test_dram_stats(self):
        stats = DramStats(n_read=10, n_write=4, row_hits=8, row_misses=6,
                          n_activity=50)
        rebuilt = DramStats.from_dict(json_round_trip(stats.to_dict()))
        assert rebuilt == stats
        assert rebuilt.efficiency == stats.efficiency

    def test_coalescing_stats(self):
        stats = CoalescingStats()
        stats.record(lanes=32, transactions=2)
        stats.record(lanes=7, transactions=7)
        rebuilt = CoalescingStats.from_dict(json_round_trip(stats.to_dict()))
        assert rebuilt.to_dict() == stats.to_dict()
        assert rebuilt.average_transactions == stats.average_transactions

    def test_coalescing_histogram_shape_checked(self):
        data = CoalescingStats().to_dict()
        data["histogram"] = [0, 1, 2]
        with pytest.raises(ValueError):
            CoalescingStats.from_dict(data)


#: Any counter or cycle a 64-bit signed int holds.
_count = st.integers(min_value=0, max_value=2**63 - 1)
_maybe_cycle = st.none() | _count
_records = st.lists(
    st.builds(
        LaunchRecord,
        kind=st.sampled_from(LaunchKind),
        kernel_name=st.text(max_size=8),
        launch_cycle=_count,
        total_blocks=st.integers(1, 2**16),
        total_threads=st.integers(1, 2**20),
        param_bytes=st.integers(0, 2**12),
        record_bytes=st.integers(0, 2**12),
        first_exec_cycle=_maybe_cycle,
        fully_distributed_cycle=_maybe_cycle,
        completed_cycle=_maybe_cycle,
    ),
    max_size=12,
)
_EVERY_KIND = [
    LaunchRecord(kind, "k", 7, 2, 64, 8, 16, *cycles)
    for kind in LaunchKind
    for cycles in ((None, 9, 11), (8, None, 11), (8, 9, None), (None, None, None))
]


class TestLaunchColumns:
    """The launch table as columns: exact round trip, and every shape
    of bad table refused rather than misread."""

    @settings(max_examples=40, deadline=None)
    @given(_records)
    @example([])
    @example(_EVERY_KIND)
    def test_stats_with_random_launches_round_trip(self, records):
        stats = SimStats(GPUConfig())
        stats.launches = records
        data = stats.to_dict()
        assert set(data["launches"]) == set(LAUNCH_FIELDS)
        rebuilt = SimStats.from_dict(json_round_trip(data))
        assert rebuilt.launches == records  # kind compares as the enum member
        assert rebuilt.to_dict() == data

    def _columns(self):
        return json_round_trip(launch_columns(_EVERY_KIND))

    def test_missing_column(self):
        columns = self._columns()
        del columns["fully_distributed_cycle"]
        with pytest.raises(ValueError, match="not one column per LaunchRecord field"):
            launch_records(columns)

    def test_columns_of_unequal_length(self):
        columns = self._columns()
        columns["completed_cycle"].pop()
        with pytest.raises(ValueError, match="differ in length"):
            launch_records(columns)

    def test_unknown_kind(self):
        columns = self._columns()
        columns["kind"][3] = "warp_kernel"
        with pytest.raises(ValueError, match="unknown launch kind 'warp_kernel'"):
            launch_records(columns)

    def test_list_of_objects_layout(self):
        """What ``launches`` held before the table became columns."""
        rows = [dict(zip(LAUNCH_FIELDS, row)) for row in zip(*self._columns().values())]
        with pytest.raises(ValueError, match="not one column per LaunchRecord field"):
            launch_records(rows)
        data = SimStats(GPUConfig()).to_dict()
        data["launches"] = rows
        with pytest.raises(ValueError):
            SimStats.from_dict(data)


@st.composite
def _payloads(draw) -> dict:
    """A random ``JobResult.to_payload()``: every counter up to 2**63 - 1."""
    stats = SimStats(GPUConfig())
    for name in SimStats._COUNTER_FIELDS:
        setattr(stats, name, draw(_count))
    stats.coalescing = CoalescingStats.from_dict({
        "warp_accesses": draw(_count), "transactions": draw(_count),
        "lanes": draw(_count),
        "histogram": draw(st.lists(_count, min_size=33, max_size=33)),
    })
    stats.dram = DramStats(*(draw(_count) for _ in range(5)))
    stats.launches = draw(_records)
    wall = draw(st.floats(allow_nan=False, allow_infinity=False))
    return JobResult(stats, wall_seconds=wall).to_payload()


class TestCacheRoundTrip:
    """What the result cache stores is what it loads, for any payload."""

    @pytest.fixture(scope="class")
    def cache(self, tmp_path_factory):
        return ResultCache(tmp_path_factory.mktemp("cache"))

    @settings(max_examples=60, deadline=None)
    @given(payload=_payloads())
    def test_load_of_store_is_the_payload(self, cache, payload):
        key = "ab" * 32
        cache.store(key, payload)
        loaded = cache.load(key)
        assert loaded == payload
        rebuilt = JobResult.from_payload(loaded)
        assert rebuilt.to_payload() == payload
        assert rebuilt.wall_seconds == payload["wall_seconds"]


class TestSanitizerReportRoundTrip:
    def _finding(self, kind="data-race", pc=7):
        return SanitizerFinding(
            kind=kind, cycle=123, smx=2, kernel="bfs_child", pc=pc,
            address=4096, lanes=(0, 3, 31), detail="conflicting store",
        )

    def test_empty_report(self):
        report = SanitizerReport()
        rebuilt = SanitizerReport.from_dict(json_round_trip(report.to_dict()))
        assert rebuilt.clean
        assert rebuilt.to_dict() == report.to_dict()

    def test_report_with_findings(self):
        report = SanitizerReport(max_records=8)
        report.add(self._finding())
        report.add(self._finding())  # same site: counted, not re-recorded
        report.add(self._finding(kind="oob", pc=9))
        rebuilt = SanitizerReport.from_dict(json_round_trip(report.to_dict()))
        assert rebuilt.to_dict() == report.to_dict()
        assert rebuilt.counts == {"data-race": 2, "oob": 1}
        assert len(rebuilt.findings) == 2
        assert rebuilt.findings[0] == report.findings[0]
        assert not rebuilt.clean
        assert rebuilt.total() == 3

    def test_site_dedup_survives_round_trip(self):
        report = SanitizerReport()
        report.add(self._finding())
        rebuilt = SanitizerReport.from_dict(json_round_trip(report.to_dict()))
        rebuilt.add(self._finding())  # same site again
        assert len(rebuilt.findings) == 1
        assert rebuilt.counts["data-race"] == 2

    def test_sanitized_run_report_round_trips(self):
        """A real sanitized simulation's report serializes exactly."""
        config = GPUConfig(sanitize=True)
        workload = get_benchmark("bfs_citation", ExecutionMode.DTBL, 0.08)
        result = workload.execute(config=config, latency_scale=0.25)
        assert result.sanitizer is not None
        assert result.sanitizer.clean
        rebuilt = SanitizerReport.from_dict(
            json_round_trip(result.sanitizer.to_dict())
        )
        assert rebuilt.to_dict() == result.sanitizer.to_dict()

    def test_unsanitized_run_has_no_report(self, monkeypatch):
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        workload = get_benchmark("bfs_citation", ExecutionMode.FLAT, 0.08)
        result = workload.execute(latency_scale=0.25)
        assert result.sanitizer is None
