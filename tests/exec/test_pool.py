"""Sweep engine: parallel/serial parity, crash retry, fallback, timeout."""

import pytest

from repro.errors import WorkloadError
from repro.exec import SweepEngine, SweepError, SweepJob, run_job
from repro.runtime import ExecutionMode

SCALE = 0.08


def _jobs(*pairs):
    return [
        SweepJob.create(name, mode, SCALE, 0.25)
        for name, mode in pairs
    ]


GRID = [
    ("bfs_citation", ExecutionMode.FLAT),
    ("bfs_citation", ExecutionMode.DTBL),
    ("bht", ExecutionMode.FLAT),
    ("bht", ExecutionMode.CDP),
]


@pytest.fixture(scope="module")
def serial_payloads():
    return [run_job(job).to_payload() for job in _jobs(*GRID)]


class TestParity:
    def test_parallel_bit_identical_to_serial(self, serial_payloads):
        engine = SweepEngine(max_workers=2)
        parallel = engine.run(_jobs(*GRID))
        assert [p["stats"] for p in parallel] == [
            p["stats"] for p in serial_payloads
        ]
        assert engine.stats.completed == len(GRID)
        assert engine.stats.from_workers == len(GRID)

    def test_single_worker_runs_in_process(self, serial_payloads):
        engine = SweepEngine(max_workers=1)
        results = engine.run(_jobs(*GRID))
        assert engine.stats.in_process == len(GRID)
        assert engine.stats.from_workers == 0
        assert [p["stats"] for p in results] == [
            p["stats"] for p in serial_payloads
        ]

    def test_results_in_input_order(self, serial_payloads):
        engine = SweepEngine(max_workers=3)
        shuffled = _jobs(*GRID[::-1])
        results = engine.run(shuffled)
        assert [p["stats"] for p in results] == [
            p["stats"] for p in serial_payloads[::-1]
        ]

    def test_empty_sweep(self):
        assert SweepEngine(max_workers=2).run([]) == []

    def test_progress_events(self):
        events = []
        engine = SweepEngine(max_workers=2)
        engine.run(_jobs(*GRID), progress=events.append)
        done = [e for e in events if e.kind == "done"]
        assert len(done) == len(GRID)
        assert sorted(e.completed for e in done) == [1, 2, 3, 4]
        assert all(e.total == len(GRID) for e in done)


class TestFaultHandling:
    def test_crashed_worker_is_retried(self, tmp_path, monkeypatch,
                                       serial_payloads):
        """A worker that dies once costs a retry, not the sweep."""
        monkeypatch.setenv(
            "REPRO_EXEC_TEST_CRASH", str(tmp_path / "sentinel")
        )
        engine = SweepEngine(max_workers=2)
        (payload,) = engine.run(_jobs(GRID[0]))
        assert engine.stats.retries >= 1
        assert engine.stats.pool_rebuilds >= 1
        assert payload["stats"] == serial_payloads[0]["stats"]

    def test_retries_exhausted_falls_back_in_process(self, monkeypatch,
                                                     serial_payloads):
        """Workers that always die degrade to in-process execution."""
        monkeypatch.setenv("REPRO_EXEC_TEST_CRASH", "always")
        engine = SweepEngine(max_workers=2, max_retries=1)
        (payload,) = engine.run(_jobs(GRID[0]))
        assert engine.stats.fallbacks >= 1
        assert engine.stats.in_process == 1
        assert payload["stats"] == serial_payloads[0]["stats"]

    def test_fallback_disabled_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXEC_TEST_CRASH", "always")
        engine = SweepEngine(max_workers=2, max_retries=0, fallback=False)
        with pytest.raises(SweepError):
            engine.run(_jobs(GRID[0]))

    def test_pool_creation_failure_falls_back(self, serial_payloads):
        def broken_factory():
            raise OSError("no processes for you")

        engine = SweepEngine(max_workers=2, executor_factory=broken_factory)
        results = engine.run(_jobs(*GRID[:2]))
        assert engine.stats.in_process == 2
        assert engine.stats.fallbacks == 2
        assert [p["stats"] for p in results] == [
            p["stats"] for p in serial_payloads[:2]
        ]

    def test_job_timeout_recovers(self, monkeypatch, serial_payloads):
        """A hung worker is killed and the job completes in-process."""
        monkeypatch.setenv("REPRO_EXEC_TEST_HANG", "30")
        engine = SweepEngine(
            max_workers=2, job_timeout=0.4, max_retries=0
        )
        (payload,) = engine.run(_jobs(GRID[0]))
        assert engine.stats.timeouts >= 1
        assert engine.stats.in_process == 1
        assert payload["stats"] == serial_payloads[0]["stats"]

    def test_simulation_errors_propagate_not_retried(self):
        """Deterministic workload failures are not infrastructure."""
        engine = SweepEngine(max_workers=2)
        bad = [SweepJob.create("no_such_benchmark", ExecutionMode.FLAT,
                               SCALE, 0.25)]
        with pytest.raises(WorkloadError):
            engine.run(bad)
        assert engine.stats.retries == 0


class TestWorkerEntry:
    """The one per-job function pool workers and daemon workers share."""

    def test_on_checkpoint_observes_and_the_crash_hook_still_fires_after_it(
        self, tmp_path, monkeypatch
    ):
        from repro.exec import pool

        seen, fired = [], []
        monkeypatch.setattr(
            pool, "_test_ckpt_crash_hook",
            lambda: lambda doc: fired.append(len(seen)),
        )
        job = SweepJob.create(
            "bht", ExecutionMode.FLAT, SCALE, 0.25,
            checkpoint_every=4000, checkpoint_dir=str(tmp_path),
        )
        payload = pool._worker_entry(job, on_checkpoint=seen.append)
        assert seen and fired == list(range(1, len(seen) + 1))
        assert payload["stats"] == run_job(job).to_payload()["stats"]

    def test_crash_always_can_be_scoped_to_one_benchmark(self, monkeypatch):
        from repro.exec import pool

        monkeypatch.setenv("REPRO_EXEC_TEST_CRASH", "always:amr")
        (job,) = _jobs(("bht", ExecutionMode.FLAT))
        pool._test_fault_hook(job)  # not amr: returns instead of exiting
