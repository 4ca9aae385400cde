"""Sweep engine: parallel/serial parity, crash retry, fallback, and the
resident worker it shares with the ``repro.serve`` daemon."""

import multiprocessing
import os
import struct
import subprocess
import sys

import pytest

from repro.errors import WorkloadError
from repro.exec import JobSpec, SweepEngine, SweepError, pool, run_job
from repro.runtime import ExecutionMode

SCALE = 0.08


def _jobs(*pairs):
    return [
        JobSpec.create(name, mode, SCALE, 0.25)
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
        assert engine.stats.worker_spawns == 2  # the one that died, its replacement
        assert payload["stats"] == serial_payloads[0]["stats"]

    def test_retries_exhausted_falls_back_in_process(self, monkeypatch,
                                                     serial_payloads):
        """Workers that always die degrade to in-process execution."""
        monkeypatch.setenv("REPRO_EXEC_TEST_CRASH", "always")
        engine = SweepEngine(max_workers=2)
        (payload,) = engine.run(_jobs(GRID[0]))
        assert engine.stats.retries == pool.RETRIES
        assert engine.stats.fallbacks == 1
        assert engine.stats.in_process == 1
        assert payload["stats"] == serial_payloads[0]["stats"]

    def test_pool_creation_failure_falls_back(self, monkeypatch,
                                              serial_payloads):
        def broken_spawn(siblings):
            raise OSError("no processes for you")

        monkeypatch.setattr(pool.Worker, "spawn", broken_spawn)
        engine = SweepEngine(max_workers=2)
        results = engine.run(_jobs(*GRID[:2]))
        assert engine.stats.in_process == 2
        assert engine.stats.fallbacks == 2
        assert [p["stats"] for p in results] == [
            p["stats"] for p in serial_payloads[:2]
        ]

    def test_simulation_errors_propagate_not_retried(self):
        """Deterministic workload failures are not infrastructure."""
        engine = SweepEngine(max_workers=2)
        bad = [JobSpec.create("no_such_benchmark", ExecutionMode.FLAT,
                               SCALE, 0.25)]
        with pytest.raises(WorkloadError):
            engine.run(bad)
        assert engine.stats.retries == 0


FLAT_FIVE = [
    (name, ExecutionMode.FLAT)
    for name in ("bfs_citation", "amr", "bht", "clr_citation", "sssp_citation")
]


def _done(events):
    """benchmark -> its ``done`` events."""
    done = {}
    for event in events:
        if event.kind == "done":
            done.setdefault(event.job.benchmark, []).append(event)
    return done


def _explode_on(benchmark):
    """A ``run_job`` stand-in that raises an exception which does not
    pickle for ``benchmark``'s jobs and runs every other job."""
    class Local(Exception):  # local classes cannot be pickled
        pass

    def run(spec, on_checkpoint=None):
        if spec.benchmark == benchmark:
            raise Local("boom")
        return run_job(spec, on_checkpoint=on_checkpoint)

    return run


class TestOneWorkerPerJob:
    """Each worker is its own process behind its own pipe, so a death is
    one job's business and a worker outlives its job."""

    def test_a_crash_is_charged_to_the_job_whose_worker_died(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXEC_TEST_CRASH", "always:bht")
        events = []
        engine = SweepEngine(max_workers=2)
        engine.run(_jobs(*FLAT_FIVE), progress=events.append)
        assert engine.stats.retries == pool.RETRIES and engine.stats.fallbacks == 1
        done = _done(events)
        (bht,) = done.pop("bht")
        assert (bht.source, bht.attempts) == ("in-process", pool.RETRIES + 2)
        assert len(done) == 4
        for (event,) in done.values():
            assert (event.source, event.attempts) == ("worker", 1)

    def test_sweep_error_names_the_job_that_failed(self, monkeypatch):
        monkeypatch.setattr(pool, "run_job", _explode_on("bht"))  # forked workers inherit it
        for _ in range(4):
            with pytest.raises(SweepError, match="job bht/flat failed: Local: boom"):
                SweepEngine(max_workers=2).run(_jobs(*FLAT_FIVE))

    def test_workers_are_reused_job_after_job(self):
        engine = SweepEngine(max_workers=2)
        engine.run(_jobs(*GRID, *FLAT_FIVE[1:]))
        assert engine.stats.from_workers == 8
        assert engine.stats.worker_spawns == 2

    def test_exception_that_does_not_pickle_still_fails_the_sweep(
        self, monkeypatch
    ):
        monkeypatch.setattr(pool, "run_job", _explode_on("bfs_citation"))
        with pytest.raises(SweepError, match="bfs_citation/flat failed: Local: boom"):
            SweepEngine(max_workers=2).run(_jobs(GRID[0]))


class TestNothingOutlivesASweep:
    """No worker process and no pipe end survives ``run``, however it ends."""

    @staticmethod
    def _open_fds():
        return sorted(os.listdir("/proc/self/fd"))

    def _assert_clean(self, before):
        assert multiprocessing.active_children() == []
        assert self._open_fds() == before

    def test_after_it_returns(self):
        before = self._open_fds()
        SweepEngine(max_workers=2).run(_jobs(*GRID))
        self._assert_clean(before)

    def test_after_a_job_raised(self):
        before = self._open_fds()
        bad = JobSpec.create("no_such_benchmark", ExecutionMode.FLAT, SCALE, 0.25)
        with pytest.raises(WorkloadError):
            SweepEngine(max_workers=2).run(_jobs(*GRID[:2]) + [bad])
        self._assert_clean(before)

    def test_after_the_sweep_failed(self, monkeypatch):
        monkeypatch.setattr(pool, "run_job", _explode_on("bht"))
        before = self._open_fds()
        with pytest.raises(SweepError):
            SweepEngine(max_workers=2).run(_jobs(*GRID))
        self._assert_clean(before)


class TestWorkerPlumbing:
    def test_truncated_outcome_is_no_outcome(self):
        """A worker killed mid-``send`` leaves a header and part of a
        body; its owner must read that as death, not as a result."""
        ours, theirs = multiprocessing.get_context("fork").Pipe()
        theirs.send({"ok": True, "payload": {}, "checkpoints": 0})
        worker = pool.Worker(proc=None, conn=ours)
        assert worker.outcome() == {"ok": True, "payload": {}, "checkpoints": 0}
        assert worker.outcome() is None  # nothing waiting
        os.write(theirs.fileno(), struct.pack("!i", 1000) + b"x" * 10)
        theirs.close()
        assert worker.outcome() is None
        ours.close()

    def test_outcome_says_what_the_cadence_cost(self, tmp_path, monkeypatch):
        """``checkpoint_ms``: host time inside capture + save, beside the
        count; the test hook's sleep at each checkpoint is off that clock."""
        # A sanitized checkpoint scans fifteen whole arrays (~25 ms): the
        # sleep is long enough to tell from that on a loaded host too.
        monkeypatch.setenv("REPRO_SERVE_TEST_CKPT_SLEEP", "0.2")
        worker = pool.Worker.spawn([])
        try:
            plain = JobSpec.create("bht", ExecutionMode.FLAT, SCALE, 0.25)
            for spec in (
                plain.with_policy(checkpoint_every=8_000, checkpoint_dir=str(tmp_path)),
                plain,
            ):
                worker.conn.send(spec)
                assert worker.conn.poll(120)
                outcome = worker.outcome()
                assert outcome["ok"]
                if spec.checkpoint_every:
                    assert outcome["checkpoints"] >= 2
                    assert 0 < outcome["checkpoint_ms"] < 200 * outcome["checkpoints"]
                else:  # per attempt, not per worker
                    assert outcome["checkpoints"] == 0 == outcome["checkpoint_ms"]
        finally:
            worker.retire()

    def test_importing_repro_leaves_executors_and_asyncio_out(self):
        script = (
            "import sys, repro\n"
            "heavy = {'concurrent.futures', 'asyncio'} & set(sys.modules)\n"
            "assert not heavy, heavy\n"
        )
        subprocess.run([sys.executable, "-c", script], check=True, timeout=60)


class TestWorkerEntry:
    """The one per-job function every worker runs, whoever owns it."""

    def test_on_checkpoint_observes_and_the_crash_hook_still_fires_after_it(
        self, tmp_path, monkeypatch
    ):
        seen, fired = [], []
        monkeypatch.setattr(
            pool, "_test_ckpt_crash_hook",
            lambda: lambda doc: fired.append(len(seen)),
        )
        job = JobSpec.create(
            "bht", ExecutionMode.FLAT, SCALE, 0.25,
            checkpoint_every=4000, checkpoint_dir=str(tmp_path),
        )
        payload = pool._worker_entry(job, on_checkpoint=seen.append)
        assert seen and fired == list(range(1, len(seen) + 1))
        assert payload["stats"] == run_job(job).to_payload()["stats"]

    def test_crash_always_can_be_scoped_to_one_benchmark(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXEC_TEST_CRASH", "always:amr")
        (job,) = _jobs(("bht", ExecutionMode.FLAT))
        pool._test_fault_hook(job)  # not amr: returns instead of exiting
