"""Harness runner: job resolution, in-call de-dup, cache + pool wiring."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

from repro.config import GPUConfig
from repro.errors import WorkloadError
from repro.exec import JobResult, JobSpec, ResultCache, SweepEngine
from repro.exec import pool as pool_module
from repro.harness import Cells, Needs
from repro.harness.runner import DEFAULT_LATENCY_SCALE, run_jobs
from repro.runtime import ExecutionMode
from repro.workloads import benchmark_names


SCALE = 0.08  # tiny datasets: the grid tests stay fast
REPO = pathlib.Path(__file__).resolve().parent.parent.parent


def spec(name, mode, scale=SCALE, latency_scale=DEFAULT_LATENCY_SCALE, config=None):
    return JobSpec.create(name, mode, scale, latency_scale, config=config)


def run_one(name, mode, cache=None):
    return run_jobs([spec(name, mode)], cache=cache)[0]


class TestRunBenchmark:
    def test_returns_run(self):
        run = run_one("bfs_citation", ExecutionMode.FLAT)
        assert isinstance(run, JobResult)
        assert run.cycles > 0
        assert run.wall_seconds >= 0

    def test_memoized(self):
        """Within one call a fingerprint is simulated once and shared."""
        job = spec("bfs_citation", ExecutionMode.FLAT)
        first, second = run_jobs([job, job])
        assert first is second

    def test_unknown_benchmark(self):
        with pytest.raises(WorkloadError):
            run_one("nope", ExecutionMode.FLAT)

    def test_memo_key_includes_latency_scale(self):
        """Jobs differing only in latency scale never alias."""
        slow, fast = run_jobs([
            spec("bfs_citation", ExecutionMode.CDP, latency_scale=0.25),
            spec("bfs_citation", ExecutionMode.CDP, latency_scale=0.05),
        ])
        assert slow is not fast
        assert slow.cycles != fast.cycles

    def test_memo_key_includes_dataset_scale(self):
        small, smaller = run_jobs([
            spec("bht", ExecutionMode.FLAT), spec("bht", ExecutionMode.FLAT, SCALE / 2),
        ])
        assert small is not smaller
        assert small.cycles != smaller.cycles

    def test_none_config_aliases_explicit_default(self):
        """config=None and the default config are one job."""
        implicit, explicit = run_jobs([
            spec("bht", ExecutionMode.FLAT),
            spec("bht", ExecutionMode.FLAT, config=GPUConfig.k20c()),
        ])
        assert implicit is explicit


#: Flat at the run's latency scale, DTBL at the ideal rung (the paper's DTBLI).
NEEDS = (Needs((ExecutionMode.FLAT,), ("bfs_citation",))
         + Needs((ExecutionMode.DTBL,), rungs=(0,)))


def cell_spec(key):
    latency = DEFAULT_LATENCY_SCALE if key.latency is None else key.latency
    return spec(key.benchmark, key.mode, latency_scale=latency)


class TestRunGrid:
    def test_grid_subset(self):
        """Results come back one per spec, in spec order."""
        specs = [cell_spec(key) for key in NEEDS.cells(NEEDS.benchmarks)]
        results = run_jobs(specs)
        assert [r.fingerprint for r in results] == [s.fingerprint() for s in specs]

    def test_speedup(self):
        keys = NEEDS.cells(NEEDS.benchmarks)
        results = run_jobs([cell_spec(key) for key in keys])
        stats = {key: result.stats for key, result in zip(keys, results)}
        cells = Cells(stats, NEEDS, NEEDS.benchmarks)
        assert cells.speedup("bfs_citation", ExecutionMode.DTBL, latency=0) > 0

    def test_registry_covers_table4(self):
        names = benchmark_names()
        assert len(names) == 16
        apps = {name.split("_")[0] for name in names}
        assert apps == {"amr", "bht", "bfs", "clr", "regx", "pre", "join", "sssp"}


SUBGRID = [
    spec(name, mode)
    for name in ("bfs_citation", "bht")
    for mode in (ExecutionMode.FLAT, ExecutionMode.DTBL)
]


def _dicts(results):
    return [result.stats.to_dict() for result in results]


class TestDiskCache:
    def test_warm_cache_runs_zero_simulations(self, tmp_path, monkeypatch):
        """A warm rerun decodes every cell from disk; nothing simulates."""
        cache = ResultCache(tmp_path / "cache")
        cold = run_jobs(SUBGRID, cache=cache)
        assert cache.stats.stores == 4

        def exploding_execute(job):
            raise AssertionError(f"simulated {job.label()} on a warm cache")

        # Every simulation, serial or not, goes through the engine's run_job.
        monkeypatch.setattr(pool_module, "run_job", exploding_execute)
        warm_cache = ResultCache(tmp_path / "cache")
        warm = run_jobs(SUBGRID, cache=warm_cache)
        assert warm_cache.stats.hits == 4
        assert warm_cache.stats.misses == 0
        assert _dicts(warm) == _dicts(cold)

    def test_no_cache_bypasses_reads_and_writes(self, tmp_path):
        run_jobs(SUBGRID, cache=None)
        assert list(tmp_path.iterdir()) == []  # nothing was ever written

    def test_cache_off_by_default_in_library(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        run_one("bht", ExecutionMode.FLAT)
        assert list(tmp_path.iterdir()) == []

    def test_memo_miss_disk_hit(self, tmp_path):
        """Nothing outlives a call but the disk cache: the second call hits it."""
        cache = ResultCache(tmp_path / "cache")
        first = run_one("bht", ExecutionMode.FLAT, cache)
        second = run_one("bht", ExecutionMode.FLAT, cache)
        assert cache.stats.hits == 1
        assert first is not second
        assert second.stats.to_dict() == first.stats.to_dict()

    def test_undecodable_entry_is_invalidated_and_rerun(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        run_one("bht", ExecutionMode.FLAT, cache)
        # Corrupt the payload structurally (valid JSON, missing stats).
        (path,) = list((tmp_path / "cache").glob("??/*.json"))
        entry = json.loads(path.read_text(encoding="utf-8"))
        entry["payload"] = {"wall_seconds": 1.0}
        path.write_text(json.dumps(entry), encoding="utf-8")
        run = run_one("bht", ExecutionMode.FLAT, cache)
        assert cache.stats.invalidated == 1
        assert run.cycles > 0

    @pytest.mark.parametrize("edit", ["missing", "ragged", "kind", "rows"])
    def test_bad_launch_table_is_invalidated_and_rerun(self, tmp_path, edit):
        """A launch table ``launch_records`` refuses is never returned."""
        cache = ResultCache(tmp_path / "cache")
        first = run_one("bht", ExecutionMode.DTBL, cache)
        (path,) = list((tmp_path / "cache").glob("??/*.json"))
        entry = json.loads(path.read_text(encoding="utf-8"))
        columns = entry["payload"]["stats"]["launches"]
        if edit == "missing":
            del columns["completed_cycle"]
        elif edit == "ragged":
            columns["kind"].pop()
        elif edit == "kind":
            columns["kind"][-1] = "warp_kernel"
        else:  # the older layout, one object per launch
            entry["payload"]["stats"]["launches"] = [
                dict(zip(columns, row)) for row in zip(*columns.values())
            ]
        path.write_text(json.dumps(entry), encoding="utf-8")
        run = run_one("bht", ExecutionMode.DTBL, cache)
        assert (cache.stats.invalidated, cache.stats.stores) == (1, 2)
        assert run.stats.to_dict() == first.stats.to_dict()


class TestParallelGrid:
    def test_pool_grid_bit_identical_to_serial(self):
        """--jobs N produces SimStats bit-identical to the serial path."""
        assert _dicts(run_jobs(SUBGRID, jobs=4)) == _dicts(run_jobs(SUBGRID))

    def test_parallel_grid_with_cache_warms_it(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        run_jobs(SUBGRID, jobs=2, cache=cache)
        assert cache.stats.stores == 4
        warm = ResultCache(tmp_path / "cache")
        run_jobs(SUBGRID, jobs=2, cache=warm)
        assert warm.stats.hits == 4
        assert warm.stats.stores == 0

    def test_seeded_worker_crash_retries_without_failing(
        self, tmp_path, monkeypatch
    ):
        """A worker crash mid-grid costs a retry, not the sweep."""
        serial = run_jobs(SUBGRID)
        monkeypatch.setenv(
            "REPRO_EXEC_TEST_CRASH", str(tmp_path / "crash-sentinel")
        )
        engine = SweepEngine(max_workers=2)
        crashed = run_jobs(SUBGRID, jobs=2, engine=engine)
        assert engine.stats.retries >= 1
        assert _dicts(crashed) == _dicts(serial)

    def test_always_crashing_workers_fall_back_in_process(
        self, monkeypatch
    ):
        """Retry exhaustion degrades to in-process, still completing."""
        serial = run_jobs(SUBGRID)
        monkeypatch.setenv("REPRO_EXEC_TEST_CRASH", "always")
        engine = SweepEngine(max_workers=2)
        fallen = run_jobs(SUBGRID, jobs=2, engine=engine)
        assert engine.stats.fallbacks == 4
        assert engine.stats.in_process == 4
        assert _dicts(fallen) == _dicts(serial)

    @pytest.mark.parametrize("crash", [False, True], ids=["plain", "worker-crash"])
    def test_cli_warm_rerun_prints_the_same_and_leaves_the_cache_alone(
        self, tmp_path, crash
    ):
        """The CLI cold with ``--jobs 2`` (once with a worker crash injected
        into the sweep), then warm: identical stdout, and no cache entry
        touched — a changed (mtime, size) would mean the warm run simulated."""
        cache = tmp_path / "cache"
        env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
        if crash:
            env["REPRO_EXEC_TEST_CRASH"] = str(tmp_path / "crash-once")

        def harness():
            return subprocess.run(
                [sys.executable, "-m", "repro.harness", "--figure", "11",
                 "--benchmarks", "bfs_citation", "bht", "--scale", "0.1",
                 "--jobs", "2", "--cache-dir", str(cache)],
                cwd=tmp_path, env=env, capture_output=True, text=True, check=True,
            )

        def entries():
            return {path: (path.stat().st_mtime_ns, path.stat().st_size)
                    for path in sorted(cache.rglob("*.json"))}

        cold = harness()
        stored = entries()
        assert len(stored) == 2 * 9
        assert ("retrying" in cold.stderr) == crash
        warm = harness()
        assert warm.stdout == cold.stdout
        assert entries() == stored
