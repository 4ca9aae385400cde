"""Harness runner: grid orchestration, memoization, cache + pool wiring."""

import pytest

from repro.config import GPUConfig
from repro.errors import WorkloadError
from repro.exec import ResultCache, SweepEngine
from repro.exec import pool as pool_module
from repro.harness.runner import (
    BenchmarkRun,
    GridResults,
    clear_cache,
    run_benchmark,
    run_grid,
)
from repro.runtime import ExecutionMode
from repro.workloads import benchmark_names


SCALE = 0.08  # tiny datasets: the grid tests stay fast


class TestRunBenchmark:
    def test_returns_run(self):
        run = run_benchmark("bfs_citation", ExecutionMode.FLAT, scale=SCALE)
        assert isinstance(run, BenchmarkRun)
        assert run.cycles > 0
        assert run.wall_seconds >= 0

    def test_memoized(self):
        first = run_benchmark("bfs_citation", ExecutionMode.FLAT, scale=SCALE)
        second = run_benchmark("bfs_citation", ExecutionMode.FLAT, scale=SCALE)
        assert first is second

    def test_cache_cleared(self):
        first = run_benchmark("bfs_citation", ExecutionMode.FLAT, scale=SCALE)
        clear_cache()
        second = run_benchmark("bfs_citation", ExecutionMode.FLAT, scale=SCALE)
        assert first is not second
        assert first.cycles == second.cycles  # deterministic simulation

    def test_unknown_benchmark(self):
        with pytest.raises(WorkloadError):
            run_benchmark("nope", ExecutionMode.FLAT)

    def test_memo_key_includes_latency_scale(self):
        """Grids differing only in latency scale never alias."""
        slow = run_benchmark(
            "bfs_citation", ExecutionMode.CDP, scale=SCALE, latency_scale=0.25
        )
        fast = run_benchmark(
            "bfs_citation", ExecutionMode.CDP, scale=SCALE, latency_scale=0.05
        )
        assert slow is not fast
        assert slow.cycles != fast.cycles

    def test_memo_key_includes_dataset_scale(self):
        small = run_benchmark("bht", ExecutionMode.FLAT, scale=SCALE)
        smaller = run_benchmark("bht", ExecutionMode.FLAT, scale=SCALE / 2)
        assert small is not smaller
        assert small.cycles != smaller.cycles

    def test_none_config_aliases_explicit_default(self):
        """config=None and the default config are one memo entry."""
        implicit = run_benchmark("bht", ExecutionMode.FLAT, scale=SCALE)
        explicit = run_benchmark(
            "bht", ExecutionMode.FLAT, scale=SCALE, config=GPUConfig.k20c()
        )
        assert implicit is explicit

    def test_use_cache_false_bypasses_memo(self):
        first = run_benchmark(
            "bht", ExecutionMode.FLAT, scale=SCALE, use_cache=False
        )
        second = run_benchmark(
            "bht", ExecutionMode.FLAT, scale=SCALE, use_cache=False
        )
        assert first is not second
        assert first.cycles == second.cycles


class TestRunGrid:
    def test_grid_subset(self):
        grid = run_grid(
            benchmarks=["bfs_citation"],
            modes=(ExecutionMode.FLAT, ExecutionMode.DTBL_IDEAL),
            scale=SCALE,
        )
        assert grid.benchmarks() == ["bfs_citation"]
        assert grid.has("bfs_citation", ExecutionMode.FLAT)
        assert grid.has("bfs_citation", ExecutionMode.DTBL_IDEAL)
        assert not grid.has("bfs_citation", ExecutionMode.CDP)

    def test_speedup(self):
        grid = run_grid(
            benchmarks=["bfs_citation"],
            modes=(ExecutionMode.FLAT, ExecutionMode.DTBL_IDEAL),
            scale=SCALE,
        )
        speedup = grid.speedup("bfs_citation", ExecutionMode.DTBL_IDEAL)
        assert speedup > 0

    def test_registry_covers_table4(self):
        names = benchmark_names()
        assert len(names) == 16
        apps = {name.split("_")[0] for name in names}
        assert apps == {"amr", "bht", "bfs", "clr", "regx", "pre", "join", "sssp"}


SUBGRID = dict(
    benchmarks=["bfs_citation", "bht"],
    modes=(ExecutionMode.FLAT, ExecutionMode.DTBL),
    scale=SCALE,
)


def _grid_dicts(grid):
    return {
        (name, mode): grid.get(name, mode).stats.to_dict()
        for name in grid.benchmarks()
        for mode in SUBGRID["modes"]
    }


class TestDiskCache:
    def test_warm_cache_runs_zero_simulations(self, tmp_path, monkeypatch):
        """A warm rerun decodes every cell from disk; nothing simulates."""
        cache = ResultCache(tmp_path / "cache")
        cold = run_grid(cache=cache, **SUBGRID)
        assert cache.stats.stores == 4

        clear_cache()

        def exploding_execute(job):
            raise AssertionError(f"simulated {job.label()} on a warm cache")

        # Every simulation, serial or not, goes through the engine's run_job.
        monkeypatch.setattr(pool_module, "run_job", exploding_execute)
        warm_cache = ResultCache(tmp_path / "cache")
        warm = run_grid(cache=warm_cache, **SUBGRID)
        assert warm_cache.stats.hits == 4
        assert warm_cache.stats.misses == 0
        assert _grid_dicts(warm) == _grid_dicts(cold)

    def test_no_cache_bypasses_reads_and_writes(self, tmp_path):
        run_grid(cache=None, **SUBGRID)
        assert list(tmp_path.iterdir()) == []  # nothing was ever written

    def test_cache_off_by_default_in_library(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        run_benchmark("bht", ExecutionMode.FLAT, scale=SCALE)
        assert list(tmp_path.iterdir()) == []

    def test_memo_miss_disk_hit(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        first = run_benchmark(
            "bht", ExecutionMode.FLAT, scale=SCALE, cache=cache,
            use_cache=False,
        )
        second = run_benchmark(
            "bht", ExecutionMode.FLAT, scale=SCALE, cache=cache,
            use_cache=False,
        )
        assert cache.stats.hits == 1
        assert second.stats.to_dict() == first.stats.to_dict()

    def test_undecodable_entry_is_invalidated_and_rerun(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        run_benchmark(
            "bht", ExecutionMode.FLAT, scale=SCALE, cache=cache,
            use_cache=False,
        )
        # Corrupt the payload structurally (valid JSON, missing stats).
        import json

        (path,) = list((tmp_path / "cache").glob("??/*.json"))
        entry = json.loads(path.read_text(encoding="utf-8"))
        entry["payload"] = {"wall_seconds": 1.0}
        path.write_text(json.dumps(entry), encoding="utf-8")
        run = run_benchmark(
            "bht", ExecutionMode.FLAT, scale=SCALE, cache=cache,
            use_cache=False,
        )
        assert cache.stats.invalidated == 1
        assert run.cycles > 0


class TestParallelGrid:
    def test_pool_grid_bit_identical_to_serial(self):
        """--jobs N produces SimStats bit-identical to the serial path."""
        clear_cache()
        serial = run_grid(jobs=1, **SUBGRID)
        clear_cache()
        parallel = run_grid(jobs=4, **SUBGRID)
        assert _grid_dicts(parallel) == _grid_dicts(serial)

    def test_parallel_grid_with_cache_warms_it(self, tmp_path):
        clear_cache()
        cache = ResultCache(tmp_path / "cache")
        run_grid(jobs=2, cache=cache, **SUBGRID)
        assert cache.stats.stores == 4
        clear_cache()
        warm = ResultCache(tmp_path / "cache")
        run_grid(jobs=2, cache=warm, **SUBGRID)
        assert warm.stats.hits == 4
        assert warm.stats.stores == 0

    def test_seeded_worker_crash_retries_without_failing(
        self, tmp_path, monkeypatch
    ):
        """A worker crash mid-grid costs a retry, not the sweep."""
        clear_cache()
        serial = run_grid(jobs=1, **SUBGRID)
        clear_cache()
        monkeypatch.setenv(
            "REPRO_EXEC_TEST_CRASH", str(tmp_path / "crash-sentinel")
        )
        engine = SweepEngine(max_workers=2)
        crashed = run_grid(jobs=2, engine=engine, **SUBGRID)
        assert engine.stats.retries >= 1
        assert _grid_dicts(crashed) == _grid_dicts(serial)

    def test_always_crashing_workers_fall_back_in_process(
        self, monkeypatch
    ):
        """Retry exhaustion degrades to in-process, still completing."""
        clear_cache()
        serial = run_grid(jobs=1, **SUBGRID)
        clear_cache()
        monkeypatch.setenv("REPRO_EXEC_TEST_CRASH", "always")
        engine = SweepEngine(max_workers=2, max_retries=0)
        fallen = run_grid(jobs=2, engine=engine, **SUBGRID)
        assert engine.stats.fallbacks == 4
        assert engine.stats.in_process == 4
        assert _grid_dicts(fallen) == _grid_dicts(serial)
