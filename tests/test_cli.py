"""Command-line entry points."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.harness.__main__ import main as harness_main
from repro.workloads.__main__ import main as workloads_main


@pytest.fixture(autouse=True)
def _isolated_cwd(tmp_path, monkeypatch):
    """Default on-disk caches land in a temp dir, never the repo."""
    monkeypatch.chdir(tmp_path)


class TestWorkloadsCli:
    def test_list(self, capsys):
        assert workloads_main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "bfs_citation" in out
        assert "join_gaussian" in out

    def test_run_single(self, capsys):
        code = workloads_main(
            ["bfs_citation", "--mode", "flat", "--scale", "0.1"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "cycles" in out
        assert "[flat]" in out

    def test_run_multi_mode(self, capsys):
        code = workloads_main(
            ["join_uniform", "--mode", "flat", "dtbl", "--scale", "0.15",
             "--latency-scale", "0"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "[flat]" in out and "[dtbl]" in out
        assert "speedup" in out

    def test_no_cache_writes_nothing(self, tmp_path):
        code = workloads_main(
            ["bht", "--mode", "flat", "--scale", "0.1", "--no-cache"]
        )
        assert code == 0
        assert not (tmp_path / ".repro-cache").exists()

    def test_warm_cache_identical_output(self, tmp_path, capsys):
        argv = [
            "bht", "--mode", "flat", "dtbl", "--scale", "0.1",
            "--cache-dir", str(tmp_path / "cache"),
        ]
        assert workloads_main(argv) == 0
        cold = capsys.readouterr().out
        assert (tmp_path / "cache").is_dir()
        assert workloads_main(argv) == 0
        warm = capsys.readouterr().out
        assert warm == cold

    def test_bad_jobs_errors(self):
        for argv in (
            ["bht", "--jobs", "0"], ["bht", "--core", "vector"], ["bht", "--resume"],
            ["bht", "--mode", "dtbli"], ["bht", "--latency-scale", "-1"],
            ["bht", "--scale", "inf"], ["bht", "--latency-scale", "nan"],
        ):
            with pytest.raises(SystemExit) as excinfo:
                workloads_main(argv)
            assert excinfo.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["--list"],
        ["amr", "--mode", "dtbl", "cdp", "--scale", "0.1", "--no-cache"],
    ])
    def test_closed_stdout_exits_quietly(self, argv):
        """``... | head`` closes the pipe before the output is written:
        the command stops with no traceback."""
        src = Path(__file__).resolve().parents[1] / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        read_end, write_end = os.pipe()
        os.close(read_end)  # every write to the pipe now fails
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "repro.workloads", *argv],
                stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=300,
            )
        finally:
            os.close(write_end)
        stderr = proc.stderr.decode()
        assert "Traceback" not in stderr and "BrokenPipeError" not in stderr, stderr
        assert proc.returncode == 1


class TestHarnessCli:
    def test_static_table(self, capsys):
        assert harness_main(["--figure", "table2", "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "706MHz" in out

    def test_overhead(self, capsys):
        assert harness_main(["--figure", "overhead", "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "AGT SRAM" in out

    def test_single_grid_figure_scaled(self, capsys):
        code = harness_main(
            [
                "--figure", "11",
                "--benchmarks", "bfs_citation",
                "--scale", "0.1",
                "--quiet",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Speedup over Flat" in out

    def test_parallel_grid_matches_serial(self, tmp_path, capsys):
        """--jobs 2 renders the same figure as the in-process path."""
        base = [
            "--figure", "11",
            "--benchmarks", "bfs_citation",
            "--scale", "0.1",
            "--quiet",
            "--no-cache",
        ]
        assert harness_main(base) == 0
        serial = capsys.readouterr().out
        assert harness_main(base + ["--jobs", "2"]) == 0
        parallel = capsys.readouterr().out
        assert parallel == serial

    def test_cache_stats_reported(self, tmp_path, capsys):
        code = harness_main(
            [
                "--figure", "11",
                "--benchmarks", "bht",
                "--scale", "0.1",
                "--cache-dir", str(tmp_path / "cache"),
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "[cache] hits=" in captured.err
        assert "[cache]" not in captured.out  # stdout is the figure alone

    def test_sanitize_travels_in_the_config_not_the_environment(
        self, tmp_path, capsys
    ):
        before = dict(os.environ)
        code = harness_main(
            [
                "--figure", "12",
                "--benchmarks", "bht",
                "--scale", "0.1",
                "--sanitize",
                "--cache-dir", str(tmp_path / "cache"),
            ]
        )
        assert code == 0
        assert dict(os.environ) == before
        assert "sanitizer: clean (no findings across 3 simulations)" in (
            capsys.readouterr().err
        )
        reports = [
            json.loads(path.read_text(encoding="utf-8"))["payload"]["sanitizer"]
            for path in (tmp_path / "cache").glob("??/*.json")
        ]
        assert len(reports) == 3  # Fig. 12's variants built their own configs
        assert all(report is not None and not report["findings"] for report in reports)

    def test_unknown_figure_errors(self):
        with pytest.raises(SystemExit):
            harness_main(["--figure", "nope"])

    def test_bad_jobs_errors(self):
        for argv in (["--jobs", "0"], ["--core", "vector"], ["--resume"]):
            with pytest.raises(SystemExit) as excinfo:
                harness_main(argv)
            assert excinfo.value.code == 2
