"""Smoke test of the benchmark tool itself (run explicitly, not tier-1)::

    python3 -m pytest bench/test_bench.py -q

Runs ``bench/run.py --smoke`` (scale 0.1, 4 cold + 20 warm serve jobs)
and checks the tool's contract: every metric ``BENCHMARK.json`` names is
printed with its unit, the names are well-formed, the same ``--seed``
gives the same job order and traffic, the stage spans add up, a staged
replay that has fallen behind the program nulls its metrics instead of
failing the run, and a directory without the program makes the command
fail instead of reporting numbers.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

sys.path.insert(0, str(BENCH))
from benchkit import compare, core  # noqa: E402


def run_bench(*args, cwd=ROOT, script=BENCH / "run.py"):
    done = subprocess.run(
        [sys.executable, str(script), *args],
        cwd=str(cwd), capture_output=True, text=True, timeout=170,
    )
    return done


def parse(done):
    lines = done.stdout.strip().splitlines()
    notes = next(json.loads(line[len("# notes "):]) for line in lines
                 if line.startswith("# notes "))
    printed = {}
    for line in lines:
        match = re.match(r"^metric (\S+) = (\S+) (\S+)", line)
        if match:
            printed[match.group(1)] = (match.group(2), match.group(3))
    return json.loads(lines[-1]), notes, printed


def check_section(outcome, printed, section):
    assert set(outcome) == {"correct", "attempted", "failed", "metrics"}
    assert outcome["correct"] is True and outcome["failed"] == 0
    assert outcome["attempted"] >= 1
    assert list(outcome["metrics"]) == [spec["name"] for spec in section]
    for spec in section:
        entry = outcome["metrics"][spec["name"]]
        assert entry["unit"] == spec["unit"]
        assert isinstance(entry["value"], (int, float)), (spec["name"], entry)
        assert printed[spec["name"]][1] == spec["unit"]


def test_manifest_names_are_well_formed():
    names = [spec["name"] for key in ("workloads", "end_to_end", "per_layer")
             for spec in MANIFEST[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert any(spec["name"] == "setup_s" and spec["unit"] == "s"
               and spec["better"] == "lower" for spec in MANIFEST["end_to_end"])
    assert all(0 < spec["bound"] <= 0.25 for spec in MANIFEST["end_to_end"])


def test_sim_workload_untraced_is_complete_and_seeded():
    args = ("--workload", "launch_dyn", "--seed", "7", "--seconds", "1",
            "--trace", "0", "--smoke")
    first, second = run_bench(*args), run_bench(*args)
    assert first.returncode == 0, first.stdout + first.stderr
    outcome, notes, printed = parse(first)
    check_section(outcome, printed, MANIFEST["end_to_end"])
    assert all(entry["value"] > 0 for entry in outcome["metrics"].values())
    assert "failed_frac" in printed
    # The readings as measured are printed by name beside the norm_ rows.
    assert {"wall_s", "jobs_per_s", "hit_p50_ms", "cold_overhead_ms"} <= set(printed)
    assert printed["wall_s"][1] == "s" and float(printed["wall_s"][0]) == notes["raw"]["wall_s"]
    assert notes["job_order"] == parse(second)[1]["job_order"]
    other = parse(run_bench(*args[:3], "8", *args[4:]))[1]
    assert notes["job_order"] != other["job_order"]


def test_sim_workload_traced_prints_every_layer_metric():
    done = run_bench("--workload", "alu_flat", "--seed", "7", "--seconds", "1",
                     "--trace", "1", "--smoke")
    assert done.returncode == 0, done.stdout + done.stderr
    outcome, _notes, printed = parse(done)
    check_section(outcome, printed, MANIFEST["per_layer"])
    values = {name: entry["value"] for name, entry in outcome["metrics"].items()}
    # Smoke jobs last a few milliseconds, so the fixed cost outside the
    # stages weighs more than at full scale, where 0.95-1.05 is required.
    assert 0.90 <= values["trace.stage_sum_ratio"] <= 1.10
    assert values["isa.transform_s"] < 1e-3  # flat jobs: two mode checks per job
    assert values["sim.issued"] > 0 and values["sim.cycles"] > 0
    trace = json.loads((BENCH / "out" / "trace-alu_flat.json").read_text())
    assert {"id", "name", "start", "end", "parent", "job", "self"} <= set(trace["spans"][0])


def test_serve_workload_untraced_is_complete_and_seeded():
    args = ("--workload", "serve_sweep", "--seed", "7", "--seconds", "1",
            "--trace", "0", "--smoke")
    first, second = run_bench(*args), run_bench(*args)
    assert first.returncode == 0, first.stdout + first.stderr
    outcome, notes, printed = parse(first)
    check_section(outcome, printed, MANIFEST["end_to_end"])
    assert all(entry["value"] > 0 for entry in outcome["metrics"].values())
    assert len(notes["traffic"]["solo"]) == 4 and len(notes["traffic"]["warm"]) == 20
    assert notes["traffic"] == parse(second)[1]["traffic"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns(
        "out", "__pycache__", ".pytest_cache"))
    done = run_bench("--workload", "alu_flat", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path, script=tmp_path / "bench" / "run.py")
    assert done.returncode != 0
    assert not done.stdout.strip()


@pytest.mark.parametrize("a, b, better, verdict", [
    ([1.0, 1.01, 0.99, 1.0], [1.02, 1.03, 1.01, 1.02], "lower", "ok"),
    ([1.0, 1.01, 0.99, 1.0], [1.2, 1.21, 1.19, 1.2], "lower", "regression"),
    ([1.0, 1.3, 0.8, 1.1], [1.0, 1.25, 0.85, 1.05], "lower", "unresolved"),
    ([1.0, 1.3, 0.8, 1.1], [0.5, 0.6, 0.4, 0.55], "lower", "ok"),
    ([10.0, 10.1, 9.9, 10.0], [8.0, 8.1, 7.9, 8.0], "higher", "regression"),
])
def test_compare_verdicts(a, b, better, verdict):
    assert compare.judge(a, b, better, 0.10) == verdict


def test_broken_replay_nulls_its_metrics_and_fails_nothing(monkeypatch):
    """A refactor of ``Workload._execute`` must not turn into ``correct: false``."""
    core.require_repro()
    from benchkit import simload

    def moved(spec, spans, job_id):
        raise ImportError("No module named 'repro.isa.dynopt'")

    monkeypatch.setattr(simload, "staged_job", moved)
    result = core.RunResult()
    simload.run_traced("alu_flat", 7, 0.1, simload.WARM_SCALE, result, core.SpanLog())
    assert result.failed == 0 and result.attempted == 8  # 4 jobs x 2 passes of run_job
    for name in simload.STAGE_METRICS + simload.PAIR_METRICS + simload.PROFILE_METRICS:
        assert name not in result.values
        assert "ImportError" in result.reasons[name]
    # The exact counts come from run_job's own SimStats and survive.
    assert result.values["sim.issued"] > 0 and result.values["sim.cycles"] > 0


def test_replay_with_other_stats_is_a_broken_replay_not_a_failure(monkeypatch):
    core.require_repro()
    from benchkit import simload

    real = simload.staged_job

    def one_step_short(spec, spans, job_id):
        stats = real(spec, spans, job_id)
        stats.cycles += 1
        return stats

    monkeypatch.setattr(simload, "staged_job", one_step_short)
    result = core.RunResult()
    simload.run_traced("alu_flat", 7, 0.1, simload.WARM_SCALE, result, core.SpanLog())
    assert result.failed == 0
    assert "no longer mirrors run_job" in result.reasons["trace.stage_sum_ratio"]


def test_compare_refuses_sets_of_different_work(tmp_path, capsys):
    rows = {"alu_flat": {"end_to_end": {"norm_wall_s": [1.0, 1.0]}, "per_layer": {},
                         "attempted": 2, "failed": 0}}
    for name, seed in (("a.json", 1), ("b.json", 2)):
        (tmp_path / name).write_text(json.dumps(
            {"host": {"node": "vm"}, "seed": seed, "run_seconds": 12, "smoke": False,
             "rows": rows}))
    status = compare.main(str(tmp_path / "a.json"), str(tmp_path / "b.json"), MANIFEST)
    assert status == 2
    assert "refused" in capsys.readouterr().out
