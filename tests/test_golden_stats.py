"""Golden statistics: live simulations vs the pinned corpus.

``tests/golden/<benchmark>-<mode>.json`` pins ``SimStats.to_dict()`` for
a small grid of cells (see ``tools/golden_refresh.py``), including the
persistent-scheduler modes on the BFS and SSSP graph traversals — the
modes whose cross-block queue traffic is most sensitive to scheduling
drift.  A record holds no ``config.core``: both execution cores must
produce it, so these tests recompute every cell on each core and
compare **exactly** — one cycle of drift anywhere in the model, or
between the cores, fails loudly, with a per-counter diff in the
assertion.

Intentional behaviour changes must regenerate the corpus
(``PYTHONPATH=src python tools/golden_refresh.py``) and commit the
resulting diff alongside the change.
"""

import dataclasses
import json
from pathlib import Path

import pytest

from repro import ExecutionMode, GPUConfig
from repro.workloads import get_benchmark

SCALE = 0.08
LATENCY_SCALE = 0.25
#: Pinned mode list per benchmark (tools/golden_refresh.py imports the
#: grid from here).
PER_BENCHMARK_MODES = {
    "bfs_citation": (
        "flat", "cdp", "dtbl", "cdpa", "cons", "persistent", "persistent-async",
    ),
    "bht": ("flat", "cdp", "dtbl", "cdpa", "cons"),
    "sssp_citation": ("flat", "persistent", "persistent-async"),
}
#: Test id tag -> GPUConfig.core selection.
CORES = (("ref", "reference"), ("fast", "fast"))
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

#: One golden record per cell.
CELLS = [(bench, mode) for bench, modes in PER_BENCHMARK_MODES.items() for mode in modes]
#: Every cell on every core.
GRID = [(bench, mode, tag, core) for bench, mode in CELLS for tag, core in CORES]


def without_core(stats: dict) -> dict:
    """``stats`` as a golden record: without ``config.core``, the one
    field in which the two cores' dictionaries differ."""
    record = dict(stats, config=dict(stats["config"]))
    del record["config"]["core"]
    return record


def golden_record(bench: str, mode: str) -> dict:
    return json.loads((GOLDEN_DIR / f"{bench}-{mode}.json").read_text())


def live_stats(bench: str, mode: str, core: str) -> dict:
    """Simulate one cell on ``core`` and return its record."""
    workload = get_benchmark(bench, ExecutionMode(mode), SCALE)
    config = dataclasses.replace(GPUConfig.k20c(), core=core)
    result = workload.execute(config=config, latency_scale=LATENCY_SCALE)
    return without_core(result.stats.to_dict())


def test_corpus_is_exactly_the_pinned_grid():
    """No missing and no stale golden files."""
    expected = {f"{b}-{m}.json" for b, m in CELLS}
    actual = {p.name for p in GOLDEN_DIR.glob("*.json")}
    assert actual == expected


@pytest.mark.parametrize(
    "bench,mode,tag,core", GRID,
    ids=[f"{b}-{m}-{t}" for b, m, t, _ in GRID],
)
def test_stats_match_golden(bench, mode, tag, core):
    golden = golden_record(bench, mode)
    live = json.loads(json.dumps(live_stats(bench, mode, core)))
    if live != golden:
        drifted = {
            key: (golden.get(key), live.get(key))
            for key in set(golden) | set(live)
            if golden.get(key) != live.get(key)
        }
        pytest.fail(
            f"{bench} {mode} ({core}) drifted from the golden corpus; "
            f"changed counters (golden, live): {drifted}"
        )
