"""Shared fixtures for the figure/table regeneration benches.

The full (benchmark x mode) grid is simulated once per pytest session and
shared by every figure bench through the runner's per-process cache; each
bench then derives its figure, prints the regenerated rows next to the
paper's expectation, and asserts the qualitative shape.

Environment knobs:

* ``REPRO_BENCH_SCALE``         dataset scale (default 1.0)
* ``REPRO_BENCH_LATENCY_SCALE`` launch-latency scale (default 0.25)
* ``REPRO_BENCH_EXPORT_DIR``    if set, write every grid figure as CSV +
  a combined experiments.json into this directory at session end
"""

import os

import pytest

from repro.harness.runner import DEFAULT_LATENCY_SCALE, run_grid

BENCH_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))
BENCH_LATENCY_SCALE = float(
    os.environ.get("REPRO_BENCH_LATENCY_SCALE", str(DEFAULT_LATENCY_SCALE))
)
EXPORT_DIR = os.environ.get("REPRO_BENCH_EXPORT_DIR")


@pytest.fixture(scope="session")
def grid():
    """The full evaluation grid, simulated once per session."""
    result = run_grid(scale=BENCH_SCALE, latency_scale=BENCH_LATENCY_SCALE)
    yield result
    if EXPORT_DIR:
        from repro.harness.experiments import (
            figure6_warp_activity,
            figure7_dram_efficiency,
            figure8_smx_occupancy,
            figure9_waiting_time,
            figure10_memory_footprint,
            figure11_speedup,
        )
        from repro.harness.export import write_experiments

        experiments = [
            fn(result)
            for fn in (
                figure6_warp_activity,
                figure7_dram_efficiency,
                figure8_smx_occupancy,
                figure9_waiting_time,
                figure10_memory_footprint,
                figure11_speedup,
            )
        ]
        paths = write_experiments(experiments, EXPORT_DIR)
        print(f"\n[exported {len(paths)} result files to {EXPORT_DIR}]")


def show(experiment) -> None:
    """Print a regenerated experiment (visible with pytest -s)."""
    print()
    print(experiment.render())
