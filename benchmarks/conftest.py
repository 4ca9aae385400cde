"""The ``benchmarks/`` suite checks the paper's claims on the full grid.

Everything the rows of :mod:`repro.harness.paper` need is resolved once
per pytest session, by one :func:`~repro.harness.evaluate` call at the
default scales (the CLI's ``--scale`` / ``--latency-scale`` run others).
``REPRO_BENCH_EXPORT_DIR``, if set, receives every figure as CSV plus a
combined ``experiments.json`` at session end.
"""

import functools
import os

import pytest

from repro.harness import evaluate, run_jobs
from repro.harness.export import write_experiments


@pytest.fixture(scope="session")
def evaluation():
    """The full evaluation: 16 x 9 grid, Fig. 12's AGT sizes, three ablations."""
    result = evaluate(functools.partial(run_jobs, jobs=2))
    yield result
    export_dir = os.environ.get("REPRO_BENCH_EXPORT_DIR")
    if export_dir:
        paths = write_experiments(result.experiments.values(), export_dir)
        print(f"\n[exported {len(paths)} result files to {export_dir}]")
