"""The ``benchmarks/`` suite checks the paper's claims on the full grid.

Everything the rows of :mod:`repro.harness.paper` need is resolved once
per pytest session, by one :func:`~repro.harness.evaluate` call at the
default scales (the CLI's ``--scale`` / ``--latency-scale`` run others).
"""

import functools

import pytest

from repro.harness import evaluate, run_jobs


@pytest.fixture(scope="session")
def evaluation():
    """The full evaluation: 16 x 9 grid, Fig. 12's AGT sizes, three ablations."""
    return evaluate(functools.partial(run_jobs, jobs=2))
