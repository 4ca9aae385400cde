"""The host references, pinned independently of the simulator.

Every workload's ``check`` compares device output against a pure-Python
reference; those references are the oracle, so a rewrite of one (e.g. to
walk Python lists instead of indexing NumPy arrays element by element)
must be shown value-preserving without the simulator in the loop.  The
digests below were computed at commit 23182b6 — before that rewrite — at
``scale=0.1``.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from repro import ExecutionMode
from repro.workloads import benchmark_names, get_benchmark

REFERENCE_DIGESTS = {
    "amr": "95b6fe07a945600f",
    "bfs_cage15": "fc6ce2bc8cce38fc",
    "bfs_citation": "84803d93a790f60d",
    "bfs_usa_road": "e2ed261742f264b0",
    "bht": "5ea5d5e144adaf54",
    "clr_cage15": "bbe96ed0038a86c2",
    "clr_citation": "a8378a3a92efcb8d",
    "clr_graph500": "55a977cc1dcc7fce",
    "join_gaussian": "30515e5345da36c7",
    "join_uniform": "7355b021cead60b3",
    "pre_movielens": "7ef8c990656cc155",
    "regx_darpa": "c77ed6a846c825b2",
    "regx_string": "5d56ec8e1b742717",
    "sssp_cage15": "2cec1cd30d42a901",
    "sssp_citation": "1be1e7c113fb56f2",
    "sssp_flight": "b5d7914f41ecc7ab",
}

_REFERENCE_METHODS = (
    "reference_distances", "reference_potentials", "reference_colors",
    "reference_similarity", "reference_counts", "reference",
)


def _digest(value) -> str:
    if isinstance(value, np.ndarray):
        assert value.dtype == np.int64
        data = value.tobytes()
    else:  # (counts, checksum) tuples of Python ints
        data = json.dumps(value).encode()
    return hashlib.sha256(data).hexdigest()[:16]


def test_every_benchmark_is_pinned():
    assert set(REFERENCE_DIGESTS) == set(benchmark_names())


@pytest.mark.parametrize("name", sorted(REFERENCE_DIGESTS))
def test_reference_output_digest(name):
    workload = get_benchmark(name, ExecutionMode.FLAT, 0.1)
    (method,) = [m for m in _REFERENCE_METHODS if hasattr(workload, m)]
    answer = getattr(workload, method)()
    assert _digest(answer) == REFERENCE_DIGESTS[name]
    # A second job on the same input reads the memoised answer.
    again = getattr(get_benchmark(name, ExecutionMode.FLAT, 0.1), method)()
    assert again is answer
    assert _digest(again) == REFERENCE_DIGESTS[name]
