"""BFS expansion-variant equivalence: same distances, different engines."""

import numpy as np
import pytest

from repro import Device, ExecutionMode
from repro.workloads.bfs import BfsWorkload
from repro.workloads.datasets.graphs import cage15_like, citation_network, usa_road


def distances(graph, mode, expansion="thread", source=0):
    workload = BfsWorkload(
        "bfs_var", mode, graph, source=source, expansion=expansion
    )
    device = Device(mode=mode, latency=mode.latency_model(0.25))
    for func in workload.build_kernels():
        device.register(func)
    workload.setup(device)
    workload.run(device)
    device.synchronize(max_cycles=200_000_000)
    got = device.download_ints(workload.dist_addr, graph.num_vertices)
    workload.check(device)
    return got


def persistent_async(graph, source=0):
    """The same traversal on the Atos-style task-queue runtime; ``execute``
    checks its distances against the host reference."""
    BfsWorkload("bfs_var", ExecutionMode.PERSISTENT_ASYNC, graph, source=source).execute(
        latency_scale=0.25
    )


class TestVariantEquivalence:
    @pytest.mark.parametrize("seed", [3, 7, 19])
    def test_all_engines_agree_on_citation(self, seed):
        graph = citation_network(n=180, attach=4, seed=seed)
        reference = distances(graph, ExecutionMode.FLAT, "thread")
        for mode, expansion in (
            (ExecutionMode.FLAT, "warp"),
            (ExecutionMode.DTBL_IDEAL, "thread"),
            (ExecutionMode.CDP_IDEAL, "thread"),
        ):
            got = distances(graph, mode, expansion)
            np.testing.assert_array_equal(
                got, reference, err_msg=f"{mode.value}/{expansion} diverged"
            )
        persistent_async(graph)

    def test_nonzero_source(self):
        graph = cage15_like(n=150, seed=9)
        distances(graph, ExecutionMode.FLAT, "thread", source=42)
        persistent_async(graph, source=42)

    def test_long_diameter_graph(self):
        # A lattice has a long BFS tail: many near-empty frontiers.
        graph = usa_road(n=100)
        a = distances(graph, ExecutionMode.FLAT, "thread")
        b = distances(graph, ExecutionMode.FLAT, "warp")
        np.testing.assert_array_equal(a, b)
        assert a.max() > 5  # genuinely long paths
