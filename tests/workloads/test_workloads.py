"""End-to-end correctness of every benchmark in every execution mode.

Each workload's ``check`` compares device results against a pure-Python
reference; these tests run small datasets so the whole matrix stays fast.
"""

import numpy as np
import pytest

from repro.errors import WorkloadError
from repro.runtime import ExecutionMode
from repro.workloads.amr import AmrWorkload
from repro.workloads.bfs import BfsWorkload
from repro.workloads.bht import BarnesHutWorkload
from repro.workloads.clr import ColoringWorkload
from repro.workloads.datasets import (
    amr_grid,
    cage15_like,
    citation_network,
    darpa_packets,
    join_tables,
    movielens_like,
    random_points,
    random_strings,
    usa_road,
)
from repro.workloads.join import JoinWorkload
from repro.workloads.pre import RecommendationWorkload
from repro.workloads.regx import RegexWorkload
from repro.workloads.sssp import SsspWorkload

MODES = [
    ExecutionMode.FLAT,
    ExecutionMode.CDP,
    ExecutionMode.CDP_IDEAL,
    ExecutionMode.DTBL,
    ExecutionMode.DTBL_IDEAL,
]

# All workload runs verify against the Python reference inside execute().
LS = 0.25


@pytest.mark.parametrize("mode", MODES)
class TestAllModes:
    def test_bfs(self, mode):
        graph = citation_network(n=220, attach=4)
        BfsWorkload("bfs", mode, graph).execute(latency_scale=LS)

    def test_sssp(self, mode):
        graph = cage15_like(n=150, weighted=True)
        SsspWorkload("sssp", mode, graph).execute(latency_scale=LS)

    def test_clr(self, mode):
        graph = citation_network(n=180, seed=9)
        ColoringWorkload("clr", mode, graph).execute(latency_scale=LS)

    def test_amr(self, mode):
        AmrWorkload("amr", mode, amr_grid(side=8)).execute(latency_scale=LS)

    def test_join(self, mode):
        data = join_tables("gaussian", r_size=400, s_size=200)
        JoinWorkload("join", mode, data).execute(latency_scale=LS)

    def test_regx(self, mode):
        packets = darpa_packets(n=36, min_len=40, max_len=90)
        RegexWorkload("regx", mode, packets).execute(latency_scale=LS)

    def test_pre(self, mode):
        data = movielens_like(num_users=80, num_items=40)
        RecommendationWorkload("pre", mode, data).execute(latency_scale=LS)

    def test_bht(self, mode):
        points = random_points(n=120)
        BarnesHutWorkload("bht", mode, points).execute(latency_scale=LS)


class TestWorkloadBehaviour:
    def test_bfs_unreachable_vertices_stay_inf(self):
        # Two disconnected lattice components: BFS from 0 must not reach
        # the second one.
        from repro.workloads.common import INF
        from repro.workloads.datasets.graphs import Graph

        g1 = usa_road(n=49)
        n = g1.num_vertices
        # Duplicate the graph as a second component.
        indptr = np.concatenate([g1.indptr, g1.indptr[1:] + g1.num_edges])
        indices = np.concatenate([g1.indices, g1.indices + n])
        graph = Graph(indptr=indptr, indices=indices, name="two_islands")
        workload = BfsWorkload("bfs_islands", ExecutionMode.FLAT, graph)
        result = workload.execute()
        assert result.stats.cycles > 0
        expected = workload.reference_distances()
        assert (expected[n:] == INF).all()

    def test_sssp_matches_dijkstra_not_just_bfs(self):
        # Weighted shortest paths differ from hop counts on this graph.
        graph = citation_network(n=150, weighted=True)
        workload = SsspWorkload("sssp", ExecutionMode.FLAT, graph)
        dist = workload.reference_distances()
        bfs_ref = BfsWorkload("bfs", ExecutionMode.FLAT, graph).reference_distances()
        assert (dist != bfs_ref).any()
        workload.execute()

    def test_clr_produces_proper_coloring(self):
        graph = cage15_like(n=120, seed=11)
        workload = ColoringWorkload("clr", ExecutionMode.DTBL_IDEAL, graph)
        workload.execute(latency_scale=LS)
        assert workload.rounds >= 1

    def test_amr_counts_levels(self):
        workload = AmrWorkload("amr", ExecutionMode.FLAT, amr_grid(side=10))
        workload.execute()
        counts, checksum = workload.reference()
        assert counts[0] > 0  # some root cells refine
        assert checksum > 0

    def test_amr_rejects_deep_grids(self):
        with pytest.raises(ValueError):
            AmrWorkload("amr", ExecutionMode.FLAT, amr_grid(side=8, max_depth=3))

    def test_join_empty_probe_result_possible(self):
        data = join_tables("uniform", r_size=64, s_size=64, num_keys=4000)
        JoinWorkload("join", ExecutionMode.FLAT, data).execute()

    def test_regx_string_has_dense_matches(self):
        packets = random_strings(n=20)
        workload = RegexWorkload("regx", ExecutionMode.FLAT, packets)
        counts = workload.reference_counts()
        assert counts.sum() > 0

    def test_dynamic_launch_counts_equal_across_mechanisms(self):
        # The paper's fair-comparison rule: CDP and DTBL launch for the
        # same DFPs, so dynamic-launch counts must match exactly.
        graph = citation_network(n=260, attach=5)
        cdp = BfsWorkload("bfs", ExecutionMode.CDP_IDEAL, graph).execute(latency_scale=LS)
        dtbl = BfsWorkload("bfs", ExecutionMode.DTBL_IDEAL, graph).execute(latency_scale=LS)
        assert len(cdp.stats.dynamic_launches()) == len(dtbl.stats.dynamic_launches())

    def test_flat_mode_never_launches(self):
        graph = citation_network(n=200, attach=5)
        result = BfsWorkload("bfs", ExecutionMode.FLAT, graph).execute()
        assert len(result.stats.dynamic_launches()) == 0

    def test_a_failed_job_still_closes_its_device(self):
        class Mismatch(AmrWorkload):
            def check(self, device):
                self.device = device
                raise WorkloadError("mismatch")

        workload = Mismatch("amr", ExecutionMode.FLAT, amr_grid(side=8))
        with pytest.raises(WorkloadError, match="mismatch"):
            workload.execute(latency_scale=LS)
        assert workload.device.closed

    def test_expect_raises_workload_error(self):
        workload = BfsWorkload("bfs", ExecutionMode.FLAT, citation_network(n=64))
        with pytest.raises(WorkloadError):
            workload.expect(False, "boom")


class TestRegexPipelineWithExtendedSyntax:
    """Wildcard/class patterns flow through the full GPU pipeline: the
    verification kernels walk whatever DFA table the engine produces."""

    def test_wildcard_patterns_on_device(self):
        from repro.workloads.datasets.strings import PacketSet
        import numpy as np

        rng = np.random.default_rng(71)
        packets = [
            rng.integers(ord("a"), ord("e"), size=int(rng.integers(40, 90))).astype(np.int64)
            for _ in range(24)
        ]
        data = PacketSet(
            packets=packets,
            patterns=["a.c", "b[cd]d", "d\\.x"],
            alphabet=128,
        )
        for mode in (ExecutionMode.FLAT, ExecutionMode.DTBL_IDEAL):
            RegexWorkload("regx_wild", mode, data).execute(latency_scale=LS)


class TestPersistentThreadsBfs:
    """The Section 6 persistent-threads baseline: BFS on the task-queue
    runtime's resident workers."""

    def test_distances_correct(self):
        graph = citation_network(n=250, attach=4)
        BfsWorkload("bfs_pt", ExecutionMode.PERSISTENT_ASYNC, graph).execute()

    def test_disconnected_graph_terminates(self):
        # Quiescence detection must not hang when most vertices are
        # unreachable (tiny worklist, many idle workers).
        graph = usa_road(n=36)
        BfsWorkload(
            "bfs_pt2", ExecutionMode.PERSISTENT_ASYNC, graph, source=0
        ).execute()

    def test_rejected_in_dynamic_modes(self):
        graph = citation_network(n=64)
        with pytest.raises(ValueError):
            BfsWorkload("x", ExecutionMode.DTBL, graph, expansion="warp")

    def test_unknown_expansion_rejected(self):
        graph = citation_network(n=64)
        for expansion in ("blocks", "persistent"):
            with pytest.raises(ValueError):
                BfsWorkload("x", ExecutionMode.FLAT, graph, expansion=expansion)
