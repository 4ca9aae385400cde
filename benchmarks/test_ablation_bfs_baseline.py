"""Ablation: BFS flat baseline strategy (thread-serial vs warp-level).

The paper's flat BFS baseline [23] already employs warp-level vertex
expansion, which balances work within a warp without dynamic launches —
the reason BFS's CDP/DTBL gains are smaller than AMR's in Fig. 6/11.
This bench quantifies that: warp-level expansion must recover a large
part of the dynamic modes' warp-activity gain, and narrow (though not
necessarily close) the cycle gap.
"""

from repro import ExecutionMode
from repro.harness.runner import DEFAULT_LATENCY_SCALE
from repro.workloads.bfs import BfsWorkload
from repro.workloads.datasets.graphs import citation_network


def test_warp_expansion_narrows_the_dynamic_gap():
    graph = citation_network(n=1200, attach=4)

    results = {}
    for key, mode, expansion in (
        ("flat_thread", ExecutionMode.FLAT, "thread"),
        ("flat_warp", ExecutionMode.FLAT, "warp"),
        ("dtbl", ExecutionMode.DTBL, "thread"),
    ):
        workload = BfsWorkload("bfs", mode, graph, expansion=expansion)
        results[key] = workload.execute(latency_scale=DEFAULT_LATENCY_SCALE).stats
    print()
    for key, stats in results.items():
        print(
            f"  {key:12s} cycles={stats.cycles:>9,} "
            f"warp_act={stats.warp_activity_pct:5.1f}%"
        )
    thread = results["flat_thread"]
    warp = results["flat_warp"]
    dtbl = results["dtbl"]
    # Warp-level expansion beats thread-serial expansion outright...
    assert warp.cycles < thread.cycles
    # ...by balancing work across lanes (higher warp activity than the
    # serial loops achieve).
    assert warp.warp_activity_pct > thread.warp_activity_pct
    # DTBL still clearly beats the thread-serial baseline.
    assert dtbl.cycles < thread.cycles
    # Note: at this scale warp-level expansion outruns even DTBL — it gets
    # 32-way parallelism per frontier vertex with zero launch cost.  This
    # is exactly why the paper's flat BFS already uses it, and why the
    # paper's BFS rows in Fig. 11 show modest (not dramatic) CDP/DTBL
    # gains: dynamic launches only add *variable-size* expansion on top.
