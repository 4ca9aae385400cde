"""The paper's evidence, stated once: its figures and its claims as rows.

``FIGURES`` regenerates Tables 2-4, Figs. 6-12 and the Section 4.3
overhead model; ``CLAIMS`` states each sentence the reproduction answers
for as data (:mod:`repro.harness.claims` is the vocabulary).  A value the
paper reports is written here and nowhere else; so is every bound.
"""

from __future__ import annotations

from ..config import GPUConfig, LatencyModel
from ..dtbl.overhead import overhead_report
from ..runtime import ExecutionMode
from ..workloads import benchmark_names, get_benchmark
from .claims import Cells, Claim, Expect, Figure, Needs
from .reporting import geomean, mean

FLAT = ExecutionMode.FLAT
CDP = ExecutionMode.CDP
CDPI = ExecutionMode.CDP_IDEAL
DTBL = ExecutionMode.DTBL
DTBLI = ExecutionMode.DTBL_IDEAL

#: Every non-flat mode in the enum's canonical comparison order: Fig. 11
#: derives its columns from this, so a new mode appears without an edit.
DYNAMIC_MODES = tuple(
    mode for mode in ExecutionMode.comparison_order() if mode is not FLAT
)


def mode_column(mode: ExecutionMode) -> str:
    """Table-column label for a mode (the paper's shorthand)."""
    return mode.value.upper()


def stat_columns(name: str, needs: Needs, digits=None) -> tuple:
    """One ``SimStats`` attribute per mode, rounded as the figure prints it."""

    def column(mode):
        def value(c: Cells, b: str):
            stat = getattr(c(b, mode), name)
            if digits is None:
                return stat
            return round(stat, digits) if digits else round(stat)

        return mode_column(mode), value

    return tuple(column(mode) for mode in needs.modes)


def rows_where(row):
    """A measure: how many benchmarks satisfy ``row(cells, benchmark)``."""
    return lambda c: sum(1 for b in c.benchmarks if row(c, b))


# ----------------------------------------------------------------------
# Tables 2-4, Sections 4.2 and 4.3
# ----------------------------------------------------------------------

K20C = GPUConfig.k20c()
LATENCY = LatencyModel.measured_k20c()
OVERHEAD = overhead_report(K20C)
NO_CELL = Needs()

#: Table 4 as the paper prints it: configuration -> application.
TABLE4 = {
    "amr": "amr", "bht": "bht", "bfs_citation": "bfs", "bfs_usa_road": "bfs",
    "bfs_cage15": "bfs", "clr_citation": "clr", "clr_graph500": "clr",
    "clr_cage15": "clr", "regx_darpa": "regx", "regx_string": "regx",
    "pre_movielens": "pre", "join_uniform": "join", "join_gaussian": "join",
    "sssp_citation": "sssp", "sssp_flight": "sssp", "sssp_cage15": "sssp",
}


def table2() -> list:
    return [
        ["SMX Clock Freq.", f"{K20C.smx_clock_mhz}MHz"],
        ["Memory Clock Freq.", f"{K20C.memory_clock_mhz}MHz"],
        ["# of SMX", K20C.num_smx],
        ["Max # of Resident Thread Blocks per SMX", K20C.max_resident_blocks],
        ["Max # of Resident Threads per SMX", K20C.max_resident_threads],
        ["# of 32-bit Registers per SMX", K20C.registers_per_smx],
        ["L1 Cache / Shared Mem Size per SMX",
         f"{K20C.l1_size // 1024}KB / {K20C.shared_mem_size // 1024}KB"],
        ["Max # of Concurrent Kernels", K20C.max_concurrent_kernels],
    ]


def table3() -> list:
    return [
        ["cudaStreamCreateWithFlags (CDP only)", LATENCY.stream_create, "-", "-"],
        ["cudaGetParameterBuffer (CDP and DTBL)", "-",
         LATENCY.param_buffer_base, LATENCY.param_buffer_per_thread],
        ["cudaLaunchDevice (CDP only)", "-",
         LATENCY.launch_device_base, LATENCY.launch_device_per_thread],
        ["Kernel dispatching", LATENCY.kernel_dispatch, "-", "-"],
    ]


def table4() -> list:
    rows = []
    for name in benchmark_names():
        workload = get_benchmark(name, FLAT)
        rows.append([name, workload.app_name, type(workload).__name__])
    return rows


STATIC = (
    Claim("table2.k20c",
          "Table 2 is GPUConfig.k20c() (its Value column), which holds 64 warps per SMX",
          NO_CELL, lambda c: (*(v for _, v in table2()), K20C.max_resident_warps),
          Expect("=="),
          paper=("706MHz", "2600MHz", 13, 16, 2048, 65536, "16KB / 48KB", 32, 64)),
    Claim("table3.latency",
          "Table 3 is LatencyModel.measured_k20c() (its cycle counts, row by row)",
          NO_CELL,
          lambda c: tuple(v for row in table3() for v in row[1:] if v != "-"),
          Expect("=="), paper=(7165, 8023, 129, 12187, 1592, 283)),
    Claim("table4.registry",
          "Table 4's 16 inputs of 8 applications are registered under their "
          "applications, and nothing else is (registry rows that differ)", NO_CELL,
          lambda c: len({(n, a) for n, a, _ in table4()} ^ TABLE4.items()),
          Expect("=="), paper=0),
    Claim("s4.2.match_rate",
          "S4.2: an aggregated group finds an eligible kernel (mean match rate "
          "of the launch-dense inputs under ideal latency, where launches crowd "
          "as at paper scale)",
          Needs((DTBLI,), ("amr", "join_gaussian", "regx_string", "bht")),
          lambda c: mean(c(b, DTBLI).agg_match_rate for b in c.benchmarks),
          Expect(">", 0.9), paper=0.98),
    Claim("s4.3.fraction", "S4.3: the AGT is about 0.5 % of SMX storage", NO_CELL,
          lambda c: OVERHEAD.fraction_of_smx_storage, Expect("<", 0.01), paper=0.005),
)
AGT_SRAM = Claim("s4.3.agt_sram", "AGT SRAM bytes", NO_CELL,
                 lambda c: OVERHEAD.agt_sram_bytes, Expect("=="), paper=20 * 1024)
REGISTER_BYTES = Claim("s4.3.registers", "extra register bytes", NO_CELL,
                       lambda c: OVERHEAD.register_bytes, Expect("=="), paper=1096)

# ----------------------------------------------------------------------
# Figs. 6-12: the per-benchmark quantities and the aggregates the paper quotes
# ----------------------------------------------------------------------

FLAT_CDP_DTBL = Needs((FLAT, CDP, DTBL))
IDEAL_AND_REAL = Needs((CDPI, DTBLI, CDP, DTBL))
CDP_DTBL = Needs((CDP, DTBL))
ALL_MODES = Needs(ExecutionMode.comparison_order())
#: Fig. 12's launch-dense subset plus one control, DTBL under three AGT sizes.
AGT_SIZES = Needs(
    (DTBL,), ("bht", "regx_string", "amr", "bfs_citation"), ("agt512", "", "agt2048")
)
OVERSHOOT = ("overshoot: a lightly loaded GPU amplifies latency differences "
             "(calibration note 3)")


def activity_gain(c: Cells, b: str, mode=DTBL) -> float:
    return c(b, mode).warp_activity_pct - c(b, FLAT).warp_activity_pct


def dram_gain(c: Cells, b: str, mode=DTBL) -> float:
    return c(b, mode).dram_efficiency - c(b, FLAT).dram_efficiency


def occupancy_gain(c: Cells, b: str, mode, over) -> float:
    return c(b, mode).smx_occupancy_pct - c(b, over).smx_occupancy_pct


def launches(c: Cells, b: str) -> bool:
    """Whether the benchmark has a dynamic launch to wait for at all."""
    return c(b, CDP).avg_waiting_cycles != 0 or c(b, DTBL).avg_waiting_cycles != 0


def waiting_change(c: Cells, mode, over) -> float:
    """Mean relative change in waiting time over the rows where ``over`` waits."""
    pairs = [
        (c(b, mode).avg_waiting_cycles, c(b, over).avg_waiting_cycles)
        for b in c.benchmarks if launches(c, b)
    ]
    return mean((new - old) / old for new, old in pairs if old > 0)


def has_footprint(c: Cells, b: str) -> bool:
    return c(b, CDP).peak_footprint_bytes != 0


def footprint_reduction(c: Cells, b: str) -> float:
    cdp = c(b, CDP).peak_footprint_bytes
    return 100.0 * (cdp - c(b, DTBL).peak_footprint_bytes) / cdp


def speedup(mode):
    """The measure of a mode's Fig. 11 geomean."""
    return lambda c: geomean(c.speedup(b, mode) for b in c.benchmarks)


def agt_speedup(c: Cells, b: str, variant: str) -> float:
    """DTBL performance under a config variant, normalized to Table 2's."""
    return c.cycles(b, DTBL) / c.cycles(b, DTBL, variant)


def agt_geomean(variant: str):
    return lambda c: geomean(agt_speedup(c, b, variant) for b in c.benchmarks)


ACTIVITY_GAIN = Claim(
    "fig6.gain", "avg warp-activity gain (DTBL - flat, pp)", FLAT_CDP_DTBL,
    lambda c: mean(activity_gain(c, b) for b in c.benchmarks),
    Expect(">", 3.0), paper=10.7)
DRAM_GAINS = (
    Claim("fig7.cdp_gain", "avg DRAM-efficiency gain CDP - flat", FLAT_CDP_DTBL,
          lambda c: mean(dram_gain(c, b, CDP) for b in c.benchmarks),
          Expect(">", 0.0), "direction", paper=0.029),
    Claim("fig7.dtbl_gain", "avg DRAM-efficiency gain DTBL - flat", FLAT_CDP_DTBL,
          lambda c: mean(dram_gain(c, b) for b in c.benchmarks),
          Expect(">", 0.0), "direction", paper=0.053),
)
SMALL_GRIDS = ("grids of thousands, not millions, of threads: occupancy is a few "
               "percent with or without launch latency")
OCCUPANCY = (
    Claim("fig8.ratio", "DTBLI / CDPI occupancy ratio (geomean)", IDEAL_AND_REAL,
          lambda c: geomean(
              c(b, DTBLI).smx_occupancy_pct / c(b, CDPI).smx_occupancy_pct
              for b in c.benchmarks if c(b, CDPI).smx_occupancy_pct > 0),
          Expect(">", 1.0), "direction", paper=1.24,
          reason="undershoot: CDP's 32-kernel ceiling binds only during launch "
          "bursts at these launch densities"),
    Claim("fig8.cdp_drop", "avg occupancy drop CDP vs CDPI (pp)", IDEAL_AND_REAL,
          lambda c: mean(occupancy_gain(c, b, CDP, CDPI) for b in c.benchmarks),
          Expect("within", 0.5), "gap", paper=-10.7, reason=SMALL_GRIDS,
          pinned=Expect("between", (-5.0, 0.5))),
    Claim("fig8.dtbl_drop", "avg occupancy drop DTBL vs DTBLI (pp)", IDEAL_AND_REAL,
          lambda c: mean(occupancy_gain(c, b, DTBL, DTBLI) for b in c.benchmarks),
          Expect("within", 0.5), "gap", paper=-5.2, reason=SMALL_GRIDS,
          pinned=Expect("between", (-2.5, 0.5))),
)
_, CDP_DROP, DTBL_DROP = OCCUPANCY
WAITING = (
    Claim("fig9.ideal", "avg waiting-time change DTBLI vs CDPI", IDEAL_AND_REAL,
          lambda c: waiting_change(c, DTBLI, CDPI),
          Expect("<", 0.05), "direction", paper=-0.188, reason=OVERSHOOT),
    Claim("fig9.real", "avg waiting-time change DTBL vs CDP", IDEAL_AND_REAL,
          lambda c: waiting_change(c, DTBL, CDP),
          Expect("<", 0.0), "direction", paper=-0.241, reason=OVERSHOOT),
)
FOOTPRINT = Claim(
    "fig10.avg", "avg footprint reduction (%)", CDP_DTBL,
    lambda c: mean(footprint_reduction(c, b) for b in c.benchmarks
                   if has_footprint(c, b)),
    Expect(">", 10.0), "direction", paper=25.6, reason=OVERSHOOT)

NO_ANCHOR = ("this paper has no number for the software rivals; external "
             "anchors are ROADMAP item 6, slice 4")
#: Fig. 11's geomeans: mode -> (expectation, status, paper's value, reason).
SPEEDUP_ROWS = {
    "cdpi": (Expect(">", 1.0), "direction", 1.43, OVERSHOOT),
    "dtbli": (Expect(">", 1.0), "direction", 1.63, OVERSHOOT),
    "cdp": (Expect("<", 1.0), "gap", 0.86,
            "flat baselines of a few thousand threads cannot hide memory latency "
            "on 13 SMXs, so any added parallelism pays, even overhead-laden CDP; "
            "CDP < 1 still shows where flat is well occupied (fig11.cdp_rows)"),
    "dtbl": (Expect(">", 1.0), "direction", 1.21, OVERSHOOT),
    "cdpa": (Expect(">", 1.0), "direction", None, NO_ANCHOR),
    "cons": (Expect(">", 1.0), "direction", None, NO_ANCHOR),
    "persistent": (Expect("<", 1.0), "direction", None, NO_ANCHOR),
    "persistent-async": (Expect("<", 1.0), "direction", None, NO_ANCHOR),
}
SPEEDUPS = tuple(
    Claim(f"fig11.{mode.value}", f"{mode_column(mode)} speedup (geomean)", ALL_MODES,
          speedup(mode), expect, status, paper=paper, reason=reason,
          pinned=Expect("between", (1.0, 2.0)) if status == "gap" else None)
    for mode in DYNAMIC_MODES
    for expect, status, paper, reason in [SPEEDUP_ROWS[mode.value]]
)
AGT_ONLY_AMR = "only amr keeps hundreds of groups pending at once at this scale"
AGT_GEOMEANS = (
    Claim("fig12.512", "normalized speedup @ AGT 512 (geomean)", AGT_SIZES,
          agt_geomean("agt512"), Expect("<=", 1.001), "direction",
          paper=1 / 1.31, reason=AGT_ONLY_AMR),
    Claim("fig12.1024", "normalized speedup @ AGT 1024 (geomean)", AGT_SIZES,
          agt_geomean(""), Expect("=="), paper=1.0),
    Claim("fig12.2048", "normalized speedup @ AGT 2048 (geomean)", AGT_SIZES,
          agt_geomean("agt2048"), Expect(">=", 0.999), "direction",
          paper=1.20, reason=AGT_ONLY_AMR),
)

FIGURES = (
    Figure("table2", "Table 2", "GPU Configuration Parameters",
           headers=("Parameter", "Value"), table=table2),
    Figure("table3", "Table 3",
           "Latency Modeling for CDP and DTBL (cycles; b + A*x per warp)",
           headers=("API", "flat", "b", "A"), table=table3),
    Figure("table4", "Table 4", "Benchmarks used in the experimental evaluation",
           headers=("Configuration", "Application", "Workload class"), table=table4),
    Figure("6", "Figure 6", "Warp Activity Percentage", FLAT_CDP_DTBL,
           stat_columns("warp_activity_pct", FLAT_CDP_DTBL, 1), (ACTIVITY_GAIN,)),
    Figure("7", "Figure 7", "DRAM Efficiency", FLAT_CDP_DTBL,
           stat_columns("dram_efficiency", FLAT_CDP_DTBL), DRAM_GAINS),
    Figure("8", "Figure 8", "SMX Occupancy (%)", IDEAL_AND_REAL,
           stat_columns("smx_occupancy_pct", IDEAL_AND_REAL, 1), OCCUPANCY),
    Figure("9", "Figure 9",
           "Average Waiting Time for a Kernel or an Aggregated Group (cycles)",
           IDEAL_AND_REAL, stat_columns("avg_waiting_cycles", IDEAL_AND_REAL, 0),
           WAITING, keep=launches),
    Figure("10", "Figure 10", "Memory Footprint Reduction of DTBL from CDP", CDP_DTBL,
           (("CDP peak (B)", lambda c, b: c(b, CDP).peak_footprint_bytes),
            ("DTBL peak (B)", lambda c, b: c(b, DTBL).peak_footprint_bytes),
            ("reduction (%)", lambda c, b: round(footprint_reduction(c, b), 1))),
           (FOOTPRINT,), keep=has_footprint),
    Figure("11", "Figure 11", "Overall Performance: Speedup over Flat Implementation",
           ALL_MODES,
           tuple((mode_column(m), lambda c, b, m=m: round(c.speedup(b, m), 2))
                 for m in DYNAMIC_MODES),
           SPEEDUPS,
           note="Paper averages are arithmetic; the geomean shown here is less "
           "sensitive to the scaled-down outliers."),
    Figure("12", "Figure 12",
           "Performance Sensitivity to AGT Size (normalized to 1024 entries)",
           AGT_SIZES,
           tuple((str(size), lambda c, b, v=v: round(agt_speedup(c, b, v), 3))
                 for size, v in ((512, "agt512"), (1024, ""), (2048, "agt2048"))),
           AGT_GEOMEANS),
    Figure("overhead", "Section 4.3", "DTBL Hardware Overhead",
           summary=(AGT_SRAM, REGISTER_BYTES),
           headers=("quantity", "value"), table=OVERHEAD.rows),
)

# ----------------------------------------------------------------------
# The claims that are not a figure's aggregate
# ----------------------------------------------------------------------

AMR_AGT1 = Needs((DTBL,), ("amr",), ("", "agt1"))
AMR_KDE256 = Needs((DTBL,), ("amr",), ("", "kde256"))
BFS_RR = Needs((CDP, DTBL), ("bfs_citation",), ("", "rr"))

ROWS = (
    # -- Figure 6 ------------------------------------------------------
    Claim("fig6.cdp_is_dtbl",
          "CDP and DTBL launch the same work, so their activities are "
          "\"fundamentally the same\" (rows 2 pp or more apart)", FLAT_CDP_DTBL,
          rows_where(lambda c, b: abs(activity_gain(c, b, CDP) - activity_gain(c, b))
                     >= 2.0), Expect("<=", 0)),
    Claim("fig6.amr", "amr gains the most (pp)", FLAT_CDP_DTBL.on("amr"),
          lambda c: activity_gain(c, "amr"), Expect(">", 10.0), "direction", paper=45.3),
    Claim("fig6.join_gaussian", "join_gaussian gains next (pp)",
          FLAT_CDP_DTBL.on("join_gaussian"),
          lambda c: activity_gain(c, "join_gaussian"),
          Expect(">", 10.0), "direction", paper=21.3),
    Claim("fig6.clr_graph500", "the balanced clr_graph500 barely moves (|pp|)",
          FLAT_CDP_DTBL.on("clr_graph500"),
          lambda c: abs(activity_gain(c, "clr_graph500")), Expect("<", 3.0)),
    Claim("fig6.clr_cage15", "clr_cage15 loses activity: launches break its balance (pp)",
          FLAT_CDP_DTBL.on("clr_cage15"), lambda c: activity_gain(c, "clr_cage15"),
          Expect("within", 0.25), paper=-5.9),
    # -- Figure 7 ------------------------------------------------------
    Claim("fig7.dtbl_over_cdp",
          "DTBL's extra occupancy gives it at least CDP's efficiency (mean DTBL - CDP)",
          FLAT_CDP_DTBL,
          lambda c: mean(dram_gain(c, b) - dram_gain(c, b, CDP) for b in c.benchmarks),
          Expect(">", -0.01), "direction", paper=0.022),
    Claim("fig7.join_gaussian", "the skewed join_gaussian gains clearly (DTBL - flat)",
          FLAT_CDP_DTBL.on("join_gaussian"),
          lambda c: dram_gain(c, "join_gaussian"), Expect(">", 0.02)),
    Claim("fig7.regx_darpa", "regx_darpa gains (DTBL - flat)",
          FLAT_CDP_DTBL.on("regx_darpa"),
          lambda c: dram_gain(c, "regx_darpa"), Expect(">", 0.0)),
    Claim("fig7.physical", "every efficiency is a fraction (cells outside [0, 1])",
          FLAT_CDP_DTBL,
          lambda c: sum(not 0.0 <= c(b, m).dram_efficiency <= 1.0
                        for b in c.benchmarks for m in FLAT_CDP_DTBL.modes),
          Expect("<=", 0)),
    Claim("fig7.cage15",
          "clr_cage15 and sssp_cage15 gain the most (their mean DTBL - flat)",
          FLAT_CDP_DTBL.on("clr_cage15", "sssp_cage15"),
          lambda c: mean(dram_gain(c, b) for b in c.benchmarks),
          Expect(">", 0.0), "gap", pinned=Expect("between", (-0.05, 0.0)),
          reason="at 1/1000 dataset scale flat cage15's 32-way scattered bursts keep "
          "the scaled DRAM saturated and incidentally row-coincident, so flat "
          "measures higher; the paper's gain came from thousands of concurrent "
          "coalesced child streams"),
    # -- Figure 8 ------------------------------------------------------
    Claim("fig8.rows", "DTBLI occupancy is at least CDPI's (rows, of 16)",
          IDEAL_AND_REAL,
          rows_where(lambda c, b: occupancy_gain(c, b, DTBLI, CDPI) >= 0),
          Expect(">=", 15)),
    Claim("fig8.bht",
          "the fine-grained bht sees a DTBLI advantage (DTBLI - CDPI, pp as printed)",
          IDEAL_AND_REAL.on("bht"),
          lambda c: round(c("bht", DTBLI).smx_occupancy_pct, 1)
          - round(c("bht", CDPI).smx_occupancy_pct, 1),
          Expect(">=", 0.0), "direction"),
    Claim("fig8.cdp_hurt_more",
          "launch latency costs CDP at least the occupancy it costs DTBL "
          "(CDP drop - DTBL drop, pp)", IDEAL_AND_REAL,
          lambda c: CDP_DROP.measure(c) - DTBL_DROP.measure(c),
          Expect("<=", 0.5), "direction"),
    # -- Figure 9 ------------------------------------------------------
    Claim("fig9.rows",
          "most benchmarks wait no longer under DTBL (share of launching rows)",
          IDEAL_AND_REAL,
          lambda c: rows_where(lambda c, b: launches(c, b) and
                               c(b, DTBL).avg_waiting_cycles
                               <= c(b, CDP).avg_waiting_cycles)(c)
          / rows_where(launches)(c), Expect(">=", 0.6)),
    # -- Figure 10 -----------------------------------------------------
    Claim("fig10.rows", "DTBL's peak pending footprint never exceeds CDP's (rows above)",
          CDP_DTBL,
          rows_where(lambda c, b: c(b, DTBL).peak_footprint_bytes
                     > c(b, CDP).peak_footprint_bytes), Expect("<=", 0)),
    Claim("fig10.regx_string", "the launch-dense regx_string shrinks the most (%)",
          CDP_DTBL.on("regx_string"), lambda c: footprint_reduction(c, "regx_string"),
          Expect(">", 20.0), paper=51.2),
    # -- Figure 11 -----------------------------------------------------
    Claim("fig11.dtbl_over_cdp", "DTBL speedup over CDP (geomean of ratios)",
          FLAT_CDP_DTBL,
          lambda c: geomean(c.cycles(b, CDP) / c.cycles(b, DTBL) for b in c.benchmarks),
          Expect("within", 0.25), paper=1.40),
    Claim("fig11.orderings",
          "DTBLI > CDPI, DTBL > CDP, and each ideal above its real (the smallest "
          "of the four geomean differences)", ALL_MODES,
          lambda c: min(speedup(a)(c) - speedup(b)(c) for a, b in
                        ((DTBLI, CDPI), (DTBL, CDP), (DTBLI, DTBL), (CDPI, CDP))),
          Expect(">", 0.0)),
    Claim("fig11.dtbl_ge_cdp", "DTBL is never slower than CDP (rows where it is)",
          FLAT_CDP_DTBL, rows_where(lambda c, b: c.cycles(b, DTBL) > c.cycles(b, CDP)),
          Expect("<=", 0)),
    Claim("fig11.dtbl_gt_cdp",
          "DTBL is strictly faster than CDP (rows, of 16; the rest tie)", FLAT_CDP_DTBL,
          rows_where(lambda c, b: c.cycles(b, DTBL) < c.cycles(b, CDP)),
          Expect(">=", 14)),
    Claim("fig11.cdp_rows", "CDP is slower than flat where flat is well occupied "
          "(rows, of 16)", FLAT_CDP_DTBL,
          rows_where(lambda c, b: c.speedup(b, CDP) < 1.0), Expect(">=", 5), "direction"),
    Claim("fig11.no_dfp",
          "bfs_usa_road and sssp_flight have too little dynamic parallelism to "
          "change under DTBL (rows outside 0.9-1.1)",
          FLAT_CDP_DTBL.on("bfs_usa_road", "sssp_flight"),
          rows_where(lambda c, b: not 0.9 < c.speedup(b, DTBL) < 1.1), Expect("<=", 0)),
    Claim("fig11.clr_graph500", "the balanced clr_graph500 does not benefit from DTBL",
          FLAT_CDP_DTBL.on("clr_graph500"), lambda c: c.speedup("clr_graph500", DTBL),
          Expect("<", 1.05), paper=0.97),
    # -- Figure 12 -----------------------------------------------------
    Claim("fig12.spread", "a larger AGT never loses to a smaller one (2048 - 512 geomean)",
          AGT_SIZES, lambda c: agt_geomean("agt2048")(c) - agt_geomean("agt512")(c),
          Expect(">=", 0.0)),
    # -- Ablations the design calls out (the paper has no figure for them)
    Claim("ablation.agt1.slowdown",
          "S4.3: keeping every group descriptor in global memory (a 1-entry AGT) "
          "slows amr down (x)", AMR_AGT1,
          lambda c: 1 / agt_speedup(c, "amr", "agt1"), Expect(">", 1.05)),
    Claim("ablation.agt1.spills", "... because its groups spill (extra hash spills)",
          AMR_AGT1, lambda c: c("amr", DTBL, "agt1").agt_hash_spills
          - c("amr", DTBL).agt_hash_spills, Expect(">", 0)),
    Claim("ablation.kde256.slower",
          "S4.3: a 256-entry KDE without coalescing loses to DTBL on amr (x)",
          AMR_KDE256, lambda c: 1 / agt_speedup(c, "amr", "kde256"), Expect(">", 1.0)),
    Claim("ablation.kde256.uncoalesced", "... where nothing coalesces (groups matched)",
          AMR_KDE256, lambda c: c("amr", DTBL, "kde256").agg_matched,
          Expect("=="), paper=0),
    Claim("ablation.kde256.match_rate",
          "... while DTBL coalesces most of amr's groups (match rate)", AMR_KDE256,
          lambda c: c("amr", DTBL).agg_match_rate, Expect(">", 0.5)),
    Claim("ablation.rr",
          "S5.1: DTBL is transparent to warp scheduling — it beats CDP on "
          "bfs_citation under GTO and round-robin (the smaller CDP / DTBL)", BFS_RR,
          lambda c: min(c.cycles("bfs_citation", CDP, v) / c.cycles("bfs_citation", DTBL, v)
                        for v in BFS_RR.variants), Expect(">", 1.0)),
)

#: Every claim, in document order (the sort is stable: within a section,
#: a figure's aggregates come before the rest of its rows).
SECTIONS = ("table2", "table3", "table4", *(f"fig{n}" for n in range(6, 13)),
            "s4", "ablation")
CLAIMS = tuple(sorted(
    STATIC + tuple(c for figure in FIGURES for c in figure.summary) + ROWS,
    key=lambda claim: SECTIONS.index(claim.id.split(".")[0]),
))

INTRO = """\
Every table and figure of the paper's evaluation (Section 5) against this
reproduction.  This file is the standard output of `python -m repro.harness`:
the tables, every measured number and every verdict are computed from the
rows of `src/repro/harness/paper.py`, and `pytest benchmarks` fails when a
verdict stops holding or when this file is not what the harness prints.
Do not edit it: edit a row and regenerate it
(`python -m repro.harness --jobs 2 > EXPERIMENTS.md`; `--figure N` prints
one table; with `--checkpoint-every N` a rerun of an interrupted sweep
continues from its checkpoints).

**Configuration.** Table 2 GPU (13 SMXs, 64 resident warps/SMX, 32-entry
Kernel Distributor, 1024-entry AGT), L2 = 96 KB (scaled with the
datasets); every cell is verified against a pure-Python reference before
its statistics are used."""

LEGEND = """\
A row's status is recorded in its row and checked on every run:
**reproduced** — the expectation holds as the paper states it;
**direction** — the sign or ordering holds, the magnitude is off;
**gap** — the paper's expectation does not hold here.  A gap row fails
when it closes as well as when it drifts, so a calibration has to
re-record it on purpose."""

NOTES = """\
## Beyond the rows

Two ablations drive hand-built workloads no `JobSpec` names, so they are
tests and not rows: warp-level BFS expansion, the paper's actual flat
BFS, recovers most of the dynamic modes' balance benefit with no launch
cost, which is why the paper's BFS rows gain modestly
(`benchmarks/test_ablation_bfs_baseline.py`); and a persistent-threads
worklist executes several times DTBL's instructions for the same
traversal, the software-scheduling cost DTBL moves into hardware
(`benchmarks/test_ablation_persistent.py`).
`benchmarks/test_table3_latency.py` drives one launch through the
simulator and checks that its path is charged what Table 3 says.

## Calibration notes (read before comparing magnitudes)

1. **Dataset scale.** Pure-Python simulation caps inputs at a thousand to
   ten thousand elements, three to four orders of magnitude below the
   paper's.  Ratio effects survive; absolute occupancies, queue depths
   and the flat baseline's latency hiding do not.
2. **Launch-latency scale.** With tiny grids there are no spare warps to
   hide a launch of thousands of cycles, so un-scaled Table 3 latencies
   would dominate every result; scaling them with the datasets preserves
   every CDP:DTBL cost ratio (`--latency-scale 1.0` runs un-scaled).
3. **Where we overshoot** (DTBL speedups, waiting-time and footprint
   reductions): the same argument in DTBL's favour — a lightly loaded GPU
   amplifies latency differences.  The thread-starved outliers (pre, regx)
   inflate all four Fig. 11 averages alike; the DTBL-over-CDP ratio
   cancels the flat baseline.
4. **Section 4.2 under measured latencies.** On the iterative graph
   benchmarks launches spread out and child kernels drain between them,
   so the match rate falls well below the dense-launching figure; the
   fallback path (launch as a device kernel) handles every miss."""
