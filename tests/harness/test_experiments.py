"""The evaluator: structure on a small real grid, mechanics on a fake resolver."""

import hashlib
import types

import pytest

from repro.exec import canonical_json
from repro.harness import CLAIMS, Cells, Claim, ClaimError, Expect, Needs, evaluate
from repro.harness.claims import CellKey
from repro.harness.experiments import Experiment
from repro.harness.paper import SPEEDUP_COLUMNS, mode_column
from repro.harness.reporting import geomean
from repro.harness.runner import run_jobs
from repro.runtime import ExecutionMode
from repro.sim.stats import LaunchKind, LaunchRecord, SimStats
from repro.workloads import benchmark_names

FLAT, CDP, DTBL = ExecutionMode.FLAT, ExecutionMode.CDP, ExecutionMode.DTBL
#: Every mode, and the two ideal rungs (the paper's CDPI and DTBLI).
CELLS_PER_BENCHMARK = len(ExecutionMode.comparison_order()) + 2


class FakeStats:
    """A ``SimStats`` stand-in: every counter reads ``default`` unless given."""

    def __init__(self, default=1, **fields):
        self.__dict__.update(fields, default=default)

    def __getattr__(self, name):
        return self.default


def fake_resolver(calls):
    def resolve(specs):
        calls.append(specs)
        return [types.SimpleNamespace(stats=FakeStats(), sanitizer=None) for _ in specs]

    return resolve


def static(figure: str) -> Experiment:
    """A table that reads no cell: nothing to resolve."""
    return evaluate(resolve=None, figure=figure).experiments[figure]


class TestStaticTables:
    def test_table2_rows(self):
        exp = static("table2")
        assert exp.experiment_id == "Table 2"
        assert len(exp.rows) == 8

    def test_table3_rows(self):
        flat_costs = {row[0]: row[1] for row in static("table3").rows}
        assert flat_costs["Kernel dispatching"] == 283

    def test_table4_lists_all(self):
        assert len(static("table4").rows) == 16

    def test_overhead(self):
        assert static("overhead").summary["AGT SRAM bytes"] == 20480

    def test_render_includes_paper_values(self):
        """... in the measured value's format, not as a bare float repr."""
        assert "AGT SRAM bytes: 20,480 (paper: 20,480)" in static("overhead").render()
        fig12 = evaluate(fake_resolver([]), figure="12").experiments["12"].render()
        assert "AGT 512 (geomean): 1.000 (paper: 0.763)" in fig12


@pytest.fixture(scope="module")
def small():
    return evaluate(run_jobs, benchmarks=["bfs_citation", "join_gaussian"], scale=0.12)


class TestGridFigures:
    def test_fig6_structure(self, small):
        exp = small.experiments["6"]
        assert isinstance(exp, Experiment)
        assert {row[0] for row in exp.rows} == {"bfs_citation", "join_gaussian"}
        assert "avg warp-activity gain (DTBL - flat, pp)" in exp.summary

    def test_fig10_structure(self, small):
        for _name, cdp, dtbl, reduction in small.experiments["10"].rows:
            assert cdp >= 0 and dtbl >= 0
            assert reduction == pytest.approx(100.0 * (cdp - dtbl) / cdp, abs=0.1)

    def test_fig11_structure(self, small):
        exp = small.experiments["11"]
        assert exp.headers == ["benchmark"] + [
            mode_column(mode, rung) for mode, rung in SPEEDUP_COLUMNS
        ]
        assert exp.headers == [
            "benchmark", "CDPI", "DTBLI", "CDP", "DTBL", "CDPA", "CONS",
            "PERSISTENT", "PERSISTENT-ASYNC",
        ]
        for row in exp.rows:
            assert all(value > 0 for value in row[1:])

    def test_all_modes_present(self, small):
        """2 benchmarks x (7 modes + 2 ideal rungs + 2 AGT sizes), and
        bfs_citation's two round-robin cells: the only ablation inside this
        selection."""
        assert len(small.results) == 2 * (CELLS_PER_BENCHMARK + 2) + 2
        judged = {verdict.claim.id for verdict in small.verdicts}
        assert "ablation.rr" in judged and "fig6.gain" not in judged
        assert len(judged) + len(small.unjudged) == len(CLAIMS)
        assert f"{len(small.unjudged)} not judged" in small.document()


class TestEvaluator:
    def test_figure12_needs_three_agt_sizes_and_nothing_else(self):
        calls = []
        evaluate(fake_resolver(calls), figure="12", benchmarks=["amr", "bht"])
        (specs,) = calls
        assert sorted(
            (spec.benchmark, spec.mode, spec.config.agt_entries) for spec in specs
        ) == [(name, DTBL, size) for name in ("amr", "bht") for size in (512, 1024, 2048)]

    def test_full_evaluation_is_one_resolve_call(self):
        calls = []
        evaluation = evaluate(fake_resolver(calls))
        (specs,) = calls
        prints = [spec.fingerprint() for spec in specs]
        assert len(set(prints)) == len(prints)
        # The grid, Fig. 12's two other sizes on four benchmarks, four ablation cells.
        assert len(specs) == 16 * CELLS_PER_BENCHMARK + 4 * 2 + 4
        assert not evaluation.unjudged

    def test_perturbed_cell_flips_exactly_its_readers(self):
        needs = Needs((FLAT, DTBL), ("amr", "bht"))
        toys = [
            Claim("toy.amr", "", needs.on("amr"),
                  lambda c: c.speedup("amr", DTBL), Expect(">", 1.5)),
            Claim("toy.bht", "", needs.on("bht"),
                  lambda c: c.speedup("bht", DTBL), Expect(">", 1.5)),
            Claim("toy.both", "", needs,
                  lambda c: geomean(c.speedup(b, DTBL) for b in c.benchmarks),
                  Expect(">", 1.5)),
        ]
        world = {CellKey(name, mode): FakeStats(cycles=1000 if mode is FLAT else 500)
                 for name in needs.benchmarks for mode in needs.modes}

        def judge(world):
            return {toy.id: toy.judge(Cells(world, toy.needs, toy.needs.benchmarks))
                    for toy in toys}

        assert all(verdict.ok for verdict in judge(world).values())
        broken = CellKey("amr", DTBL)
        verdicts = judge({**world, broken: FakeStats(cycles=2000)})
        assert {id for id, v in verdicts.items() if not v.ok} == \
            {id for id, v in verdicts.items() if broken in v.cells} == \
            {"toy.amr", "toy.both"}
        assert verdicts["toy.amr"].failure() == (
            "toy.amr (reproduced): measured 0.500 from amr/flat, amr/dtbl; "
            "expected > 1.500"
        )

    @pytest.mark.parametrize("claim_id, world, recorded, paper, beyond", [
        ("fig11.cdp", lambda x: {(FLAT, None): FakeStats(cycles=1000),
                                 (CDP, None): FakeStats(cycles=1000 / x)}, 1.37, None, 3.0),
        ("fig8.cdp_drop", lambda d: {(CDP, 0): FakeStats(smx_occupancy_pct=20),
                                     (CDP, None): FakeStats(smx_occupancy_pct=20 + d)},
         -0.9, None, 2.0),
        ("fig8.dtbl_drop", lambda d: {(DTBL, 0): FakeStats(smx_occupancy_pct=20),
                                      (DTBL, None): FakeStats(smx_occupancy_pct=20 + d)},
         -0.8, None, 2.0),
        ("fig7.cage15", lambda d: {(FLAT, None): FakeStats(dram_efficiency=0.1),
                                   (DTBL, None): FakeStats(dram_efficiency=0.1 + d)},
         -0.01, 0.02, -0.08),
    ])
    def test_gap_rows_fail_when_flipped_either_way(
        self, claim_id, world, recorded, paper, beyond
    ):
        (claim,) = [claim for claim in CLAIMS if claim.id == claim_id]
        assert claim.status == "gap"
        names = claim.needs.benchmarks or benchmark_names()

        def ok(value):
            by_cell = world(value)
            stats = {key: by_cell.get((key.mode, key.latency), FakeStats())
                     for key in claim.needs.cells(names)}
            return claim.judge(Cells(stats, claim.needs, names)).ok

        assert ok(recorded)
        # The paper's own value (or, without one, its expectation) measured
        # here means the gap closed: the row must be re-recorded on purpose.
        assert not ok(claim.paper if paper is None else paper)
        assert not ok(beyond)  # left its recorded side the other way

    def test_reading_outside_the_declared_needs_fails_at_construction(self):
        with pytest.raises(ClaimError, match="toy.*amr/cdp is outside"):
            Claim("toy", "", Needs((DTBL,), ("amr",)),
                  lambda c: c("amr", CDP).cycles, Expect(">", 0))

    def test_a_cell_that_ran_nothing_is_an_error_not_a_zero(self):
        needs = Needs((FLAT, DTBL), ("amr",))
        dead = {key: FakeStats(cycles=0 if key.mode is DTBL else 1000)
                for key in needs.cells(["amr"])}
        with pytest.raises(ClaimError, match="amr/dtbl ran 0 cycles"):
            Cells(dead, needs, ["amr"]).speedup("amr", DTBL)


def counting_resolver(specs):
    """Real ``SimStats``, every counter distinct per spec (nothing runs)."""
    results = []
    for i, spec in enumerate(specs):
        stats = SimStats(spec.config)
        for offset, name in enumerate(SimStats._COUNTER_FIELDS):
            setattr(stats, name, 1000 * (i + 1) + offset)
        stats.coalescing.record(lanes=32, transactions=i + 1)
        stats.launches = [
            LaunchRecord(LaunchKind.HOST_KERNEL, spec.benchmark, 0, 1, 32)
        ] * (i % 3 + 1)
        results.append(types.SimpleNamespace(stats=stats, sanitizer=None))
    return results


class TestLatencyRungs:
    """A cell's launch-latency rung is part of its key: ``None`` is the
    run's ``latency_scale``, ``0`` the paper's ideal configuration."""

    @staticmethod
    def specs(**run):
        """The specs Fig. 8 (CDP and DTBL at rungs 0 and None) resolves."""
        calls = []
        evaluate(fake_resolver(calls), figure="8", benchmarks=["amr", "bht"], **run)
        (specs,) = calls
        return specs

    def test_each_distinct_cell_is_resolved_once(self):
        specs = self.specs()
        assert sorted((s.benchmark, s.mode.value, s.latency_scale) for s in specs) == [
            (name, mode, latency) for name in ("amr", "bht")
            for mode in ("cdp", "dtbl") for latency in (0.0, 0.25)
        ]
        assert len({spec.fingerprint() for spec in specs}) == len(specs)
        # A run at latency scale 0: both rungs are one simulation per mode.
        assert len(self.specs(latency_scale=0)) == 4

    def test_reading_an_undeclared_rung_fails_at_construction(self):
        with pytest.raises(ClaimError, match=r"toy.*amr/dtbl \(latency 0\) is outside"):
            Claim("toy", "", Needs((DTBL,), ("amr",)),
                  lambda c: c("amr", DTBL, latency=0).cycles, Expect(">", 0))

    def test_the_ideal_rung_is_one_simulation_whatever_the_run_latency(self):
        """A rung-0 spec no longer hashes the run's latency scale."""
        prints = {
            spec.fingerprint()
            for latency_scale in (0.1, 0.25, 1.0)
            for spec in self.specs(latency_scale=latency_scale)
            if (spec.benchmark, spec.mode, spec.latency_scale) == ("bht", CDP, 0)
        }
        assert len(prints) == 1


class TestCellAppendix:
    """EXPERIMENTS.md ends with one row per resolved cell, so its
    byte-for-byte check sees a counter no verdict reads."""

    @staticmethod
    def appendix(evaluation) -> dict:
        """The appendix's rows, keyed by (benchmark, mode and rung, variant)."""
        document = evaluation.document()
        assert document.endswith(evaluation.cell_table() + "\n")
        lines = evaluation.cell_table().splitlines()[4:4 + len(evaluation.cells)]
        rows = [[f.strip() for f in line.strip("|").split("|")] for line in lines]
        return {tuple(row[:3]): row[3:] for row in rows}

    def test_one_row_per_cell_with_its_counters_and_digest(self):
        evaluation = evaluate(counting_resolver, benchmarks=["amr", "bht"])
        rows = self.appendix(evaluation)
        assert len(rows) == len(evaluation.cells) == len(evaluation.results)
        assert list(rows)[:3] == [
            ("amr", "flat", ""), ("amr", "cdp", ""), ("amr", "cdp (latency 0)", "")
        ]
        for key, stats in evaluation.cells.items():
            digest = hashlib.sha256(
                canonical_json(stats.to_dict()).encode("utf-8")
            ).hexdigest()
            assert rows[key.benchmark, key.mode_label(), key.variant] == [
                f"{stats.cycles:,}", f"{stats.issued_instructions:,}",
                f"{stats.coalescing.transactions:,}", f"{len(stats.launches):,}",
                f"{stats.agt_hash_spills:,}", digest[:12],
            ]

    def test_a_counter_no_claim_reads_moves_exactly_its_row(self):
        before = evaluate(counting_resolver, benchmarks=["amr"])

        def drift(specs):
            results = counting_resolver(specs)
            for spec, result in zip(specs, results):
                if (spec.benchmark, spec.mode, spec.latency_scale) == ("amr", CDP, 0.25):
                    result.stats.branches_uniform += 1
            return results

        after = evaluate(drift, benchmarks=["amr"])
        assert [v.ok for v in after.verdicts] == [v.ok for v in before.verdicts]
        old, new = self.appendix(before), self.appendix(after)
        assert [key for key in old if old[key] != new[key]] == [("amr", "cdp", "")]
        assert old["amr", "cdp", ""][:-1] == new["amr", "cdp", ""][:-1]
