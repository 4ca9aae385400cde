"""The one evaluator of the paper's rows (:mod:`repro.harness.paper`).

:func:`evaluate` computes, from the rows alone, the set of
:class:`~repro.exec.JobSpec`\\ s a selection needs, resolves them through
**one** injected ``resolve(specs) -> results`` call (the CLI binds
:func:`~repro.harness.runner.run_jobs` to its execution flags; tests pass
a fake), and renders the tables, the verdicts and the whole of
EXPERIMENTS.md from the resolved cells.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from ..config import GPUConfig
from ..exec import JobResult, JobSpec, canonical_json
from ..runtime import ExecutionMode
from ..sim.stats import SimStats
from ..workloads import benchmark_names
from .claims import STATUSES, VARIANTS, CellKey, Cells, Claim, ClaimError, Needs, Verdict
from .paper import CLAIMS, FIGURES, INTRO, LEGEND, NOTES
from .reporting import format_table, render_value
from .runner import DEFAULT_LATENCY_SCALE, DEFAULT_SCALE


@dataclass
class Experiment:
    """A regenerated table or figure."""

    experiment_id: str
    title: str
    headers: List[str]
    rows: List[list]
    #: Headline aggregates (averages etc.) keyed by metric name.
    summary: Dict[str, float] = field(default_factory=dict)
    #: What the paper reports for the same experiment.
    paper: Dict[str, float] = field(default_factory=dict)
    note: str = ""

    def render(self) -> str:
        lines = [format_table(
            f"{self.experiment_id} — {self.title}", self.headers, self.rows, self.note
        )]
        if self.summary:
            lines.append("")
        for key, value in self.summary.items():
            suffix = ""
            if key in self.paper:  # in the measured value's format
                suffix = f" (paper: {render_value(type(value)(self.paper[key]))})"
            lines.append(f"- {key}: {render_value(value)}{suffix}")
        return "\n".join(lines)


@dataclass
class Evaluation:
    """What one :func:`evaluate` call resolved and derived."""

    scale: float
    latency_scale: float
    #: The benchmarks the figures cover, in row order.
    benchmarks: Sequence[str]
    #: One result per distinct simulation, as ``resolve`` returned them.
    results: List[JobResult]
    #: The ``SimStats`` of every resolved cell.
    cells: Dict[CellKey, SimStats]
    #: Keyed by what ``--figure`` calls each, in paper order.
    experiments: Dict[str, Experiment]
    verdicts: List[Verdict]
    #: Claims whose cells lie outside the selected benchmarks.
    unjudged: List[Claim]

    def failures(self) -> List[str]:
        return [v.failure() for v in self.verdicts if not v.ok]

    def document(self) -> str:
        """EXPERIMENTS.md: this run's tables and verdicts, byte for byte."""
        tally = dict.fromkeys(STATUSES, 0)
        rows, reasons = [], []
        for verdict in self.verdicts:
            claim = verdict.claim
            tally[claim.status] += 1
            paper = "" if claim.paper is None else render_value(claim.paper)
            status = claim.status if verdict.ok else f"**DRIFTED** ({claim.status})"
            rows.append([claim.id, paper, render_value(verdict.measured),
                         claim.expected(), status, claim.text])
            if claim.reason:
                reasons.append(f"- `{claim.id}` ({claim.status}): {claim.reason}.")
        parts = [
            "# EXPERIMENTS — paper vs. measured",
            INTRO,
            f"**This run.** Dataset scale {self.scale:g}, launch latencies = "
            f"Table 3 x {self.latency_scale:g}, {len(self.benchmarks)} of Table 4's "
            f"{len(benchmark_names())} benchmarks, {len(self.results)} simulations.",
            format_table(
                "Verdicts",
                ["claim", "paper", "measured", "expected", "status",
                 "what the paper says (what is measured)"],
                rows,
                f"{len(rows)} claims: " + ", ".join(
                    f"{n} {status}" for status, n in tally.items()
                ) + f"; {len(self.failures())} drifted from their recorded status"
                + (f"; {len(self.unjudged)} not judged (their cells lie outside "
                   "the selected benchmarks)" if self.unjudged else "") + ".",
            ),
            LEGEND,
            "\n".join(reasons),
            *(experiment.render() for experiment in self.experiments.values()),
            NOTES,
            self.cell_table(),
        ]
        return "\n\n".join(parts) + "\n"

    def cell_table(self) -> str:
        """The appendix naming every resolved cell's counters, so that a
        drift no verdict notices still changes this document."""
        modes = list(ExecutionMode)
        rows = []
        for key in sorted(self.cells, key=lambda k: (k[0], modes.index(k[1]), k[2])):
            benchmark, mode, variant = key
            stats = self.cells[key]
            digest = hashlib.sha256(
                canonical_json(stats.to_dict()).encode("utf-8")
            ).hexdigest()
            rows.append([
                benchmark, mode.value, variant, stats.cycles,
                stats.issued_instructions, stats.coalescing.transactions,
                len(stats.launches), stats.agt_hash_spills, digest[:12],
            ])
        return format_table(
            "Cells",
            ["benchmark", "mode", "variant", "cycles", "issued",
             "transactions", "launches", "AGT spills", "stats digest"],
            rows,
            f"{len(rows)} cells.  The digest is the first 12 hex digits of the "
            "SHA-256 of the cell's canonical `SimStats.to_dict()` "
            "(`repro.exec.canonical_json`), so any counter that moves changes "
            "its row, within tolerance or not.",
        )


def evaluate(
    resolve: Callable[[List[JobSpec]], List[JobResult]],
    figure: Optional[str] = None,
    benchmarks: Optional[Sequence[str]] = None,
    scale: float = DEFAULT_SCALE,
    latency_scale: float = DEFAULT_LATENCY_SCALE,
    config: Optional[GPUConfig] = None,
) -> Evaluation:
    """Evaluate one figure (``--figure``'s name) or, by default, everything.

    ``benchmarks`` restricts the figures to a subset of Table 4 (claims
    that need a benchmark outside it are not judged); ``config`` is the
    base GPU every cell's variant is applied to (``--core``,
    ``--sanitize``).  A single figure is rendered without verdicts.
    """
    figures = [f for f in FIGURES if figure in (None, f.id)]
    if not figures:
        raise ClaimError(f"unknown figure {figure!r}")
    everything = benchmark_names()
    selected = sorted(set(benchmarks)) if benchmarks is not None else None
    base = config if config is not None else GPUConfig.k20c()

    def shown(needs: Needs) -> Sequence[str]:
        """The benchmarks a figure (or its aggregate) covers in this run."""
        return selected or needs.benchmarks or everything

    judged, unjudged = [], []
    if figure is None:
        for claim in CLAIMS:
            needed = set(claim.needs.benchmarks or everything)
            (judged if needed <= set(selected or everything) else unjudged).append(claim)

    wanted: List[CellKey] = []
    for fig in figures:
        wanted += fig.needs.cells(shown(fig.needs))
        for claim in fig.summary:
            wanted += claim.needs.cells(shown(claim.needs))
    for claim in judged:
        wanted += claim.needs.cells(claim.needs.benchmarks or everything)

    specs: Dict[CellKey, JobSpec] = {
        (name, mode, variant): JobSpec.create(
            name, mode, scale, latency_scale,
            config=dataclasses.replace(base, **VARIANTS[variant]),
        )
        for name, mode, variant in dict.fromkeys(wanted)
    }
    # Two cells can be one simulation (a variant that restates a default).
    prints = {key: spec.fingerprint() for key, spec in specs.items()}
    distinct = {prints[key]: spec for key, spec in specs.items()}
    results = resolve(list(distinct.values())) if distinct else []
    by_print = dict(zip(distinct, results))
    stats = {key: by_print[prints[key]].stats for key in specs}

    experiments = {}
    for fig in figures:
        cells = Cells(stats, fig.needs, shown(fig.needs))
        summary = {
            claim.text: claim.measure(Cells(stats, claim.needs, shown(claim.needs)))
            for claim in fig.summary
        }
        paper = {c.text: c.paper for c in fig.summary if c.paper is not None}
        headers = list(fig.headers) or ["benchmark"] + [h for h, _ in fig.columns]
        experiments[fig.id] = Experiment(
            fig.label, fig.title, headers, fig.rows(cells), summary, paper, fig.note
        )
    verdicts = [
        claim.judge(Cells(stats, claim.needs, claim.needs.benchmarks or everything))
        for claim in judged
    ]
    return Evaluation(
        scale, latency_scale, selected or everything, results, stats,
        experiments, verdicts, unjudged,
    )
