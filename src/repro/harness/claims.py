"""The vocabulary a paper-vs-measured row is written in.

A *figure* row regenerates one table or figure of the paper; a *claim*
row states one sentence of it as a checked assertion.  Both declare the
cells they need (:class:`Needs`) and read them through one lookup
(:class:`Cells`: ``cell(benchmark, mode[, variant], latency=rung)``).  A
row is run against stand-in cells when it is constructed, so a measure
that names a cell outside its needs fails at import.  The rows are in
:mod:`repro.harness.paper`; :mod:`repro.harness.experiments` evaluates
them.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from ..errors import ReproError
from ..runtime import ExecutionMode
from ..workloads import benchmark_names
from .reporting import render_value

#: The GPU configurations a cell can name, as field overrides on the
#: evaluation's base :class:`~repro.config.GPUConfig` (``""`` is Table 2).
VARIANTS: Dict[str, dict] = {
    "": {},
    "agt1": {"agt_entries": 1},
    "agt512": {"agt_entries": 512},
    "agt2048": {"agt_entries": 2048},
    "kde256": {"dtbl_no_coalescing": True, "max_concurrent_kernels": 256},
    "rr": {"warp_scheduler": "rr"},
}


class CellKey(NamedTuple):
    """One simulated cell.  ``latency`` is its launch-latency rung: ``None``
    the run's ``latency_scale``, ``0`` the paper's ideal configuration (its
    CDPI and DTBLI are CDP and DTBL at rung 0)."""

    benchmark: str
    mode: ExecutionMode
    variant: str = ""
    latency: Optional[float] = None

    def mode_label(self) -> str:
        rung = "" if self.latency is None else f" (latency {self.latency:g})"
        return self.mode.value + rung

    def label(self) -> str:
        variant = f"@{self.variant}" if self.variant else ""
        return f"{self.benchmark}/{self.mode_label()}{variant}"


class ClaimError(ReproError):
    """A row is malformed, read a cell it did not declare, or a cell is broken."""


@dataclass(frozen=True)
class Needs:
    """The cells a row reads: benchmarks x variants x latency rungs x
    modes, plus those of the needs added to it (``a + b``)."""

    modes: Tuple[ExecutionMode, ...] = ()
    #: ``None``: every benchmark of Table 4.
    benchmarks: Optional[Tuple[str, ...]] = None
    variants: Tuple[str, ...] = ("",)
    #: Launch-latency rungs (see :attr:`CellKey.latency`).
    rungs: Tuple[Optional[float], ...] = (None,)
    #: Further products over the same benchmarks.
    more: Tuple["Needs", ...] = ()

    def __add__(self, other: "Needs") -> "Needs":
        return replace(self, more=self.more + (replace(other, more=()),) + other.more)

    def on(self, *benchmarks: str) -> "Needs":
        """The same cells, narrowed to ``benchmarks``."""
        return replace(self, benchmarks=benchmarks)

    def cells(self, benchmarks: Sequence[str]) -> List[CellKey]:
        return [
            CellKey(name, mode, variant, rung)
            for name in benchmarks
            for variant in self.variants
            for rung in self.rungs
            for mode in self.modes
        ] + [key for more in self.more for key in more.cells(benchmarks)]


class Cells:
    """The one lookup every measure reads, over one row's declared cells."""

    def __init__(self, stats: Mapping[CellKey, object], needs: Needs,
                 benchmarks: Sequence[str]) -> None:
        #: The benchmarks the row is evaluated over, in row order.
        self.benchmarks = tuple(benchmarks)
        self._stats = {key: stats[key] for key in needs.cells(self.benchmarks)}
        #: The cells read so far (a failing verdict names them).
        self.read: List[CellKey] = []

    def __call__(self, benchmark: str, mode: ExecutionMode, variant: str = "", *,
                 latency: Optional[float] = None):
        key = CellKey(benchmark, mode, variant, latency)
        if key not in self._stats:
            raise ClaimError(f"cell {key.label()} is outside the declared needs")
        if key not in self.read:
            self.read.append(key)
        return self._stats[key]

    def cycles(self, benchmark: str, mode: ExecutionMode, variant: str = "", *,
               latency: Optional[float] = None) -> int:
        """A cell's cycle count; a cell that simulated nothing is an error,
        not a zero that drops out of an average."""
        cycles = self(benchmark, mode, variant, latency=latency).cycles
        if cycles <= 0:
            key = CellKey(benchmark, mode, variant, latency)
            raise ClaimError(f"cell {key.label()} ran {cycles} cycles")
        return cycles

    def speedup(self, benchmark: str, mode: ExecutionMode, *,
                latency: Optional[float] = None) -> float:
        """Cycles(flat) / cycles(mode at ``latency``) for one benchmark."""
        return (self.cycles(benchmark, ExecutionMode.FLAT)
                / self.cycles(benchmark, mode, latency=latency))


class _Probe:
    """Stands in for every ``SimStats`` while a row is checked at import."""

    def __getattr__(self, name: str) -> int:
        return 1


def _check_needs(needs: Needs, *measures: Callable) -> None:
    """Run ``measures`` over stand-in cells: reading outside ``needs`` raises.

    A row that declares no cell is not run: it has none to misname, and
    what it does read (a config, the registry) is not import-time work.
    """
    if not needs.modes:
        return
    unknown = {v for part in (needs, *needs.more) for v in part.variants} - set(VARIANTS)
    if unknown:
        raise ClaimError(f"unknown config variants {sorted(unknown)}")
    names = needs.benchmarks or benchmark_names()
    probe = _Probe()
    for measure in measures:
        measure(Cells({key: probe for key in needs.cells(names)}, needs, names))


_COMPARE = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}


@dataclass(frozen=True)
class Expect:
    """What a measured value must satisfy.

    ``"=="`` and ``"within"`` (a relative tolerance) compare with the
    row's paper value; ``"<" "<=" ">" ">="`` compare with ``bound``;
    ``"between"`` is the open interval ``bound = (low, high)``.
    """

    op: str
    bound: object = None

    def holds(self, measured, paper) -> bool:
        if self.op == "==":
            return measured == paper
        if self.op == "within":
            return abs(measured - paper) <= self.bound * abs(paper)
        if self.op == "between":
            return self.bound[0] < measured < self.bound[1]
        return _COMPARE[self.op](measured, self.bound)

    def describe(self, paper) -> str:
        if self.op == "==":
            return f"== {render_value(paper)}"
        if self.op == "within":
            return f"within {self.bound:.0%} of {render_value(paper)}"
        if self.op == "between":
            return f"in ({render_value(self.bound[0])}, {render_value(self.bound[1])})"
        return f"{self.op} {render_value(self.bound)}"


#: ``reproduced``: holds as the paper states it; ``direction``: the sign
#: or ordering holds, the magnitude does not; ``gap``: does not hold.
STATUSES = ("reproduced", "direction", "gap")


@dataclass(frozen=True)
class Claim:
    """One sentence of the paper as a checked assertion.

    For a ``reproduced`` or ``direction`` row, ``expect`` must hold.  A
    ``gap`` row is strict in both directions: ``expect`` — the paper's
    expectation — must *not* hold, and ``pinned`` — the side the value
    was recorded on — must, so closing the gap means editing the row.
    """

    id: str
    text: str
    needs: Needs
    measure: Callable[[Cells], object]
    expect: Expect
    status: str = "reproduced"
    #: The paper's value for the measured quantity, where it gives one.
    paper: object = None
    reason: str = ""
    pinned: Optional[Expect] = None

    def __post_init__(self) -> None:
        gap = self.status == "gap"
        if self.status not in STATUSES or gap != (self.pinned is not None):
            raise ClaimError(f"{self.id}: status {self.status!r} / pinned mismatch")
        if gap and not self.reason:
            raise ClaimError(f"{self.id}: a gap row states its reason")
        if self.expect.op in ("==", "within") and self.paper is None:
            raise ClaimError(f"{self.id}: {self.expect.op!r} needs a paper value")
        try:
            _check_needs(self.needs, self.measure)
        except ClaimError as exc:
            raise ClaimError(f"{self.id}: {exc}") from None

    def expected(self) -> str:
        """The condition :meth:`judge` checks, as the verdicts print it."""
        text = self.expect.describe(self.paper)
        if self.pinned is None:
            return text
        return f"not ({text}), and {self.pinned.describe(self.paper)}"

    def judge(self, cells: Cells) -> "Verdict":
        measured = self.measure(cells)
        ok = self.expect.holds(measured, self.paper)
        if self.pinned is not None:
            ok = not ok and self.pinned.holds(measured, self.paper)
        return Verdict(self, measured, tuple(cells.read), ok)


@dataclass(frozen=True)
class Verdict:
    claim: Claim
    measured: object
    #: The cells the measure read.
    cells: Tuple[CellKey, ...]
    ok: bool

    def failure(self) -> str:
        """Names the claim, its cells, the measured value and the expectation."""
        cells = ", ".join(key.label() for key in self.cells) or "no cell"
        return (f"{self.claim.id} ({self.claim.status}): measured "
                f"{render_value(self.measured)} from {cells}; "
                f"expected {self.claim.expected()}")


@dataclass(frozen=True)
class Figure:
    """One table or figure: per-benchmark columns and summary aggregates.

    ``columns`` are ``(header, value(cells, benchmark))`` pairs; ``summary``
    names the claims whose measured value is quoted under the table, the
    paper's beside it.  A static table (Tables 2-4, the overhead model)
    reads no cell: it gives ``headers`` and a ``table`` callable.
    """

    id: str  #: what ``--figure`` names it
    label: str
    title: str
    needs: Needs = Needs()
    columns: Tuple[Tuple[str, Callable[[Cells, str], object]], ...] = ()
    summary: Tuple[Claim, ...] = ()
    #: Rows to keep (``None``: all) — e.g. the benchmarks that launch at all.
    keep: Optional[Callable[[Cells, str], bool]] = None
    headers: Tuple[str, ...] = ()
    table: Optional[Callable[[], list]] = None
    note: str = ""

    def __post_init__(self) -> None:
        if self.table is None:
            _check_needs(self.needs, self.rows)

    def rows(self, cells: Cells) -> list:
        if self.table is not None:
            return [list(row) for row in self.table()]
        return [
            [name] + [value(cells, name) for _, value in self.columns]
            for name in cells.benchmarks
            if self.keep is None or self.keep(cells, name)
        ]
