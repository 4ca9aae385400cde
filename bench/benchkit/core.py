"""Shared plumbing: paths, the ``repro`` import, statistics, spans, host.

The benchmark lives beside the program, not inside it: ``repro`` is
imported from ``<checkout>/src`` and only through its public surface, so
a refactor of the program cannot break the tool that measures it.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
MANIFEST = ROOT / "BENCHMARK.json"


class BenchUnavailable(RuntimeError):
    """The program under test is not in this checkout."""


def require_repro() -> None:
    """Put ``<checkout>/src`` on ``sys.path`` and import ``repro``.

    Only the checkout's own source counts: an installed ``repro`` from
    somewhere else would make the numbers describe another program.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchUnavailable(f"no program to measure: {SRC / 'repro'} is missing")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro  # noqa: F401

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        raise BenchUnavailable(f"imported repro from {repro.__file__}, not from {SRC}")


#: Host hygiene, set before NumPy loads in this process and every child:
#: one BLAS/OMP thread, and no ``madvise(MADV_HUGEPAGE)`` on NumPy's large
#: buffers.  With it, every fault on the simulator's 32 MB global memory
#: (and on each checkpoint's copy of it) may stall in the kernel's
#: huge-page compaction — measured here: one checkpoint capture costs
#: 10-40 ms without the advice and, in some processes, ~1 s with it.
HOST_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMPY_MADVISE_HUGEPAGE": "0",
}


def child_env() -> Dict[str, str]:
    """Environment for child processes: the checkout's source + hygiene."""
    env = dict(os.environ)
    env.update(HOST_ENV)
    env["PYTHONPATH"] = str(SRC)
    return env


# ----------------------------------------------------------------------
# Manifest (BENCHMARK.json is the one list of metric names and units)
# ----------------------------------------------------------------------
def load_manifest() -> dict:
    with open(MANIFEST, encoding="utf-8") as handle:
        return json.load(handle)


def metric_block(section: Sequence[dict], values: Dict[str, float],
                 reasons: Dict[str, str]) -> Dict[str, dict]:
    """Every metric the manifest section names, with its unit.

    A metric nobody produced is reported as ``null`` with the reason, so
    a probe whose target function was refactored away shows up in the
    output instead of silently vanishing.
    """
    block: Dict[str, dict] = {}
    for spec in section:
        name = spec["name"]
        if values.get(name) is not None:
            block[name] = {"value": values[name], "unit": spec["unit"]}
        else:
            block[name] = {
                "value": None, "unit": spec["unit"],
                "reason": reasons.get(name, "not produced by this run"),
            }
    return block


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def midmean(values: Sequence[float]) -> float:
    """Interquartile mean: the mean of the middle half of the values."""
    ordered = sorted(values)
    cut = len(ordered) // 4
    return float(statistics.fmean(ordered[cut:len(ordered) - cut]))


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile (``pct`` in 0..100) of a non-empty list."""
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1, int(round(pct / 100.0 * len(ordered))) - 1))
    return float(ordered[rank])


def spread(values: Sequence[float]) -> float:
    """Interquartile range as a share of the median (the driver's rule)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return abs(q3 - q1) / abs(mid) if mid else 0.0


def time_per_call(fn: Callable[[], object], number: int, repeat: int = 5) -> float:
    """Median over ``repeat`` batches of the mean seconds per call."""
    samples = []
    for _ in range(repeat):
        start = time.perf_counter()
        for _ in range(number):
            fn()
        samples.append((time.perf_counter() - start) / number)
    return median(samples)


def passes(seconds: float, minimum: int) -> Iterator[int]:
    """Yield pass numbers until another pass like the last would overrun.

    The body of the ``for`` loop is the pass; at least ``minimum`` run.
    """
    begin = time.perf_counter()
    last = 0.0
    number = 0
    while number < minimum or time.perf_counter() - begin + last <= seconds:
        start = time.perf_counter()
        yield number
        last = time.perf_counter() - start
        number += 1


def stats_digest(stats_dict: dict) -> str:
    """Stable hash of a ``SimStats.to_dict()`` payload."""
    encoded = json.dumps(stats_dict, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
class SpanLog:
    """In-memory span recorder: (name, start, end, parent, job id).

    Spans nest through :meth:`span`; :meth:`add_wall` records one whose
    ends were observed elsewhere (daemon event timestamps).  ``dump`` adds
    each span's self time: its duration minus what its children cover.

    Times are ``perf_counter`` seconds since the log was made, so a span
    of a microsecond still has digits (a ``time.time()`` double steps by
    0.24 us); :attr:`epoch` is the wall clock at that moment, which is
    how another process's ``time.time()`` stamps are placed on the axis.
    """

    def __init__(self) -> None:
        self.epoch = time.time()
        self._zero = time.perf_counter()
        self.spans: List[list] = []
        self._stack: List[int] = []

    def clock(self) -> float:
        return time.perf_counter() - self._zero

    @contextlib.contextmanager
    def span(self, name: str, job: Optional[str] = None) -> Iterator[int]:
        parent = self._stack[-1] if self._stack else None
        if job is None and parent is not None:
            job = self.spans[parent][4]
        index = len(self.spans)
        record = [name, self.clock(), None, parent, job]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield index
        finally:
            record[2] = self.clock()
            self._stack.pop()

    def add_wall(self, name: str, start: float, end: float,
                 parent: Optional[int] = None, job: Optional[str] = None) -> int:
        """Record a span given by two ``time.time()`` stamps."""
        self.spans.append([name, start - self.epoch, end - self.epoch, parent, job])
        return len(self.spans) - 1

    def durations(self, name: str) -> Dict[Optional[str], List[float]]:
        """Span durations of one name, grouped by job id."""
        grouped: Dict[Optional[str], List[float]] = {}
        for span_name, start, end, _parent, job in self.spans:
            if span_name == name and end is not None:
                grouped.setdefault(job, []).append(end - start)
        return grouped

    def dump(self, path: Path, extra: Optional[dict] = None) -> None:
        covered = [0.0] * len(self.spans)
        for _name, start, end, parent, _job in self.spans:
            if parent is not None and end is not None:
                covered[parent] += end - start
        rows = []
        for index, (name, start, end, parent, job) in enumerate(self.spans):
            duration = (end - start) if end is not None else None
            rows.append({
                "id": index, "name": name, "start": start, "end": end,
                "parent": parent, "job": job,
                "self": None if duration is None else duration - covered[index],
            })
        path.parent.mkdir(parents=True, exist_ok=True)
        document = dict(extra or {})
        document["epoch"] = self.epoch
        document["spans"] = rows
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle)


# ----------------------------------------------------------------------
# Host
# ----------------------------------------------------------------------
#: Score of the reference host.  A host time measured on a host scoring
#: ``m`` is reported as ``time * m / CALIB_REF_MOPS``: what it would have
#: been at the reference speed.
CALIB_REF_MOPS = 15.0


def calibrate() -> float:
    """Score the host now: millions of simple operations per second.

    A fixed pure-Python loop plus a small-NumPy loop (~25 ms) — the two
    kinds of work the simulator's hot path is made of, and nothing of the
    program under test, so a change to the program cannot move it.
    """
    import numpy as np

    start = time.perf_counter()
    acc = 0
    for i in range(150_000):
        acc = (acc * 31 + i) & 0xFFFF
    lanes = np.arange(32, dtype=np.int64)
    for _ in range(6_000):
        lanes = (lanes * 3 + 1) & 1023
    elapsed = time.perf_counter() - start
    return (150_000 + 6_000 * 32) / elapsed / 1e6


class HostScore:
    """Calibration slices taken between the jobs of one run.

    This sandbox's CPU speed wanders by 10-20 % over seconds to minutes
    (other tenants of the machine), which no amount of in-run repetition
    averages out.  Slices interleaved with the work see the same weather,
    so scaling the run's host times by the run's median score takes most
    of it out: measured here, the run-to-run spread of ``wall_s`` fell
    from ~13 % raw to ~6 % normalised.
    """

    def __init__(self) -> None:
        self.samples: List[float] = []

    def sample(self) -> float:
        self.samples.append(calibrate())
        return self.samples[-1]

    @property
    def mops(self) -> float:
        if not self.samples:
            self.sample()
        return median(self.samples)

    @property
    def factor(self) -> float:
        """Multiply a host time by this to get reference-host time."""
        return self.mops / CALIB_REF_MOPS


def host_block(calib_mops: Optional[float] = None) -> dict:
    import numpy as np

    return {
        "node": platform.node(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "host.calib_mops": calib_mops,
    }


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it has reaped."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # Linux reports KiB


def settle() -> None:
    """Between-jobs hygiene: collected garbage is not charged to a job."""
    gc.collect()


@contextlib.contextmanager
def workdir(tag: str) -> Iterator[Path]:
    """A scratch directory inside the checkout (never ``.repro-cache``)."""
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    path = OUT_DIR / f"work-{tag}-{os.getpid()}-{time.monotonic_ns()}"
    path.mkdir()
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


# ----------------------------------------------------------------------
# Result of one workload run
# ----------------------------------------------------------------------
class RunResult:
    """What one ``--workload`` run reports: values, reasons, failures."""

    def __init__(self) -> None:
        self.host = HostScore()
        self.values: Dict[str, float] = {}
        self.reasons: Dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.notes: Dict[str, object] = {}

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(what)

    def probe(self, names: Tuple[str, ...], fn: Callable[[], Dict[str, float]]) -> None:
        """Run one per-layer probe; a broken probe nulls only its metrics."""
        try:
            produced = fn()
        except Exception as exc:  # boundary: the benchmark must keep running
            reason = f"{type(exc).__name__}: {exc}"
            for name in names:
                self.reasons[name] = reason
            return
        for name in names:
            if name in produced:
                self.values[name] = produced[name]
            else:
                self.reasons[name] = "probe did not produce it"
