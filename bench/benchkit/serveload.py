"""The daemon workload: ``python -m repro.serve`` under a seeded job mix.

One daemon (``--workers 1``) on scratch cache/spool/checkpoint
directories, driven through :class:`repro.serve.ServeClient` in a closed
loop.  A round is three phases:

1. **solo cold** — one client, one job in flight: every job simulates.
   One in flight because with one worker a second client's job would
   queue behind the first, and ``cold_overhead_ms`` would then measure
   the other job's length (which depends on the seed's order) instead of
   what ``exec`` + ``serve`` add to a simulation;
2. **pairs** — both clients submit the same spec at the same moment:
   one simulates, the other rides along (in-flight dedup).  Pairs are
   drawn from the longer jobs so the second submission always finds the
   first still in flight;
3. **warm** — both clients resubmit already-computed specs: cache hits.

Every round boots a fresh daemon on fresh directories, so cold is cold.
"""

from __future__ import annotations

import contextlib
import random
import re
import select
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

from . import core
from .simload import LATENCY_SCALE, WARM_SCALE

CLIENTS = 2
CHECKPOINT_EVERY = 50_000
#: ``ServeClient.wait`` poll interval: short enough that poll lag does not
#: drown the fork/spool/fetch costs the cold-overhead metric is after.
POLL = 0.01
MODES = ("flat", "dtbl")
#: Benchmarks whose scale-0.1 job runs long enough (>= ~90 ms) that a
#: simultaneous second submission is certain to find it in flight.
LONG_JOBS = ("amr", "clr_cage15", "clr_graph500", "regx_darpa", "regx_string")


#: Warm bursts a round's resubmissions are split into (see ``run_round``).
BURSTS = 4


class Traffic:
    """One round's job mix: ``bursts[i]`` follows the i-th group of solo jobs."""

    def __init__(self, solo: list, pairs: list, bursts: List[list]) -> None:
        self.solo = solo
        self.pairs = pairs
        self.bursts = bursts

    @property
    def distinct(self) -> list:
        return self.solo + self.pairs

    @property
    def warm(self) -> list:
        return [spec for burst in self.bursts for spec in burst]

    @property
    def jobs(self) -> int:
        return len(self.solo) + CLIENTS * len(self.pairs) + len(self.warm)

    def solo_groups(self) -> List[list]:
        size = -(-len(self.solo) // len(self.bursts))
        return [self.solo[i * size:(i + 1) * size] for i in range(len(self.bursts))]

    def labels(self) -> dict:
        return {
            "solo": [s.label() for s in self.solo],
            "pairs": [s.label() for s in self.pairs],
            "warm": [s.label() for s in self.warm],
        }


def make_traffic(seed: int, solo: int = 24, pairs: int = 8, warm: int = 400,
                 scale: float = WARM_SCALE) -> Traffic:
    """Draw the mix from the 16 benchmarks x {flat, dtbl} at small scale.

    Each warm burst resubmits specs drawn from the solo jobs finished
    before it, so every warm job is a cache hit.
    """
    from repro import JobSpec
    from repro.workloads import benchmark_names

    rng = random.Random(seed)
    grid = [(bench, mode) for bench in benchmark_names() for mode in MODES]
    pair_keys = rng.sample([key for key in grid if key[0] in LONG_JOBS], pairs)
    rest = [key for key in grid if key not in pair_keys]
    rng.shuffle(rest)

    def spec(key: Tuple[str, str]):
        return JobSpec.create(key[0], key[1], scale=scale, latency_scale=LATENCY_SCALE)

    traffic = Traffic([spec(key) for key in rest[:solo]],
                      [spec(key) for key in pair_keys],
                      [[] for _ in range(min(BURSTS, solo))])
    done: list = []
    for group, burst in zip(traffic.solo_groups(), traffic.bursts):
        done.extend(group)
        burst.extend(rng.choice(done) for _ in range(warm // len(traffic.bursts)))
    return traffic


def reference_results(specs: list, result: core.RunResult) -> dict:
    """Direct ``run_job`` of every distinct spec, by label: the served
    results' oracle.

    Doubles as the workload's warm-up pass (it is part of ``setup_s``).
    """
    from repro import run_job

    direct = {}
    for spec in specs:
        result.attempted += 1
        try:
            direct[spec.label()] = run_job(spec)
        except Exception as exc:
            result.fail(f"{spec.label()} (direct): {type(exc).__name__}: {exc}")
    return direct


# ----------------------------------------------------------------------
# Daemon lifecycle
# ----------------------------------------------------------------------
class Daemon:
    """One ``python -m repro.serve`` process on directories under ``root``."""

    def __init__(self, root: Path) -> None:
        from repro.serve import ServeClient

        self._client_type = ServeClient
        self.root = root
        self._log = open(root / "daemon.log", "w", encoding="utf-8")
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.serve", "--port", "0",
                "--workers", "1", "--checkpoint-every", str(CHECKPOINT_EVERY),
                "--cache-dir", str(root / "cache"),
                "--checkpoint-dir", str(root / "ckpt"),
                "--spool-dir", str(root / "spool"),
            ],
            stdout=subprocess.PIPE, stderr=self._log, text=True,
            env=core.child_env(), cwd=str(root),
        )
        try:
            self.port = self._discover_port()
            self.client("boot").status()
        except BaseException:
            self.stop()
            raise
        self.boot_s = time.perf_counter() - start

    def _discover_port(self) -> int:
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            ready, _, _ = select.select([self.proc.stdout], [], [], 0.2)
            if not ready:
                if self.proc.poll() is not None:
                    break
                continue
            line = self.proc.stdout.readline()
            match = re.search(r"listening on http://[^:]+:(\d+)", line)
            if match:
                return int(match.group(1))
            if not line and self.proc.poll() is not None:
                break
        raise RuntimeError(f"daemon did not start (see {self.root / 'daemon.log'})")

    def client(self, name: str):
        return self._client_type(port=self.port, client=name, timeout=60.0)

    def stop(self) -> None:
        """Shut down and reap; a daemon that will not go is killed."""
        if self.proc.poll() is None:
            try:
                self.client("boot").shutdown()
                self.proc.wait(timeout=20)
            except Exception:
                self.proc.kill()
                self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        self._log.close()


@contextlib.contextmanager
def fresh_daemon() -> Iterator[Daemon]:
    """A daemon on a fresh scratch directory; stopped and reaped on exit."""
    with core.workdir("serve") as root:
        daemon = Daemon(root)
        try:
            yield daemon
        finally:
            daemon.stop()


# ----------------------------------------------------------------------
# One round
# ----------------------------------------------------------------------
class JobRecord:
    __slots__ = ("label", "phase", "source", "latency", "wall_seconds",
                 "t_submit", "t_seen", "t_result", "events", "events_s", "job_id")

    def __init__(self, label: str, phase: str) -> None:
        self.label = label
        self.phase = phase
        self.source: Optional[str] = None
        self.latency = 0.0
        self.wall_seconds = 0.0
        self.t_submit = self.t_seen = self.t_result = 0.0
        self.events: List[dict] = []
        #: Seconds spent fetching ``events`` — the work tracing adds.
        self.events_s = 0.0
        self.job_id: Optional[str] = None


class Segment:
    """A stretch of a round between two calibration slices.

    ``factor`` scales a host time in this stretch to the reference host
    speed: the mean score of the slice before and the slice after it.
    """

    __slots__ = ("phase", "wall", "factor", "records")

    def __init__(self, phase: str, wall: float, factor: float, records: list) -> None:
        self.phase = phase
        self.wall = wall
        self.factor = factor
        self.records = records


class Round:
    def __init__(self) -> None:
        self.segments: List[Segment] = []
        self.boot_s = 0.0
        self.status: dict = {}

    @property
    def records(self) -> List[JobRecord]:
        return [record for segment in self.segments for record in segment.records]

    def wall(self, phases: Tuple[str, ...] = ("solo", "pair", "warm"),
             normalised: bool = False) -> float:
        return sum(seg.wall * (seg.factor if normalised else 1.0)
                   for seg in self.segments if seg.phase in phases)


class _Worker:
    """One closed-loop client: failures are counted, never raised."""

    def __init__(self, daemon: Daemon, name: str, reference: Dict[str, str],
                 traced: bool) -> None:
        self.client = daemon.client(name)
        self.reference = reference
        self.traced = traced
        self.records: List[JobRecord] = []
        self.attempted = 0
        self.failures: List[str] = []

    def one_job(self, spec, phase: str) -> None:
        record = JobRecord(spec.label(), phase)
        self.attempted += 1
        try:
            record.t_submit = time.time()
            info = self.client.submit(spec)
            final = self.client.wait(info["id"], timeout=120.0, poll=POLL)
            record.t_seen = time.time()
            if final["status"] != "done":
                self.failures.append(
                    f"{record.label}: job {final['status']}: {final.get('error')}")
                return
            served = self.client.result(info["id"])
            record.t_result = time.time()
            record.job_id = info["id"]
            if self.traced:
                record.events = list(self.client.events(info["id"]))
                record.events_s = time.time() - record.t_result
        except Exception as exc:  # HTTP refusal, timeout, daemon gone
            self.failures.append(f"{record.label}: {type(exc).__name__}: {exc}")
            return
        record.latency = record.t_result - record.t_submit
        record.source = served.source
        record.wall_seconds = served.wall_seconds
        if core.stats_digest(served.stats.to_dict()) != self.reference.get(record.label):
            self.failures.append(f"{record.label}: served result differs from a direct run")
        self.records.append(record)

    def run(self, specs: list, phase: str, barrier: Optional[threading.Barrier]) -> None:
        for spec in specs:
            if barrier is not None:
                try:
                    barrier.wait(timeout=120.0)
                except threading.BrokenBarrierError:
                    self.failures.append(f"{phase}: the other client stalled")
                    return
            self.one_job(spec, phase)


def _both(workers: List[_Worker], work: List[list], phase: str, paired: bool) -> None:
    barrier = threading.Barrier(len(workers)) if paired else None
    threads = [
        threading.Thread(target=worker.run, args=(specs, phase, barrier))
        for worker, specs in zip(workers, work)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


def run_round(daemon: Daemon, traffic: Traffic, reference: dict,
              result: core.RunResult, traced: bool) -> Round:
    """Groups of solo cold jobs, a warm burst after each, then the pairs.

    A calibration slice sits between every two segments, outside the
    clock.  The bursts are spread over the round so the cache-hit latency
    is not read off a single moment of the host's weather.
    """
    digests = {label: core.stats_digest(direct.stats.to_dict())
               for label, direct in reference.items()}
    workers = [_Worker(daemon, f"c{i}", digests, traced) for i in range(CLIENTS)]
    outcome = Round()
    outcome.boot_s = daemon.boot_s
    score = result.host.sample()

    def segment(phase: str, work) -> None:
        nonlocal score
        before = [len(worker.records) for worker in workers]
        begin = time.perf_counter()
        work()
        wall = time.perf_counter() - begin
        after = result.host.sample()
        records = [rec for worker, n in zip(workers, before) for rec in worker.records[n:]]
        outcome.segments.append(
            Segment(phase, wall, (score + after) / 2 / core.CALIB_REF_MOPS, records))
        score = after

    for group, burst in zip(traffic.solo_groups(), traffic.bursts):
        for spec in group:
            segment("solo", lambda spec=spec: workers[0].one_job(spec, "solo"))
        segment("warm", lambda burst=burst: _both(
            workers, [burst[i::CLIENTS] for i in range(CLIENTS)], "warm", paired=False))
    if traffic.pairs:
        segment("pair", lambda: _both(
            workers, [traffic.pairs] * CLIENTS, "pair", paired=True))
    try:
        outcome.status = daemon.client("boot").status()
    except Exception as exc:
        result.fail(f"/status: {type(exc).__name__}: {exc}")
    for worker in workers:
        result.attempted += worker.attempted
        for failure in worker.failures:
            result.fail(failure)
    return outcome


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def end_to_end(rounds: List[Round], jobs: int, normalised: bool) -> Dict[str, float]:
    """Median over rounds of each round's own number.

    Normalised, every host time is scaled by the factor of the segment it
    was measured in (a round's time sits in a few long jobs, so a
    round-wide score would mostly describe other moments).
    """
    def scale(segment: Segment) -> float:
        return segment.factor if normalised else 1.0

    walls = [r.wall(normalised=normalised) for r in rounds]
    hits = [
        core.median([rec.latency * scale(seg) for seg in r.segments for rec in seg.records
                     if rec.phase == "warm" and rec.source == "cache"] or [0.0])
        for r in rounds
    ]
    cold = [
        core.median([(rec.latency - rec.wall_seconds) * scale(seg)
                     for seg in r.segments for rec in seg.records
                     if rec.source == "run"] or [0.0])
        for r in rounds
    ]
    return {
        "wall_s": core.median(walls),
        "jobs_per_s": core.median([jobs / wall for wall in walls]),
        "hit_p50_ms": 1e3 * core.median(hits),
        "cold_overhead_ms": 1e3 * core.median(cold),
    }


def _event_ts(record: JobRecord, name: str) -> Optional[float]:
    for event in record.events:
        if event.get("event") == name:
            return float(event["ts"])
    return None


def record_spans(outcome: Round, spans: core.SpanLog) -> Dict[str, List[float]]:
    """Turn one traced round into spans keyed by job id; returns stage times.

    The five stages tile submit→result exactly: the daemon's NDJSON event
    timestamps (``queued``/``started``/``done``) and the client's own are
    read off the same wall clock.
    """
    stages: Dict[str, List[float]] = {
        name: [] for name in ("submit", "queue_wait", "run", "poll_lag", "fetch")
    }
    stages["stage_sum"] = []
    stages["latency"] = []
    for record in outcome.records:
        queued = _event_ts(record, "queued")
        started = _event_ts(record, "started")
        done = _event_ts(record, "done")
        if queued is None or done is None:
            continue
        job = record.job_id
        parent = spans.add_wall(f"serve.job.{record.phase}", record.t_submit,
                                record.t_result, None, job)
        cuts = [("submit", record.t_submit, queued)]
        if started is not None:
            cuts += [("queue_wait", queued, started), ("run", started, done)]
        else:  # cache hit or dedup follower: never occupied the worker
            cuts += [("queue_wait", queued, done)]
        cuts += [("poll_lag", done, record.t_seen), ("fetch", record.t_seen, record.t_result)]
        for name, start, end in cuts:
            spans.add_wall(f"serve.{name}", start, end, parent, job)
        if record.source == "run":
            for name, start, end in cuts:
                stages[name].append(end - start)
            stages["stage_sum"].append(sum(end - start for _n, start, end in cuts))
            stages["latency"].append(record.latency)
        else:
            stages["submit"].append(queued - record.t_submit)
            stages["fetch"].append(record.t_result - record.t_seen)
    return stages


def layer_metrics(outcome: Round, stages: Dict[str, List[float]]) -> Dict[str, float]:
    out: Dict[str, float] = {"serve.boot_s": outcome.boot_s}
    for name in ("submit", "queue_wait", "run", "poll_lag", "fetch"):
        if stages[name]:
            out[f"serve.{name}_ms"] = 1e3 * core.median(stages[name])
    hits = [rec.latency for rec in outcome.records
            if rec.phase == "warm" and rec.source == "cache"]
    if hits:
        out["serve.hit_p95_ms"] = 1e3 * core.percentile(hits, 95)
    stats = outcome.status.get("stats", {})
    if stats:
        out["serve.cache_hits"] = stats.get("cache_hits")
        out["serve.dedup_shared"] = stats.get("shared")
        out["serve.rejected_429"] = stats.get("quota_rejections")
    cold_wall = outcome.wall(("solo", "pair"))
    if cold_wall:
        out["serve.worker_busy_frac"] = sum(stages["run"]) / cold_wall
    return out


SERVE_METRICS = (
    "serve.boot_s", "serve.submit_ms", "serve.queue_wait_ms", "serve.run_ms",
    "serve.poll_lag_ms", "serve.fetch_ms", "serve.hit_p95_ms", "serve.cache_hits",
    "serve.dedup_shared", "serve.rejected_429", "serve.worker_busy_frac",
)


def serve_probe(seed: int, result: core.RunResult, spans: core.SpanLog) -> Dict[str, float]:
    """A small traced round: the serve layer's numbers for a sim workload."""
    traffic = make_traffic(seed, solo=4, pairs=2, warm=40)
    reference = reference_results(traffic.distinct, result)
    with fresh_daemon() as daemon:
        outcome = run_round(daemon, traffic, reference, result, traced=True)
    return layer_metrics(outcome, record_spans(outcome, spans))


# ----------------------------------------------------------------------
# The workload
# ----------------------------------------------------------------------
def _rounds(seconds: float, result: core.RunResult, traffic: Traffic,
            reference: dict, traced: bool) -> List[Round]:
    """Fresh-daemon rounds until ``seconds`` are used (at least one)."""
    rounds: List[Round] = []
    for _ in core.passes(seconds, minimum=1):
        with fresh_daemon() as daemon:
            rounds.append(run_round(daemon, traffic, reference, result, traced))
    return rounds


def run_untraced(seconds: float, traffic: Traffic, reference: dict,
                 result: core.RunResult) -> None:
    rounds = _rounds(seconds, result, traffic, reference, traced=False)
    for name, value in end_to_end(rounds, traffic.jobs, normalised=True).items():
        result.values[f"norm_{name}"] = value
    result.notes["raw"] = end_to_end(rounds, traffic.jobs, normalised=False)
    result.notes["rounds"] = len(rounds)
    result.notes["hit_samples"] = sum(
        1 for r in rounds for rec in r.records
        if rec.phase == "warm" and rec.source == "cache")
    result.notes["traffic"] = traffic.labels()


def run_traced(seconds: float, traffic: Traffic, reference: dict,
               result: core.RunResult, spans: core.SpanLog) -> None:
    """Traced rounds; the layer numbers are the last round's.

    Tracing adds one ``/events`` fetch per job after its result is in, so
    the overhead is measured directly: seconds spent fetching events over
    the seconds the jobs themselves took (closed loop: wall time is their
    sum).
    """
    rounds = _rounds(seconds, result, traffic, reference, traced=True)
    last = rounds[-1]
    stages = record_spans(last, spans)
    result.values.update(layer_metrics(last, stages))
    result.values["host.wall_raw_s"] = last.wall()
    latency = sum(rec.latency for rec in last.records)
    if latency:
        result.values["trace.overhead_frac"] = (
            sum(rec.events_s for rec in last.records) / latency)
    if stages["latency"]:
        result.values["trace.stage_sum_ratio"] = (
            sum(stages["stage_sum"]) / sum(stages["latency"]))
    result.notes["rounds"] = len(rounds)
