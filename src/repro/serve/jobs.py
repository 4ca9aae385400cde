"""Job management for the :mod:`repro.serve` daemon.

:class:`JobManager` owns everything between "a client submitted a
:class:`~repro.exec.JobSpec`" and "the result payload is available":

* a **priority queue** — submissions carry an integer priority; the
  highest-priority queued job runs next (FIFO within a priority);
* **per-client quotas** — each client name may have at most
  ``ServeConfig.quota`` non-terminal jobs in the daemon; submissions over
  the quota raise :class:`QuotaExceeded` (the server maps it to a
  ``429 Too Many Requests``);
* a **shared warm result cache** — one
  :class:`~repro.exec.cache.ResultCache` serves every client: a
  submission whose fingerprint is already on disk completes immediately
  (``source="cache"``) without occupying a worker;
* **leader/follower dedup** — a submission whose fingerprint matches a
  queued or running job becomes a *follower*: it consumes no worker and
  completes with the leader's payload (``source="shared"``);
* **resident process workers** — up to ``ServeConfig.workers`` jobs
  simulate concurrently, each in a :class:`repro.exec.pool.Worker`: a
  process forked from the warm daemon the first time a job finds no idle
  worker and then *kept*, looping ``recv spec -> run -> send outcome``
  on one pipe around the one execution path
  :func:`~repro.exec.jobspec.run_job`, which is what makes daemon
  results bit-identical to one-shot runs.  The worker — process main,
  pipe, spawn, retire — belongs to :mod:`repro.exec.pool` and is the
  same one :class:`~repro.exec.SweepEngine` schedules onto; everything
  in this module is *policy*: which job goes next, onto which worker,
  and what a worker's death means for its job.  A job is launched onto a
  worker that is already there (the paper's argument, applied to the
  serving layer); fork, import, exit and the copy-on-write faults of a
  fresh child are paid per *worker*, not per job.  The event loop
  watches each worker's pipe and process sentinel with
  ``loop.add_reader`` — no polling;
* **checkpoint-backed preemption** — when every worker is busy and a
  higher-priority job arrives, the lowest-priority running job's worker
  is killed and the job requeued; a replacement worker is forked on
  demand by the same path as the first.  The daemon stamps its
  checkpoint policy onto specs that carry none, and a job with a
  checkpoint directory continues from its file there, so the victim
  resumes from its last periodic snapshot (:mod:`repro.state.snapshot`)
  and — because checkpoint/restore is bit-identical and the simulation
  is deterministic — finishes with exactly the ``SimStats`` an
  undisturbed run produces.  Cancellation and crashes take the same
  kill-and-replace route (a worker that dies without an outcome costs
  its job one of ``ServeConfig.worker_retries``), so no state of a
  disturbed job survives in a process that serves the next one.  The
  one exception is the input memo (:mod:`repro.workloads.datasets.memo`):
  a worker keeps the datasets it built and the host values jobs derived
  from them (reference answers, bht's quadtree, regx's DFA).  That is
  safe because they are pure functions of their key, and frozen
  (read-only arrays, frozen dataclasses), so no job can leave a mark on
  them;
* **bounded history** — the most recent :data:`MAX_TERMINAL_JOBS`
  terminal jobs stay queryable; older ones are evicted (``404``).

Everything runs on one asyncio event loop thread; handlers never block
on simulation work.  (The workers' test hooks, ``REPRO_EXEC_TEST_*`` and
``REPRO_SERVE_TEST_CKPT_SLEEP``, are documented in
:mod:`repro.exec.pool`.)
"""

from __future__ import annotations

import asyncio
import heapq
import importlib
import itertools
import math
import pkgutil
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Deque, Dict, List, Optional

from ..exec import DEFAULT_CACHE_DIR, JobSpec, ResultCache, codec
from ..exec.pool import Worker

#: Default directory for daemon checkpoint files.
DEFAULT_SERVE_CHECKPOINT_DIR = ".repro-serve/checkpoints"
#: Default checkpoint interval stamped onto submitted specs (cycles).
DEFAULT_SERVE_CHECKPOINT_EVERY = 20_000

#: Job states a client can observe.
TERMINAL = frozenset({"done", "failed", "cancelled"})

#: Terminal jobs kept queryable; the oldest beyond this are evicted.
#: (A cache hit's job holds its own decoded payload, so an unbounded
#: history is an unbounded leak at a few hundred hits per second.)
MAX_TERMINAL_JOBS = 2048

#: Wire specs a daemon keeps decoded (:meth:`JobManager._decode`); past
#: it the oldest entry goes first.
SPEC_TABLE_LIMIT = 256


class QuotaExceeded(RuntimeError):
    """A client exceeded its concurrent-job quota (HTTP 429)."""


class UnknownJob(KeyError):
    """No job with that id (HTTP 404)."""


@dataclass
class ServeConfig:
    """Daemon policy knobs (see ``python -m repro.serve --help``)."""

    workers: int = 2
    #: Max non-terminal jobs per client name.
    quota: int = 8
    #: Result cache directory; ``None`` disables the shared cache.
    cache_dir: Optional[str] = DEFAULT_CACHE_DIR
    #: Checkpoint policy stamped onto specs that carry none.  Periodic
    #: checkpoints are what makes preemption cheap; ``None`` disables
    #: stamping (specs may still bring their own policy).
    checkpoint_every: Optional[int] = DEFAULT_SERVE_CHECKPOINT_EVERY
    checkpoint_dir: str = DEFAULT_SERVE_CHECKPOINT_DIR
    #: Infrastructure retries: a worker that dies without producing a
    #: result (OOM kill, crash) is re-run, resuming from its checkpoint.
    worker_retries: int = 1


#: Modules a job imports lazily, besides the :mod:`repro.workloads` tree
#: (``numpy.ma`` is NumPy's own lazy import, on the first ``np.unique``).
_LAZY_JOB_MODULES = (
    "numpy.ma", "numpy.random",
    "repro.state", "repro.isa.dynopt", "repro.runtime.persistent",
)


def _warm_imports() -> None:
    """Import what :func:`run_job` would import on a worker's first job.

    A forked worker inherits the daemon's modules; anything imported
    lazily inside the job is otherwise imported again by every worker —
    the first ones and each replacement after a preemption, cancel or
    crash.
    """
    from .. import workloads

    for name in _LAZY_JOB_MODULES:
        importlib.import_module(name)
    for module in pkgutil.walk_packages(workloads.__path__, "repro.workloads."):
        if not module.name.endswith(".__main__"):
            importlib.import_module(module.name)


_EXACT_SCALARS = frozenset((str, int, bool, type(None)))


def _exact(document: dict) -> bool:
    """Whether :func:`~repro.exec.codec.encode` writes ``document`` exactly:
    plain dicts, strings, ints, bools, ``None`` and finite floats only.

    Anything else could share its bytes with another document: a NaN or
    an infinity is written as ``null``, an enum or a ``str`` subclass as
    its plain value.
    """
    for value in document.values():
        kind = type(value)
        if kind in _EXACT_SCALARS:
            continue
        if kind is float:
            if math.isfinite(value):
                continue
        elif kind is dict and _exact(value):
            continue
        return False
    return True


def _wire_key(spec) -> Optional[bytes]:
    """The bytes that identify a wire spec, ``None`` for one they could
    not identify exactly (not a plain document, or an int over 64 bits).

    The codec sorts keys and keeps types apart (``1``, ``1.0`` and
    ``true`` are three keys), so equal bytes mean an equal document.
    """
    if type(spec) is not dict or not _exact(spec):
        return None
    try:
        return codec.encode(spec)
    except TypeError:
        return None


def _check_type(name: str, value, expected: type) -> None:
    """Refuse ``value`` unless its type is exactly ``expected``: what a
    client sends is validated, never coerced (``True`` is no priority)."""
    if type(value) is not expected:
        raise TypeError(
            f"{name} must be {expected.__name__}, "
            f"got {type(value).__name__} {value!r}"
        )


@dataclass
class Job:
    """One submission's full lifecycle state (daemon-internal)."""

    id: str
    client: str
    priority: int
    spec: JobSpec
    fingerprint: str
    seq: int
    status: str = "queued"
    #: ``"run"``, ``"cache"`` or ``"shared"`` once done.
    source: Optional[str] = None
    attempts: int = 0
    preemptions: int = 0
    error: Optional[str] = None
    payload: Optional[dict] = None
    events: List[dict] = field(default_factory=list)
    #: The worker simulating this job while it is running.
    worker: Optional[Worker] = None
    #: Leader job id when this submission is a dedup follower.
    leader: Optional[str] = None
    followers: List[str] = field(default_factory=list)
    #: Why the job's worker is being killed (``"preempt"``,
    #: ``"cancel"`` or ``"shutdown"``); ``None`` while healthy.
    kill_reason: Optional[str] = None

    def info(self) -> dict:
        """The JSON-safe view clients see; a ``done`` job's carries its
        :meth:`result`, so whoever learns that it is done has it."""
        info = {
            "id": self.id,
            "client": self.client,
            "priority": self.priority,
            "status": self.status,
            "fingerprint": self.fingerprint,
            "label": self.spec.label(),
            "spec": self.spec.to_dict(),
            "source": self.source,
            "attempts": self.attempts,
            "preemptions": self.preemptions,
            "error": self.error,
            "leader": self.leader,
        }
        if self.status == "done":
            info["result"] = self.result()
        return info

    def result(self) -> dict:
        """What ``GET /jobs/<id>/result`` answers for a ``done`` job."""
        return {
            "id": self.id, "fingerprint": self.fingerprint,
            "source": self.source, "payload": self.payload,
        }


@dataclass
class ManagerStats:
    """Daemon-lifetime counters (the ``/status`` endpoint)."""

    submitted: int = 0
    completed: int = 0
    failed: int = 0
    cancelled: int = 0
    cache_hits: int = 0
    shared: int = 0
    preemptions: int = 0
    retries: int = 0
    quota_rejections: int = 0
    #: Checkpoints taken by the attempts that produced a result, and the
    #: host milliseconds their workers spent capturing and saving them:
    #: what the daemon's cadence costs.
    checkpoints: int = 0
    checkpoint_ms: float = 0.0
    #: Worker processes forked: the first ``workers`` on demand, then one
    #: per worker killed (preemption, cancel) or lost (crash).
    worker_spawns: int = 0


class JobManager:
    """Owns the queue, the workers and every job's state.

    All methods must be called from the event loop thread (the server's
    request handlers); :meth:`start` binds the loop.
    """

    def __init__(self, config: Optional[ServeConfig] = None) -> None:
        self.config = config or ServeConfig()
        if self.config.workers < 1:
            raise ValueError("workers must be >= 1")
        self.stats = ManagerStats()
        self.cache: Optional[ResultCache] = (
            ResultCache(self.config.cache_dir)
            if self.config.cache_dir is not None
            else None
        )
        self._jobs: Dict[str, Job] = {}
        self._terminal: Deque[str] = deque()  # retained terminal ids, oldest first
        self._heap: List = []  # (-priority, seq, job_id)
        self._running: Dict[str, Job] = {}
        self._workers: List[Worker] = []  # at most config.workers; .job is a Job
        self._inflight: Dict[str, str] = {}  # fingerprint -> leader job id
        #: Wire spec bytes -> its decoded, stamped, hashed JobSpec.
        self._specs: Dict[bytes, JobSpec] = {}
        self._active_per_client: Dict[str, int] = {}
        self._seq = itertools.count()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        #: Replaced-and-set on every event append (monitor pattern);
        #: streamers and waiters snapshot it before looking, await the
        #: snapshot.
        self._turn = asyncio.Event()
        self._closed = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        self._loop = asyncio.get_running_loop()
        _warm_imports()
        if self.config.checkpoint_every is not None:
            Path(self.config.checkpoint_dir).mkdir(parents=True, exist_ok=True)

    def shutdown(self) -> None:
        """Refuse new work, end every worker, cancel everything queued.

        Busy workers are killed (their jobs are cancelled when the
        sentinel fires); idle ones see their pipe close and are joined.
        """
        self._closed = True
        for worker in list(self._workers):
            if worker.job is None:
                self._retire(worker)
            elif worker.job.kill_reason is None:
                worker.job.kill_reason = "shutdown"
                worker.proc.kill()
        for job in list(self._jobs.values()):
            if job.status == "queued" and job.id not in self._running:
                self._finish(job, "cancelled")

    @property
    def closed(self) -> bool:
        return self._closed

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(self, spec, client: str = "anon", priority: int = 0) -> dict:
        """Register one job; returns its info dict immediately.

        ``spec`` is a :class:`JobSpec` or its ``to_dict`` form (the wire
        format).  Raises :class:`~repro.exec.SpecError` on a bad spec,
        ``TypeError`` when ``client`` is not a ``str`` or ``priority`` not
        an ``int`` (a ``bool`` is not one), and :class:`QuotaExceeded`
        when the client is over quota.
        """
        if self._closed:
            raise RuntimeError("daemon is shutting down")
        _check_type("client", client, str)
        _check_type("priority", priority, int)
        spec = self._decode(spec)
        fingerprint = spec.fingerprint()
        seq = next(self._seq)
        job = Job(
            id=f"j{seq:06d}", client=client, priority=priority,
            spec=spec, fingerprint=fingerprint, seq=seq,
        )
        self.stats.submitted += 1

        # Warm-cache fast path: terminal instantly, never counts toward
        # the quota and never occupies a worker.
        if self.cache is not None:
            payload = self.cache.load(fingerprint)
            if payload is not None:
                self._jobs[job.id] = job
                self._event(job, "queued")
                job.payload, job.source = payload, "cache"
                self.stats.cache_hits += 1
                self._finish(job, "done")
                return job.info()

        active = self._active_per_client.get(job.client, 0)
        if active >= self.config.quota:
            self.stats.quota_rejections += 1
            raise QuotaExceeded(
                f"client {job.client!r} has {active} active jobs "
                f"(quota {self.config.quota})"
            )

        self._jobs[job.id] = job
        self._active_per_client[job.client] = active + 1
        leader_id = self._inflight.get(fingerprint)
        leader = self._jobs.get(leader_id) if leader_id else None
        if leader is not None and leader.status not in TERMINAL:
            job.leader = leader.id
            leader.followers.append(job.id)
            self._event(job, "queued", shared_with=leader.id)
        else:
            self._inflight[fingerprint] = job.id
            heapq.heappush(self._heap, (-job.priority, job.seq, job.id))
            self._event(job, "queued")
            self._schedule()
        return job.info()

    def _decode(self, spec) -> JobSpec:
        """``spec`` validated, with the daemon's checkpoint policy stamped
        on if it carries none.

        A wire spec is decoded, stamped and hashed once: the result is
        kept by the spec's :func:`_wire_key` (at most
        :data:`SPEC_TABLE_LIMIT` of them), so a resubmission — every
        cache hit — is one lookup.  A spec that fails validation raises
        before it is kept; one without a key is decoded every time.
        The fingerprint memo travels with the kept spec and re-salts
        itself when ``REPRO_SANITIZE`` or the code version changes.
        """
        key = None
        if isinstance(spec, JobSpec):
            spec = spec.validate()
        else:
            key = _wire_key(spec)
            kept = self._specs.get(key) if key is not None else None
            if kept is not None:
                return kept
            spec = JobSpec.from_dict(spec)  # validates what it builds
        if self.config.checkpoint_every is not None:
            spec = spec.with_default_policy(
                self.config.checkpoint_every, self.config.checkpoint_dir
            )
        if key is not None:
            spec.fingerprint()
            if len(self._specs) >= SPEC_TABLE_LIMIT:
                del self._specs[next(iter(self._specs))]
            self._specs[key] = spec
        return spec

    def submit_sweep(self, specs, client: str = "anon", priority: int = 0) -> List[dict]:
        """Submit a batch atomically: all accepted or none (quota-wise)."""
        accepted: List[dict] = []
        try:
            for spec in specs:
                accepted.append(self.submit(spec, client=client, priority=priority))
        except Exception:
            for info in accepted:
                self.cancel(info["id"])
            raise
        return accepted

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def get(self, job_id: str) -> Job:
        try:
            return self._jobs[job_id]
        except KeyError:
            raise UnknownJob(job_id) from None

    def status(self) -> dict:
        states: Dict[str, int] = {}
        for job in self._jobs.values():
            states[job.status] = states.get(job.status, 0) + 1
        payload = {
            "workers": self.config.workers,
            "quota": self.config.quota,
            "running": len(self._running),
            "jobs": states,
            "stats": vars(self.stats).copy(),
        }
        if self.cache is not None:
            payload["cache"] = {
                "dir": str(self.cache.root),
                "stats": vars(self.cache.stats).copy(),
            }
        return payload

    # ------------------------------------------------------------------
    # Cancellation
    # ------------------------------------------------------------------
    def cancel(self, job_id: str) -> dict:
        job = self.get(job_id)
        if job.status in TERMINAL:
            return job.info()
        if job.id in self._running:
            if job.kill_reason is None:
                job.kill_reason = "cancel"
                job.worker.proc.kill()
            return job.info()  # terminal once the sentinel fires
        if job.leader is not None:
            leader = self._jobs.get(job.leader)
            if leader is not None and job.id in leader.followers:
                leader.followers.remove(job.id)
            self._finish(job, "cancelled")
            return job.info()
        # Queued leader: promote a follower, then drop out of the queue
        # (the heap entry is skipped lazily once status != queued).
        self._promote_follower(job)
        self._finish(job, "cancelled")
        return job.info()

    def _promote_follower(self, leader: Job) -> None:
        """Hand a dying leader's role to its first follower, if any."""
        if self._inflight.get(leader.fingerprint) == leader.id:
            del self._inflight[leader.fingerprint]
        while leader.followers:
            heir = self._jobs.get(leader.followers.pop(0))
            if heir is None or heir.status in TERMINAL:
                continue
            heir.leader = None
            heir.followers = leader.followers
            leader.followers = []
            # The checkpoint file is keyed by fingerprint, so the heir
            # resumes whatever progress the leader had banked.
            self._inflight[heir.fingerprint] = heir.id
            heapq.heappush(self._heap, (-heir.priority, heir.seq, heir.id))
            self._event(heir, "promoted")
            self._schedule()
            return

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def _next_queued(self) -> Optional[Job]:
        while self._heap:
            _, _, job_id = self._heap[0]
            job = self._jobs.get(job_id)
            if job is None or job.status != "queued" or job_id in self._running:
                heapq.heappop(self._heap)
                continue
            return job
        return None

    def _schedule(self) -> None:
        while True:
            job = self._next_queued()
            if job is None:
                return
            if len(self._running) < self.config.workers:
                heapq.heappop(self._heap)
                self._start(job)
                continue
            # Full house: preempt the lowest-priority healthy worker if
            # the queue head outranks it.  The slot frees when the
            # victim's sentinel fires; scheduling resumes there.
            candidates = [
                j for j in self._running.values() if j.kill_reason is None
            ]
            if not candidates:
                return
            victim = min(candidates, key=lambda j: (j.priority, -j.seq))
            if job.priority <= victim.priority:
                return
            victim.kill_reason = "preempt"
            victim.worker.proc.kill()
            self.stats.preemptions += 1
            self._event(victim, "preempting", by=job.id)
            return

    def _start(self, job: Job) -> None:
        """Launch ``job`` onto an idle worker, forking one if none is."""
        worker = next((w for w in self._workers if w.job is None), None)
        if worker is None:
            worker = self._spawn()
        job.status = "running"
        job.attempts += 1
        worker.job, job.worker = job, worker
        self._running[job.id] = job
        # Stamped before the send: the write wakes the worker, which may
        # take the CPU before this loop gets it back.
        self._event(job, "started", attempt=job.attempts, pid=worker.proc.pid)
        try:
            worker.conn.send(job.spec)
        except OSError:
            pass  # it died idle: its sentinel is about to fire and retry the job

    # ------------------------------------------------------------------
    # Workers
    # ------------------------------------------------------------------
    def _spawn(self) -> Worker:
        worker = Worker.spawn(self._workers)
        self._workers.append(worker)
        self.stats.worker_spawns += 1
        self._loop.add_reader(worker.conn.fileno(), self._on_outcome, worker)
        self._loop.add_reader(worker.proc.sentinel, self._on_exit, worker)
        return worker

    def _retire(self, worker: Worker) -> Optional[int]:
        """Forget a worker that is dead, or idle and told to leave."""
        self._loop.remove_reader(worker.conn.fileno())
        self._loop.remove_reader(worker.proc.sentinel)
        self._workers.remove(worker)
        return worker.retire()

    # ------------------------------------------------------------------
    # Worker completion
    # ------------------------------------------------------------------
    def _requeue(self, job: Job, event: str) -> None:
        # The next attempt continues from the last periodic checkpoint
        # (fingerprint-keyed file; a missing one just means a fresh,
        # still-correct start).
        job.status = "queued"
        heapq.heappush(self._heap, (-job.priority, job.seq, job.id))
        self._event(job, event)

    def _release(self, worker: Worker) -> Job:
        job, worker.job = worker.job, None
        job.worker = None
        del self._running[job.id]
        return job

    def _settle(self, job: Job, outcome: dict) -> None:
        if outcome.get("ok"):
            self._complete(
                job, outcome["payload"], outcome["checkpoints"],
                outcome["checkpoint_ms"],
            )
        else:
            job.error = str(outcome.get("error"))
            self._fail(job)

    def _on_outcome(self, worker: Worker) -> None:
        """The worker's pipe is readable: an outcome, or the EOF of its death."""
        job = worker.job
        outcome = None
        if job is not None and job.kill_reason is None:
            outcome = worker.outcome()
        if outcome is None:
            # Dead, dying or being killed: the sentinel decides.  Stop
            # watching a pipe that stays readable until then.
            self._loop.remove_reader(worker.conn.fileno())
            return
        self._settle(self._release(worker), outcome)
        self._schedule()

    def _on_exit(self, worker: Worker) -> None:
        """The worker's process has died: killed by us, or on its own."""
        job = worker.job
        # An outcome sent whole before an unprovoked death still counts.
        outcome = None
        if job is not None and job.kill_reason is None:
            outcome = worker.outcome()
        exitcode = self._retire(worker)
        if job is None:
            return  # died idle; the next job that needs one forks another
        self._release(worker)
        reason, job.kill_reason = job.kill_reason, None

        if reason in ("cancel", "shutdown"):
            self._promote_follower(job)
            self._finish(job, "cancelled")
        elif reason == "preempt":
            job.preemptions += 1
            self._requeue(job, "requeued")
        elif outcome is not None:
            self._settle(job, outcome)
        elif job.attempts <= self.config.worker_retries:
            self.stats.retries += 1
            self._requeue(job, "retrying")
        else:
            job.error = f"worker exited with code {exitcode}"
            self._fail(job)
        self._schedule()

    def _complete(
        self, job: Job, payload: dict, checkpoints: int, checkpoint_ms: float
    ) -> None:
        if self.cache is not None:
            self.cache.store(job.fingerprint, payload)
        job.payload, job.source = payload, "run"
        self.stats.checkpoints += checkpoints
        self.stats.checkpoint_ms += checkpoint_ms
        self._finish(
            job, "done", checkpoints=checkpoints, checkpoint_ms=checkpoint_ms
        )
        for follower_id in job.followers:
            follower = self._jobs.get(follower_id)
            if follower is None or follower.status in TERMINAL:
                continue
            follower.payload, follower.source = payload, "shared"
            self.stats.shared += 1
            self._finish(follower, "done")
        job.followers = []

    def _fail(self, job: Job) -> None:
        self._finish(job, "failed")
        for follower_id in job.followers:
            follower = self._jobs.get(follower_id)
            if follower is None or follower.status in TERMINAL:
                continue
            follower.error = f"shared job {job.id} failed: {job.error}"
            self._finish(follower, "failed")
        job.followers = []

    def _finish(self, job: Job, status: str, **extra) -> None:
        job.status = status
        if status == "done":
            self.stats.completed += 1
        elif status == "failed":
            self.stats.failed += 1
        elif status == "cancelled":
            self.stats.cancelled += 1
        if job.leader is None and self._inflight.get(job.fingerprint) == job.id:
            del self._inflight[job.fingerprint]
        if job.source != "cache":  # cache hits were never counted active
            count = self._active_per_client.get(job.client, 0)
            if count > 1:
                self._active_per_client[job.client] = count - 1
            else:
                self._active_per_client.pop(job.client, None)
        self._event(job, status, **extra)
        self._terminal.append(job.id)
        while len(self._terminal) > MAX_TERMINAL_JOBS:
            del self._jobs[self._terminal.popleft()]

    # ------------------------------------------------------------------
    # Events
    # ------------------------------------------------------------------
    def _event(self, job: Job, name: str, **extra) -> None:
        event = {"event": name, "job": job.id, "status": job.status,
                 "label": job.spec.label(), "ts": time.time()}
        event.update(extra)
        job.events.append(event)
        turn, self._turn = self._turn, asyncio.Event()
        turn.set()

    async def stream(self, job_id: str):
        """Async-iterate a job's events; ends after its terminal event."""
        job = self.get(job_id)
        index = 0
        while True:
            turn = self._turn  # snapshot before scanning: no lost wakeups
            while index < len(job.events):
                event = job.events[index]
                index += 1
                yield event
                if event["event"] in TERMINAL:
                    return
            await turn.wait()

    async def wait(self, job_id: str, timeout: float) -> Job:
        """The job, once it is terminal or ``timeout`` seconds have passed."""
        job = self.get(job_id)
        loop = asyncio.get_running_loop()
        deadline = loop.time() + timeout
        while job.status not in TERMINAL:
            remaining = deadline - loop.time()
            if remaining <= 0:
                break
            turn = self._turn  # snapshot before sleeping: no lost wakeups
            try:
                await asyncio.wait_for(turn.wait(), remaining)
            except asyncio.TimeoutError:
                break
        return job
