"""Resident worker processes, and the sweep engine that schedules onto them.

**The worker** is the repository's one worker mechanism, owned here and
used by both schedulers — :class:`SweepEngine` below and the
:mod:`repro.serve` daemon's ``JobManager``.  A :class:`Worker` is a
process forked from its owner that loops ``recv spec -> _worker_entry ->
send outcome`` on one pipe until the owner closes its end (the
persistent-worker shape Atos applies to irregular GPU work: new work is
launched onto a context that is already resident and tracked
individually).  This module owns the process main, the pipe, *spawn* and
*retire*, and the whole-message-or-nothing :meth:`Worker.outcome`; what
to run next, on which worker, and what a death means is the owner's
policy.  Because each worker is its own process behind its own pipe, an
owner always knows *which* worker died and can kill just one.

**The engine.**  The paper's evaluation is one 16-benchmark x 5-mode grid
of independent, deterministic simulations — an embarrassingly parallel
sweep.  :class:`SweepEngine` launches a list of
:class:`~repro.exec.jobspec.JobSpec`\\ s onto up to ``max_workers``
resident workers (forked on first demand, reused job after job; dispatch
never blocks on a straggler), with the failure handling a long sweep
needs.  The scheduler blocks on the busy workers' pipes and process
sentinels — it never ticks:

* **bounded retry** — a job whose worker dies without an outcome is
  requeued up to :data:`RETRIES` times; only that job is charged, and the
  next launch forks one replacement worker;
* **in-process fallback** — a job out of retries, or a sweep that cannot
  fork a worker at all (resource limits), degrades to plain in-process
  execution instead of failing the sweep;
* **streaming progress** — a callback receives a
  :class:`ProgressEvent` per completion / retry / fallback, so callers
  can print live progress without polling.

Real exceptions raised *by the simulation itself* (``WorkloadError``,
verification mismatches) are deterministic and propagate immediately —
retrying them would reproduce the failure bit-for-bit.  The worker sends
the exception object back when it survives pickling, so the caller
catches the type the job raised.

Each spec carries its own checkpoint policy
(:attr:`~repro.exec.jobspec.JobSpec.checkpoint_every` /
``checkpoint_dir``): workers checkpoint their job periodically and every
(re)attempt — including the in-process fallback — continues from the
last checkpoint, so a crashed job loses at most one checkpoint interval
of simulation within its retry budget.

Results are returned as JSON-safe payload dictionaries (produced by
:meth:`~repro.exec.jobspec.JobResult.to_payload`) in input order,
bit-identical to what a serial in-process run produces: workers serialize
``SimStats`` with :meth:`~repro.sim.stats.SimStats.to_dict`, whose round
trip is exact.

Test hooks: setting ``REPRO_EXEC_TEST_CRASH`` makes *worker processes*
(never in-process execution) die before simulating — ``always`` on every
attempt (``always:<benchmark>`` only for that benchmark's jobs),
otherwise the value is a sentinel-file path that makes exactly the first
attempt die (see :func:`_worker_entry`).
``REPRO_SERVE_TEST_CKPT_SLEEP`` (seconds) makes workers sleep at every
checkpoint, stretching wall time deterministically without touching
simulated state — the daemon's preemption tests use it to keep a victim
alive long enough to be preempted.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import signal
import time
from collections import deque
from dataclasses import dataclass
from multiprocessing.connection import Connection, wait
from typing import Callable, List, Optional, Sequence

from .jobspec import JobSpec, run_job

try:
    _CTX = multiprocessing.get_context("fork")
except ValueError:  # pragma: no cover - non-POSIX
    _CTX = multiprocessing.get_context("spawn")


#: Worker attempts a job may lose (its worker died without an outcome)
#: before it runs in-process.
RETRIES = 2


class SweepError(RuntimeError):
    """A job failed with an exception that could not be re-raised as
    itself (it does not pickle)."""


def _test_fault_hook(job: JobSpec) -> None:
    """Crash injection for the engine's own tests (workers only)."""
    crash = os.environ.get("REPRO_EXEC_TEST_CRASH")
    if not crash:
        return
    always, _, only = crash.partition(":")
    if always == "always":
        if not only or only == job.benchmark:
            os._exit(3)
        return
    # Sentinel-file protocol: the first attempt creates the file and dies;
    # later attempts see it and proceed.
    try:
        fd = os.open(crash, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return
    os.close(fd)
    os._exit(3)


def _test_ckpt_crash_hook():
    """Kill-after-first-checkpoint injection for crash-recovery tests.

    ``REPRO_EXEC_TEST_CRASH_AFTER_CKPT`` names a sentinel file: the first
    checkpoint written by any worker creates it and kills the process
    *after* the checkpoint file landed on disk; subsequent attempts see
    the sentinel and run to completion (resuming from that checkpoint).
    """
    sentinel = os.environ.get("REPRO_EXEC_TEST_CRASH_AFTER_CKPT")
    if not sentinel:
        return None

    def on_checkpoint(doc) -> None:
        try:
            fd = os.open(sentinel, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            return
        os.close(fd)
        os._exit(3)

    return on_checkpoint


def _worker_entry(
    spec: JobSpec, on_checkpoint: Optional[Callable[[dict], None]] = None
) -> dict:
    """What a worker process runs for one job, whoever owns the worker:
    fault hooks (tests) + the real execution.  ``on_checkpoint`` sees
    each checkpoint document before the crash hook does."""
    _test_fault_hook(spec)
    hooks = [
        hook for hook in (on_checkpoint, _test_ckpt_crash_hook())
        if hook is not None
    ]

    def each(doc) -> None:
        for hook in hooks:
            hook(doc)

    return run_job(spec, on_checkpoint=each if hooks else None).to_payload()


def _portable(exc: Exception) -> Optional[Exception]:
    """``exc`` if it survives a pickle round trip, else ``None``."""
    try:
        pickle.loads(pickle.dumps(exc))
    except Exception:
        return None
    return exc


def _worker_main(conn: Connection, owner_ends: List[Connection]) -> None:
    """Worker-process main: ``recv spec -> run -> send outcome`` until EOF.

    The pipe is the only channel in either direction.  An outcome carries
    the payload, how many checkpoints the attempt took and the host time
    it spent capturing and saving them (``checkpoint_ms``), or the error
    as a ``Type: message`` string beside the exception object itself
    when that pickles: every exception a job raises — simulation errors,
    verification failures — is reported, and only an abrupt death (kill,
    crash) sends nothing.  The worker leaves when its owner closes its
    end or dies; for that EOF to arrive no worker may hold a copy of an
    owner-side end, so ``owner_ends`` — its own pipe's and those of the
    workers forked before it — are closed first.
    """
    from ..state.snapshot import host_seconds  # repro.state imports this package

    for end in owner_ends:
        end.close()
    # A terminal's Ctrl-C goes to the whole process group; the owner,
    # not the signal, decides when a worker dies.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    delay = float(os.environ.get("REPRO_SERVE_TEST_CKPT_SLEEP") or 0)
    checkpoints = 0

    def on_checkpoint(doc) -> None:
        nonlocal checkpoints
        checkpoints += 1
        if delay:
            time.sleep(delay)

    try:
        while True:
            spec = conn.recv()
            checkpoints = 0
            spent = host_seconds()
            try:
                payload = _worker_entry(spec, on_checkpoint)
                outcome = {"ok": True, "payload": payload,
                           "checkpoints": checkpoints,
                           "checkpoint_ms": 1e3 * (host_seconds() - spent)}
            except Exception as exc:  # report, don't vanish
                outcome = {"ok": False, "exception": _portable(exc),
                           "error": f"{type(exc).__name__}: {exc}"}
            conn.send(outcome)
    except (EOFError, OSError):
        return


@dataclass(eq=False)
class Worker:
    """One resident worker process and its owner's end of the pipe."""

    proc: multiprocessing.process.BaseProcess
    conn: Connection
    #: What the owner launched onto it (``None`` while idle); the owner's
    #: bookkeeping, never read here.
    job: Optional[object] = None

    @classmethod
    def spawn(cls, siblings: Sequence["Worker"]) -> "Worker":
        """Fork a worker; ``siblings`` are the owner's other live workers,
        whose owner-side pipe ends the child must not keep open."""
        ours, theirs = _CTX.Pipe()
        try:
            proc = _CTX.Process(
                target=_worker_main,
                args=(theirs, [ours] + [w.conn for w in siblings]),
                daemon=True,
            )
            proc.start()
        except BaseException:
            ours.close()
            raise
        finally:
            theirs.close()
        return cls(proc, ours)

    def outcome(self) -> Optional[dict]:
        """The complete outcome waiting on the pipe, if there is one.

        A worker killed mid-``send`` leaves a truncated message, which
        reads as EOF: no outcome, never half of one.
        """
        try:
            if self.conn.poll():
                return self.conn.recv()
        except (EOFError, OSError):
            pass
        return None

    def retire(self) -> Optional[int]:
        """Part with a worker that is dead, killed, or idle and to leave;
        returns its exit code."""
        self.conn.close()  # EOF on an idle worker's ``recv``: it returns
        self.proc.join(timeout=1.0)
        if self.proc.is_alive():  # pragma: no cover - defensive
            self.proc.kill()
            self.proc.join()
        exitcode = self.proc.exitcode
        # Its sentinel's descriptors go now, not when a traceback that
        # still refers to the worker happens to be collected.
        self.proc.close()
        return exitcode


@dataclass
class ProgressEvent:
    """One engine lifecycle notification (see :class:`SweepEngine`)."""

    #: ``"done"``, ``"retry"`` or ``"fallback"``.
    kind: str
    index: int
    job: JobSpec
    #: Result payload (``kind == "done"`` only).
    payload: Optional[dict] = None
    #: Where the completed job ran: ``"worker"`` or ``"in-process"``.
    source: str = "worker"
    attempts: int = 1
    completed: int = 0
    total: int = 0


ProgressCallback = Callable[[ProgressEvent], None]


@dataclass
class EngineStats:
    """Counters for one :meth:`SweepEngine.run` call."""

    completed: int = 0
    from_workers: int = 0
    in_process: int = 0
    retries: int = 0
    #: Worker processes forked: up to ``max_workers`` on demand, then one
    #: per worker lost to a crash.
    worker_spawns: int = 0
    fallbacks: int = 0


class SweepEngine:
    """Run independent simulation jobs across resident worker processes."""

    def __init__(self, max_workers: int) -> None:
        if max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        self.max_workers = max_workers
        self.stats = EngineStats()

    def run(
        self,
        jobs: Sequence[JobSpec],
        progress: Optional[ProgressCallback] = None,
    ) -> List[dict]:
        """Execute every spec; payloads in input order.

        Simulation errors propagate; infrastructure failures (worker
        crashes, a worker that cannot be forked) are retried and then
        absorbed by the in-process fallback.
        """
        self.stats = EngineStats()
        total = len(jobs)
        results: List[Optional[dict]] = [None] * total
        if total == 0:
            return []

        def emit(kind: str, index: int, attempts_used: int, **fields) -> None:
            if progress is not None:
                progress(ProgressEvent(
                    kind=kind, index=index, job=jobs[index],
                    attempts=attempts_used,
                    completed=self.stats.completed, total=total, **fields,
                ))

        def finish(index: int, payload: dict, source: str, attempts_used: int) -> None:
            results[index] = payload
            self.stats.completed += 1
            if source == "worker":
                self.stats.from_workers += 1
            else:
                self.stats.in_process += 1
            emit("done", index, attempts_used, payload=payload, source=source)

        def run_local(index: int, attempts_used: int) -> None:
            payload = run_job(jobs[index]).to_payload()
            finish(index, payload, "in-process", attempts_used)

        if self.max_workers == 1:
            for i in range(total):
                run_local(i, 1)
            return [payload for payload in results if payload is not None]

        queue: deque = deque(range(total))
        attempts = [0] * total
        #: Live workers; a busy one's ``job`` is its job's index.
        workers: List[Worker] = []
        can_spawn = True

        def lose(worker: Worker) -> None:
            """``worker`` died: part with it, charge its job only — a
            retry, or in-process once out of them."""
            worker.retire()
            workers.remove(worker)
            index = worker.job
            attempts[index] += 1
            if attempts[index] <= RETRIES:
                self.stats.retries += 1
                queue.append(index)
                emit("retry", index, attempts[index])
                return
            self.stats.fallbacks += 1
            emit("fallback", index, attempts[index])
            run_local(index, attempts[index] + 1)

        def idle_worker() -> Optional[Worker]:
            """An idle worker — forked, while fewer than ``max_workers`` exist."""
            nonlocal can_spawn
            worker = next((w for w in workers if w.job is None), None)
            if worker is None and can_spawn and len(workers) < self.max_workers:
                try:
                    worker = Worker.spawn(workers)
                except Exception:
                    can_spawn = False  # make do with the workers there are
                else:
                    workers.append(worker)
                    self.stats.worker_spawns += 1
            return worker

        try:
            while True:
                while queue:
                    worker = idle_worker()
                    if worker is None:
                        break
                    index = queue.popleft()
                    worker.job = index
                    try:
                        worker.conn.send(jobs[index])
                    except OSError:
                        pass  # it died idle: found dead, and retried, below
                busy = [worker for worker in workers if worker.job is not None]
                if not busy:
                    # Done — or no worker left and none to be had: degrade
                    # the rest of the sweep to in-process execution.
                    while queue:
                        index = queue.popleft()
                        self.stats.fallbacks += 1
                        run_local(index, attempts[index] + 1)
                    break

                # Block until a busy worker reports or dies.
                wait([end for worker in busy
                      for end in (worker.conn, worker.proc.sentinel)])
                for worker in busy:
                    index = worker.job
                    outcome = worker.outcome()
                    if outcome is not None:
                        worker.job = None
                        if not outcome["ok"]:
                            # The job itself raised: deterministic, so
                            # not retried — re-raised as what it was.
                            raise outcome["exception"] or SweepError(
                                f"job {jobs[index].label()} failed: "
                                f"{outcome['error']}"
                            )
                        finish(
                            index, outcome["payload"], "worker",
                            attempts[index] + 1,
                        )
                    elif not worker.proc.is_alive():
                        lose(worker)
        finally:
            for worker in workers:
                if worker.job is not None:
                    worker.proc.kill()
                worker.conn.close()  # all are told to leave before any is waited for
            for worker in workers:
                worker.retire()

        missing = [i for i, payload in enumerate(results) if payload is None]
        if missing:  # pragma: no cover - defensive
            raise SweepError(f"jobs never completed: {missing}")
        return [payload for payload in results if payload is not None]
