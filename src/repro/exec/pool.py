"""Multi-process sweep engine for simulation grids.

The paper's evaluation is one 16-benchmark x 5-mode grid of independent,
deterministic simulations — an embarrassingly parallel sweep that the
harness previously ran serially.  :class:`SweepEngine` fans a list of
:class:`~repro.exec.jobspec.JobSpec`\\ s out over a
``ProcessPoolExecutor`` (the same persistent-worker-pool shape Atos
applies to irregular GPU work: workers drain a queue, dispatch never
blocks on a straggler), with the failure handling a long sweep needs:

* **per-job timeout** — in-flight submissions are capped at the worker
  count, so submission time approximates start time; a job that exceeds
  ``job_timeout`` is charged a failed attempt and the pool is rebuilt
  (the stuck worker is killed, innocent in-flight jobs are requeued
  without charge);
* **bounded retry** — a job whose worker dies (``BrokenProcessPool``)
  is requeued up to ``max_retries`` times; the pool is rebuilt around it;
* **in-process fallback** — a job out of retries, or a pool that cannot
  be created at all (``spawn`` failure, resource limits), degrades to
  plain in-process execution instead of failing the sweep;
* **streaming progress** — a callback receives a
  :class:`ProgressEvent` per completion / retry / fallback, so callers
  can print live progress without polling.

Real exceptions raised *by the simulation itself* (``WorkloadError``,
verification mismatches) are deterministic and propagate immediately —
retrying them would reproduce the failure bit-for-bit.

Each spec carries its own checkpoint policy
(:attr:`~repro.exec.jobspec.JobSpec.checkpoint_every` /
``checkpoint_dir``): workers checkpoint their job periodically and every
(re)attempt — including the in-process fallback — resumes from the last
checkpoint, so a crashed or timed-out job loses at most one checkpoint
interval of simulation within its retry budget.

Results are returned as JSON-safe payload dictionaries (produced by
:meth:`~repro.exec.jobspec.JobResult.to_payload`) in input order,
bit-identical to what a serial in-process run produces: workers serialize
``SimStats`` with :meth:`~repro.sim.stats.SimStats.to_dict`, whose round
trip is exact.

Test hooks: setting ``REPRO_EXEC_TEST_CRASH`` makes *worker processes*
(never in-process execution) die before simulating — ``always`` on every
attempt (``always:<benchmark>`` only for that benchmark's jobs),
otherwise the value is a sentinel-file path that makes exactly the first
attempt die.  ``REPRO_EXEC_TEST_HANG`` (seconds) makes workers sleep to
exercise the timeout path.  The hooks live in :func:`_worker_entry`,
which the :mod:`repro.serve` daemon's resident workers run too.
"""

from __future__ import annotations

import os
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .jobspec import JobSpec, run_job


class SweepError(RuntimeError):
    """The engine could not complete a sweep (fallback disabled)."""


def _test_fault_hook(job: JobSpec) -> None:
    """Crash/hang injection for the engine's own tests (workers only)."""
    hang = os.environ.get("REPRO_EXEC_TEST_HANG")
    if hang:
        time.sleep(float(hang))
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


def _resumable(spec: JobSpec) -> JobSpec:
    """Arm resume on a spec that checkpoints to disk.

    Retried attempts — worker or fallback — must pick up from the last
    checkpoint instead of restarting; a first attempt simply finds no
    file and starts fresh.
    """
    if spec.checkpoint_dir is not None and not spec.resume:
        return spec.with_policy(resume=True)
    return spec


def _worker_entry(
    spec: JobSpec, on_checkpoint: Optional[Callable[[dict], None]] = None
) -> dict:
    """What every worker process runs for one job — this engine's pool
    workers and the daemon's resident ones: fault hooks (tests) + the
    real execution.  ``on_checkpoint`` sees each checkpoint document
    before the crash hook does."""
    _test_fault_hook(spec)
    hooks = [
        hook for hook in (on_checkpoint, _test_ckpt_crash_hook())
        if hook is not None
    ]

    def each(doc) -> None:
        for hook in hooks:
            hook(doc)

    return run_job(
        _resumable(spec), on_checkpoint=each if hooks else None
    ).to_payload()


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
    pool_rebuilds: int = 0
    fallbacks: int = 0
    timeouts: int = 0


class SweepEngine:
    """Run independent simulation jobs across worker processes."""

    #: Seconds between scheduler wakeups while futures are outstanding.
    _TICK = 0.05

    def __init__(
        self,
        max_workers: int,
        job_timeout: Optional[float] = None,
        max_retries: int = 2,
        fallback: bool = True,
        mp_context=None,
        executor_factory=None,
    ) -> None:
        if max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        self.max_workers = max_workers
        self.job_timeout = job_timeout
        self.max_retries = max_retries
        self.fallback = fallback
        self._mp_context = mp_context
        self._executor_factory = executor_factory or self._default_factory
        self.stats = EngineStats()

    # ------------------------------------------------------------------
    # Pool lifecycle
    # ------------------------------------------------------------------
    def _default_factory(self) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=self.max_workers, mp_context=self._mp_context
        )

    def _make_pool(self) -> Optional[ProcessPoolExecutor]:
        try:
            return self._executor_factory()
        except Exception:
            return None

    @staticmethod
    def _kill_pool(pool: ProcessPoolExecutor) -> None:
        """Tear a (possibly broken or stuck) pool down without waiting.

        Workers are killed first: ``shutdown(wait=False)`` would leave a
        hung worker running forever, and its job has already been charged
        a timeout.
        """
        for proc in list((getattr(pool, "_processes", None) or {}).values()):
            try:
                proc.kill()
            except Exception:
                pass
        try:
            pool.shutdown(wait=False, cancel_futures=True)
        except Exception:
            pass

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(
        self,
        jobs: Sequence[JobSpec],
        progress: Optional[ProgressCallback] = None,
    ) -> List[dict]:
        """Execute every spec; payloads in input order.

        Simulation errors propagate; infrastructure failures (worker
        crashes, timeouts, pool creation failure) are retried and then
        absorbed by the in-process fallback.
        """
        self.stats = EngineStats()
        total = len(jobs)
        results: List[Optional[dict]] = [None] * total
        if total == 0:
            return []

        def finish(index: int, payload: dict, source: str, attempts_used: int) -> None:
            results[index] = payload
            self.stats.completed += 1
            if source == "worker":
                self.stats.from_workers += 1
            else:
                self.stats.in_process += 1
            if progress is not None:
                progress(ProgressEvent(
                    kind="done", index=index, job=jobs[index], payload=payload,
                    source=source, attempts=attempts_used,
                    completed=self.stats.completed, total=total,
                ))

        def run_local(index: int, attempts_used: int) -> None:
            payload = run_job(_resumable(jobs[index])).to_payload()
            finish(index, payload, "in-process", attempts_used)

        if self.max_workers == 1:
            for i in range(total):
                run_local(i, 1)
            return [payload for payload in results if payload is not None]

        queue: deque = deque(range(total))
        attempts = [0] * total
        pool = self._make_pool()
        inflight: Dict[object, Tuple[int, float]] = {}

        def charge_failure(index: int, why: str) -> None:
            """A worker-side failure of job ``index``: retry or fall back."""
            attempts[index] += 1
            if attempts[index] <= self.max_retries:
                self.stats.retries += 1
                queue.append(index)
                if progress is not None:
                    progress(ProgressEvent(
                        kind="retry", index=index, job=jobs[index],
                        attempts=attempts[index],
                        completed=self.stats.completed, total=total,
                    ))
                return
            if not self.fallback:
                raise SweepError(
                    f"job {jobs[index].label()} failed {attempts[index]} "
                    f"worker attempts ({why}) and fallback is disabled"
                )
            self.stats.fallbacks += 1
            if progress is not None:
                progress(ProgressEvent(
                    kind="fallback", index=index, job=jobs[index],
                    attempts=attempts[index],
                    completed=self.stats.completed, total=total,
                ))
            run_local(index, attempts[index] + 1)

        def rebuild_pool(charge_suspects: bool, why: str) -> None:
            """Replace a broken/stuck pool; disposition in-flight jobs.

            Futures that completed before the pool broke are harvested;
            running jobs are requeued — billed an attempt when they are
            crash suspects (a shared worker died and any of them may have
            killed it), free when the pool is dying for unrelated reasons
            (another job's timeout).
            """
            nonlocal pool
            for future, (index, _submitted) in list(inflight.items()):
                del inflight[future]
                payload = None
                if future.done():
                    try:
                        payload = future.result()
                    except Exception:
                        payload = None
                if payload is not None:
                    finish(index, payload, "worker", attempts[index] + 1)
                elif charge_suspects:
                    charge_failure(index, why)
                else:
                    queue.append(index)
            self._kill_pool(pool)
            self.stats.pool_rebuilds += 1
            pool = self._make_pool()

        try:
            while queue or inflight:
                if pool is None:
                    # No usable pool (creation failed, or rebuilding did):
                    # degrade the rest of the sweep to in-process execution.
                    if not self.fallback:
                        raise SweepError(
                            "worker pool unavailable and fallback disabled"
                        )
                    while queue:
                        index = queue.popleft()
                        self.stats.fallbacks += 1
                        run_local(index, attempts[index] + 1)
                    continue

                # Keep at most max_workers in flight so a submission's
                # clock approximates its start time (per-job timeout).
                while queue and len(inflight) < self.max_workers:
                    index = queue.popleft()
                    try:
                        future = pool.submit(_worker_entry, jobs[index])
                    except Exception:
                        queue.appendleft(index)
                        rebuild_pool(False, "submit failed")
                        break
                    inflight[future] = (index, time.monotonic())
                if pool is None or not inflight:
                    continue

                done, _ = wait(
                    set(inflight), timeout=self._TICK,
                    return_when=FIRST_COMPLETED,
                )
                broken = False
                for future in done:
                    index, _submitted = inflight.pop(future)
                    try:
                        payload = future.result()
                    except BrokenProcessPool:
                        broken = True
                        charge_failure(index, "worker process died")
                    else:
                        finish(index, payload, "worker", attempts[index] + 1)
                if broken:
                    rebuild_pool(True, "worker process died")
                    continue

                if self.job_timeout is not None and inflight:
                    now = time.monotonic()
                    expired = [
                        (future, index)
                        for future, (index, submitted) in inflight.items()
                        if now - submitted > self.job_timeout
                    ]
                    if expired:
                        for future, index in expired:
                            del inflight[future]
                            self.stats.timeouts += 1
                            charge_failure(
                                index, f"exceeded {self.job_timeout}s timeout"
                            )
                        # Killing the stuck worker costs the whole pool;
                        # the innocent in-flight jobs ride along uncharged.
                        rebuild_pool(False, "sibling job timed out")
        finally:
            if pool is not None:
                self._kill_pool(pool)

        missing = [i for i, payload in enumerate(results) if payload is None]
        if missing:  # pragma: no cover - defensive
            raise SweepError(f"jobs never completed: {missing}")
        return [payload for payload in results if payload is not None]
