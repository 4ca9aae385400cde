"""Crash recovery: checkpointed sweeps resume bit-identically.

The sweep engine's retry path is exercised with the
``REPRO_EXEC_TEST_CRASH_AFTER_CKPT`` hook (see :mod:`repro.exec.pool`):
the first checkpoint any worker writes also creates a sentinel file and
kills the worker *after* the checkpoint landed, so the retried attempt
must resume from it.  Every recovered payload is compared bit-for-bit
against an uninterrupted serial run.

The checkpoint policy rides on the :class:`~repro.exec.JobSpec` itself
(``checkpoint_every``/``checkpoint_dir``), and a job with a checkpoint
directory continues from its file there whenever one exists.
"""

import dataclasses
import multiprocessing
import os
import signal

import pytest

from repro import GPUConfig
from repro.exec import JobSpec, SweepEngine, cache, run_job
from repro.runtime import ExecutionMode
from repro.state import (
    CHECKPOINT_FORMAT,
    checkpoint_path_for,
    discard_checkpoint,
    quarantine_checkpoint,
    save_checkpoint,
)

SCALE = 0.08
CKPT_EVERY = 4_000


class Interrupt(Exception):
    pass


def _job(config=None, **policy):
    return JobSpec.create(
        "bht", ExecutionMode.DTBL, SCALE, 0.25, config=config, **policy
    )


def _ck_job(tmp_path, config=None):
    return _job(config, checkpoint_every=CKPT_EVERY, checkpoint_dir=str(tmp_path))


@pytest.fixture(scope="module")
def clean_payload():
    """The golden payload: one uninterrupted, uncheckpointed run."""
    return run_job(_job()).to_payload()


class TestCrashRecovery:
    def test_worker_killed_after_checkpoint_resumes(
        self, tmp_path, monkeypatch, clean_payload
    ):
        """A worker that dies right after checkpointing costs one retry;
        the retry resumes mid-flight and finishes bit-identically."""
        sentinel = tmp_path / "crash.sentinel"
        ckdir = tmp_path / "ckpts"
        monkeypatch.setenv("REPRO_EXEC_TEST_CRASH_AFTER_CKPT", str(sentinel))
        engine = SweepEngine(max_workers=2)
        (payload,) = engine.run([_ck_job(ckdir)])
        assert sentinel.exists(), "the injected crash never fired"
        assert engine.stats.retries >= 1
        assert payload["stats"] == clean_payload["stats"]
        # Completion deletes the checkpoint so a rerun starts fresh.
        assert not list(ckdir.glob("*.ckpt"))

    def test_serial_interrupt_then_resume(self, tmp_path):
        """A job whose first attempt finds its own checkpoint file
        continues from it, bit-identically to an uninterrupted run, on
        both cores."""
        for core in ("reference", "fast"):
            config = dataclasses.replace(GPUConfig.k20c(), core=core)
            job = _ck_job(tmp_path / core, config)
            cycles = []

            def bomb(doc):
                cycles.append(doc["cycle"])
                raise Interrupt()

            with pytest.raises(Interrupt):
                run_job(job, on_checkpoint=bomb)
            path = checkpoint_path_for(tmp_path / core, job.fingerprint())
            assert path.exists(), "interrupt left no checkpoint behind"
            payload = run_job(
                job, on_checkpoint=lambda doc: cycles.append(doc["cycle"])
            ).to_payload()
            assert cycles[1] > cycles[0]  # continued past it, not from cycle 0
            assert payload["stats"] == run_job(_job(config)).to_payload()["stats"]
            assert not path.exists()

    def test_corrupt_checkpoint_quarantined_then_fresh_run(
        self, tmp_path, clean_payload
    ):
        """Undecodable checkpoint bytes, or a file an older code version
        wrote (stale salt): quarantine, then run fresh."""
        path = checkpoint_path_for(tmp_path, _job().fingerprint())
        stale = {"format": CHECKPOINT_FORMAT, "salt": "repro-0.0.0:fp0"}
        for write in (
            lambda: path.write_bytes(b"REPRO-CKPT\x00garbage-not-zlib"),
            lambda: save_checkpoint(path, stale),
        ):
            write()
            payload = run_job(_ck_job(tmp_path)).to_payload()
            assert payload["stats"] == clean_payload["stats"]
            assert not path.exists()
            quarantined = path.with_suffix(".ckpt.corrupt")
            assert quarantined.exists()
            quarantined.unlink()

    def test_truncated_checkpoint_quarantined_then_fresh_run(
        self, tmp_path, clean_payload
    ):
        """A torn/truncated real checkpoint is quarantined, not trusted."""
        job = _ck_job(tmp_path)

        def bomb(doc):
            raise Interrupt()

        with pytest.raises(Interrupt):
            run_job(job, on_checkpoint=bomb)
        path = checkpoint_path_for(str(tmp_path), job.fingerprint())
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        payload = run_job(_ck_job(tmp_path)).to_payload()
        assert payload["stats"] == clean_payload["stats"]
        assert path.with_suffix(".ckpt.corrupt").exists()

    def test_resume_without_checkpoint_runs_fresh(self, tmp_path, clean_payload):
        """A checkpoint directory with no file for the job in it: a plain
        fresh run."""
        payload = run_job(_ck_job(tmp_path)).to_payload()
        assert payload["stats"] == clean_payload["stats"]

    def test_foreign_fingerprint_checkpoint_rejected(
        self, tmp_path, clean_payload
    ):
        """A checkpoint bound to another job's fingerprint is never
        resumed from: it is quarantined and the job runs fresh."""
        job = _ck_job(tmp_path)

        def bomb(doc):
            raise Interrupt()

        with pytest.raises(Interrupt):
            run_job(job, on_checkpoint=bomb)
        # Present the real checkpoint under a different job's path.
        other = JobSpec.create("bht", ExecutionMode.CDP, SCALE, 0.25)
        mine = checkpoint_path_for(str(tmp_path), job.fingerprint())
        theirs = checkpoint_path_for(str(tmp_path), other.fingerprint())
        mine.rename(theirs)
        payload = run_job(
            other.with_policy(
                checkpoint_every=CKPT_EVERY, checkpoint_dir=str(tmp_path)
            )
        ).to_payload()
        clean_other = run_job(other).to_payload()
        assert payload["stats"] == clean_other["stats"]
        assert theirs.with_suffix(".ckpt.corrupt").exists()

    def test_format_3_checkpoint_quarantined_then_fresh_run(
        self, tmp_path, clean_payload
    ):
        """Format 3 held the launch table as one object per launch: such
        a file is set aside by its format number, and the job runs fresh."""
        job = _ck_job(tmp_path)
        docs = []

        def bomb(doc):
            docs.append(doc)
            raise Interrupt()

        with pytest.raises(Interrupt):
            run_job(job, on_checkpoint=bomb)
        doc = docs[0]
        columns = doc["state"]["launches"]
        assert columns["kind"], "the checkpoint holds no launch to re-encode"
        doc["state"]["launches"] = [
            dict(zip(columns, row)) for row in zip(*columns.values())
        ]
        doc["format"] = 3
        path = checkpoint_path_for(str(tmp_path), job.fingerprint())
        save_checkpoint(path, doc)
        payload = run_job(job).to_payload()
        assert payload["stats"] == clean_payload["stats"]
        assert path.with_suffix(".ckpt.corrupt").exists()


def _killed_inside_a_checkpoint_write(job, write: int) -> None:
    """Child-process main: run ``job``, and die by ``SIGKILL`` — as a
    preempted, cancelled or crashed worker does — between the ``write``-th
    checkpoint's temporary file being written and its ``os.replace``."""
    replace = os.replace
    calls = []

    def dying_replace(src, dst):
        if str(dst).endswith(".ckpt"):
            calls.append(dst)
            if len(calls) == write:
                os.kill(os.getpid(), signal.SIGKILL)
        replace(src, dst)

    cache.os.replace = dying_replace  # this process only: it is a fork
    run_job(job)


class TestKilledMidWrite:
    """``atomic_write`` cleans up after a write that *raises*; a worker
    killed between the write and the rename leaves ``.<stem>-*.tmp``
    behind, and only the checkpoint's owner can know it is an orphan."""

    @staticmethod
    def _kill_at(tmp_path, write):
        child = multiprocessing.get_context("fork").Process(
            target=_killed_inside_a_checkpoint_write, args=(_ck_job(tmp_path), write)
        )
        child.start()
        child.join(timeout=120)
        assert child.exitcode == -signal.SIGKILL

    @pytest.mark.parametrize("write", [1, 2], ids=["first-write", "second-write"])
    def test_finishing_the_job_leaves_the_directory_empty(
        self, tmp_path, clean_payload, write
    ):
        self._kill_at(tmp_path, write)
        left = sorted(p.name for p in tmp_path.iterdir())
        assert len([n for n in left if n.endswith(".tmp")]) == 1, left
        assert len([n for n in left if n.endswith(".ckpt")]) == write - 1, left
        # The retry (resuming, when a whole checkpoint landed before the
        # kill) finishes the job and takes the orphan with the checkpoint.
        payload = run_job(_ck_job(tmp_path)).to_payload()
        assert payload["stats"] == clean_payload["stats"]
        assert not list(tmp_path.iterdir())

    def test_two_kills_then_completion(self, tmp_path, clean_payload):
        self._kill_at(tmp_path, 2)
        self._kill_at(tmp_path, 1)
        assert len(list(tmp_path.glob(".*.tmp"))) == 2
        payload = run_job(_ck_job(tmp_path)).to_payload()
        assert payload["stats"] == clean_payload["stats"]
        assert not list(tmp_path.iterdir())

    def test_quarantine_takes_the_orphans_too(self, tmp_path):
        self._kill_at(tmp_path, 2)
        path = checkpoint_path_for(tmp_path, _job().fingerprint())
        target = quarantine_checkpoint(path)
        assert [p.name for p in tmp_path.iterdir()] == [target.name]

    def test_discard_leaves_other_jobs_files_alone(self, tmp_path):
        self._kill_at(tmp_path, 2)
        other = JobSpec.create("bht", ExecutionMode.CDP, SCALE, 0.25)
        theirs = checkpoint_path_for(tmp_path, other.fingerprint())
        theirs.write_bytes(b"theirs")
        in_flight = tmp_path / f".{theirs.stem[:12]}-abc123.tmp"
        in_flight.write_bytes(b"being written")
        discard_checkpoint(checkpoint_path_for(tmp_path, _job().fingerprint()))
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            [theirs.name, in_flight.name]
        )
        discard_checkpoint(tmp_path / "never-there.ckpt")  # nothing to do: fine
