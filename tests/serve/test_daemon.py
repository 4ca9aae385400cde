"""End-to-end tests for the repro.serve daemon.

Each test boots a real daemon subprocess (``python -m repro.serve``) on
an ephemeral port and talks to it with :class:`repro.serve.ServeClient`
— the same client path scripts use.  The corpus in ``tests/golden/``
supplies exact expected ``SimStats``: a daemon result must be
bit-identical to a one-shot run of the same spec.

``REPRO_SERVE_TEST_CKPT_SLEEP`` stretches worker wall time (a sleep at
every periodic checkpoint) without touching simulated state, making
"this job is still running when ..." setups deterministic.
"""

from __future__ import annotations

import json
import os
import re
import select
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro import ExecutionMode, JobSpec
from repro.serve import JobFailed, ServeClient, ServeError

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "golden"
SCALE = 0.08
LATENCY_SCALE = 0.25


def golden_stats(name: str) -> dict:
    return json.loads((GOLDEN_DIR / f"{name}.json").read_text())


def spec_for(benchmark: str, mode: str, scale: float = SCALE) -> JobSpec:
    return JobSpec.create(benchmark, ExecutionMode(mode), scale, LATENCY_SCALE)


class Daemon:
    """One daemon subprocess plus its discovered port."""

    def __init__(self, tmp_path: Path, *, workers=2, quota=8,
                 checkpoint_every=4000, cache=True, env=None) -> None:
        args = [
            sys.executable, "-m", "repro.serve", "--port", "0",
            "--workers", str(workers), "--quota", str(quota),
            "--checkpoint-every", str(checkpoint_every),
            "--checkpoint-dir", str(tmp_path / "ckpt"),
            "--spool-dir", str(tmp_path / "spool"),
        ]
        if cache:
            args += ["--cache-dir", str(tmp_path / "cache")]
        else:
            args += ["--no-cache"]
        full_env = dict(os.environ)
        full_env.update(env or {})
        self.proc = subprocess.Popen(
            args, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, env=full_env,
        )
        self.port = self._discover_port()

    def _discover_port(self, timeout: float = 30.0) -> int:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            ready, _, _ = select.select([self.proc.stdout], [], [], 0.2)
            if not ready:
                if self.proc.poll() is not None:
                    raise RuntimeError(
                        f"daemon died: {self.proc.stdout.read()}"
                    )
                continue
            line = self.proc.stdout.readline()
            match = re.search(r"listening on http://[^:]+:(\d+)", line)
            if match:
                return int(match.group(1))
        raise RuntimeError("daemon never printed its address")

    def client(self, name: str = "anon") -> ServeClient:
        return ServeClient(port=self.port, client=name, timeout=30.0)

    def stop(self) -> None:
        if self.proc.poll() is None:
            try:
                self.client().shutdown()
                self.proc.wait(timeout=10)
            except Exception:
                self.proc.kill()
                self.proc.wait(timeout=10)


@pytest.fixture
def daemon_factory(tmp_path):
    daemons = []

    def factory(**kwargs):
        daemon = Daemon(tmp_path, **kwargs)
        daemons.append(daemon)
        return daemon

    yield factory
    for daemon in daemons:
        daemon.stop()


class TestConcurrentClients:
    def test_two_clients_share_one_simulation_and_the_cache(
        self, daemon_factory
    ):
        """Identical concurrent submissions simulate once; results are
        bit-identical to the golden corpus; a later rerun is a cache hit."""
        daemon = daemon_factory(
            workers=2, env={"REPRO_SERVE_TEST_CKPT_SLEEP": "0.1"}
        )
        alice, bob = daemon.client("alice"), daemon.client("bob")
        spec = spec_for("bht", "flat")

        first = alice.submit(spec)
        second = bob.submit(spec)  # leader still running: dedup kicks in
        result_a = alice.result(alice.wait(first["id"])["id"])
        result_b = bob.result(bob.wait(second["id"])["id"])

        golden = golden_stats("bht-flat-fast")
        assert result_a.stats.to_dict() == golden
        assert result_b.stats.to_dict() == golden
        assert result_a.fingerprint == result_b.fingerprint
        assert {result_a.source, result_b.source} == {"run", "shared"}

        # Warm rerun from a third client: served from the shared cache,
        # terminal at submission, no worker involved.
        carol = daemon.client("carol")
        info = carol.submit(spec)
        assert info["status"] == "done"
        assert info["source"] == "cache"
        assert carol.result(info["id"]).stats.to_dict() == golden

        stats = alice.status()["stats"]
        assert stats["shared"] == 1
        assert stats["cache_hits"] == 1

        # Only the job that simulated reports checkpoints: on its own
        # ``done`` event and summed into ``/status``.
        def done_event(client, job_id):
            return list(client.events(job_id))[-1]

        ran = done_event(alice, first["id"])
        assert ran["event"] == "done" and ran["checkpoints"] >= 1
        assert stats["checkpoints"] == ran["checkpoints"]
        assert "checkpoints" not in done_event(bob, second["id"])
        assert "checkpoints" not in done_event(carol, info["id"])
        assert "checkpoints" not in result_a.to_payload()

    def test_sweep_submission_streams_events(self, daemon_factory):
        daemon = daemon_factory(workers=2)
        client = daemon.client("sweeper")
        infos = client.submit_sweep(
            [spec_for("bht", "flat", 0.05), spec_for("bht", "dtbl", 0.05)]
        )
        assert len(infos) == 2
        for info in infos:
            events = [event["event"] for event in client.events(info["id"])]
            assert events[0] == "queued"
            assert "started" in events
            assert events[-1] == "done"


class TestQuota:
    def test_over_quota_submission_is_rejected_429(self, daemon_factory):
        daemon = daemon_factory(
            workers=1, quota=2, cache=False,
            env={"REPRO_SERVE_TEST_CKPT_SLEEP": "0.25"},
        )
        client = daemon.client("greedy")
        # Distinct fingerprints (scales) so dedup cannot collapse them.
        first = client.submit(spec_for("bht", "flat", 0.05))
        second = client.submit(spec_for("bht", "flat", 0.06))
        with pytest.raises(ServeError) as excinfo:
            client.submit(spec_for("bht", "flat", 0.07))
        assert excinfo.value.status == 429
        assert "quota" in str(excinfo.value)

        # Another client is unaffected: quotas are per client name.
        other = daemon.client("patient")
        third = other.submit(spec_for("bht", "flat", 0.07))

        # Cancelling frees quota; resubmission is accepted.
        client.cancel(first["id"])
        client.cancel(second["id"])
        assert client.wait(first["id"])["status"] == "cancelled"
        assert client.wait(second["id"])["status"] == "cancelled"
        retry = client.submit(spec_for("bht", "flat", 0.07))
        assert retry["status"] in ("queued", "running")
        for job_id in (third["id"], retry["id"]):
            client.cancel(job_id)

    def test_cancelled_job_raises_job_failed_on_result(self, daemon_factory):
        daemon = daemon_factory(
            workers=1, cache=False,
            env={"REPRO_SERVE_TEST_CKPT_SLEEP": "0.25"},
        )
        client = daemon.client("c")
        info = client.submit(spec_for("bht", "flat"))
        client.cancel(info["id"])
        assert client.wait(info["id"])["status"] == "cancelled"
        with pytest.raises(JobFailed):
            client.result(info["id"])


class TestPreemption:
    def test_preempted_job_resumes_to_bit_identical_stats(
        self, daemon_factory
    ):
        """A long job preempted by a priority job resumes from its
        checkpoint and finishes with exactly the golden ``SimStats``."""
        # The sleep hook is all that keeps the victim alive: at this
        # cadence it takes 9 checkpoints (5 with REPRO_SANITIZE=1, where
        # the fast core reaches fewer boundaries), 0.25 s each.
        daemon = daemon_factory(
            workers=1, checkpoint_every=1000, cache=False,
            env={"REPRO_SERVE_TEST_CKPT_SLEEP": "0.25"},
        )
        client = daemon.client("victim")
        long_info = client.submit(spec_for("bfs_citation", "dtbl"), priority=0)
        # Let the victim get going and bank at least one checkpoint.
        deadline = time.monotonic() + 20
        while client.job(long_info["id"])["status"] != "running":
            assert time.monotonic() < deadline
            time.sleep(0.02)
        time.sleep(0.6)

        urgent = daemon.client("urgent")
        urgent_info = urgent.submit(
            spec_for("bht", "flat", 0.05), priority=10
        )
        urgent_final = urgent.wait(urgent_info["id"], timeout=60)
        assert urgent_final["status"] == "done"

        final = client.wait(long_info["id"], timeout=120)
        assert final["status"] == "done"
        assert final["preemptions"] >= 1

        events = [event["event"] for event in client.events(long_info["id"])]
        assert "preempting" in events
        assert "requeued" in events
        assert events.count("started") >= 2

        result = client.result(long_info["id"])
        assert result.stats.to_dict() == golden_stats("bfs_citation-dtbl-fast")


class TestProtocol:
    def test_bad_spec_is_400_and_unknown_job_is_404(self, daemon_factory):
        daemon = daemon_factory(workers=1)
        client = daemon.client()
        with pytest.raises(ServeError) as excinfo:
            client.submit({"benchmark": "bht"})  # missing mode
        assert excinfo.value.status == 400
        with pytest.raises(ServeError) as excinfo:
            client.submit({"benchmark": "bht", "mode": "flat", "latency": 1})
        assert excinfo.value.status == 400
        with pytest.raises(ServeError) as excinfo:
            client.submit({"benchmark": "bht", "mode": "flat",
                           "config": {"core": "vector"}})
        assert excinfo.value.status == 400
        with pytest.raises(ServeError) as excinfo:
            client.job("j999999")
        assert excinfo.value.status == 404

    def test_result_before_completion_is_409(self, daemon_factory):
        daemon = daemon_factory(
            workers=1, cache=False,
            env={"REPRO_SERVE_TEST_CKPT_SLEEP": "0.25"},
        )
        client = daemon.client()
        info = client.submit(spec_for("bht", "flat"))
        with pytest.raises(ServeError) as excinfo:
            client.result(info["id"])
        assert excinfo.value.status == 409
        client.cancel(info["id"])


class TestWorkerPlumbing:
    """In-process checks of what a worker writes and inherits."""

    def test_failed_spool_write_leaves_no_temp_file(self, tmp_path, monkeypatch):
        from repro.serve import jobs

        def refuse(src, dst):
            raise OSError("no space left on device")

        monkeypatch.setattr(os, "replace", refuse)
        spool = tmp_path / "spool"
        with pytest.raises(OSError, match="no space"):
            jobs._atomic_write_json(spool / "j000001-1.json", {"ok": True})
        assert list(spool.iterdir()) == []

    def test_started_daemon_has_imported_what_a_job_imports(self, tmp_path):
        """A forked worker inherits the daemon's modules, so after the
        warm-up a checkpointing job must import nothing of ours or
        NumPy's for the first time."""
        script = f"""
import sys
from repro import ExecutionMode, JobSpec
from repro.exec import run_job
from repro.serve import jobs

jobs._warm_imports()
before = set(sys.modules)
for benchmark, mode in (("bht", "dtbl"), ("regx_string", "cdp"),
                        ("bfs_citation", "persistent")):
    run_job(JobSpec.create(benchmark, ExecutionMode(mode), 0.05, 0.25,
                           checkpoint_every=2000, checkpoint_dir={str(tmp_path)!r}))
late = sorted(name for name in set(sys.modules) - before
              if name.split(".")[0] in ("repro", "numpy"))
assert not late, late
"""
        subprocess.run([sys.executable, "-c", script], check=True, timeout=120)
