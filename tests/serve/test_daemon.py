"""End-to-end tests for the repro.serve daemon.

Each test boots a real daemon subprocess (``python -m repro.serve``) on
an ephemeral port and talks to it with :class:`repro.serve.ServeClient`
— the same client path scripts use.  The corpus in ``tests/golden/``
supplies exact expected ``SimStats``: a daemon result must be
bit-identical to a one-shot run of the same spec.

``REPRO_SERVE_TEST_CKPT_SLEEP`` stretches worker wall time (a sleep at
every periodic checkpoint) without touching simulated state, making
"this job is still running when ..." setups deterministic.  The
``REPRO_EXEC_TEST_CRASH`` hooks of the worker entry the daemon shares
with :class:`repro.exec.SweepEngine` make its workers die on cue.
"""

from __future__ import annotations

import asyncio
import json
import os
import re
import select
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro import ExecutionMode, JobSpec, run_job
from repro.serve import JobFailed, JobManager, ServeClient, ServeConfig, ServeError, UnknownJob
from repro.serve import jobs as serve_jobs

from ..test_golden_stats import golden_record, without_core

SCALE = 0.08
LATENCY_SCALE = 0.25


def stats_record(result) -> dict:
    """A result's statistics as a golden record."""
    return without_core(result.stats.to_dict())


def spec_for(benchmark: str, mode: str, scale: float = SCALE) -> JobSpec:
    return JobSpec.create(benchmark, ExecutionMode(mode), scale, LATENCY_SCALE)


class Daemon:
    """One daemon subprocess plus its discovered port."""

    def __init__(self, tmp_path: Path, *, workers=2, quota=8,
                 checkpoint_every=4000, cache=True, env=None,
                 extra_args=()) -> None:
        args = [
            sys.executable, "-m", "repro.serve", "--port", "0",
            "--workers", str(workers), "--quota", str(quota),
            "--checkpoint-every", str(checkpoint_every),
            "--checkpoint-dir", str(tmp_path / "ckpt"),
            *extra_args,
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

    def output(self) -> str:
        """Stop the daemon; everything it printed after its address."""
        self.stop()
        return self.proc.stdout.read()

    def raw(self) -> "RawConnection":
        return RawConnection(self.port)


class RawConnection:
    """A bare socket to the daemon: the wire, without ``ServeClient``."""

    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=30.0)
        self.file = self.sock.makefile("rb")

    def send(self, data: bytes) -> None:
        self.sock.sendall(data)

    def get(self, path: str, headers: str = "") -> tuple:
        self.send(f"GET {path} HTTP/1.1\r\n{headers}\r\n".encode("latin-1"))
        return self.response()

    def response(self) -> tuple:
        """``(status, headers, json_body)`` of the next response."""
        status = int(self.file.readline().split()[1])
        headers = {}
        while True:
            line = self.file.readline()
            if line in (b"\r\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        body = self.file.read(int(headers["content-length"]))
        return status, headers, json.loads(body)

    def at_eof(self) -> bool:
        """Whether the daemon has closed the connection (waits for it)."""
        return self.file.read(1) == b""

    def close(self) -> None:
        self.file.close()
        self.sock.close()


def started_pids(client: ServeClient, job_id: str) -> list:
    """The worker pid of each attempt of a terminal job."""
    return [event["pid"] for event in client.events(job_id)
            if event["event"] == "started"]


def process_gone(pid: int, timeout: float = 5.0) -> bool:
    """Whether ``pid`` exits (or is a zombie nobody reaped) in time."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            stat = Path(f"/proc/{pid}/stat").read_text()
        except OSError:
            return True
        if stat.rpartition(")")[2].split()[0] == "Z":
            return True
        time.sleep(0.05)
    return False


def wait_running(client: ServeClient, job_id: str) -> None:
    deadline = time.monotonic() + 20
    while client.job(job_id)["status"] != "running":
        assert time.monotonic() < deadline
        time.sleep(0.02)


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

        assert stats_record(result_a) == golden_record("bht", "flat")
        assert stats_record(result_b) == golden_record("bht", "flat")
        assert result_a.fingerprint == result_b.fingerprint
        assert {result_a.source, result_b.source} == {"run", "shared"}

        # Warm rerun from a third client: served from the shared cache,
        # terminal at submission, no worker involved.
        carol = daemon.client("carol")
        info = carol.submit(spec)
        assert info["status"] == "done"
        assert info["source"] == "cache"
        assert stats_record(carol.result(info["id"])) == golden_record("bht", "flat")

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
        """Three jobs on two resident workers: each streams ``queued ->
        started -> done`` and equals a direct run; the warm rerun comes
        from the cache and forks nothing."""
        daemon = daemon_factory(workers=2)
        client = daemon.client("sweeper")
        specs = [
            spec_for("bht", "flat", 0.05), spec_for("bht", "dtbl", 0.05),
            spec_for("bfs_citation", "dtbl", 0.05),
        ]
        infos = client.submit_sweep(specs)
        assert len(infos) == 3
        cold = []
        for spec, info in zip(specs, infos):
            events = [event["event"] for event in client.events(info["id"])]
            assert events[0] == "queued"
            assert "started" in events
            assert events[-1] == "done"
            cold.append(client.result(info["id"]))
            assert cold[-1].stats.to_dict() == run_job(spec).stats.to_dict()
        assert client.status()["stats"]["worker_spawns"] == 2
        for spec, first in zip(specs, cold):
            again = client.run(spec)
            assert again.source == "cache" and again.to_payload() == first.to_payload()
        assert client.status()["stats"]["worker_spawns"] == 2


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
        self, daemon_factory, tmp_path
    ):
        """A long job preempted by a priority job resumes from its
        checkpoint and finishes with exactly the golden ``SimStats``."""
        # The sleep hook is all that keeps the victim alive: at this
        # cadence it takes 9 checkpoints (one per 4,000 of its 38,257
        # cycles, with REPRO_SANITIZE=1 too), 0.25 s each.
        daemon = daemon_factory(
            workers=1, checkpoint_every=4000, cache=False,
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
        assert stats_record(result) == golden_record("bfs_citation", "dtbl")

        # The victim's worker was killed, not told to yield: the urgent
        # job started on a replacement, one spawn per preemption.
        victim_pids = started_pids(client, long_info["id"])
        (urgent_pid,) = started_pids(urgent, urgent_info["id"])
        assert urgent_pid != victim_pids[0]
        stats = client.status()["stats"]
        assert stats["worker_spawns"] == 1 + stats["preemptions"]

        # What the cadence cost the attempt that finished, in host time:
        # on its ``done`` event and summed into ``/status``.  (The sleep
        # hook runs after the clock has stopped.)
        done = list(client.events(long_info["id"]))[-1]
        assert done["checkpoints"] >= 1
        assert 0 < done["checkpoint_ms"] < 250 * done["checkpoints"]
        assert stats["checkpoint_ms"] >= done["checkpoint_ms"]

        # Both jobs are finished: nothing of theirs is left behind, not
        # even what a worker killed inside a checkpoint write would leave.
        assert not list((tmp_path / "ckpt").iterdir())


def requests_used(daemon: Daemon, work) -> int:
    """Requests the daemon framed while ``work()`` ran, by its own count
    (``/status`` ``requests``, less the two status requests that read it)."""
    with daemon.client("counter") as counter:
        before = counter.status()["requests"]
        work()
        return counter.status()["requests"] - before - 1


def whole(result) -> tuple:
    """Everything a ``JobResult`` holds, comparable (``SimStats`` has no ``==``)."""
    return result.to_payload(), result.fingerprint, result.source


class TestOneRoundTrip:
    """A job info that says ``done`` carries the result, and the client
    keeps what it was sent: submit -> wait -> result is one request for a
    cache hit and two for a job that had to run."""

    def test_requests_per_hit_cold_job_and_follower(self, daemon_factory):
        daemon = daemon_factory(
            workers=1, env={"REPRO_SERVE_TEST_CKPT_SLEEP": "0.1"}
        )
        alice, bob = daemon.client("alice"), daemon.client("bob")
        spec = spec_for("bht", "flat")
        results = {}

        def three_calls(client, name):
            info = client.submit(spec)
            final = client.wait(info["id"])
            results[name] = (info, final, client.result(info["id"]))

        assert requests_used(daemon, lambda: three_calls(alice, "cold")) == 2
        info, final, cold = results["cold"]
        assert info["status"] != "done" and final["status"] == "done"
        assert "result" not in info and "result" not in final
        assert cold.source == "run"

        assert requests_used(daemon, lambda: three_calls(alice, "hit")) == 1
        info, final, hit = results["hit"]
        assert info == final and info["status"] == "done" and "result" not in info
        assert hit.source == "cache" and hit.to_payload() == cold.to_payload()
        assert whole(alice.run(spec)) == whole(hit)

        # A dedup follower: its own submit, and the wait that sees it end.
        other = spec_for("bht", "dtbl")

        def leader_and_follower():
            first = alice.submit(other)
            second = bob.submit(other)
            results["follower"] = bob.result(bob.wait(second["id"])["id"])
            results["leader"] = alice.result(alice.wait(first["id"])["id"])

        assert requests_used(daemon, leader_and_follower) == 4
        assert {results["leader"].source, results["follower"].source} == {"run", "shared"}
        assert stats_record(results["follower"]) == golden_record("bht", "dtbl")

    def test_run_equals_the_three_request_result(self, daemon_factory):
        daemon = daemon_factory(workers=1)
        with daemon.client() as client, daemon.client("other") as other:
            first = client.run(spec_for("bht", "flat", 0.05))
            info = client.submit(spec_for("bht", "flat", 0.05))
            # Another client's job: nothing is held for it here, so
            # ``result`` is the GET it always was ...
            fetched = []
            used = requests_used(daemon, lambda: fetched.append(other.result(info["id"])))
            assert used == 1
            # ... unless a wait came first: its answer brings the result.
            used = requests_used(daemon, lambda: fetched.append(
                other.result(other.wait(info["id"])["id"])))
            assert used == 1
            assert whole(fetched[0]) == whole(fetched[1])
            fetched = fetched[0]
            assert fetched.source == "cache"
            # ``run`` (one request) returns what the three requests fetch.
            assert whole(client.run(spec_for("bht", "flat", 0.05))) == whole(fetched)
            assert fetched.to_payload() == first.to_payload()
            assert fetched.fingerprint == first.fingerprint

    def test_result_is_handed_over_once_then_fetched(self, daemon_factory):
        daemon = daemon_factory(workers=1)
        client = daemon.client()
        spec = spec_for("bht", "flat", 0.05)
        client.run(spec)
        info = client.submit(spec)  # a hit: arrives with its result
        fetched = []
        used = requests_used(daemon, lambda: fetched.extend(
            client.result(info["id"]) for _ in range(3)))
        assert used == 2  # the first came with the info
        assert whole(fetched[0]) == whole(fetched[1]) == whole(fetched[2])

    def test_raw_answers_carry_the_result_when_done(self, daemon_factory):
        daemon = daemon_factory(workers=1)
        spec = spec_for("bht", "flat", 0.05)
        with daemon.client() as client:
            expected = client.run(spec)
            body = json.dumps({"spec": spec.to_dict(), "client": "raw"}).encode()
            raw = daemon.raw()
            raw.send(b"POST /jobs HTTP/1.1\r\nContent-Length: %d\r\n\r\n%s"
                     % (len(body), body))
            status, _headers, info = raw.response()
            assert status == 202 and info["status"] == "done"
            _status, _headers, fetched = raw.get(f"/jobs/{info['id']}/result")
            assert info["result"] == fetched
            assert set(fetched) == {"id", "fingerprint", "source", "payload"}
            assert fetched["payload"] == expected.to_payload()
            _status, _headers, waited = raw.get(f"/jobs/{info['id']}?wait=1")
            assert waited["result"] == fetched
            raw.close()
            # Each entry of a sweep that is already cached, likewise.
            sweep = [spec, spec_for("bht", "dtbl", 0.05), spec]
            infos = client.submit_sweep(sweep)
            assert [i["status"] for i in infos] == ["done", "running", "done"]
            used = requests_used(daemon, lambda: [
                client.result(infos[0]["id"]), client.result(infos[2]["id"])])
            assert used == 0
            client.wait(infos[1]["id"])

    def test_failed_and_cancelled_jobs_behave_as_before(self, daemon_factory):
        daemon = daemon_factory(
            workers=1, cache=False,
            env={"REPRO_SERVE_TEST_CKPT_SLEEP": "0.25",
                 "REPRO_EXEC_TEST_CRASH": "always:bht"},
        )
        client = daemon.client()
        failed = client.submit(spec_for("bht", "flat", 0.05))
        assert client.wait(failed["id"])["status"] == "failed"
        # Known terminal: the second wait asks nobody ...
        assert requests_used(daemon, lambda: client.wait(failed["id"])) == 0
        # ... and there is no result to hold, so ``result`` asks, as ever.
        with pytest.raises(JobFailed) as excinfo:
            client.result(failed["id"])
        assert excinfo.value.status == 409
        with pytest.raises(JobFailed):
            client.run(spec_for("bht", "dtbl", 0.05))

        running = client.submit(spec_for("bfs_citation", "dtbl"))
        wait_running(client, running["id"])
        client.cancel(running["id"])
        assert client.wait(running["id"])["status"] == "cancelled"
        with pytest.raises(JobFailed):
            client.result(running["id"])

    def test_memo_is_bounded_and_an_evicted_result_is_fetched(self, daemon_factory):
        from repro.serve import client as client_module

        daemon = daemon_factory(workers=1)
        client = daemon.client()
        spec = spec_for("bht", "flat", 0.05)
        expected = client.run(spec)
        cap = client_module.KEPT_JOBS
        hits = [client.submit(spec) for _ in range(10 * cap)]  # never consumed
        assert all(info["status"] == "done" for info in hits)
        assert len(client._kept) == cap
        assert list(client._kept) == [info["id"] for info in hits[-cap:]]
        # The oldest was dropped: its result costs the GET it always did.
        used = requests_used(daemon, lambda: client.result(hits[0]["id"]))
        assert used == 1
        assert requests_used(daemon, lambda: client.result(hits[-1]["id"])) == 0
        assert client.result(hits[0]["id"]).to_payload() == expected.to_payload()

    def test_a_restarted_daemons_job_ids_do_not_meet_stale_memos(self, tmp_path):
        """Job ids restart from zero with the daemon: a non-terminal info
        for an id displaces whatever the client held under it."""
        client = ServeClient(port=1)  # never connects
        client._keep({"id": "j000000", "status": "done", "result": {"payload": 1}})
        assert client.wait("j000000")["status"] == "done"
        client._keep({"id": "j000000", "status": "queued"})
        assert "j000000" not in client._kept


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
        for bad in ({"config": {"core": "vector"}},
                    {"config": {"num_smx": 13.0}}, {"config": {"dram_banks": 0}},
                    {"verify": "false"}):
            with pytest.raises(ServeError) as excinfo:
                client.submit({"benchmark": "bht", "mode": "flat", **bad})
            assert excinfo.value.status == 400
        # ``priority`` and ``client`` are validated, not coerced: 2.9 is
        # not priority 2, ``true`` not 1, "7" not 7, and null no client.
        for priority in (2.9, True, "7", None):
            with pytest.raises(ServeError) as excinfo:
                client.submit(spec_for("bht", "flat"), priority=priority)
            assert excinfo.value.status == 400
            assert "priority must be int" in str(excinfo.value)
            with pytest.raises(ServeError) as excinfo:
                client.submit_sweep([spec_for("bht", "flat")], priority=priority)
            assert excinfo.value.status == 400
        for name in (None, 7, ["alice"]):
            with daemon.client(name) as other, pytest.raises(ServeError) as excinfo:
                other.submit(spec_for("bht", "flat"))
            assert excinfo.value.status == 400
            assert "client must be str" in str(excinfo.value)
        assert client.status()["jobs"] == {}
        with pytest.raises(ServeError) as excinfo:
            client.job("j999999")
        assert excinfo.value.status == 404

    def test_floats_cross_the_wire_unchanged(self, daemon_factory):
        """The codec writes 1e-05 as 0.00001; it is the same float, so the
        daemon fingerprints the spec as the caller does."""
        daemon = daemon_factory(workers=1, cache=False)
        client = daemon.client()
        spec = JobSpec.create("bht", ExecutionMode.FLAT, 0.3, 1e-05)
        info = client.submit(spec)
        client.cancel(info["id"])
        assert info["fingerprint"] == spec.fingerprint()
        assert (info["spec"]["scale"], info["spec"]["latency_scale"]) == (0.3, 1e-05)

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
    """What a worker inherits (what it sends: ``tests/exec/test_pool.py``)."""

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


class TestParserRobustness:
    """Requests the server cannot frame: answered, then the connection
    is closed — never an exception out of the handler, never a second
    request read off the same bytes."""

    def test_unframeable_requests_get_an_error_and_a_close(
        self, daemon_factory
    ):
        daemon = daemon_factory(workers=1)
        long = "x" * 70_000  # over asyncio's 64 KiB readline limit
        status_request = b"GET /status HTTP/1.1\r\n\r\n"
        cases = [
            (f"GET /{long} HTTP/1.1\r\n\r\n", 400),
            (f"GET /status HTTP/1.1\r\nX-Pad: {long}\r\n\r\n", 400),
            ("POST /jobs HTTP/1.1\r\nContent-Length: -5\r\n\r\n", 400),
            ("POST /jobs HTTP/1.1\r\nContent-Length: five\r\n\r\n", 400),
            ("POST /jobs HTTP/1.1\r\nContent-Length: 99999999999\r\n\r\n", 413),
            # Framed by chunks the server does not read: the chunk-size
            # line must not be taken for the next request.
            ("POST /jobs HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
             '2\r\n{}\r\n0\r\n\r\n', 501),
            ("POST /jobs HTTP/1.1\r\nContent-Length: 12\r\n"
             "Content-Length: 2\r\n\r\n{}", 400),
        ]
        for request, expected in cases:
            raw = daemon.raw()
            # A well-formed request rides behind the bad one: it must
            # not be answered.
            raw.send(request.encode("latin-1") + status_request)
            status, headers, body = raw.response()
            assert status == expected, request[:60]
            assert "error" in body
            assert headers["connection"] == "close"
            assert raw.at_eof()
            raw.close()
        assert daemon.client().status()["workers"] == 1  # still serving
        log = daemon.output()
        assert "Unhandled" not in log and "Traceback" not in log, log


class TestTransport:
    def test_connection_is_kept_alive_until_asked_to_close(
        self, daemon_factory
    ):
        daemon = daemon_factory(workers=1)
        raw = daemon.raw()
        for _ in range(2):
            status, headers, body = raw.get("/status")
            assert status == 200 and body["workers"] == 1
            assert "connection" not in headers
        # An error reply does not cost the connection either.
        assert raw.get("/jobs/j999999")[0] == 404
        status, headers, _ = raw.get("/status", "Connection: close\r\n")
        assert status == 200 and headers["connection"] == "close"
        assert raw.at_eof()
        raw.close()

    def test_wait_answers_when_the_job_ends_or_the_wait_does(
        self, daemon_factory
    ):
        daemon = daemon_factory(
            workers=1, cache=False,
            env={"REPRO_SERVE_TEST_CKPT_SLEEP": "0.25"},
        )
        client = daemon.client()
        raw = daemon.raw()
        info = client.submit(spec_for("bht", "flat"))

        begin = time.monotonic()
        status, _, body = raw.get(f"/jobs/{info['id']}?wait=0.05")
        assert status == 200 and body["status"] in ("queued", "running")
        assert 0.05 <= time.monotonic() - begin < 5

        status, _, body = raw.get(f"/jobs/{info['id']}?wait=60")
        answered = time.time()
        assert status == 200 and body["status"] == "done"
        done = list(client.events(info["id"]))[-1]
        assert done["event"] == "done"
        assert 0 <= answered - done["ts"] < 0.05

        assert raw.get(f"/jobs/{info['id']}?wait=abc")[0] == 400
        assert raw.get(f"/jobs/{info['id']}?wait=-1")[0] == 400
        begin = time.monotonic()
        assert raw.get("/jobs/j999999?wait=30")[0] == 404
        assert time.monotonic() - begin < 5
        raw.close()

    def test_client_wait_is_one_request_not_a_poll_loop(
        self, daemon_factory, monkeypatch
    ):
        daemon = daemon_factory(
            workers=1, cache=False,
            env={"REPRO_SERVE_TEST_CKPT_SLEEP": "0.25"},
        )
        client = daemon.client()
        info = client.submit(spec_for("bht", "flat"))  # >= 1 checkpoint
        paths = []
        request = client._request

        def counted(method, path, body=None):
            paths.append(path)
            return request(method, path, body)

        monkeypatch.setattr(client, "_request", counted)
        assert client.wait(info["id"], poll=0.01)["status"] == "done"
        assert len(paths) == 1 and "?wait=" in paths[0]

        with pytest.raises(TimeoutError):
            client.wait(
                client.submit(spec_for("bht", "flat", 0.06))["id"], timeout=0.1
            )

    def test_client_reconnects_when_its_idle_connection_was_closed(self):
        """A server that hangs up after every reply without saying so:
        each later request finds a dead connection and must go through
        on a fresh one, once."""
        reply = json.dumps({"ok": True}).encode()
        listener = socket.create_server(("127.0.0.1", 0))
        port = listener.getsockname()[1]
        connections = []

        def serve():
            for _ in range(3):
                conn, _ = listener.accept()
                connections.append(conn)
                conn.recv(65536)
                conn.sendall(b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n%s"
                             % (len(reply), reply))
                conn.close()

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        try:
            with ServeClient(port=port, timeout=10.0) as client:
                for _ in range(3):
                    assert client.status() == {"ok": True}
            thread.join(timeout=5)
            assert not thread.is_alive() and len(connections) == 3
        finally:
            listener.close()
        # Nothing listening: a *fresh* connection's failure is not retried away.
        with pytest.raises(ConnectionError):
            ServeClient(port=port, timeout=2.0).status()


class TestWorkerLifecycle:
    def test_one_worker_serves_job_after_job(self, daemon_factory, tmp_path):
        daemon = daemon_factory(
            workers=1, cache=False,
            extra_args=("--spool-dir", str(tmp_path / "spool")),
        )
        client = daemon.client()
        pids = set()
        for benchmark, mode in (("bht", "flat"), ("bht", "dtbl"),
                                ("bfs_citation", "flat"), ("amr", "dtbl")):
            info = client.submit(spec_for(benchmark, mode, 0.05))
            assert client.wait(info["id"])["status"] == "done"
            pids.update(started_pids(client, info["id"]))
        assert len(pids) == 1
        assert client.status()["stats"]["worker_spawns"] == 1
        # ``--spool-dir`` still parses (bench/ passes it) and means nothing.
        assert not (tmp_path / "spool").exists()

    def test_cancel_kills_the_worker_and_the_next_job_gets_a_new_one(
        self, daemon_factory
    ):
        daemon = daemon_factory(
            workers=1, cache=False,
            env={"REPRO_SERVE_TEST_CKPT_SLEEP": "0.25"},
        )
        client = daemon.client()
        doomed = client.submit(spec_for("bht", "flat"))
        wait_running(client, doomed["id"])
        client.cancel(doomed["id"])
        assert client.wait(doomed["id"])["status"] == "cancelled"
        after = client.submit(spec_for("bht", "flat", 0.05))
        assert client.wait(after["id"])["status"] == "done"

        (doomed_pid,) = started_pids(client, doomed["id"])
        (after_pid,) = started_pids(client, after["id"])
        assert after_pid != doomed_pid
        assert process_gone(doomed_pid)
        stats = client.status()["stats"]
        assert stats["worker_spawns"] == 2 and stats["cancelled"] == 1

    def test_worker_that_dies_once_costs_a_retry_not_the_job(
        self, daemon_factory, tmp_path
    ):
        daemon = daemon_factory(
            workers=1, cache=False,
            env={"REPRO_EXEC_TEST_CRASH": str(tmp_path / "crashed-once")},
        )
        client = daemon.client()
        spec = spec_for("bht", "dtbl", 0.05)
        final = client.wait(client.submit(spec)["id"])
        assert final["status"] == "done" and final["attempts"] == 2
        assert (client.result(final["id"]).stats.to_dict()
                == run_job(spec).stats.to_dict())
        first, second = started_pids(client, final["id"])
        assert first != second
        events = [event["event"] for event in client.events(final["id"])]
        assert "retrying" in events

        # The daemon keeps serving, on the replacement.
        other = client.wait(client.submit(spec_for("bht", "flat", 0.05))["id"])
        assert other["status"] == "done"
        assert started_pids(client, other["id"]) == [second]
        stats = client.status()["stats"]
        assert stats["retries"] == 1 and stats["worker_spawns"] == 2

    def test_worker_that_always_dies_fails_the_job_and_its_follower_only(
        self, daemon_factory
    ):
        daemon = daemon_factory(
            workers=1, cache=False,
            env={"REPRO_EXEC_TEST_CRASH": "always:bht"},
        )
        client = daemon.client()
        spec = spec_for("bht", "flat", 0.05)
        # One request, so the second submission finds the first in flight.
        leader, follower = client.submit_sweep([spec, spec])
        leader_final = client.wait(leader["id"])
        assert leader_final["status"] == "failed"
        assert leader_final["error"] == "worker exited with code 3"
        assert leader_final["attempts"] == 2  # worker_retries == 1
        follower_final = client.wait(follower["id"])
        assert follower_final["status"] == "failed"
        assert follower_final["leader"] == leader["id"]
        assert "worker exited with code 3" in follower_final["error"]
        with pytest.raises(JobFailed):
            client.result(leader["id"])

        survivor = client.submit(spec_for("bfs_citation", "flat", 0.05))
        assert client.wait(survivor["id"])["status"] == "done"
        stats = client.status()["stats"]
        assert stats["retries"] == 1 and stats["failed"] == 2
        assert stats["worker_spawns"] == 3

    def test_no_state_leaks_between_jobs_in_one_worker(self, daemon_factory):
        """Eight jobs through one resident worker, then the reverse order
        through another: every result equals a direct run."""
        specs = [
            spec_for(benchmark, mode, 0.05)
            for benchmark in ("bht", "bfs_citation")
            for mode in ("flat", "dtbl", "cdp", "persistent")
        ]
        direct = {spec.label(): run_job(spec).stats.to_dict() for spec in specs}
        for order in (specs, specs[::-1]):
            daemon = daemon_factory(workers=1, cache=False)
            with daemon.client() as client:
                for spec in order:
                    served = client.run(spec)
                    assert served.stats.to_dict() == direct[spec.label()], spec.label()
                assert client.status()["stats"]["worker_spawns"] == 1
            daemon.stop()


class TestNothingOutlivesTheDaemon:
    def test_shutdown_is_prompt_with_idle_connections_and_workers(
        self, daemon_factory
    ):
        daemon = daemon_factory(
            workers=2, cache=False,
            env={"REPRO_SERVE_TEST_CKPT_SLEEP": "0.25"},
        )
        client = daemon.client()
        # One worker left idle, one busy, two connections left open.
        idle, busy = client.submit_sweep(
            [spec_for("bht", "dtbl", 0.05), spec_for("bht", "flat")]
        )
        assert client.wait(idle["id"])["status"] == "done"
        assert client.job(busy["id"])["status"] == "running"
        raw = daemon.raw()
        assert raw.get("/status")[0] == 200
        pids = started_pids(client, idle["id"]) + [
            event["pid"] for event in _events_so_far(daemon, busy["id"])
            if event["event"] == "started"
        ]
        assert len(set(pids)) == 2
        # ... and one request in the middle of being answered.
        waited = []
        waiter = threading.Thread(target=lambda: waited.append(
            daemon.client().wait(busy["id"])["status"]))
        waiter.start()
        time.sleep(0.2)

        begin = time.monotonic()
        daemon.client().shutdown()
        assert daemon.proc.wait(timeout=10) == 0
        assert time.monotonic() - begin < 5
        assert raw.at_eof()
        raw.close()
        waiter.join(timeout=5)
        assert waited == ["cancelled"]
        for pid in pids:
            assert process_gone(pid)

    def test_killed_daemon_leaves_no_idle_worker_behind(self, daemon_factory):
        daemon = daemon_factory(workers=2, cache=False)
        client = daemon.client()
        infos = client.submit_sweep(
            [spec_for("bht", "flat", 0.05), spec_for("bht", "dtbl", 0.05)]
        )
        pids = set()
        for info in infos:
            assert client.wait(info["id"])["status"] == "done"
            pids.update(started_pids(client, info["id"]))
        assert len(pids) == 2
        daemon.proc.kill()
        daemon.proc.wait(timeout=10)
        for pid in pids:
            assert process_gone(pid)


def _events_so_far(daemon: Daemon, job_id: str) -> list:
    """The events of a job that is still running (the stream would block)."""
    raw = daemon.raw()
    raw.send(f"GET /jobs/{job_id}/events HTTP/1.1\r\n\r\n".encode())
    while raw.file.readline() not in (b"\r\n", b""):
        pass
    events = []
    while not events or events[-1]["event"] != "started":
        events.append(json.loads(raw.file.readline()))
    raw.close()
    return events


class TestRetention:
    def test_oldest_terminal_jobs_are_evicted(self, tmp_path, monkeypatch):
        monkeypatch.setattr(serve_jobs, "MAX_TERMINAL_JOBS", 3)
        spec = spec_for("bht", "flat", 0.05)

        async def main():
            manager = JobManager(ServeConfig(
                cache_dir=str(tmp_path / "cache"), checkpoint_every=None,
            ))
            manager.cache.store(spec.fingerprint(), {"stats": {}})
            return manager, [manager.submit(spec)["id"] for _ in range(5)]

        manager, ids = asyncio.run(main())
        for evicted in ids[:2]:
            with pytest.raises(UnknownJob):
                manager.get(evicted)
        assert [manager.get(kept).status for kept in ids[2:]] == ["done"] * 3
        status = manager.status()
        assert status["jobs"] == {"done": 3}  # retained jobs only
        assert status["stats"]["completed"] == 5  # daemon lifetime
