#!/usr/bin/env python
"""CI smoke: boot the daemon, run a small sweep through it, rerun warm.

Checks the full serving loop end to end:

1. start ``python -m repro.serve`` on an ephemeral port and discover the
   address from its startup line;
2. submit a small sweep over the client, stream each job's NDJSON
   lifecycle events, and require the ``queued -> started -> done``
   progression;
3. fetch every result and cross-check it against a direct in-process
   :func:`repro.exec.run_job` of the same spec (bit-identical stats);
4. run the same specs again, one ``client.run`` (submit, wait, result)
   each: every job must come back ``source="cache"`` without occupying a
   worker (the daemon's shared warm cache), equal to its cold result,
   and ``/status`` ``requests`` must show one request per job — a hit's
   result arrives with the answer to its submission;
5. require ``/status`` to report exactly ``--workers`` worker forks after
   the cold sweep and no more after the warm one (workers are resident:
   a job is launched onto one, not forked for);
6. ``POST /shutdown`` and require a clean daemon exit code.

Any failure exits nonzero with a diagnostic.
"""

import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

import os  # noqa: E402
import select  # noqa: E402

from repro.exec import JobSpec, run_job  # noqa: E402
from repro.runtime import ExecutionMode  # noqa: E402
from repro.serve import ServeClient  # noqa: E402

SCALE = 0.05
LATENCY_SCALE = 0.25
WORKERS = 2
SPECS = [
    JobSpec.create("bht", ExecutionMode.FLAT, SCALE, LATENCY_SCALE),
    JobSpec.create("bht", ExecutionMode.DTBL, SCALE, LATENCY_SCALE),
    JobSpec.create("bfs_citation", ExecutionMode.DTBL, SCALE, LATENCY_SCALE),
]


def start_daemon(workdir: str):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.serve", "--port", "0",
            "--workers", str(WORKERS),
            "--cache-dir", str(Path(workdir) / "cache"),
            "--checkpoint-dir", str(Path(workdir) / "ckpt"),
        ],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env,
    )
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline:
        ready, _, _ = select.select([proc.stdout], [], [], 0.2)
        if not ready:
            if proc.poll() is not None:
                print(f"FAIL: daemon died on startup:\n{proc.stdout.read()}")
                return None, None
            continue
        line = proc.stdout.readline()
        match = re.search(r"listening on http://[^:]+:(\d+)", line)
        if match:
            return proc, int(match.group(1))
    print("FAIL: daemon never printed its address")
    return None, None


def run_sweeps(client: ServeClient) -> bool:
    # Cold sweep: every job simulates, events stream in order.
    infos = client.submit_sweep(SPECS)
    cold = []
    for spec, info in zip(SPECS, infos):
        events = [e["event"] for e in client.events(info["id"])]
        if events[0] != "queued" or "started" not in events \
                or events[-1] != "done":
            print(f"FAIL: {spec.label()} bad event stream: {events}")
            return False
        served = client.result(info["id"])
        direct = run_job(spec)
        if served.stats.to_dict() != direct.stats.to_dict():
            print(f"FAIL: {spec.label()} daemon result differs "
                  f"from a direct run")
            return False
        cold.append(served)
        print(f"[cold] {spec.label()}: {served.cycles:,} cycles "
              f"(source={served.source}, events={events})")
    status = client.status()
    spawns, requests = status["stats"]["worker_spawns"], status["requests"]
    if spawns != WORKERS:
        print(f"FAIL: {len(SPECS)} cold jobs on {WORKERS} resident workers "
              f"took {spawns} worker forks")
        return False

    # Warm rerun: bit-identical results straight from the cache.
    for spec, first in zip(SPECS, cold):
        again = client.run(spec)
        if again.source != "cache":
            print(f"FAIL: warm {spec.label()} not served from "
                  f"cache: source={again.source}")
            return False
        if again.to_payload() != first.to_payload():
            print(f"FAIL: warm {spec.label()} differs from its cold result")
            return False
        print(f"[warm] {spec.label()}: source=cache")

    status = client.status()
    used = status["requests"] - requests - 1  # less this /status itself
    if used > len(SPECS):
        print(f"FAIL: {len(SPECS)} cache hits took {used} requests "
              f"(a hit is one round trip)")
        return False
    stats = status["stats"]
    if stats["cache_hits"] != len(SPECS):
        print(f"FAIL: expected {len(SPECS)} cache hits, "
              f"got {stats['cache_hits']}")
        return False
    if stats["worker_spawns"] != spawns:
        print(f"FAIL: the warm rerun forked a worker "
              f"({spawns} -> {stats['worker_spawns']})")
        return False
    client.shutdown()
    return True


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="repro-serve-smoke-") as workdir:
        proc, port = start_daemon(workdir)
        if proc is None:
            return 1
        try:
            with ServeClient(port=port, client="ci", timeout=60.0) as client:
                if not run_sweeps(client):
                    return 1
            proc.wait(timeout=30)
            if proc.returncode != 0:
                print(f"FAIL: daemon exited with {proc.returncode}")
                return 1
            print("serve smoke: PASS")
            return 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)


if __name__ == "__main__":
    sys.exit(main())
