"""repro.serve: an async simulation daemon behind the JobSpec API.

A long-running asyncio daemon that serves concurrent sweep traffic over
HTTP/JSON: the stdlib's asyncio on the daemon's side, one plain socket on
the client's, and the JSON codec of :mod:`repro.exec.codec` on both.
Clients submit :class:`~repro.exec.JobSpec` documents — the same canonical job model the CLIs and the sweep engine
consume — and get back the same bit-identical results, because the
daemon's worker processes run the same single execution path
(:func:`repro.exec.run_job`).

Start it::

    python -m repro.serve --port 8642 --workers 4

and talk to it with :class:`ServeClient` (or plain ``curl`` — see
``docs/serving.md``).  Features: priority queue with checkpoint-backed
preemption, resident worker processes (a job is launched onto one, not
forked for), per-client quotas (429), one shared warm result cache,
fingerprint-level dedup of concurrent identical submissions, kept-alive
connections with a blocking ``?wait=``, and NDJSON progress-event
streaming.
"""

from .client import JobFailed, ServeClient, ServeError
from .jobs import JobManager, ManagerStats, QuotaExceeded, ServeConfig, UnknownJob
from .server import ReproServer, run_server

__all__ = [
    "JobFailed",
    "JobManager",
    "ManagerStats",
    "QuotaExceeded",
    "ReproServer",
    "ServeClient",
    "ServeConfig",
    "ServeError",
    "UnknownJob",
    "run_server",
]
