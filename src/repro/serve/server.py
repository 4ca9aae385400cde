"""Minimal asyncio HTTP front-end for the simulation daemon.

A hand-rolled HTTP/1.1 server on ``asyncio.start_server`` speaking JSON,
plus one NDJSON streaming endpoint.  Every body and event is written and
read by :mod:`repro.exec.codec`.  Endpoints:

====== ========================= =========================================
Method Path                      Meaning
====== ========================= =========================================
POST   ``/jobs``                 submit one spec -> ``202`` job info
POST   ``/sweeps``               submit a batch -> ``202`` list of infos
GET    ``/jobs/<id>``            job status/info; ``?wait=<seconds>`` holds
                                 the answer until the job is terminal or
                                 the wait (capped at :data:`MAX_WAIT_SECONDS`)
                                 expires
GET    ``/jobs/<id>/result``     result payload (``409`` until done)
GET    ``/jobs/<id>/events``     NDJSON stream of lifecycle events
POST   ``/jobs/<id>/cancel``     cancel (kills a running worker)
GET    ``/status``               daemon/queue/cache counters, and
                                 ``requests``: requests framed so far,
                                 this one included
POST   ``/shutdown``             drain and exit cleanly
====== ========================= =========================================

**A job info that says ``done`` carries the result.**  Wherever a job
info is answered — ``POST /jobs``, each entry of ``POST /sweeps``,
``GET /jobs/<id>`` with or without ``?wait=``, ``cancel`` — a job that is
``done`` at that moment has one more key, ``"result"``: the object
``GET /jobs/<id>/result`` answers (``id``, ``fingerprint``, ``source``,
``payload``).  The daemon holds it in its hand either way, so a cache hit
is complete in the answer to its submission (one request) and a job that
had to run in the answer to the wait that saw it end (two);
``/jobs/<id>/result`` stays for whoever asks later or elsewhere.

Request bodies are JSON: ``{"spec": {...}, "client": "...",
"priority": 0}`` for ``/jobs``; ``{"specs": [...], ...}`` for
``/sweeps`` (``spec`` objects are :meth:`repro.exec.JobSpec.to_dict`
documents; ``client``, default ``"anon"``, must be a string and
``priority``, default 0, an integer — ``true``, ``2.9`` or ``"7"`` is
refused, not coerced).  Error mapping: bad spec/body -> ``400``,
unknown job -> ``404``, result not ready -> ``409``, body over
:data:`MAX_BODY_BYTES` -> ``413``, quota exceeded -> ``429``, shutting
down -> ``503``.  A request body is framed by ``Content-Length`` only:
``Transfer-Encoding`` is answered ``501`` and two ``Content-Length``
headers that disagree ``400``.

Connections are kept alive: a connection carries one request after
another until the peer closes it or sends ``Connection: close``.  The
server closes after the ``/events`` stream (its end *is* the close),
after ``/shutdown``, and after a request it could not frame (over-long
line, bad or conflicting ``Content-Length``, ``Transfer-Encoding``,
oversized body) — what follows such a
request on the wire cannot be trusted to be the next one.
"""

from __future__ import annotations

import asyncio
from typing import NamedTuple, Optional, Set, Tuple
from urllib.parse import parse_qs

from ..exec import SpecError, codec
from .jobs import JobManager, QuotaExceeded, ServeConfig, UnknownJob

#: Largest request body read (a ``/sweeps`` of a few thousand specs, at
#: ~1.1 KB of JSON each, fits); a longer one is refused unread, ``413``.
MAX_BODY_BYTES = 8 * 1024 * 1024
#: Longest a ``?wait=`` is held — below :class:`ServeClient`'s default
#: socket timeout, so an expired wait is an answer, never a client error.
MAX_WAIT_SECONDS = 20.0

_REASONS = {
    200: "OK", 202: "Accepted", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 409: "Conflict", 413: "Payload Too Large",
    429: "Too Many Requests", 500: "Internal Server Error",
    501: "Not Implemented", 503: "Service Unavailable",
}


class _BadRequest(Exception):
    """A request the server refuses (``status``: 400 unless given)."""

    def __init__(self, message: str, status: int = 400) -> None:
        super().__init__(message)
        self.status = status


class _Request(NamedTuple):
    method: str
    path: str
    query: dict
    body: dict
    #: The peer asked for the connection to end after this response.
    close: bool


async def _read_line(reader) -> bytes:
    try:
        return await reader.readline()
    except ValueError:  # over the StreamReader limit (64 KiB)
        raise _BadRequest("request line or header too long") from None


async def _read_request(reader) -> Optional[_Request]:
    """Parse one request; ``None`` when the peer closed instead of asking.

    Raises :class:`_BadRequest` for anything it cannot frame or decode;
    the caller answers and closes the connection.
    """
    line = await _read_line(reader)
    if not line:
        return None
    parts = line.decode("latin-1").split()
    if len(parts) != 3:
        raise _BadRequest("malformed request line")
    method, target = parts[0].upper(), parts[1]
    headers = {}
    while True:
        line = await _read_line(reader)
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        name, value = name.strip().lower(), value.strip()
        if name == "content-length" and headers.get(name, value) != value:
            raise _BadRequest("conflicting Content-Length headers")
        headers[name] = value
    # A body is framed by Content-Length alone; a chunked one would be
    # read as the requests that follow it.
    if "transfer-encoding" in headers:
        raise _BadRequest(
            "Transfer-Encoding is not supported: send a Content-Length",
            status=501,
        )
    try:
        length = int(headers.get("content-length", "0"))
    except ValueError:
        length = -1
    if length < 0:
        raise _BadRequest("bad Content-Length")
    if length > MAX_BODY_BYTES:
        raise _BadRequest(
            f"request body over {MAX_BODY_BYTES} bytes", status=413
        )
    body: dict = {}
    if length:
        try:
            raw = await reader.readexactly(length)
        except asyncio.IncompleteReadError:
            raise _BadRequest("request body shorter than Content-Length") from None
        try:
            body = codec.decode(raw)
        except ValueError:
            raise _BadRequest("request body is not valid JSON") from None
        if not isinstance(body, dict):
            raise _BadRequest("request body must be a JSON object")
    path, _, query = target.partition("?")
    return _Request(
        method, path, parse_qs(query), body,
        close=headers.get("connection", "").lower() == "close",
    )


def _response(status: int, payload: dict, close: bool = False) -> bytes:
    body = codec.encode(payload)
    head = (
        f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        + ("Connection: close\r\n" if close else "")
        + "\r\n"
    )
    return head.encode("latin-1") + body


def _wait_seconds(query: dict) -> float:
    """The ``?wait=`` of a job query in seconds, capped; 0 when absent."""
    if "wait" not in query:
        return 0.0
    try:
        seconds = float(query["wait"][-1])
        if not seconds >= 0:  # negative or NaN
            raise ValueError
    except ValueError:
        raise _BadRequest(
            "wait must be a non-negative number of seconds"
        ) from None
    return min(seconds, MAX_WAIT_SECONDS)


class ReproServer:
    """One daemon instance: a :class:`JobManager` behind a socket."""

    def __init__(
        self,
        config: Optional[ServeConfig] = None,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.manager = JobManager(config)
        self.host = host
        self.port = port
        #: Requests framed so far, whatever was answered (``/status``).
        self.requests = 0
        self._server: Optional[asyncio.AbstractServer] = None
        self._stop = asyncio.Event()
        self._handlers: Set[asyncio.Task] = set()  # one per open connection
        self._idle: Set[asyncio.StreamWriter] = set()  # ... between requests

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        self.manager.start()
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        """Block until ``/shutdown`` (or :meth:`stop`) fires."""
        await self._stop.wait()
        self.manager.shutdown()
        self._server.close()
        # Idle kept-alive connections would otherwise hold the daemon
        # open (since 3.12 ``wait_closed`` waits for every one of them):
        # close them so their handlers see EOF.  A handler in the middle
        # of a request answers first — a ``?wait=`` or an event stream
        # as soon as its job is cancelled — and then closes by itself.
        for writer in list(self._idle):
            writer.close()
        if self._handlers:
            await asyncio.wait(set(self._handlers), timeout=5.0)
        await self._server.wait_closed()

    def stop(self) -> None:
        self._stop.set()

    # ------------------------------------------------------------------
    # Request handling
    # ------------------------------------------------------------------
    async def _handle(self, reader, writer) -> None:
        """Serve one connection: request after request until it ends."""
        task = asyncio.current_task()
        self._handlers.add(task)
        try:
            while not self._stop.is_set():
                self._idle.add(writer)
                try:
                    request = await _read_request(reader)
                except _BadRequest as exc:
                    writer.write(_response(
                        exc.status, {"error": str(exc)}, close=True
                    ))
                    break
                finally:
                    self._idle.discard(writer)
                if request is None:
                    break
                self.requests += 1
                reply = await self._answer(request, writer)
                if reply is None:  # streamed; closing ends the stream
                    break
                close = request.close or self._stop.is_set()
                writer.write(_response(*reply, close=close))
                await writer.drain()
                if close:
                    break
            await writer.drain()
            # A worker forked while this connection was open holds a copy
            # of its socket, so closing ours alone would not end it for the
            # peer; ``shutdown(SHUT_WR)`` does, whoever else holds it.
            if writer.can_write_eof():
                writer.write_eof()
        except OSError:
            pass  # the peer went away mid-request or mid-reply
        finally:
            self._handlers.discard(task)
            writer.close()

    async def _answer(self, request: _Request, writer) -> Optional[Tuple[int, dict]]:
        """Route one request; ``(status, payload)``, or ``None`` if streamed."""
        try:
            return await self._route(request, writer)
        except QuotaExceeded as exc:
            return 429, {"error": str(exc), "quota": self.manager.config.quota}
        except UnknownJob as exc:
            return 404, {"error": f"unknown job {exc}"}
        except (SpecError, _BadRequest, TypeError, ValueError) as exc:
            return 400, {"error": str(exc)}
        except RuntimeError as exc:
            return 503, {"error": str(exc)}
        except Exception as exc:  # pragma: no cover - defensive
            return 500, {"error": f"{type(exc).__name__}: {exc}"}

    async def _route(self, request: _Request, writer) -> Optional[Tuple[int, dict]]:
        manager = self.manager
        method, path, body = request.method, request.path, request.body
        if path == "/jobs" and method == "POST":
            if "spec" not in body:
                raise _BadRequest('body must carry a "spec" object')
            return 202, manager.submit(
                body["spec"],
                client=body.get("client", "anon"),
                priority=body.get("priority", 0),
            )
        if path == "/sweeps" and method == "POST":
            specs = body.get("specs")
            if not isinstance(specs, list) or not specs:
                raise _BadRequest('body must carry a non-empty "specs" list')
            infos = manager.submit_sweep(
                specs,
                client=body.get("client", "anon"),
                priority=body.get("priority", 0),
            )
            return 202, {"jobs": infos}
        if path == "/status" and method == "GET":
            return 200, {**manager.status(), "requests": self.requests}
        if path == "/shutdown" and method == "POST":
            self.stop()
            return 200, {"status": "shutting down"}
        if path.startswith("/jobs/"):
            return await self._route_job(request, writer)
        return 404, {"error": f"no route {method} {path}"}

    async def _route_job(self, request: _Request, writer) -> Optional[Tuple[int, dict]]:
        manager = self.manager
        method = request.method
        parts = request.path.split("/")  # ["", "jobs", "<id>"] or + ["<verb>"]
        job_id = parts[2]
        verb = parts[3] if len(parts) > 3 else None
        if verb is None and method == "GET":
            job = await manager.wait(job_id, _wait_seconds(request.query))
            return 200, job.info()
        if verb == "result" and method == "GET":
            job = manager.get(job_id)
            if job.status == "done":
                return 200, job.result()
            if job.status in ("failed", "cancelled"):
                return 409, {
                    "error": f"job {job.id} {job.status}: {job.error}",
                    "status": job.status,
                }
            return 409, {
                "error": f"job {job.id} is {job.status}",
                "status": job.status,
            }
        if verb == "events" and method == "GET":
            manager.get(job_id)  # 404 before committing to a stream
            writer.write(
                b"HTTP/1.1 200 OK\r\n"
                b"Content-Type: application/x-ndjson\r\n"
                b"Connection: close\r\n\r\n"
            )
            await writer.drain()
            async for event in manager.stream(job_id):
                writer.write(codec.encode(event) + b"\n")
                await writer.drain()
            return None
        if verb == "cancel" and method == "POST":
            return 200, manager.cancel(job_id)
        return 404, {"error": f"no route {method} {request.path}"}


async def run_server(
    config: Optional[ServeConfig] = None,
    host: str = "127.0.0.1",
    port: int = 0,
    quiet: bool = False,
) -> None:
    """Start a daemon and serve until ``/shutdown``."""
    server = ReproServer(config, host=host, port=port)
    await server.start()
    if not quiet:
        # The discovery line tests and scripts parse; keep the format.
        print(f"repro.serve listening on http://{server.host}:{server.port}",
              flush=True)
    await server.serve_forever()
