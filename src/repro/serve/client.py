"""HTTP client for the :mod:`repro.serve` daemon.

:class:`ServeClient` wraps the daemon's JSON endpoints (see
:mod:`repro.serve.server`) behind the same vocabulary the rest of the
repository uses: submit :class:`~repro.exec.JobSpec`\\ s, get
:class:`~repro.exec.JobResult`\\ s back.  It frames HTTP/1.1 itself, on
one socket with one buffered reader, and writes and reads bodies with the
daemon's own codec (:mod:`repro.exec.codec`): a request goes out in one
``sendall``, and a response is its status line, its headers and a body
of exactly ``Content-Length`` bytes — what the daemon writes.

Quickstart::

    from repro import ExecutionMode, JobSpec
    from repro.serve import ServeClient

    with ServeClient(port=8642, client="alice") as client:
        info = client.submit(JobSpec.create("bht", ExecutionMode.DTBL,
                                            scale=0.1, latency_scale=0.25))
        result = client.result(client.wait(info["id"])["id"])
        print(result.stats.cycles, result.source)

**A client keeps what it was sent.**  The daemon answers with a job's
result wherever it says the job is ``done`` (see the server's endpoint
table), so a terminal info that ``submit``, ``submit_sweep``, ``wait``,
``job`` or ``cancel`` brings back is remembered: ``wait`` of such a job
returns it without a request, and ``result`` hands the stored result
over — once; it is dropped with the hand-over.  ``result`` makes a
request (``GET /jobs/<id>/result``) only when the client holds nothing
for that job: another client submitted it, nobody waited for it here, it
was asked for a second time, or more than :data:`KEPT_JOBS` terminal
jobs came in since and it was the oldest.  A cache hit is therefore one
request through ``submit`` -> ``wait`` -> ``result`` and a job that had
to run is two; the info dicts returned are what they always were (the
result is taken out of them).

A client holds **one kept-alive connection** and sends its requests on
it one after another, so it belongs to one thread at a time: give each
thread its own ``ServeClient``.  (:meth:`ServeClient.events` is the
exception — the stream ends by closing, so it takes a connection of its
own.)  The connection opens on the first request and is reopened
transparently when the daemon has closed it in the meantime;
:meth:`ServeClient.close`, or leaving the ``with`` block, drops it.
"""

from __future__ import annotations

import socket
import time
from collections import OrderedDict
from typing import BinaryIO, Dict, Iterator, List, Optional, Sequence, Tuple, Union

from ..exec import JobResult, JobSpec, codec

SpecLike = Union[JobSpec, dict]

_TERMINAL = ("done", "failed", "cancelled")

#: Terminal jobs a client remembers (info, and result if it came along)
#: until their result is fetched; the oldest beyond this are forgotten,
#: which costs their ``wait`` / ``result`` a request again.
KEPT_JOBS = 64

#: Longest status or header line read (the daemon writes short ones).
_MAX_LINE = 65536


class ServeError(RuntimeError):
    """An HTTP-level error from the daemon (carries ``.status``)."""

    def __init__(self, status: int, payload: dict) -> None:
        super().__init__(payload.get("error") or f"HTTP {status}")
        self.status = status
        self.payload = payload


class JobFailed(ServeError):
    """The submitted job reached a terminal non-``done`` state."""


def _read_line(file: BinaryIO) -> bytes:
    line = file.readline(_MAX_LINE + 1)
    if len(line) > _MAX_LINE:
        raise ConnectionError("response line too long")
    return line


def _read_head(file: BinaryIO) -> Tuple[int, Dict[str, str]]:
    """The status and the (lower-cased) headers of the next response.

    Raises ``ConnectionResetError`` when the peer closed before sending
    a byte of it, and ``ConnectionError`` when it closed in the middle or
    sent something that is not an HTTP/1.x response head.
    """
    line = _read_line(file)
    if not line:
        raise ConnectionResetError("the daemon closed the connection")
    version, _, rest = line.partition(b" ")
    try:
        if not version.startswith(b"HTTP/1."):
            raise ValueError
        status = int(rest.split(None, 1)[0])
    except (ValueError, IndexError):
        raise ConnectionError(f"malformed status line {line[:80]!r}") from None
    headers = {}
    while True:
        line = _read_line(file)
        if line in (b"\r\n", b"\n"):
            return status, headers
        if not line:
            raise ConnectionError("connection closed in a response head")
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()


def _read_body(file: BinaryIO, headers: Dict[str, str]) -> bytes:
    """The ``Content-Length`` bytes of body that follow ``headers``.  A
    body cut short raises ``ConnectionError``: half a payload is never
    returned."""
    try:
        length = int(headers["content-length"])
        if length < 0:
            raise ValueError
    except (KeyError, ValueError):
        raise ConnectionError(
            f"bad Content-Length {headers.get('content-length')!r}"
        ) from None
    body = file.read(length)
    if len(body) != length:
        raise ConnectionError(
            f"response body truncated: {len(body)} of {length} bytes"
        )
    return body


def _decode_body(body: bytes) -> dict:
    return codec.decode(body or b"{}")


class ServeClient:
    """Talk to one daemon over one kept-alive connection (one thread)."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8642,
        client: str = "anon",
        timeout: float = 60.0,
    ) -> None:
        self.host = host
        self.port = port
        self.client = client
        self.timeout = timeout
        #: The kept-alive connection and its reader; opened by the first
        #: request (``None`` until then and after :meth:`close`).
        self._sock: Optional[socket.socket] = None
        self._file: Optional[BinaryIO] = None
        self._kept: "OrderedDict[str, Tuple[dict, Optional[dict]]]" = OrderedDict()

    def close(self) -> None:
        """Drop the connection (the next request opens a new one)."""
        if self._sock is not None:
            self._file.close()
            self._sock.close()
            self._sock = self._file = None

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------
    def _connect(self) -> Tuple[socket.socket, BinaryIO]:
        sock = socket.create_connection((self.host, self.port), self.timeout)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return sock, sock.makefile("rb")

    def _message(self, method: str, path: str, body: Optional[dict]) -> bytes:
        """One whole request: the line, the headers and the body."""
        head = f"{method} {path} HTTP/1.1\r\nHost: {self.host}:{self.port}\r\n"
        if body is None:
            return (head + "\r\n").encode("latin-1")
        encoded = codec.encode(body)
        return (
            f"{head}Content-Type: application/json\r\n"
            f"Content-Length: {len(encoded)}\r\n\r\n"
        ).encode("latin-1") + encoded

    def _request(self, method: str, path: str, body: Optional[dict] = None) -> dict:
        message = self._message(method, path, body)
        # A reused connection may have been closed by the daemon since the
        # last response; that shows as a send error or an empty reply,
        # before any response byte, and is worth exactly one fresh try.
        reused = self._sock is not None
        try:
            try:
                if not reused:
                    self._sock, self._file = self._connect()
                self._sock.sendall(message)
                status, headers = _read_head(self._file)
            except (BrokenPipeError, ConnectionResetError, ConnectionAbortedError):
                if not reused:
                    raise
                self.close()
                self._sock, self._file = self._connect()
                self._sock.sendall(message)
                status, headers = _read_head(self._file)
            payload = _decode_body(_read_body(self._file, headers))
        except BaseException:
            self.close()  # mid-exchange: nothing more can be framed on it
            raise
        if headers.get("connection", "").lower() == "close":
            self.close()
        if status >= 400:
            raise ServeError(status, payload)
        return payload

    @staticmethod
    def _spec_dict(spec: SpecLike) -> dict:
        return spec.to_dict() if isinstance(spec, JobSpec) else dict(spec)

    def _keep(self, info: dict) -> dict:
        """``info`` as callers have always seen it; a terminal one, and
        the result it carried, remembered."""
        result = info.pop("result", None)
        # Whatever was held under this id is older than ``info`` (a
        # restarted daemon counts its job ids from zero again).
        self._kept.pop(info["id"], None)
        if info["status"] in _TERMINAL:
            self._kept[info["id"]] = (info, result)
            if len(self._kept) > KEPT_JOBS:
                self._kept.popitem(last=False)
        return info

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(self, spec: SpecLike, priority: int = 0) -> dict:
        """Submit one job; returns its info dict (``info["id"]``)."""
        return self._keep(self._request("POST", "/jobs", {
            "spec": self._spec_dict(spec),
            "client": self.client,
            "priority": priority,
        }))

    def submit_sweep(self, specs: Sequence[SpecLike], priority: int = 0) -> List[dict]:
        """Submit a batch; returns one info dict per spec, in order."""
        payload = self._request("POST", "/sweeps", {
            "specs": [self._spec_dict(spec) for spec in specs],
            "client": self.client,
            "priority": priority,
        })
        return [self._keep(info) for info in payload["jobs"]]

    # ------------------------------------------------------------------
    # Progress
    # ------------------------------------------------------------------
    def job(self, job_id: str) -> dict:
        return self._keep(self._request("GET", f"/jobs/{job_id}"))

    def wait(self, job_id: str, timeout: float = 600.0, poll: float = 0.05) -> dict:
        """Block until the job is terminal; returns its final info — at
        once, when this client has already been told it is.

        Each round is one ``GET /jobs/<id>?wait=<seconds>``, which the
        daemon answers the moment the job ends.  A round asks for at most
        half the socket timeout (and the daemon caps it), so a long
        ``timeout`` is a series of rounds; ``poll`` is only the pause
        after a round that came back non-terminal.
        """
        if job_id in self._kept:
            return self._kept[job_id][0]
        deadline = time.monotonic() + timeout
        while True:
            hold = max(0.0, min(deadline - time.monotonic(), self.timeout / 2))
            info = self._keep(self._request("GET", f"/jobs/{job_id}?wait={hold:.3f}"))
            if info["status"] in _TERMINAL:
                return info
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TimeoutError(
                    f"job {job_id} still {info['status']} after {timeout}s"
                )
            time.sleep(min(poll, remaining))

    def events(self, job_id: str) -> Iterator[dict]:
        """Stream a job's NDJSON lifecycle events until it is terminal.

        On a connection of its own: the daemon ends the stream by closing.
        """
        sock, file = self._connect()
        try:
            sock.sendall(self._message("GET", f"/jobs/{job_id}/events", None))
            status, headers = _read_head(file)
            if status >= 400:
                raise ServeError(status, _decode_body(_read_body(file, headers)))
            for line in file:
                line = line.strip()
                if line:
                    yield codec.decode(line)
        finally:
            file.close()
            sock.close()

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def result(self, job_id: str) -> JobResult:
        """The finished job's :class:`~repro.exec.JobResult`.

        Raises :class:`ServeError` (409) while the job is still pending
        and :class:`JobFailed` when it failed or was cancelled.  Costs a
        request only when the result did not already come with an info
        (see the module docstring).
        """
        _info, payload = self._kept.pop(job_id, (None, None))
        if payload is None:
            try:
                payload = self._request("GET", f"/jobs/{job_id}/result")
            except ServeError as exc:
                if exc.payload.get("status") in ("failed", "cancelled"):
                    raise JobFailed(exc.status, exc.payload) from None
                raise
        return JobResult.from_payload(
            payload["payload"],
            fingerprint=payload["fingerprint"],
            source=payload["source"],
        )

    def run(self, spec: SpecLike, priority: int = 0, timeout: float = 600.0) -> JobResult:
        """Submit, wait, fetch: the one-call convenience path."""
        info = self.submit(spec, priority=priority)
        final = self.wait(info["id"], timeout=timeout)
        if final["status"] != "done":
            raise JobFailed(409, {
                "error": f"job {final['id']} {final['status']}: {final.get('error')}",
                "status": final["status"],
            })
        return self.result(info["id"])

    # ------------------------------------------------------------------
    # Control
    # ------------------------------------------------------------------
    def cancel(self, job_id: str) -> dict:
        return self._keep(self._request("POST", f"/jobs/{job_id}/cancel"))

    def status(self) -> dict:
        return self._request("GET", "/status")

    def shutdown(self) -> dict:
        return self._request("POST", "/shutdown")
