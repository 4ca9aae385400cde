"""How :class:`repro.serve.ServeClient` frames HTTP/1.1, against fake servers.

The client writes a request in one piece and reads a response as its
status line, its headers and ``Content-Length`` bytes of body.  The fake
servers here send what a daemon could: responses dribbled out a few
bytes at a time, ``Connection: close``, errors, bodies cut short, and an
event stream that ends at the close.  The property at the end feeds one
or more responses through the client split into arbitrary reads.
"""

from __future__ import annotations

import io
import json
import socket
import subprocess
import sys
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exec import codec
from repro.serve import ServeClient, ServeError


def response(status: int, payload, *headers: str) -> bytes:
    body = codec.encode(payload)
    head = "".join(f"{header}\r\n" for header in (
        f"HTTP/1.1 {status} Whatever",
        "Content-Type: application/json",
        f"Content-Length: {len(body)}",
        *headers,
    ))
    return f"{head}\r\n".encode("latin-1") + body


def read_request(conn: socket.socket) -> bytes:
    """One whole request off ``conn`` (head, and body by Content-Length)."""
    data = b""
    while b"\r\n\r\n" not in data:
        chunk = conn.recv(65536)
        if not chunk:
            return data
        data += chunk
    head, _, body = data.partition(b"\r\n\r\n")
    for line in head.split(b"\r\n"):
        name, _, value = line.partition(b":")
        if name.strip().lower() == b"content-length":
            while len(body) < int(value):
                body += conn.recv(65536)
    return data


class FakeDaemon:
    """A listener whose ``n``-th connection is served by ``handlers[n]``
    on a thread of its own; the test's ``with`` block waits for them."""

    def __init__(self, *handlers) -> None:
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.port = self.listener.getsockname()[1]
        self.requests: list = []
        self.failures: list = []
        self.thread = threading.Thread(target=self._serve, args=(handlers,),
                                       daemon=True)
        self.thread.start()

    def _serve(self, handlers) -> None:
        held = []
        try:
            for handler in handlers:
                conn, _ = self.listener.accept()
                held.append(conn)
                handler(conn, self)
        except Exception as exc:  # reported by __exit__
            self.failures.append(exc)
        finally:
            time.sleep(0.05)
            for conn in held:
                conn.close()

    def client(self) -> ServeClient:
        return ServeClient(port=self.port, timeout=5.0)

    def __enter__(self) -> "FakeDaemon":
        return self

    def __exit__(self, *exc_info) -> None:
        self.thread.join(timeout=10)
        self.listener.close()
        assert not self.thread.is_alive()
        assert not self.failures, self.failures


def answer(*responses: bytes, close: bool = False, dribble: int = 0):
    """A handler: read a request, send the next response, and so on."""

    def handler(conn: socket.socket, daemon: FakeDaemon) -> None:
        for data in responses:
            daemon.requests.append(read_request(conn))
            if dribble:
                for start in range(0, len(data), dribble):
                    conn.sendall(data[start:start + dribble])
                    time.sleep(0.001)
            else:
                conn.sendall(data)
        if close:
            conn.close()

    return handler


def test_a_request_is_one_framed_message():
    with FakeDaemon(answer(response(202, {"id": "j1", "status": "queued"}))) as fake:
        with fake.client() as client:
            client.submit({"benchmark": "bht", "mode": "flat"})
    request = fake.requests[0]
    head, _, body = request.partition(b"\r\n\r\n")
    lines = head.split(b"\r\n")
    assert lines[0] == b"POST /jobs HTTP/1.1"
    assert b"Content-Length: %d" % len(body) in lines
    assert json.loads(body)["spec"] == {"benchmark": "bht", "mode": "flat"}


def test_a_dribbled_response_is_read_whole():
    payload = {"workers": 2, "text": "x" * 300, "nested": {"a": [1, 2.5, None]}}
    reply = response(200, payload)
    with FakeDaemon(answer(reply, reply, dribble=3)) as fake:
        with fake.client() as client:
            assert client.status() == payload
            assert client.status() == payload  # on the same connection


def test_connection_close_drops_the_connection():
    """The first connection stays open but says ``close``: a client that
    sent its next request there would never be answered."""
    first = answer(response(200, {"n": 1}, "Connection: close"))
    second = answer(response(200, {"n": 2}))
    with FakeDaemon(first, second) as fake:
        with fake.client() as client:
            assert client.status() == {"n": 1}
            assert client._sock is None
            assert client.status() == {"n": 2}
    assert len(fake.requests) == 2


def test_an_error_status_raises_with_its_payload():
    error = {"error": "bad spec", "detail": [1, 2]}
    replies = answer(response(400, error), response(200, {"ok": True}))
    with FakeDaemon(replies) as fake:
        with fake.client() as client:
            with pytest.raises(ServeError) as excinfo:
                client.status()
            assert excinfo.value.status == 400
            assert excinfo.value.payload == error
            assert str(excinfo.value) == "bad spec"
            assert client.status() == {"ok": True}  # the connection survives


def test_a_truncated_body_raises_not_half_a_payload():
    cut = response(200, {"payload": "y" * 200})[:-50]
    with FakeDaemon(answer(cut, close=True)) as fake:
        with fake.client() as client:
            with pytest.raises(ConnectionError, match="truncated"):
                client.status()
            assert client._sock is None


def test_events_stream_until_the_close():
    events = [{"event": "queued", "n": 0}, {"event": "started", "n": 1},
              {"event": "done", "n": 2}]
    stream = (b"HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson\r\n"
              b"Connection: close\r\n\r\n"
              + b"".join(codec.encode(event) + b"\n" for event in events))
    missing = response(404, {"error": "unknown job j9"}, "Connection: close")
    with FakeDaemon(answer(stream, close=True, dribble=5),
                    answer(missing, close=True)) as fake:
        client = fake.client()
        assert list(client.events("j1")) == events
        with pytest.raises(ServeError) as excinfo:
            list(client.events("j9"))
        assert excinfo.value.status == 404
    assert fake.requests[0].startswith(b"GET /jobs/j1/events HTTP/1.1\r\n")


def test_repro_serve_imports_no_http_client():
    """One transport: the client's own framing, not ``http.client``."""
    script = ("import sys, repro.serve; "
              "assert 'http.client' not in sys.modules, 'http.client imported'")
    subprocess.run([sys.executable, "-c", script], check=True, timeout=60)


# ----------------------------------------------------------------------
# Property: the framing does not depend on how the bytes arrive
# ----------------------------------------------------------------------
class _Reads(io.RawIOBase):
    """A raw stream whose reads return the given chunks, then EOF."""

    def __init__(self, chunks) -> None:
        self.chunks = list(chunks)

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        if not self.chunks:
            return 0
        chunk = self.chunks[0]
        count = min(len(buffer), len(chunk))
        buffer[:count] = chunk[:count]
        if count == len(chunk):
            self.chunks.pop(0)
        else:
            self.chunks[0] = chunk[count:]
        return count


class _Sink:
    def sendall(self, data: bytes) -> None:
        pass

    def close(self) -> None:
        pass


_scalars = (st.none() | st.booleans() | st.integers(-2**63, 2**63 - 1)
            | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=20))
_documents = st.dictionaries(
    st.text(max_size=10),
    st.recursive(_scalars, lambda inner: st.lists(inner, max_size=4)
                 | st.dictionaries(st.text(max_size=6), inner, max_size=4),
                 max_leaves=12),
    max_size=6,
)


@settings(max_examples=60, deadline=None)
@given(
    replies=st.lists(st.tuples(st.sampled_from((200, 202, 400, 404, 409, 429)),
                               _documents), min_size=1, max_size=3),
    cuts=st.lists(st.integers(0, 4096), max_size=12),
)
def test_any_split_of_the_responses_parses_to_the_same_payloads(replies, cuts):
    """Responses back to back on one kept-alive connection, delivered in
    reads cut at arbitrary places: each parses to its own payload, and
    no byte of one is taken for the next."""
    wire = b"".join(response(status, payload) for status, payload in replies)
    bounds = sorted({0, len(wire), *(cut % (len(wire) + 1) for cut in cuts)})
    chunks = [wire[a:b] for a, b in zip(bounds, bounds[1:])]
    client = ServeClient(port=1)  # never connects: it is handed the stream
    client._sock, client._file = _Sink(), io.BufferedReader(_Reads(chunks), 64)
    for status, payload in replies:
        if status < 400:
            assert client.status() == payload
        else:
            with pytest.raises(ServeError) as excinfo:
                client.status()
            assert (excinfo.value.status, excinfo.value.payload) == (status, payload)
    assert client._file.read() == b""
