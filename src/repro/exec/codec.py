"""The JSON codec of every machine-read document on the exec and serve paths.

Result-cache entries (:mod:`repro.exec.cache`), the daemon's request and
response bodies, and its NDJSON event stream (:mod:`repro.serve`) are
written by :func:`encode` and read by :func:`decode`, both backed by
``orjson``.  Documents are ``bytes`` in and out: a caller never encodes or
decodes text around them, and never sees orjson or its options.

:func:`encode` sorts keys and writes no whitespace, so an entry's bytes
are the stdlib's ``json.dumps(doc, sort_keys=True, separators=(",", ":"))``
for every document this repository stores (ints, strings, and floats
written in positional notation).  Two limits come with the codec, and
every document these paths carry lies within them:

* an int must fit in 64 bits: a wider one raises ``TypeError`` at
  :func:`encode` (and :func:`decode` reads one as a float);
* a float must be finite: NaN and the infinities are written as ``null``.

Hashing does not go through here: a fingerprint's bytes are pinned by
every stored key, so :func:`repro.exec.fingerprint.canonical_json` stays
on the stdlib (which rejects NaN and writes ``1e-05`` where orjson writes
``0.00001``).
"""

from __future__ import annotations

import orjson


def encode(document) -> bytes:
    """``document`` as compact JSON with sorted keys.

    Raises ``TypeError`` on what JSON cannot hold: a non-``str`` key, an
    int wider than 64 bits, an object of another type.
    """
    return orjson.dumps(document, option=orjson.OPT_SORT_KEYS)


def decode(data: bytes):
    """The document ``data`` holds; ``ValueError`` if it is not JSON
    (including bytes that are not UTF-8)."""
    return orjson.loads(data)


__all__ = ["decode", "encode"]
