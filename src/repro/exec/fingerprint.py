"""Deterministic content fingerprints for simulation jobs.

A job's identity is everything that determines a simulation's outcome:
the GPU configuration, the execution mode, the benchmark, the dataset
scale, the launch-latency scale, and whether the run is sanitized, plus a
code-version salt.  :meth:`repro.exec.jobspec.JobSpec.fingerprint` hashes
a canonical JSON document of all of it through :func:`digest`, so
identical jobs have identical keys across processes, interpreter restarts
and machines — the property the on-disk result cache
(:mod:`repro.exec.cache`), the multi-process sweep engine
(:mod:`repro.exec.pool`) and the serving daemon (:mod:`repro.serve`) are
built on.

The code-version salt (:data:`CODE_VERSION`) folds the package version
into every key: bumping the version orphans all previously cached results
rather than risking a stale entry produced by different simulator code.

This module holds the hashing primitives; the job model itself lives in
:mod:`repro.exec.jobspec`.
"""

from __future__ import annotations

import hashlib
import json

from .. import __version__

#: Salt folded into every job fingerprint.  Bump the trailing tag when a
#: change invalidates cached results without changing the package version
#: (e.g. a simulator bug fix on a maintenance branch).
CODE_VERSION = f"repro-{__version__}:fp2"


def canonical_json(obj) -> str:
    """The one canonical JSON encoding used for hashing.

    Sorted keys, no whitespace, NaN/Infinity rejected: two semantically
    equal documents always serialize to the same bytes.
    """
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def digest(prefix: str, document) -> str:
    """SHA-256 of ``prefix`` + the canonical encoding of ``document``."""
    payload = f"{CODE_VERSION}\n{prefix}\n{canonical_json(document)}"
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


__all__ = [
    "CODE_VERSION",
    "canonical_json",
    "digest",
]
