"""Content-addressed on-disk store for simulation results.

Entries are JSON blobs (:mod:`repro.exec.codec`) under a cache root
(default ``.repro-cache/``), addressed by
:meth:`repro.exec.jobspec.JobSpec.fingerprint` and fanned out over 256
two-hex-digit subdirectories.  The store is safe for concurrent writers
and robust to corruption:

* **atomic writes** — every store writes a unique temporary file in the
  entry's directory and ``os.replace``-s it into place, so readers never
  observe a half-written entry and concurrent writers of the same key
  cannot clobber each other (last complete write wins; both wrote the
  same content anyway, by content-addressing);
* **corrupt-entry quarantine** — an entry that fails to parse or fails
  validation is moved aside to ``<entry>.corrupt`` and reported as a
  miss, never an exception: a truncated write (power loss, full disk)
  costs one re-simulation, not a broken sweep;
* **format versioning** — entries self-describe with
  :data:`ENTRY_FORMAT`; entries written by an incompatible cache layout
  are invalidated (removed and recounted), not misread.

:class:`CacheStats` counts hits / misses / stores / quarantines /
invalidations for reporting (``python -m repro.harness`` prints them
after a cached sweep).
"""

from __future__ import annotations

import glob
import os
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from . import codec

#: On-disk entry format version.  Bump when the entry layout changes;
#: old entries are invalidated on read.
ENTRY_FORMAT = 2

#: Default cache root, relative to the current working directory.
DEFAULT_CACHE_DIR = ".repro-cache"

_KEY_CHARS = set("0123456789abcdef")


@dataclass
class CacheStats:
    """Counters for one :class:`ResultCache` instance."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    #: Entries that failed to parse and were moved to ``*.corrupt``.
    quarantined: int = 0
    #: Entries removed because their payload could not be used (wrong
    #: format version, undecodable stats) — see :meth:`ResultCache.invalidate`.
    invalidated: int = 0

    def format(self) -> str:
        return (
            f"hits={self.hits} misses={self.misses} stores={self.stores} "
            f"quarantined={self.quarantined} invalidated={self.invalidated}"
        )


class CorruptEntry(Exception):
    """Internal: an on-disk entry is unreadable or fails validation."""


def _temp_prefix(path: Path) -> str:
    return f".{path.stem[:12]}-"


def atomic_write(path: os.PathLike, data: bytes) -> None:
    """Write ``data`` to ``path`` so that no reader sees a torn file.

    The unique temporary file lives in the target directory, so
    ``os.replace`` is a same-filesystem atomic rename on every platform;
    it is removed again when the write or the rename fails — but not when
    the writer is killed in between: whoever owns ``path`` removes those
    (:func:`temp_files`).  Shared by the result cache and checkpoint files.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        prefix=_temp_prefix(path), suffix=".tmp", dir=path.parent
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def temp_files(path: os.PathLike) -> list:
    """The temporary files of :func:`atomic_write` calls for ``path`` that
    are still there: a write in flight, or one whose writer was killed."""
    path = Path(path)
    return list(path.parent.glob(f"{glob.escape(_temp_prefix(path))}*.tmp"))


def _check_key(key: str) -> str:
    if len(key) < 8 or not set(key) <= _KEY_CHARS:
        raise ValueError(f"not a fingerprint key: {key!r}")
    return key


class ResultCache:
    """Content-addressed JSON blob store (see the module docstring)."""

    def __init__(self, root: os.PathLike = DEFAULT_CACHE_DIR) -> None:
        self.root = Path(root)
        self.stats = CacheStats()
        #: ``root`` as a string, from which :meth:`load` builds a path
        #: without two ``Path`` joins per hit.
        self._root = str(self.root)

    # ------------------------------------------------------------------
    # Paths
    # ------------------------------------------------------------------
    def path_for(self, key: str) -> Path:
        _check_key(key)
        return self.root / key[:2] / f"{key}.json"

    # ------------------------------------------------------------------
    # Read side
    # ------------------------------------------------------------------
    def contains(self, key: str) -> bool:
        """Whether an entry exists on disk (no stats, no validation)."""
        return self.path_for(key).exists()

    def load(self, key: str) -> Optional[dict]:
        """The entry's payload dictionary, or ``None`` on a miss.

        Corrupt entries are quarantined and count as misses; entries with
        a different format version are invalidated and count as misses.
        """
        # The string form of path_for(key).
        path = f"{self._root}{os.sep}{_check_key(key)[:2]}{os.sep}{key}.json"
        try:
            with open(path, "rb") as handle:
                raw = handle.read()
        except FileNotFoundError:
            self.stats.misses += 1
            return None
        except OSError:
            self._quarantine(path)
            self.stats.misses += 1
            return None
        try:
            entry = self._decode(raw, key)
        except CorruptEntry:
            self._quarantine(path)
            self.stats.misses += 1
            return None
        if entry["format"] != ENTRY_FORMAT:
            self.invalidate(key)
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return entry["payload"]

    @staticmethod
    def _decode(raw: bytes, key: str) -> dict:
        try:
            # Bytes that are not UTF-8 raise a ValueError too.
            entry = codec.decode(raw)
        except ValueError as exc:
            raise CorruptEntry(str(exc)) from exc
        if (
            not isinstance(entry, dict)
            or not isinstance(entry.get("format"), int)
            or entry.get("key") != key
            or not isinstance(entry.get("payload"), dict)
        ):
            raise CorruptEntry("entry structure invalid")
        return entry

    # ------------------------------------------------------------------
    # Write side
    # ------------------------------------------------------------------
    def store(self, key: str, payload: dict) -> None:
        """Atomically persist ``payload`` under ``key`` (:func:`atomic_write`).

        A payload :func:`repro.exec.codec.encode` cannot write (an int
        wider than 64 bits, say) raises ``TypeError`` before any file is
        opened.
        """
        entry = {"format": ENTRY_FORMAT, "key": key, "payload": payload}
        atomic_write(self.path_for(key), codec.encode(entry))
        self.stats.stores += 1

    def invalidate(self, key: str) -> None:
        """Drop an entry whose payload turned out to be unusable.

        Called by the read path on format mismatches and by consumers
        that fail to decode a structurally valid payload (e.g. a
        ``GPUConfig`` written by a different code version).
        """
        try:
            self.path_for(key).unlink()
        except OSError:
            pass
        self.stats.invalidated += 1

    def _quarantine(self, path: str) -> None:
        """Move a corrupt entry aside so it is inspectable but inert."""
        try:
            os.replace(path, f"{path}.corrupt")
        except OSError:
            pass
        self.stats.quarantined += 1

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def entry_count(self) -> int:
        """Number of well-named entries currently on disk."""
        if not self.root.is_dir():
            return 0
        return sum(1 for _ in self.root.glob("??/*.json"))

    def clear(self) -> int:
        """Remove every entry (and quarantined sibling); returns count."""
        removed = 0
        if not self.root.is_dir():
            return 0
        for path in list(self.root.glob("??/*.json")) + list(
            self.root.glob("??/*.json.corrupt")
        ):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed
