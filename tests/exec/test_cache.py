"""On-disk result cache: round trips, robustness, atomicity."""

import json
import os
import threading

import pytest

from repro.config import GPUConfig
from repro.exec import JobResult, ResultCache
from repro.exec.cache import ENTRY_FORMAT, atomic_write, temp_files
from repro.sim.stats import LaunchKind, LaunchRecord, SimStats

KEY = "ab" * 32
OTHER = "cd" * 32

PAYLOAD = {"stats": {"cycles": 123, "launches": {"kind": ["host_kernel"]}},
           "wall_seconds": 1.5, "sanitizer": None}


@pytest.fixture
def cache(tmp_path):
    return ResultCache(tmp_path / "cache")


class TestRoundTrip:
    def test_store_load(self, cache):
        cache.store(KEY, PAYLOAD)
        assert cache.load(KEY) == PAYLOAD
        assert cache.stats.stores == 1
        assert cache.stats.hits == 1

    def test_miss(self, cache):
        assert cache.load(KEY) is None
        assert cache.stats.misses == 1
        assert cache.stats.hits == 0

    def test_overwrite_same_key(self, cache):
        cache.store(KEY, PAYLOAD)
        cache.store(KEY, {"wall_seconds": 2.0})
        assert cache.load(KEY) == {"wall_seconds": 2.0}

    def test_keys_are_independent(self, cache):
        cache.store(KEY, PAYLOAD)
        assert cache.load(OTHER) is None
        assert cache.load(KEY) == PAYLOAD

    def test_entry_count_and_clear(self, cache):
        cache.store(KEY, PAYLOAD)
        cache.store(OTHER, PAYLOAD)
        assert cache.entry_count() == 2
        assert cache.clear() == 2
        assert cache.entry_count() == 0
        assert cache.load(KEY) is None

    def test_rejects_non_fingerprint_keys(self, cache):
        with pytest.raises(ValueError):
            cache.load("../../etc/passwd")
        with pytest.raises(ValueError):
            cache.store("short", PAYLOAD)


def launch_heavy_payload(launches: int = 600) -> dict:
    """A dynamic-mode result's shape: counters, a config, and a long
    launch table with missing cycles, as ``JobResult.to_payload`` writes it."""
    stats = SimStats(GPUConfig.k20c())
    stats.cycles, stats.issued_instructions = 817_204, 2**40 + 3
    kinds = list(LaunchKind)
    stats.launches = [
        LaunchRecord(
            kinds[i % len(kinds)], f"child{i % 5}", 100 * i, i % 7 + 1,
            32 * (i % 7 + 1), 8 * (i % 3), 64,
            None if i % 11 == 0 else 100 * i + 40,
            None if i % 13 == 0 else 100 * i + 41,
            None if i % 17 == 0 else 100 * i + 99,
        )
        for i in range(launches)
    ]
    return JobResult(stats, wall_seconds=0.8123456789).to_payload()


def stdlib_entry(key: str, payload: dict) -> bytes:
    """An entry as the stdlib encoder writes it (what format 2 has always been)."""
    entry = {"format": ENTRY_FORMAT, "key": key, "payload": payload}
    return json.dumps(entry, sort_keys=True, separators=(",", ":")).encode("utf-8")


class TestCodec:
    """Entries go through ``repro.exec.codec``: the same bytes as the
    stdlib encoder, and entries that encoder wrote read back as they are."""

    def test_entry_bytes_are_the_stdlib_encoding(self, cache):
        payload = launch_heavy_payload()
        cache.store(KEY, payload)
        assert cache.path_for(KEY).read_bytes() == stdlib_entry(KEY, payload)

    def test_entry_written_by_the_stdlib_encoder_loads(self, cache):
        payload = launch_heavy_payload()
        atomic_write(cache.path_for(KEY), stdlib_entry(KEY, payload))
        assert cache.load(KEY) == payload
        assert (cache.stats.hits, cache.stats.quarantined, cache.stats.invalidated) == (1, 0, 0)
        rebuilt = JobResult.from_payload(cache.load(KEY))
        assert rebuilt.to_payload() == payload

    def test_int_beyond_64_bits_raises_and_leaves_no_file(self, cache):
        payload = launch_heavy_payload(launches=3)
        payload["stats"]["cycles"] = 2**64
        with pytest.raises(TypeError):
            cache.store(KEY, payload)
        path = cache.path_for(KEY)
        assert not path.exists() and temp_files(path) == []
        assert cache.stats.stores == 0


class TestRobustness:
    def test_corrupt_json_is_quarantined_not_fatal(self, cache):
        cache.store(KEY, PAYLOAD)
        path = cache.path_for(KEY)
        path.write_text("{not json at all", encoding="utf-8")
        assert cache.load(KEY) is None
        assert cache.stats.quarantined == 1
        assert not path.exists()
        corpse = path.with_suffix(".json.corrupt")
        assert corpse.exists()
        # The slot is reusable after quarantine.
        cache.store(KEY, PAYLOAD)
        assert cache.load(KEY) == PAYLOAD

    def test_truncated_entry_is_quarantined(self, cache):
        cache.store(KEY, PAYLOAD)
        path = cache.path_for(KEY)
        raw = path.read_text(encoding="utf-8")
        path.write_text(raw[: len(raw) // 2], encoding="utf-8")
        assert cache.load(KEY) is None
        assert cache.stats.quarantined == 1

    def test_non_utf8_entry_is_quarantined(self, cache):
        cache.store(KEY, PAYLOAD)
        path = cache.path_for(KEY)
        path.write_bytes(b'{"format": 2, "key": "\xff\xfe"}')
        assert cache.load(KEY) is None
        assert cache.stats.quarantined == 1
        assert path.with_suffix(".json.corrupt").exists()

    def test_entry_with_wrong_key_is_quarantined(self, cache):
        cache.store(KEY, PAYLOAD)
        entry = json.loads(cache.path_for(KEY).read_text(encoding="utf-8"))
        entry["key"] = OTHER
        cache.path_for(KEY).write_text(json.dumps(entry), encoding="utf-8")
        assert cache.load(KEY) is None
        assert cache.stats.quarantined == 1

    def test_format_version_mismatch_is_invalidated(self, cache):
        cache.store(KEY, PAYLOAD)
        entry = json.loads(cache.path_for(KEY).read_text(encoding="utf-8"))
        entry["format"] = ENTRY_FORMAT + 1
        cache.path_for(KEY).write_text(json.dumps(entry), encoding="utf-8")
        assert cache.load(KEY) is None
        assert cache.stats.invalidated == 1
        assert not cache.path_for(KEY).exists()

    def test_format_1_entry_is_invalidated(self, cache):
        """Format 1 held ``launches`` as one object per launch."""
        cache.store(KEY, PAYLOAD)
        entry = json.loads(cache.path_for(KEY).read_text(encoding="utf-8"))
        entry["format"] = 1
        cache.path_for(KEY).write_text(json.dumps(entry), encoding="utf-8")
        assert cache.load(KEY) is None
        assert cache.stats.invalidated == 1
        assert cache.stats.quarantined == 0
        assert not cache.path_for(KEY).exists()

    def test_invalidate_missing_entry_is_harmless(self, cache):
        cache.invalidate(KEY)
        assert cache.stats.invalidated == 1

    def test_no_temp_droppings_after_stores(self, cache):
        for i in range(10):
            cache.store(KEY, {"i": i})
        leftovers = [
            p for p in cache.root.rglob("*") if p.is_file()
            and not p.name.endswith(".json")
        ]
        assert leftovers == []


class TestAtomicity:
    def test_failed_atomic_write_leaves_no_temp_file(self, tmp_path, monkeypatch):
        """The one helper behind cache entries and checkpoint files."""

        def refuse(src, dst):
            raise OSError("no space left on device")

        monkeypatch.setattr(os, "replace", refuse)
        target = tmp_path / "dir" / "entry.json"
        with pytest.raises(OSError, match="no space"):
            atomic_write(target, b"{}")
        assert list(target.parent.iterdir()) == []

    def test_concurrent_writers_never_clobber(self, cache):
        """Interleaved writers + readers: every read is one complete entry.

        Entries are written via unique temp file + ``os.replace``, so a
        reader can observe either complete payload but never a torn or
        half-written one (which would surface as a quarantine).
        """
        payload_a = {"who": "a", "blob": ["x"] * 500}
        payload_b = {"who": "b", "blob": ["y"] * 500}
        stop = threading.Event()
        errors = []

        def writer(payload):
            while not stop.is_set():
                cache.store(KEY, payload)

        def reader():
            mine = ResultCache(cache.root)  # independent stats
            while not stop.is_set():
                got = mine.load(KEY)
                if got is not None and got not in (payload_a, payload_b):
                    errors.append(got)
            if mine.stats.quarantined:
                errors.append(f"quarantined {mine.stats.quarantined}")

        threads = [
            threading.Thread(target=writer, args=(payload_a,)),
            threading.Thread(target=writer, args=(payload_b,)),
            threading.Thread(target=reader),
            threading.Thread(target=reader),
        ]
        for t in threads:
            t.start()
        threading.Event().wait(0.6)
        stop.set()
        for t in threads:
            t.join()
        assert errors == []
        assert cache.load(KEY) in (payload_a, payload_b)
