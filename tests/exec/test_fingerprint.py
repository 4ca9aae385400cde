"""Job fingerprinting: stability, sensitivity and the per-spec memo."""

import dataclasses
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.config import L2_SET_BYTES, SEGMENT_BYTES, GPUConfig
from repro.errors import ConfigError
from repro.exec import JobSpec
from repro.exec import fingerprint as fp_module
from repro.runtime import ExecutionMode


def _mutated(field: dataclasses.Field, value):
    """A different, validator-legal value for one GPUConfig field."""
    if field.name == "warp_scheduler":
        return "rr" if value == "gto" else "gto"
    if field.name == "core":
        return "reference" if value == "fast" else "fast"
    if isinstance(value, bool):
        return not value
    if field.name == "max_resident_threads":
        return value + 32  # must stay a warp-size multiple
    if field.name == "agt_entries":
        return value * 2  # must stay a power of two
    if field.name == "dram_row_bytes":
        return value + SEGMENT_BYTES  # must stay whole segments
    if field.name == "l2_size":
        return value + L2_SET_BYTES  # must stay whole sets
    return value + 1


def _config_key(config) -> str:
    """The fingerprint of one fixed job under ``config``: a config's only
    identity is the one it gives the job that runs on it."""
    return JobSpec.create(
        "bfs_citation", ExecutionMode.DTBL, 0.5, 0.25, config=config
    ).fingerprint()


class TestConfigFingerprint:
    def test_stable_within_process(self):
        assert _config_key(GPUConfig.k20c()) == _config_key(GPUConfig())
        assert _config_key(GPUConfig.small()) == _config_key(GPUConfig.small())

    def test_stable_across_process_boundary(self):
        """The same job hashes identically in a fresh interpreter."""
        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        code = (
            "from repro.config import GPUConfig;"
            "from repro.exec import JobSpec;"
            "print(JobSpec.create('bfs_citation', 'dtbl', 0.5, 0.25,"
            " config=GPUConfig.small()).fingerprint())"
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, env=env, check=True,
        )
        assert out.stdout.strip() == _config_key(GPUConfig.small())

    def test_sensitive_to_every_field(self):
        """Changing any one config field changes the job's fingerprint."""
        base = GPUConfig.k20c()
        base_fp = _config_key(base)
        seen = {base_fp}
        for field in dataclasses.fields(GPUConfig):
            mutation = {field.name: _mutated(field, getattr(base, field.name))}
            variant = dataclasses.replace(base, **mutation)
            variant_fp = _config_key(variant)
            assert variant_fp != base_fp, f"insensitive to {field.name}"
            assert variant_fp not in seen, f"collision on {field.name}"
            seen.add(variant_fp)

    def test_round_trip_preserves_fingerprint(self):
        cfg = GPUConfig.small()
        assert _config_key(GPUConfig.from_dict(cfg.to_dict())) == _config_key(cfg)

    def test_from_dict_rejects_unknown_fields(self):
        data = GPUConfig.k20c().to_dict()
        data["warp_width"] = 64
        with pytest.raises(ConfigError):
            GPUConfig.from_dict(data)


class TestSweepJobFingerprint:
    def _job(self, **overrides) -> JobSpec:
        defaults = dict(
            benchmark="bfs_citation",
            mode=ExecutionMode.DTBL,
            scale=0.5,
            latency_scale=0.25,
            config=None,
            verify=True,
        )
        defaults.update(overrides)
        return JobSpec.create(**defaults)

    def test_identical_jobs_identical_keys(self):
        assert self._job().fingerprint() == self._job().fingerprint()

    def test_none_config_is_canonical_default(self):
        explicit = self._job(config=GPUConfig.k20c())
        assert self._job().fingerprint() == explicit.fingerprint()

    @pytest.mark.parametrize("override", [
        {"benchmark": "bht"},
        {"mode": ExecutionMode.CDP},
        {"scale": 0.25},
        {"latency_scale": 0.5},
        {"verify": False},
        {"config": GPUConfig.k20c().with_agt_entries(512)},
    ])
    def test_sensitive_to_each_dimension(self, override):
        assert self._job().fingerprint() != self._job(**override).fingerprint()

    def test_sensitive_to_sanitize_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        plain = self._job().fingerprint()
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        assert self._job().fingerprint() != plain

    def test_sanitize_env_zero_is_off_for_the_gpu_and_the_key(self, monkeypatch):
        """``REPRO_SANITIZE=0`` runs unsanitized, so its key must be the
        plain one: a cache entry keyed "sanitized" has a sanitizer report."""
        from repro.sim.gpu import GPU

        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        plain = self._job().fingerprint()
        monkeypatch.setenv("REPRO_SANITIZE", "0")
        assert self._job().fingerprint() == plain
        assert GPU(GPUConfig.small(), memory_words=1024).sanitizer is None

    def test_sensitive_to_config_sanitize_flag(self, monkeypatch):
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        sanitized = dataclasses.replace(GPUConfig.k20c(), sanitize=True)
        assert self._job().fingerprint() != self._job(config=sanitized).fingerprint()

    def test_code_version_salt(self, monkeypatch):
        before = self._job().fingerprint()
        monkeypatch.setattr(fp_module, "CODE_VERSION", "repro-0.0.0:test")
        assert self._job().fingerprint() != before

    def test_key_shape(self):
        key = self._job().fingerprint()
        assert len(key) == 64
        assert set(key) <= set("0123456789abcdef")

    def test_key_value_is_pinned(self, monkeypatch):
        """The ``SweepJob`` alias is gone; its name lives on as the digest
        prefix, so every cache entry and checkpoint keeps its address.
        (A deliberate salt change — a version bump — re-pins this value.)"""
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        assert repro.__version__ == "1.4.0"
        assert self._job().fingerprint() == (
            "5a3221365bc3dfe720bd14693e330a935b4e098858564c1ec919aa6199cc37ea"
        )
        for module in (repro, repro.exec, fp_module):
            assert not hasattr(module, "SweepJob")

    # A spec hashes once; the memo follows the two inputs outside it.
    def test_held_spec_hashes_once(self, monkeypatch):
        calls = []
        real = fp_module.digest
        monkeypatch.setattr(
            fp_module, "digest", lambda *a: calls.append(a) or real(*a)
        )
        spec = self._job()
        assert spec.fingerprint() == spec.fingerprint() == self._job().fingerprint()
        assert len(calls) == 2  # one per instance

    def test_same_instance_follows_sanitize_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        spec = self._job()
        plain = spec.fingerprint()
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        sanitized = spec.fingerprint()
        assert sanitized != plain
        assert sanitized == self._job().fingerprint()
        monkeypatch.setenv("REPRO_SANITIZE", "0")
        assert spec.fingerprint() == plain

    def test_same_instance_follows_code_version(self, monkeypatch):
        spec = self._job()
        before = spec.fingerprint()
        monkeypatch.setattr(fp_module, "CODE_VERSION", "repro-0.0.0:test")
        after = spec.fingerprint()
        assert after != before
        assert after == self._job().fingerprint()
        monkeypatch.undo()
        assert spec.fingerprint() == before

    def test_pickle_round_trip_keeps_the_hash_correct(self, monkeypatch):
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        spec = self._job()
        plain = spec.fingerprint()
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec
        assert clone.fingerprint() == plain
        # A worker whose environment differs from the sender's rehashes.
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        assert pickle.loads(pickle.dumps(spec)).fingerprint() == (
            self._job().fingerprint()
        )

    def test_replace_does_not_inherit_the_memo(self):
        spec = self._job()
        spec.fingerprint()
        changed = dataclasses.replace(spec, scale=0.25)
        assert changed.fingerprint() == self._job(scale=0.25).fingerprint()
        assert changed.fingerprint() != spec.fingerprint()
