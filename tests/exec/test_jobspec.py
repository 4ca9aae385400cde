"""The canonical JobSpec/JobResult model."""

from __future__ import annotations

import argparse

import pytest

from repro import ExecutionMode, GPUConfig, LatencyModel
from repro.exec import (
    JobResult,
    JobSpec,
    SpecError,
    run_job,
)
from repro.workloads.datasets import memo


def small_spec(**overrides) -> JobSpec:
    base = dict(
        benchmark="bht", mode=ExecutionMode.FLAT,
        scale=0.05, latency_scale=0.25,
    )
    base.update(overrides)
    return JobSpec.create(**base)


class TestIdentity:
    def test_policy_fields_do_not_change_the_fingerprint(self, tmp_path):
        spec = small_spec()
        stamped = spec.with_policy(
            checkpoint_every=1000, checkpoint_dir=str(tmp_path)
        )
        assert stamped.fingerprint() == spec.fingerprint()
        assert stamped.checkpoint_every == 1000
        # A default policy reaches only a spec that has none of its own.
        assert spec.with_default_policy(1000, str(tmp_path)) == stamped
        assert stamped.with_default_policy(5, "elsewhere") is stamped
        assert spec.with_default_policy() is spec

    def test_default_config_and_explicit_k20c_are_one_key(self):
        assert (
            small_spec().fingerprint()
            == small_spec(config=GPUConfig.k20c()).fingerprint()
        )

    def test_identity_fields_change_the_fingerprint(self):
        base = small_spec().fingerprint()
        assert small_spec(scale=0.06).fingerprint() != base
        assert small_spec(mode=ExecutionMode.DTBL).fingerprint() != base
        assert small_spec(verify=False).fingerprint() != base

    def test_every_mode_fingerprints_distinctly(self):
        # The compiler-optimized modes run the same device runtime as
        # plain CDP; the cache key must still separate all of them.
        prints = {
            mode: small_spec(mode=mode).fingerprint()
            for mode in ExecutionMode
        }
        assert len(set(prints.values())) == len(ExecutionMode)


class TestValidation:
    @pytest.mark.parametrize("overrides", [
        {"benchmark": ""},
        {"scale": 0.0},
        {"scale": -1.0},
        {"latency_scale": -0.5},
        {"checkpoint_every": 0},
        {"scale": float("inf")},
        {"latency_scale": float("inf")},
        {"latency_scale": float("nan")},
    ])
    def test_bad_fields_raise_spec_error(self, overrides):
        (field,) = overrides
        with pytest.raises(SpecError, match=f"^{field} "):
            small_spec(**overrides).validate()

    def test_latency_scale_zero_is_the_ideal_configuration(self):
        spec = small_spec(mode=ExecutionMode.DTBL, latency_scale=0.0).validate()
        assert spec.mode.latency_model(spec.latency_scale) == LatencyModel.ideal()

    def test_label_names_the_latency_rung(self):
        ideal = small_spec(mode=ExecutionMode.CDP, latency_scale=0.0)
        measured = small_spec(mode=ExecutionMode.CDP, latency_scale=0.25)
        assert ideal.label() == f"{ideal.benchmark}/cdp@0"
        assert measured.label() == f"{measured.benchmark}/cdp@0.25"

    def test_spec_error_is_a_value_error(self):
        assert issubclass(SpecError, ValueError)


class TestWireFormat:
    def test_roundtrip_preserves_identity_and_policy(self, tmp_path):
        spec = small_spec(
            checkpoint_every=500, checkpoint_dir=str(tmp_path)
        )
        clone = JobSpec.from_dict(spec.to_dict())
        assert clone == spec
        assert clone.fingerprint() == spec.fingerprint()

    def test_minimal_document_defaults(self):
        spec = JobSpec.from_dict({"benchmark": "bht", "mode": "dtbl"})
        assert spec.mode is ExecutionMode.DTBL
        assert spec.scale == 1.0
        assert spec.verify is True
        assert spec.config == GPUConfig.k20c()

    def test_unknown_fields_fail_loudly(self):
        with pytest.raises(SpecError, match="latency"):
            JobSpec.from_dict(
                {"benchmark": "bht", "mode": "flat", "latency": 0.5}
            )
        # Whether a job resumes is what its checkpoint file implies.
        with pytest.raises(SpecError, match="resume"):
            JobSpec.from_dict({"benchmark": "bht", "mode": "flat", "resume": True})
        # A bad config is a SpecError too (the daemon's 400), not a
        # ConfigError escaping from_dict.
        for config in ({"core": "vector"}, {"fast_core": True}):
            with pytest.raises(SpecError, match="config"):
                JobSpec.from_dict(
                    {"benchmark": "bht", "mode": "flat", "config": config}
                )

    @pytest.mark.parametrize("fields", [
        {"verify": "false"},        # was read as True
        {"verify": 0},
        {"scale": True},
        {"scale": "0.5"},
        {"latency_scale": None},
        {"benchmark": 7},
        {"mode": 3},
        {"checkpoint_every": 100.0},
        {"checkpoint_dir": 5},
        {"config": {"dram_hit_latency": 20.0}},
        {"config": {"agt_entries": 1024.0}},
        {"config": ["num_smx", 13]},
    ])
    def test_wrong_types_raise_spec_error(self, fields):
        with pytest.raises(SpecError, match=next(iter(fields))):
            JobSpec.from_dict({"benchmark": "bht", "mode": "flat", **fields})

    def test_exact_types_still_decode(self):
        spec = JobSpec.from_dict({
            "benchmark": "bht", "mode": ExecutionMode.DTBL, "scale": 1,
            "latency_scale": 0.25, "verify": False, "checkpoint_every": None,
            "checkpoint_dir": "", "config": {"num_smx": 2},
        })
        assert spec.scale == 1.0 and isinstance(spec.scale, float)
        assert spec.verify is False and spec.checkpoint_dir is None
        assert spec.config == GPUConfig(num_smx=2)

    def test_missing_required_fields(self):
        with pytest.raises(SpecError, match="mode"):
            JobSpec.from_dict({"benchmark": "bht"})

    def test_bad_mode_name(self):
        with pytest.raises(SpecError, match="mode"):
            JobSpec.from_dict({"benchmark": "bht", "mode": "warp9"})


class TestFromArgs:
    def make_args(self, **overrides):
        namespace = argparse.Namespace(
            scale=0.05, latency_scale=0.25, no_verify=False,
            checkpoint_every=None,
        )
        for key, value in overrides.items():
            setattr(namespace, key, value)
        return namespace

    def test_reads_the_shared_flag_set(self, tmp_path):
        spec = JobSpec.from_args(
            self.make_args(no_verify=True, checkpoint_every=2000),
            "bht", ExecutionMode.CDP, checkpoint_dir=str(tmp_path),
        )
        assert spec.benchmark == "bht"
        assert spec.mode is ExecutionMode.CDP
        assert spec.verify is False
        assert spec.checkpoint_every == 2000
        assert spec.checkpoint_dir == str(tmp_path)

    def test_validates(self):
        with pytest.raises(SpecError):
            JobSpec.from_args(self.make_args(scale=0.0), "bht",
                              ExecutionMode.FLAT)


class TestExecution:
    def test_run_job_returns_a_job_result(self):
        spec = small_spec()
        result = run_job(spec)
        assert isinstance(result, JobResult)
        assert result.cycles > 0
        assert result.fingerprint == spec.fingerprint()
        assert result.source == "run"

    def test_payload_roundtrip_is_exact(self):
        result = run_job(small_spec())
        clone = JobResult.from_payload(result.to_payload())
        assert clone.stats.to_dict() == result.stats.to_dict()
        assert clone.source == "cache"

    def test_spec_policy_checkpoints_and_resumes(self, tmp_path):
        """The spec's checkpoint policy drives periodic snapshots, and a
        completed run cleans its checkpoint file up, so a rerun starts
        fresh."""
        spec = small_spec(
            checkpoint_every=1000, checkpoint_dir=str(tmp_path)
        )
        baseline = run_job(small_spec())
        seen = []
        checkpointed = run_job(spec, on_checkpoint=seen.append)
        assert len(seen) >= baseline.cycles // 1000 - 1
        assert not list(tmp_path.glob("*.ckpt"))  # removed on success
        rerun = run_job(spec)
        assert checkpointed.stats.to_dict() == baseline.stats.to_dict()
        assert rerun.stats.to_dict() == baseline.stats.to_dict()


    @pytest.mark.parametrize("name, mode", [
        ("bfs_cage15", ExecutionMode.FLAT),
        ("regx_darpa", ExecutionMode.DTBL),
        ("amr", ExecutionMode.CDP),
        ("sssp_citation", ExecutionMode.PERSISTENT),
    ])
    def test_a_memo_hit_simulates_the_same_machine(self, name, mode):
        """The second job finds its input and reference in the memo and
        must still simulate, download and compare exactly as the first."""
        memo.clear()
        spec = small_spec(benchmark=name, mode=mode, scale=0.1)
        first = run_job(spec)
        (built,) = [entry.value for entry in memo._entries.values()]
        second = run_job(spec)
        assert [entry.value for entry in memo._entries.values()] == [built]
        assert second.stats.to_dict() == first.stats.to_dict()
