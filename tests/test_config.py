"""Tests for the Table 2 / Table 3 configuration objects."""

import dataclasses
import json

import pytest

from repro import config as config_module
from repro.config import (
    SEGMENT_BYTES,
    SEGMENT_WORDS,
    WARP_SIZE,
    WORD_BYTES,
    GPUConfig,
    LatencyModel,
)
from repro.errors import ConfigError
from repro.exec import JobSpec
from repro.runtime import ExecutionMode


class TestGPUConfigTable2:
    """The k20c() configuration must match the paper's Table 2 exactly."""

    def setup_method(self):
        self.cfg = GPUConfig.k20c()

    def test_smx_clock(self):
        assert self.cfg.smx_clock_mhz == 706

    def test_memory_clock(self):
        assert self.cfg.memory_clock_mhz == 2600

    def test_num_smx(self):
        assert self.cfg.num_smx == 13

    def test_max_resident_blocks(self):
        assert self.cfg.max_resident_blocks == 16

    def test_max_resident_threads(self):
        assert self.cfg.max_resident_threads == 2048

    def test_registers(self):
        assert self.cfg.registers_per_smx == 65536

    def test_l1_and_shared(self):
        assert self.cfg.l1_size == 16 * 1024
        assert self.cfg.shared_mem_size == 48 * 1024

    def test_max_concurrent_kernels(self):
        assert self.cfg.max_concurrent_kernels == 32

    def test_max_resident_warps(self):
        assert self.cfg.max_resident_warps == 64


class TestGPUConfigValidation:
    def test_zero_smx_rejected(self):
        with pytest.raises(ConfigError):
            GPUConfig(num_smx=0)

    @pytest.mark.parametrize("field", [
        "dram_banks", "max_concurrent_kernels", "max_resident_blocks",
        "agt_entries", "l2_assoc",
    ])
    def test_zero_structural_size_rejected_at_construction(self, field):
        # A component divides by, indexes with or allocates from each:
        # zero must fail here, not mid-simulation or at GPU construction.
        for value in (0, -1):
            with pytest.raises(ConfigError, match=field):
                GPUConfig.from_dict({field: value})

    def test_non_warp_multiple_threads_rejected(self):
        with pytest.raises(ConfigError):
            GPUConfig(max_resident_threads=1000)

    def test_non_power_of_two_agt_rejected(self):
        with pytest.raises(ConfigError):
            GPUConfig(agt_entries=1000)

    @pytest.mark.parametrize("field", [
        "alu_latency", "sfu_latency", "shared_latency", "l1_hit_latency", "l2_hit_latency",
    ])
    def test_pipeline_latency_below_one_cycle_rejected(self, field):
        for value in (0, -1):
            with pytest.raises(ConfigError, match=field):
                GPUConfig(**{field: value})
        assert getattr(GPUConfig(**{field: 1}), field) == 1

    def test_with_agt_entries(self):
        cfg = GPUConfig.k20c().with_agt_entries(512)
        assert cfg.agt_entries == 512
        assert GPUConfig.k20c().agt_entries == 1024  # original untouched

    def test_agt_sram_bytes(self):
        # Section 4.3: 1024 entries x 20 B = 20 KB.
        assert GPUConfig.k20c().agt_sram_bytes == 20 * 1024

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            GPUConfig.k20c().num_smx = 5  # type: ignore[misc]


class TestCoreSelection:
    """The two-way execution-core switch."""

    def test_default_resolves_to_fast(self):
        assert GPUConfig.k20c().core == "fast"

    def test_explicit_cores_resolve_to_themselves(self):
        for core in ("reference", "fast"):
            cfg = dataclasses.replace(GPUConfig.k20c(), core=core)
            assert cfg.core == core

    def test_unknown_core_rejected(self):
        # "vector" and None were valid before the selection collapsed to
        # one two-valued field; fast_core was the boolean before that.
        for core in ("warp-speed", "vector", None):
            with pytest.raises(ConfigError):
                dataclasses.replace(GPUConfig.k20c(), core=core)
        with pytest.raises(ConfigError):
            GPUConfig.from_dict({"fast_core": True})

    def test_default_and_explicit_fast_are_one_identity(self):
        # One behaviour, one cache key: the result cache and repro.serve
        # deduplicate on the JobSpec fingerprint.
        assert GPUConfig() == GPUConfig(core="fast")
        fps = [
            JobSpec.create("bht", ExecutionMode.FLAT, 0.1, 0.25, config=cfg).fingerprint()
            for cfg in (None, GPUConfig(core="fast"), GPUConfig(core="reference"))
        ]
        assert fps[0] == fps[1] != fps[2]


class TestFromDict:
    """Decoding a config: exact types, one shared instance per value."""

    @pytest.mark.parametrize("fields", [
        {"alu_latency": 10.0},       # ran, with float cycles
        {"num_smx": 13.0},           # failed in the worker
        {"agt_entries": 1024.0},     # a raw TypeError
        {"num_smx": True},
        {"dtbl_no_coalescing": 0},
        {"warp_scheduler": None},
        {"num_smx": [13]},
    ])
    def test_wrong_types_raise_config_error(self, fields):
        with pytest.raises(ConfigError, match=next(iter(fields))):
            GPUConfig.from_dict(fields)

    def test_not_a_dict_raises_config_error(self):
        with pytest.raises(ConfigError):
            GPUConfig.from_dict([("num_smx", 13)])

    def test_equal_dicts_give_one_instance(self):
        data = GPUConfig.small().to_dict()
        decoded = GPUConfig.from_dict(json.loads(json.dumps(data)))
        assert decoded == GPUConfig.small()
        assert GPUConfig.from_dict(dict(data)) is decoded
        assert GPUConfig.from_dict(dict(reversed(data.items()))) is decoded
        # Defaults left out: an equal config, the same instance.
        assert GPUConfig.from_dict({}) is GPUConfig.from_dict(GPUConfig().to_dict())

    def test_type_distinct_dicts_never_share_an_instance(self):
        plain = GPUConfig.from_dict({"dtbl_no_coalescing": False, "num_smx": 2})
        assert plain.num_smx == 2 and plain.dtbl_no_coalescing is False
        # Equal to the keys above under ==, rejected all the same.
        for fields in ({"dtbl_no_coalescing": 0, "num_smx": 2},
                       {"dtbl_no_coalescing": False, "num_smx": 2.0}):
            with pytest.raises(ConfigError):
                GPUConfig.from_dict(fields)

    def test_table_stays_bounded(self):
        limit = config_module._INTERN_LIMIT
        decoded = [
            GPUConfig.from_dict({"context_setup_cycles": 1000 + n})
            for n in range(2 * limit)
        ]
        assert len(config_module._INTERNED) <= limit
        assert [c.context_setup_cycles for c in decoded] == [
            1000 + n for n in range(2 * limit)
        ]
        # An evicted value decodes again, to an equal config.
        assert GPUConfig.from_dict({"context_setup_cycles": 1000}) == decoded[0]


class TestLatencyModelTable3:
    """Measured latencies must match the paper's Table 3."""

    def setup_method(self):
        self.lat = LatencyModel.measured_k20c()

    def test_stream_create(self):
        assert self.lat.stream_create == 7165

    def test_param_buffer_linear_model(self):
        # b = 8023, A = 129 per calling thread.
        assert self.lat.param_buffer_cycles(1) == 8023 + 129
        assert self.lat.param_buffer_cycles(32) == 8023 + 129 * 32

    def test_launch_device_linear_model(self):
        # b = 12187, A = 1592 per calling thread.
        assert self.lat.launch_device_cycles(1) == 12187 + 1592
        assert self.lat.launch_device_cycles(32) == 12187 + 1592 * 32

    def test_no_callers_is_free(self):
        assert self.lat.param_buffer_cycles(0) == 0
        assert self.lat.launch_device_cycles(0) == 0

    def test_kernel_dispatch(self):
        assert self.lat.kernel_dispatch == 283

    def test_kde_search_pipelined(self):
        assert self.lat.kde_search_cycles(32) == 32

    def test_ideal_is_all_zero(self):
        ideal = LatencyModel.ideal()
        assert ideal.stream_create == 0
        assert ideal.param_buffer_cycles(32) == 0
        assert ideal.launch_device_cycles(32) == 0
        assert ideal.kernel_dispatch == 0
        assert ideal.kde_search_cycles(32) == 0
        assert ideal.agt_probe == 0


class TestConstants:
    def test_warp_size(self):
        assert WARP_SIZE == 32

    def test_segment_geometry(self):
        assert SEGMENT_BYTES == 128
        assert WORD_BYTES == 8
        assert SEGMENT_WORDS == 16
