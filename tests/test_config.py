"""Tests for the Table 2 / Table 3 configuration objects."""

import dataclasses
import json

import pytest

from repro import config as config_module
from repro.config import (
    L1_SIZE,
    L2_SET_BYTES,
    MEMORY_CLOCK_MHZ,
    SEGMENT_BYTES,
    SEGMENT_WORDS,
    SHARED_MEM_SIZE,
    SMX_CLOCK_MHZ,
    WARP_SIZE,
    WORD_BYTES,
    GPUConfig,
    LatencyModel,
)
from repro.errors import ConfigError
from repro.exec import JobSpec
from repro.runtime import ExecutionMode


#: The machine parameters that are :mod:`repro.config` constants, not
#: :class:`GPUConfig` fields, by their former field names.
FIXED = {
    "smx_clock_mhz": 706, "memory_clock_mhz": 2600, "l1_size": 16 * 1024,
    "shared_mem_size": 48 * 1024, "issue_width": 4, "alu_latency": 10,
    "sfu_latency": 20, "shared_latency": 30, "shared_banks": 32,
    "l1_hit_latency": 35, "l1_assoc": 4, "max_local_words": 64,
    "barrier_latency": 5, "l2_assoc": 8, "l2_hit_latency": 120,
    "context_setup_cycles": 40, "agt_entry_bytes": 20,
    "dtbl_register_bytes": 1096, "cdp_pending_kernel_bytes": 2048,
    "dtbl_pending_group_bytes": 256,
}
PIPELINE_LATENCIES = (
    "alu_latency", "sfu_latency", "shared_latency", "l1_hit_latency", "l2_hit_latency",
)
DRAM_CYCLES = (
    "dram_base_latency", "dram_bus_cycles", "dram_row_hit_cycles",
    "dram_row_miss_cycles", "dram_hit_latency", "dram_miss_latency",
)


class TestGPUConfigTable2:
    """The k20c() configuration and the fixed parameters must match the
    paper's Table 2 exactly."""

    def setup_method(self):
        self.cfg = GPUConfig.k20c()

    def test_smx_clock(self):
        assert SMX_CLOCK_MHZ == 706

    def test_memory_clock(self):
        assert MEMORY_CLOCK_MHZ == 2600

    def test_num_smx(self):
        assert self.cfg.num_smx == 13

    def test_max_resident_blocks(self):
        assert self.cfg.max_resident_blocks == 16

    def test_max_resident_threads(self):
        assert self.cfg.max_resident_threads == 2048

    def test_registers(self):
        assert self.cfg.registers_per_smx == 65536

    def test_l1_and_shared(self):
        assert L1_SIZE == 16 * 1024
        assert SHARED_MEM_SIZE == 48 * 1024

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
        "agt_entries", "l2_size",
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

    @pytest.mark.parametrize("field", PIPELINE_LATENCIES)
    def test_pipeline_latency_below_one_cycle_rejected(self, field):
        # Run-ahead relies on every pipeline latency being a cycle or
        # more: a property of the constants, which no config can change.
        assert getattr(config_module, field.upper()) >= 1
        for value in (0, -1):
            with pytest.raises(ConfigError, match=field):
                GPUConfig.from_dict({field: value})

    @pytest.mark.parametrize("field", DRAM_CYCLES)
    def test_negative_dram_cycles_rejected(self, field):
        # A negative data-return latency returned DRAM data before it was
        # requested; the daemon must answer 400 for it.
        with pytest.raises(ConfigError, match=field):
            GPUConfig.from_dict({field: -3})
        assert getattr(GPUConfig.from_dict({field: 0}), field) == 0

    @pytest.mark.parametrize("row_bytes", [0, -128, 100, 2050])
    def test_dram_row_must_be_whole_segments(self, row_bytes):
        # 0 and 100 used to run as one 128-byte segment per row.
        with pytest.raises(ConfigError, match="dram_row_bytes"):
            GPUConfig.from_dict({"dram_row_bytes": row_bytes})
        assert GPUConfig(dram_row_bytes=SEGMENT_BYTES).dram_row_bytes == SEGMENT_BYTES

    @pytest.mark.parametrize("l2_size", [1000, 1100, 96 * 1024 + SEGMENT_BYTES])
    def test_l2_must_be_whole_sets(self, l2_size):
        # 1000 bytes used to pass here and fail in the worker, when the
        # L2 found its lines did not divide evenly into sets.
        with pytest.raises(ConfigError, match="l2_size"):
            GPUConfig.from_dict({"l2_size": l2_size})
        assert GPUConfig(l2_size=L2_SET_BYTES).l2_size == L2_SET_BYTES

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
        {"dram_hit_latency": 20.0},  # ran, with float cycles
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

    @pytest.fixture
    def cleared(self):
        config_module._decoded.cache_clear()
        config_module._shared.cache_clear()
        return config_module._decoded

    def test_table_stays_bounded(self, cleared):
        limit = cleared.cache_info().maxsize
        decoded = [
            GPUConfig.from_dict({"dram_base_latency": 1000 + n})
            for n in range(2 * limit)
        ]
        assert cleared.cache_info().currsize == limit
        assert cleared.cache_info().misses == 2 * limit
        assert [c.dram_base_latency for c in decoded] == [
            1000 + n for n in range(2 * limit)
        ]
        # An evicted value decodes again, to an equal config.
        assert GPUConfig.from_dict({"dram_base_latency": 1000}) == decoded[0]
        assert cleared.cache_info().misses == 2 * limit + 1

    def test_a_refused_dict_is_not_kept(self, cleared):
        for _ in range(2):
            with pytest.raises(ConfigError, match="num_smx"):
                GPUConfig.from_dict({"num_smx": 0})
        assert cleared.cache_info().currsize == 0
        assert cleared.cache_info().misses == 2


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
    def test_fixed_parameters_keep_their_values(self):
        # The values the removed GPUConfig fields defaulted to.
        assert {name: getattr(config_module, name.upper()) for name in FIXED} == FIXED

    @pytest.mark.parametrize("field", sorted(FIXED) + ["l2_line"])
    def test_removed_fields_are_refused(self, field):
        with pytest.raises(ConfigError, match=field):
            GPUConfig.from_dict({field: FIXED.get(field, SEGMENT_BYTES)})

    def test_warp_size(self):
        assert WARP_SIZE == 32

    def test_segment_geometry(self):
        assert SEGMENT_BYTES == 128
        assert WORD_BYTES == 8
        assert SEGMENT_WORDS == 16
