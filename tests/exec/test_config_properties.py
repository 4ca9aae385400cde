"""Property tests: a GPUConfig decodes to itself, and only from exact types."""

import dataclasses
import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.config import (
    CORES, DRAM_CYCLE_FIELDS, L2_SET_BYTES, SEGMENT_BYTES, STRUCTURAL_FIELDS, WARP_SIZE,
    GPUConfig,
)
from repro.errors import ConfigError
from repro.exec import JobSpec
from repro.runtime import ExecutionMode

_FIELDS = {f.name: f for f in dataclasses.fields(GPUConfig)}

#: Fields whose validator admits only some values of their type.
_LEGAL = {
    "core": st.sampled_from(CORES),
    "warp_scheduler": st.sampled_from(("gto", "rr")),
    "max_resident_threads": st.integers(1, 256).map(lambda n: n * WARP_SIZE),
    "agt_entries": st.integers(0, 16).map(lambda bits: 1 << bits),
    "dram_row_bytes": st.integers(1, 2**32).map(lambda n: n * SEGMENT_BYTES),
    "l2_size": st.integers(1, 2**30).map(lambda n: n * L2_SET_BYTES),
    **dict.fromkeys(DRAM_CYCLE_FIELDS, st.integers(0, 2**40)),
}


def _legal(field: dataclasses.Field):
    if field.name in _LEGAL:
        return _LEGAL[field.name]
    if field.type == "bool":
        return st.booleans()
    return st.integers(1, 2**40)


configs = st.fixed_dictionaries(
    {}, optional={name: _legal(field) for name, field in _FIELDS.items()}
).map(lambda fields: GPUConfig(**fields))

_INT_FIELDS = sorted(name for name, f in _FIELDS.items() if f.type == "int")


def _job(config: GPUConfig) -> JobSpec:
    return JobSpec.create("bht", ExecutionMode.DTBL, 0.5, 0.25, config=config)


@given(configs)
def test_decode_of_encode_is_identity(config):
    decoded = GPUConfig.from_dict(json.loads(json.dumps(config.to_dict())))
    assert decoded == config
    assert GPUConfig.from_dict(config.to_dict()) is decoded
    assert _job(decoded).fingerprint() == _job(config).fingerprint()
    wire = JobSpec.from_dict(json.loads(json.dumps(_job(config).to_dict())))
    assert wire.config is decoded
    assert wire.fingerprint() == _job(config).fingerprint()


@given(configs, st.sampled_from(_INT_FIELDS), st.sampled_from((float, bool)))
def test_an_int_field_takes_no_float_or_bool(config, name, cast):
    data = config.to_dict()
    GPUConfig.from_dict(data)  # the exact-typed dict is interned first
    data[name] = cast(data[name])
    with pytest.raises(ConfigError, match=name):
        GPUConfig.from_dict(data)


@given(configs, st.sampled_from(STRUCTURAL_FIELDS), st.integers(-(2**40), 0))
def test_a_non_positive_structural_field_raises(config, name, value):
    data = config.to_dict()
    data[name] = value
    with pytest.raises(ConfigError, match=name):
        GPUConfig.from_dict(data)
    with pytest.raises(ConfigError, match=name):
        dataclasses.replace(config, **{name: value})


@given(configs, st.sampled_from(DRAM_CYCLE_FIELDS), st.integers(-(2**40), -1))
def test_a_negative_dram_cycle_count_raises(config, name, value):
    data = config.to_dict()
    data[name] = value
    with pytest.raises(ConfigError, match=name):
        GPUConfig.from_dict(data)


@given(configs, st.integers(-(2**40), 2**40).filter(lambda n: n < 1 or n % SEGMENT_BYTES))
def test_a_dram_row_of_partial_segments_raises(config, row_bytes):
    data = config.to_dict()
    data["dram_row_bytes"] = row_bytes
    with pytest.raises(ConfigError, match="dram_row_bytes"):
        GPUConfig.from_dict(data)


@given(configs, st.integers(1, 2**40).filter(lambda n: n % L2_SET_BYTES))
def test_an_l2_of_partial_sets_raises(config, l2_size):
    data = config.to_dict()
    data["l2_size"] = l2_size
    with pytest.raises(ConfigError, match="l2_size"):
        GPUConfig.from_dict(data)
