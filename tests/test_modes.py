"""Execution-mode semantics."""

import dataclasses
import functools

import pytest

from repro.config import GPUConfig, LatencyModel
from repro.runtime import ExecutionMode
from repro.workloads import BENCHMARKS, get_benchmark


class TestModes:
    def test_mode_classification(self):
        assert ExecutionMode.CDP.uses_cdp
        assert ExecutionMode.DTBL.uses_dtbl
        assert not ExecutionMode.FLAT.uses_cdp
        assert not ExecutionMode.FLAT.uses_dtbl

    def test_dynamic_flag(self):
        assert not ExecutionMode.FLAT.is_dynamic
        assert all(
            mode.is_dynamic for mode in ExecutionMode if mode is not ExecutionMode.FLAT
        )

    def test_ideal_flag(self):
        """The paper's CDPI / DTBLI are a latency scale, not modes."""
        for mode in (ExecutionMode.CDP, ExecutionMode.DTBL):
            assert mode.latency_model(0) == LatencyModel.ideal()
            assert mode.latency_model(0.0) == LatencyModel.ideal()
        assert {m.value for m in ExecutionMode}.isdisjoint({"cdpi", "dtbli"})

    def test_latency_models(self):
        assert ExecutionMode.CDP.latency_model() == LatencyModel.measured_k20c()
        assert ExecutionMode.DTBL.latency_model(1.0) == LatencyModel.measured_k20c()

    def test_latency_scaling(self):
        scaled = ExecutionMode.CDP.latency_model(scale=0.5)
        full = LatencyModel.measured_k20c()
        assert scaled.launch_device_base == round(full.launch_device_base * 0.5)
        assert scaled.kde_search_per_entry == full.kde_search_per_entry  # unscaled

    def test_ideal_ignores_scale(self):
        """Scale 0 is ``LatencyModel.ideal()`` exactly: unlike ``scaled``,
        it zeros the architectural KDE search and AGT probe costs too."""
        ideal = ExecutionMode.DTBL.latency_model(scale=0)
        assert ideal.kde_search_per_entry == ideal.agt_probe == 0
        tiny = ExecutionMode.DTBL.latency_model(scale=1e-9)
        assert tiny.launch_device_base == 0 and tiny.kde_search_per_entry == 1

    def test_parse(self):
        assert ExecutionMode.parse("cdpa") is ExecutionMode.CDP_AGG
        assert ExecutionMode.parse("CONS") is ExecutionMode.CONSOLIDATED
        assert ExecutionMode.parse("DTBL") is ExecutionMode.DTBL
        # The paper's ideal configurations are refused with their flags.
        for name, mode in (("CDPI", "cdp"), ("dtbli", "dtbl")):
            with pytest.raises(ValueError, match=f"--mode {mode} --latency-scale 0"):
                ExecutionMode.parse(name)

    def test_parse_error_lists_valid_modes(self):
        with pytest.raises(ValueError) as excinfo:
            ExecutionMode.parse("warp-speed")
        message = str(excinfo.value)
        assert "warp-speed" in message
        for mode in ExecutionMode:
            assert mode.value in message

    def test_compiler_optimized_flag(self):
        assert ExecutionMode.CDP_AGG.compiler_optimized
        assert ExecutionMode.CONSOLIDATED.compiler_optimized
        assert not ExecutionMode.CDP.compiler_optimized
        # The optimized modes build from the CDP kernel shape and run on
        # the measured CDP launch latencies.
        assert ExecutionMode.CDP_AGG.uses_cdp
        assert ExecutionMode.CONSOLIDATED.uses_cdp
        assert ExecutionMode.CDP_AGG.latency_model() == LatencyModel.measured_k20c()

    def test_comparison_order_covers_every_mode_once(self):
        order = ExecutionMode.comparison_order()
        assert order[0] is ExecutionMode.FLAT
        assert sorted(m.value for m in order) == sorted(
            m.value for m in ExecutionMode
        )

    def test_scale_validation(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            LatencyModel.measured_k20c().scaled(0)


class TestPersistentModes:
    """Classification of the persistent task-parallel scheduler modes."""

    def test_persistent_flag(self):
        assert ExecutionMode.PERSISTENT.persistent
        assert ExecutionMode.PERSISTENT_ASYNC.persistent
        assert not any(
            m.persistent
            for m in ExecutionMode
            if m not in (ExecutionMode.PERSISTENT, ExecutionMode.PERSISTENT_ASYNC)
        )

    def test_persistent_builds_from_the_cdp_kernel_shape(self):
        # The workloads build their canonical CDP launch sites; the
        # persist rewrite turns those sites into queue pushes.
        assert ExecutionMode.PERSISTENT.uses_cdp
        assert ExecutionMode.PERSISTENT_ASYNC.uses_cdp
        assert not ExecutionMode.PERSISTENT.uses_dtbl
        assert not ExecutionMode.PERSISTENT.compiler_optimized
        assert not ExecutionMode.PERSISTENT_ASYNC.compiler_optimized
        assert ExecutionMode.PERSISTENT.is_dynamic

    def test_persistent_latency_model_is_measured(self):
        assert (
            ExecutionMode.PERSISTENT.latency_model()
            == LatencyModel.measured_k20c()
        )

    def test_parse_round_trip(self):
        for mode in (ExecutionMode.PERSISTENT, ExecutionMode.PERSISTENT_ASYNC):
            assert ExecutionMode.parse(mode.value) is mode

    def test_comparison_order_has_seven_modes(self):
        order = ExecutionMode.comparison_order()
        assert len(order) == 7
        assert order[-2:] == (
            ExecutionMode.PERSISTENT,
            ExecutionMode.PERSISTENT_ASYNC,
        )


class TestPersistentEquivalence:
    """The mode-equivalence net: persistent scheduling must reproduce the
    flat results bit for bit on every workload (``verify=True`` checks
    the device output against the same pure-Python reference every other
    mode is held to), leave the task queue drained, and agree exactly
    across both execution cores."""

    SCALE = 0.05
    LATENCY_SCALE = 0.25

    @pytest.mark.parametrize("mode_name", ["persistent", "persistent-async"])
    @pytest.mark.parametrize("bench", sorted(BENCHMARKS))
    def test_every_workload_matches_flat(self, bench, mode_name):
        wl = get_benchmark(bench, ExecutionMode.parse(mode_name), scale=self.SCALE)
        result = wl.execute(latency_scale=self.LATENCY_SCALE)
        assert result.cycles > 0

    @pytest.mark.parametrize(
        "bench,mode_name",
        [
            ("bfs_citation", "persistent"),
            ("bfs_citation", "persistent-async"),
            ("bht", "persistent"),
        ],
    )
    def test_cores_agree_exactly(self, bench, mode_name):
        stats = {}
        for core in ("reference", "fast"):
            config = dataclasses.replace(GPUConfig.k20c(), core=core)
            wl = get_benchmark(
                bench, ExecutionMode.parse(mode_name), scale=self.SCALE
            )
            data = wl.execute(
                config=config, latency_scale=self.LATENCY_SCALE
            ).stats.to_dict()
            data.pop("config")  # records the core name itself
            stats[core] = data
        assert stats["reference"] == stats["fast"]


@functools.lru_cache(maxsize=None)
def _sanitized_run(bench: str, mode: ExecutionMode, scale: float,
                   latency_scale: float = 0.25):
    """One verified, sanitized run's ``SimStats`` (outputs equal the host
    reference, the task queue drains, the sanitizer stays clean)."""
    config = dataclasses.replace(GPUConfig.k20c(), sanitize=True)
    stats = get_benchmark(bench, mode, scale).execute(
        config=config, latency_scale=latency_scale, verify=True
    ).stats
    assert stats.cycles > 0
    return stats


class TestModeOrderings:
    """The orderings the seven modes promise, on whole verified and
    sanitized jobs: the full grid on ``bfs_cage15`` at a scale where its
    DFP thresholds fire, and the persistent sweep on two more benchmarks.
    The persistent modes spin on branches and atomics."""

    PERSISTENT = [("bfs_cage15", 0.2), ("sssp_citation", 0.1), ("bht", 0.1)]

    def grid(self, mode, *latency_scale):
        return _sanitized_run("bfs_cage15", mode, 0.2, *latency_scale)

    def launches(self, mode):
        return len(self.grid(mode).dynamic_launches())

    def test_flat_makes_no_launches_and_cdp_some(self):
        assert self.launches(ExecutionMode.FLAT) == 0
        assert self.launches(ExecutionMode.CDP) > 0

    @pytest.mark.parametrize(
        "mode", [ExecutionMode.CDP, ExecutionMode.DTBL], ids=["cdp", "dtbl"]
    )
    def test_ideal_is_no_slower_than_measured(self, mode):
        assert self.grid(mode, 0).cycles <= self.grid(mode).cycles

    @pytest.mark.parametrize(
        "mode", [ExecutionMode.CDP_AGG, ExecutionMode.CONSOLIDATED], ids=["cdpa", "cons"]
    )
    def test_compiler_modes_make_no_more_launches_than_cdp(self, mode):
        assert self.launches(mode) <= self.launches(ExecutionMode.CDP)

    def test_cons_uses_no_more_blocks_than_cdpa(self):
        def blocks(mode):
            return sum(r.total_blocks for r in self.grid(mode).dynamic_launches())

        assert blocks(ExecutionMode.CONSOLIDATED) <= blocks(ExecutionMode.CDP_AGG)

    @pytest.mark.parametrize("mode", [ExecutionMode.PERSISTENT, ExecutionMode.PERSISTENT_ASYNC],
                             ids=lambda mode: mode.value)
    @pytest.mark.parametrize("bench,scale", PERSISTENT, ids=[b for b, _ in PERSISTENT])
    def test_persistent_modes_launch_nothing_and_issue_more_than_flat(self, bench, scale, mode):
        """Every launch site became a queue push, and the software
        scheduler (polls, claim CAS, publish and finish atomics) costs
        instructions."""
        stats = _sanitized_run(bench, mode, scale)
        assert len(stats.dynamic_launches()) == 0
        flat = _sanitized_run(bench, ExecutionMode.FLAT, scale)
        assert stats.issued_instructions > flat.issued_instructions
