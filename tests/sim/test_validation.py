"""Post-run invariant checking across workload types."""

import pytest

from repro import Device, ExecutionMode, GPUConfig
from repro.config import CDP_PENDING_KERNEL_BYTES
from repro.errors import SimulationError
from repro.harness.claims import VARIANTS
from repro.sim.stats import LaunchKind, LaunchRecord
from repro.state import check_drained
from repro.workloads.amr import AmrWorkload
from repro.workloads.bfs import BfsWorkload
from repro.workloads.datasets import amr_grid, citation_network, join_tables
from repro.workloads.join import JoinWorkload


def run_and_check(workload, mode, latency_scale=0.25, config=None):
    device = Device(config=config, mode=mode, latency=mode.latency_model(latency_scale))
    for func in workload.build_kernels():
        device.register(func)
    workload.setup(device)
    workload.run(device)
    device.synchronize()
    workload.check(device)
    check_drained(device.gpu)
    return device.gpu.stats


class TestDrainInvariants:
    @pytest.mark.parametrize(
        "mode,latency_scale",
        [pytest.param(ExecutionMode.FLAT, 0.25, id="ExecutionMode.FLAT"),
         pytest.param(ExecutionMode.CDP, 0.25, id="ExecutionMode.CDP"),
         pytest.param(ExecutionMode.DTBL, 0.25, id="ExecutionMode.DTBL"),
         # DTBL at latency scale 0, under the id it had as the DTBLI mode.
         pytest.param(ExecutionMode.DTBL, 0, id="ExecutionMode.DTBL_IDEAL")],
    )
    def test_bfs_drains_cleanly(self, mode, latency_scale):
        graph = citation_network(n=200, attach=4)
        run_and_check(BfsWorkload("bfs", mode, graph), mode, latency_scale)

    def test_nested_amr_drains_cleanly(self):
        mode = ExecutionMode.DTBL
        run_and_check(AmrWorkload("amr", mode, amr_grid(side=10)), mode)

    @pytest.mark.parametrize("core", ["fast", "reference"])
    def test_uncoalesced_groups_drain_as_device_kernels(self, core):
        """Under the ``kde256`` variant's ``dtbl_no_coalescing`` every
        aggregated group falls back to a device kernel: each is recorded
        as one, with a KMU record's bytes, and all are released."""
        config = GPUConfig.from_dict({**VARIANTS["kde256"], "core": core})
        mode = ExecutionMode.DTBL
        graph = citation_network(n=200, attach=4)
        stats = run_and_check(BfsWorkload("bfs", mode, graph), mode, config=config)
        dynamic = stats.dynamic_launches()
        assert dynamic and stats.agg_matched == 0
        assert stats.agg_unmatched == len(dynamic)
        assert {r.kind for r in dynamic} == {LaunchKind.DEVICE_KERNEL}
        assert {r.record_bytes for r in dynamic} == {CDP_PENDING_KERNEL_BYTES}
        assert stats.footprint_bytes == 0
        assert stats.peak_footprint_bytes >= CDP_PENDING_KERNEL_BYTES

    def test_join_drains_cleanly(self):
        mode = ExecutionMode.CDP
        data = join_tables("gaussian", r_size=400, s_size=300)
        run_and_check(JoinWorkload("join", mode, data), mode, latency_scale=0)

    def test_detects_leaked_resources(self):
        # Manually corrupt the accounting: the checker must notice.
        device = Device()
        device.gpu.smxs[0].free_threads -= 32
        with pytest.raises(
            SimulationError,
            match=r"smxs\[0\]\.free_threads holds 2016; a drained machine has 2048",
        ):
            check_drained(device.gpu)

    def test_detects_unfinished_launch(self):
        device = Device()
        device.gpu.stats.launches.append(
            LaunchRecord(LaunchKind.DEVICE_KERNEL, "ghost", 0, 1, 32)
        )
        with pytest.raises(
            SimulationError, match=r"launch of 'ghost' \(device_kernel\) never completed"
        ):
            check_drained(device.gpu)

    def test_clean_device_passes(self):
        check_drained(Device().gpu)
