"""Post-run invariant checking across workload types."""

import pytest

from repro import Device, ExecutionMode
from repro.errors import SimulationError
from repro.state import check_drained
from repro.workloads.amr import AmrWorkload
from repro.workloads.bfs import BfsWorkload
from repro.workloads.datasets import amr_grid, citation_network, join_tables
from repro.workloads.join import JoinWorkload


def run_and_check(workload, mode):
    device = Device(mode=mode, latency=mode.latency_model(0.25))
    for func in workload.build_kernels():
        device.register(func)
    workload.setup(device)
    workload.run(device)
    device.synchronize()
    workload.check(device)
    check_drained(device.gpu)


class TestDrainInvariants:
    @pytest.mark.parametrize(
        "mode",
        [ExecutionMode.FLAT, ExecutionMode.CDP, ExecutionMode.DTBL,
         ExecutionMode.DTBL_IDEAL],
    )
    def test_bfs_drains_cleanly(self, mode):
        graph = citation_network(n=200, attach=4)
        run_and_check(BfsWorkload("bfs", mode, graph), mode)

    def test_nested_amr_drains_cleanly(self):
        mode = ExecutionMode.DTBL
        run_and_check(AmrWorkload("amr", mode, amr_grid(side=10)), mode)

    def test_join_drains_cleanly(self):
        mode = ExecutionMode.CDP_IDEAL
        data = join_tables("gaussian", r_size=400, s_size=300)
        run_and_check(JoinWorkload("join", mode, data), mode)

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
        from repro.sim.stats import LaunchKind, LaunchRecord

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
