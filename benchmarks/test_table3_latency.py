"""Table 3 on the launch path: one hand-built launch through the simulator
is charged what the latency model says (the values themselves are the
``table3.latency`` claim row)."""

from repro import Device, ExecutionMode, KernelBuilder, KernelFunction
from repro.config import LatencyModel


def _one_thread_launch_kernel(use_dtbl: bool) -> KernelFunction:
    k = KernelBuilder("parent")
    tid = k.tid()
    param = k.param()
    with k.if_(k.eq(tid, 0)):
        buf = k.get_param_buffer(1)
        k.st(buf, k.ld(param, offset=0), offset=0)
        if use_dtbl:
            k.launch_agg("noop", buf, agg=1, block=32)
        else:
            k.stream_create()
            k.launch_device("noop", buf, grid=1, block=32)
    k.exit()
    return KernelFunction("parent", k.build())


def _noop_child() -> KernelFunction:
    k = KernelBuilder("noop")
    k.exit()
    return KernelFunction("noop", k.build())


def _single_launch_cycles(mode: ExecutionMode) -> int:
    dev = Device(mode=mode)
    dev.register(_noop_child())
    dev.register(_one_thread_launch_kernel(mode.uses_dtbl))
    out = dev.alloc(1)
    dev.launch("parent", grid=1, block=32, params=[out])
    return dev.synchronize().cycles


def test_cdp_launch_path_charges_table3():
    """One CDP launch must cost at least stream + param + launch + dispatch."""
    lat = LatencyModel.measured_k20c()
    floor = (
        lat.stream_create
        + lat.param_buffer_cycles(1)
        + lat.launch_device_cycles(1)
        + lat.kernel_dispatch
    )
    assert _single_launch_cycles(ExecutionMode.CDP) >= floor


def test_dtbl_launch_path_is_cheaper():
    """The DTBL launch path must beat CDP's by roughly the Table 3 gap."""
    lat = LatencyModel.measured_k20c()
    gap = (_single_launch_cycles(ExecutionMode.CDP)
           - _single_launch_cycles(ExecutionMode.DTBL))
    # stream_create + cudaLaunchDevice are CDP-only costs.
    assert gap >= lat.stream_create
