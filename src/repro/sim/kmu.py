"""The Kernel Management Unit (KMU).

The KMU inspects the HWQ heads and the queue of device-launched kernels
and dispatches them — one at a time, each taking the kernel-dispatch
latency (Table 3: 283 cycles) — into free Kernel Distributor entries.
Device-side launches (CDP, or DTBL fall-back launches when no eligible
kernel exists) arrive through :meth:`launch_device`.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Deque, Optional

from .hwq import HostLaunchSpec, HostQueues
from .stats import LaunchKind

if TYPE_CHECKING:  # pragma: no cover
    from .gpu import GPU


class DeviceLaunchSpec:
    """A device-launched kernel pending in the KMU."""

    __slots__ = ("kernel_name", "grid_dims", "block_dims", "param_addr", "record")
    STATE = (
        ("kernel_name", "arg:value"),
        ("grid_dims", "arg:value"),
        ("block_dims", "arg:value"),
        ("param_addr", "arg:value"),
        ("record", "arg:record"),
    )
    NOT_STATE = ()

    def __init__(self, kernel_name, grid_dims, block_dims, param_addr, record):
        self.kernel_name = kernel_name
        self.grid_dims = grid_dims
        self.block_dims = block_dims
        self.param_addr = param_addr
        self.record = record


class KernelManagementUnit:
    """Dispatches pending kernels into the Kernel Distributor."""

    STATE = (
        ("host_queues", HostQueues),
        ("device_pending", [DeviceLaunchSpec], 0),
        ("_busy_until", "value"),
        ("_dispatch_scheduled", "value"),
        ("_reserved_entries", "value"),
    )
    NOT_STATE = ("_gpu",)  # wiring

    def __init__(self, gpu: "GPU") -> None:
        self._gpu = gpu
        self.host_queues = HostQueues(gpu.config.max_concurrent_kernels)
        self.device_pending: Deque[DeviceLaunchSpec] = deque()
        self._busy_until = 0
        self._dispatch_scheduled = False
        #: KDE entries promised to in-flight dispatch activations.
        self._reserved_entries = 0

    # ------------------------------------------------------------------
    @property
    def pending_count(self) -> int:
        host = sum(len(hwq.pending) for hwq in self.host_queues.hwqs)
        return host + len(self.device_pending)

    def enqueue_host(self, spec: HostLaunchSpec) -> None:
        self.host_queues.enqueue(spec)
        self.try_dispatch(self._gpu.cycle)

    def launch_device(
        self, kernel_name: str, grid_dims, block_dims, param_addr: int, cycle: int
    ) -> None:
        """A device-launched kernel (CDP, or a DTBL group with no eligible
        kernel): record it, charge its pending footprint, queue it."""
        gpu = self._gpu
        record = gpu.stats.open_launch(
            LaunchKind.DEVICE_KERNEL, kernel_name, cycle, grid_dims, block_dims,
            gpu.runtime.param_bytes_for(param_addr),
        )
        self.device_pending.append(
            DeviceLaunchSpec(kernel_name, grid_dims, block_dims, param_addr, record)
        )
        self.try_dispatch(gpu.cycle)

    # ------------------------------------------------------------------
    def _kde_available(self) -> bool:
        distributor = self._gpu.distributor
        return distributor.occupied + self._reserved_entries < distributor.num_entries

    def try_dispatch(self, cycle: int) -> None:
        """Dispatch as many pending kernels as latency and KDE space allow."""
        gpu = self._gpu
        latency = gpu.latency.kernel_dispatch
        while self._kde_available():
            if cycle < self._busy_until:
                self._schedule_retry(self._busy_until)
                return
            spec = self._pick_next()
            if spec is None:
                return
            if latency:
                self._busy_until = cycle + latency
                # Reserve the KDE entry now: other dispatch decisions made
                # before this activation lands must not count on it.
                self._reserved_entries += 1
                gpu.schedule_event(
                    self._busy_until, kind="kmu_activate", payload=spec
                )
                # Serialize: the next dispatch begins after this one lands.
                self._schedule_retry(self._busy_until)
                return
            self._activate(spec, cycle)

    def _pick_next(self):
        # Device-launched (and suspended) kernels and host HWQ heads are
        # dispatched in arrival order; we alternate with device first since
        # dynamic launches are latency-critical for the paper's workloads.
        if self.device_pending:
            spec = self.device_pending.popleft()
            return spec
        host = self.host_queues.next_dispatchable()
        if host is not None:
            self.host_queues.mark_dispatched(host)
            return host
        return None

    def _make_activator(self, spec):
        def activate(cycle: int) -> None:
            self._reserved_entries -= 1
            self._activate(spec, cycle)

        return activate

    def _activate(self, spec, cycle: int) -> None:
        gpu = self._gpu
        func = gpu.kernels[spec.kernel_name]
        if isinstance(spec, HostLaunchSpec):
            record = gpu.stats.open_launch(
                LaunchKind.HOST_KERNEL, spec.kernel_name, cycle,
                spec.grid_dims, spec.block_dims,
            )
            spec.record = record
            stream_id: Optional[int] = spec.stream_id
        else:
            record = spec.record
            stream_id = None
        entry = gpu.distributor.allocate(
            func, spec.grid_dims, spec.block_dims, spec.param_addr, record, stream_id
        )
        gpu.scheduler.mark(entry, cycle)

    def _make_retry(self):
        def retry(when: int) -> None:
            self._dispatch_scheduled = False
            self.try_dispatch(when)

        return retry

    def _schedule_retry(self, cycle: int) -> None:
        if not self._dispatch_scheduled:
            self._dispatch_scheduled = True
            self._gpu.schedule_event(cycle, kind="kmu_retry")
