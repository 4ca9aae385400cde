"""Software streams and Hardware Work Queues (HWQs).

Host-launched kernels are submitted through software streams (CUDA
streams); streams map onto a fixed number of HWQs (Hyper-Q, 32 on GK110).
Kernels in one stream execute in order: once a stream's head kernel is
dispatched, the KMU stops inspecting that queue until the head completes
(Section 2.2).  If there are more streams than HWQs, streams share a HWQ
and are serialized against each other.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional


class HostLaunchSpec:
    """A host-side kernel launch queued in a stream.

    ``record`` is filled in by the KMU at dispatch time with the launch's
    :class:`~repro.sim.stats.LaunchRecord`, which backs the host API's
    :class:`~repro.runtime.host_api.Event` handles.
    """

    __slots__ = (
        "kernel_name", "grid_dims", "block_dims", "param_addr", "stream_id",
        "record", "seq",
    )

    def __init__(self, kernel_name, grid_dims, block_dims, param_addr, stream_id):
        self.kernel_name = kernel_name
        self.grid_dims = grid_dims
        self.block_dims = block_dims
        self.param_addr = param_addr
        self.stream_id = stream_id
        self.record = None
        #: Monotonic id assigned by :meth:`repro.sim.gpu.GPU.host_launch`;
        #: checkpoints use it to re-identify the spec after a restore.
        self.seq = -1


class HardwareWorkQueue:
    """One HWQ: a FIFO of launches from the streams mapped onto it."""

    __slots__ = ("index", "pending", "head_inflight")
    STATE = (("pending", ["spec"], 0), ("head_inflight", "value", False))
    NOT_STATE = ("index",)  # position in HostQueues.hwqs

    def __init__(self, index: int) -> None:
        self.index = index
        self.pending: Deque[HostLaunchSpec] = deque()
        #: True while the dispatched head kernel has not completed.
        self.head_inflight = False

    @property
    def inspectable(self) -> bool:
        return bool(self.pending) and not self.head_inflight


class HostQueues:
    """Maps software streams to HWQs and feeds the KMU."""

    STATE = (
        ("hwqs", [HardwareWorkQueue]),
        ("_stream_to_hwq", "copy"),
        ("_next_stream", "value"),
    )
    NOT_STATE = ("num_hwq",)  # geometry

    def __init__(self, num_hwq: int) -> None:
        self.num_hwq = num_hwq
        self.hwqs: List[HardwareWorkQueue] = [
            HardwareWorkQueue(i) for i in range(num_hwq)
        ]
        self._stream_to_hwq: Dict[int, int] = {}
        self._next_stream = 0

    def create_stream(self) -> int:
        stream_id = self._next_stream
        self._next_stream += 1
        # Streams map round-robin onto HWQs; excess streams serialize.
        self._stream_to_hwq[stream_id] = stream_id % self.num_hwq
        return stream_id

    def hwq_for_stream(self, stream_id: int) -> HardwareWorkQueue:
        if stream_id not in self._stream_to_hwq:
            self._stream_to_hwq[stream_id] = stream_id % self.num_hwq
        return self.hwqs[self._stream_to_hwq[stream_id]]

    def enqueue(self, spec: HostLaunchSpec) -> None:
        self.hwq_for_stream(spec.stream_id).pending.append(spec)

    def next_dispatchable(self) -> Optional[HostLaunchSpec]:
        """Head kernel of the first inspectable HWQ, if any."""
        for hwq in self.hwqs:
            if hwq.inspectable:
                return hwq.pending[0]
        return None

    def mark_dispatched(self, spec: HostLaunchSpec) -> None:
        hwq = self.hwq_for_stream(spec.stream_id)
        assert hwq.pending and hwq.pending[0] is spec
        hwq.pending.popleft()
        hwq.head_inflight = True

    def head_completed(self, stream_id: Optional[int]) -> None:
        """Called when a host kernel finishes; re-opens its HWQ."""
        if stream_id is None:
            return
        self.hwq_for_stream(stream_id).head_inflight = False
