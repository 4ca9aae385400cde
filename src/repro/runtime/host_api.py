"""The user-facing Device API.

A :class:`Device` wraps one :class:`~repro.sim.gpu.GPU` instance with a
CUDA-runtime-shaped host interface: memory allocation (:class:`DeviceArray`
handles that round-trip dtype and shape), :class:`Stream` objects with
per-stream launch/synchronize, kernel launches returning :class:`Event`
handles, and device-wide synchronization.

Example
-------
::

    from repro import Device, ExecutionMode

    with Device(mode=ExecutionMode.DTBL) as dev:
        dev.register(my_kernel_function)
        data = dev.upload(np.arange(1024))
        out = dev.alloc(1024)
        evt = dev.launch("my_kernel", grid=4, block=256, params=[data, out, 1024])
        evt.wait()
        print(evt.elapsed_cycles(), out.download()[:8])

:class:`DeviceArray` and :class:`Event` subclass :class:`int` (the device
address / the parameter-buffer address), so code written against the old
address-passing API keeps working unchanged.
"""

from __future__ import annotations

import operator
from typing import Optional, Sequence, Union

import numpy as np

import dataclasses

from ..config import GPUConfig, LatencyModel
from ..errors import ConfigError, DeviceError, MemoryError_, SimulationError
from ..sim.gpu import GPU
from ..sim.kernel import KernelFunction
from ..sim.sanitizer import SanitizerReport
from ..sim.stats import SimStats
from .modes import ExecutionMode

#: Default watchdog for synchronize()/wait().
DEFAULT_MAX_CYCLES = 200_000_000


class DeviceArray(int):
    """A device allocation: an :class:`int` address plus dtype and shape.

    Behaves exactly like the raw word address in arithmetic and kernel
    parameters (it *is* the address), while :meth:`download` restores the
    uploaded array's dtype and shape without the caller re-supplying word
    counts.
    """

    # int subclasses cannot carry __slots__; attributes live in __dict__.

    def __new__(cls, addr, device, shape, dtype, words):
        self = super().__new__(cls, addr)
        self._device = device
        self.shape = tuple(shape)
        self.dtype = np.dtype(dtype)
        self.words = int(words)
        return self

    @property
    def addr(self) -> int:
        """The base word address of the allocation."""
        return int(self)

    @property
    def size(self) -> int:
        """Number of elements (== words; one element per 8-byte word)."""
        return self.words

    def download(self) -> np.ndarray:
        """Copy back to the host, restoring dtype and shape.

        Raises :class:`~repro.errors.MemoryError_` once the array has been
        passed to :meth:`Device.free`.
        """
        if getattr(self, "_freed", False):
            raise MemoryError_(
                f"download() of freed DeviceArray at address {int(self)}"
            )
        memory = self._device._memory()
        if np.issubdtype(self.dtype, np.floating):
            flat = memory.read_floats(self.addr, self.words)
        else:
            flat = memory.read_ints(self.addr, self.words)
        return flat.astype(self.dtype, copy=False).reshape(self.shape)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DeviceArray(addr={int(self)}, shape={self.shape}, "
            f"dtype={self.dtype})"
        )


class Event(int):
    """Handle for one host kernel launch (cudaEvent-flavoured).

    Subclasses :class:`int` with the launch's parameter-buffer address —
    the old :meth:`Device.launch` return value — so existing callers that
    treated the result as an address are unaffected.
    """

    def __new__(cls, device, spec):
        self = super().__new__(cls, spec.param_addr)
        self._device = device
        self._spec = spec
        return self

    @property
    def record(self):
        """The :class:`~repro.sim.stats.LaunchRecord`, once dispatched."""
        return self._spec.record

    @property
    def done(self) -> bool:
        """True once the launch has fully completed."""
        record = self._spec.record
        return record is not None and record.completed_cycle is not None

    def wait(self, max_cycles: Optional[int] = DEFAULT_MAX_CYCLES) -> "Event":
        """Run the simulation until this launch completes (cudaEventSynchronize).

        The host API is synchronous, so this drains the whole device — the
        same as :meth:`Device.synchronize` — but returns ``self`` for
        chaining and asserts this particular launch finished.
        """
        if not self.done:
            self._device.synchronize(max_cycles=max_cycles)
        if not self.done:
            raise SimulationError(
                f"launch of {self._spec.kernel_name!r} did not complete"
            )
        return self

    def elapsed_cycles(self) -> int:
        """Cycles from enqueue-side dispatch to completion of this launch."""
        record = self._spec.record
        if record is None or record.completed_cycle is None:
            raise SimulationError(
                f"launch of {self._spec.kernel_name!r} has not completed; "
                "call .wait() or Device.synchronize() first"
            )
        return record.completed_cycle - record.launch_cycle

    def sanitizer_report(self) -> SanitizerReport:
        """Sanitizer findings whose cycle falls in this launch's window.

        The window is [launch cycle, completion cycle] (open-ended while
        the launch is in flight), so findings from other launches running
        concurrently in that interval are included too — per-launch
        attribution finer than a cycle window would require tracking which
        KDE entry each block came from.  Requires ``Device(sanitize=True)``.
        """
        san = self._device.gpu.sanitizer
        if san is None:
            raise ConfigError(
                "sanitizer is not enabled; create the device with "
                "Device(sanitize=True) or GPUConfig(sanitize=True)"
            )
        record = self._spec.record
        if record is None:
            return san.report
        window = SanitizerReport()
        hi = record.completed_cycle
        for finding in san.report.findings:
            if finding.cycle >= record.launch_cycle and (
                hi is None or finding.cycle <= hi
            ):
                window.add(finding)
        return window


class Stream:
    """A software stream (cudaStream): launches in one stream serialize."""

    __slots__ = ("_device", "id")

    def __init__(self, device: "Device", stream_id: int) -> None:
        self._device = device
        self.id = int(stream_id)

    def launch(
        self,
        kernel_name: str,
        grid,
        block,
        params: Sequence[Union[int, float]] = (),
    ) -> Event:
        """Launch a kernel into this stream; returns its :class:`Event`."""
        return self._device.launch(kernel_name, grid, block, params, stream=self)

    def synchronize(self, max_cycles: Optional[int] = DEFAULT_MAX_CYCLES) -> SimStats:
        """Drain this stream (the synchronous host API drains the device)."""
        return self._device.synchronize(max_cycles=max_cycles)

    def __int__(self) -> int:
        return self.id

    def __index__(self) -> int:
        return self.id

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Stream(id={self.id})"


class Device:
    """A simulated GPU device with a host-API surface.

    Usable as a context manager: ``with Device(...) as dev: ...`` closes the
    device on exit, after which further operations raise
    :class:`~repro.errors.DeviceError`.
    """

    def __init__(
        self,
        config: Optional[GPUConfig] = None,
        mode: ExecutionMode = ExecutionMode.FLAT,
        latency: Optional[LatencyModel] = None,
        memory_words: int = 4 * 1024 * 1024,
        sanitize: Optional[bool] = None,
    ) -> None:
        _validate_mode_latency(mode, latency)
        if sanitize is not None:
            config = dataclasses.replace(
                config if config is not None else GPUConfig.k20c(),
                sanitize=bool(sanitize),
            )
        self.mode = mode
        self.gpu = GPU(
            config=config,
            latency=latency if latency is not None else mode.latency_model(),
            memory_words=memory_words,
        )
        self._launch_interceptor = None
        self._closed = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def __enter__(self) -> "Device":
        self._check_open()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def close(self) -> None:
        """Release the device and its global memory; further operations
        raise DeviceError."""
        if not self._closed:
            self.gpu.memory.release()
        self._closed = True

    @property
    def closed(self) -> bool:
        return self._closed

    def _check_open(self) -> None:
        if self._closed:
            raise DeviceError("operation on a closed Device")

    def _memory(self):
        self._check_open()
        return self.gpu.memory

    # ------------------------------------------------------------------
    # Memory
    # ------------------------------------------------------------------
    def alloc(self, words: int, dtype=np.int64) -> DeviceArray:
        """cudaMalloc: allocate ``words`` 8-byte words.

        Returns a :class:`DeviceArray` (an ``int`` address with dtype/shape
        metadata for :meth:`download`).
        """
        addr = self._memory().alloc(words)
        return DeviceArray(addr, self, (int(words),), dtype, words)

    def upload(self, values: np.ndarray) -> DeviceArray:
        """Allocate and copy a host array to the device.

        The returned :class:`DeviceArray` remembers the array's dtype and
        shape; ``array.download()`` restores both.
        """
        arr = np.asarray(values)
        memory = self._memory()
        addr = memory.alloc_array(arr)
        return DeviceArray(addr, self, arr.shape, arr.dtype, arr.size)

    def download(
        self,
        array,
        count: Optional[int] = None,
        dtype=None,
    ) -> np.ndarray:
        """Copy device data back to the host.

        With a :class:`DeviceArray`, dtype and shape round-trip
        automatically and ``count``/``dtype`` must not be passed.  With a
        raw address, ``count`` is required and ``dtype`` selects the view
        (default int64).
        """
        self._check_open()
        if isinstance(array, DeviceArray):
            if count is not None or dtype is not None:
                raise TypeError(
                    "count/dtype are derived from the DeviceArray; "
                    "pass a raw address to override them"
                )
            return array.download()
        if count is None:
            raise TypeError("download(addr, count) requires count for raw addresses")
        addr = operator.index(array)
        np_dtype = np.dtype(dtype if dtype is not None else np.int64)
        if np.issubdtype(np_dtype, np.floating):
            flat = self.gpu.memory.read_floats(addr, count)
        else:
            flat = self.gpu.memory.read_ints(addr, count)
        return flat.astype(np_dtype, copy=False)

    def free(self, array) -> None:
        """cudaFree.

        The simulator's global memory uses a bump allocator, so only the
        most recent live allocation's words are actually reclaimed; freeing
        older allocations removes them from the live-range map but leaves
        the high-water mark in place (footprint statistics intentionally
        track the peak).  Freeing a :class:`DeviceArray` twice raises
        :class:`~repro.errors.MemoryError_`, as does a later
        :meth:`DeviceArray.download`; with the sanitizer enabled, kernel
        accesses to the freed range are reported as use-after-free.
        """
        memory = self._memory()
        if isinstance(array, DeviceArray):
            if getattr(array, "_freed", False):
                raise MemoryError_(
                    f"double free of DeviceArray at address {int(array)}"
                )
            memory.free(array.addr, array.words)
            array._freed = True
        # Raw addresses carry no extent; accept and ignore (the old API had
        # no free at all, so this is strictly more than before).

    def download_ints(self, addr: int, count: int) -> np.ndarray:
        self._check_open()
        return self.gpu.memory.read_ints(addr, count)

    def download_floats(self, addr: int, count: int) -> np.ndarray:
        self._check_open()
        return self.gpu.memory.read_floats(addr, count)

    def write_int(self, addr: int, value: int) -> None:
        self._memory().write_int(addr, value)

    def read_int(self, addr: int) -> int:
        return self._memory().read_int(addr)

    def memset(self, addr: int, value: int, words: int) -> None:
        """cudaMemset (word-granular): fill [addr, addr+words) with value."""
        memory = self._memory()
        memory.check_range(addr, words)
        memory.i[addr : addr + words] = value
        memory.host_wrote(addr, words)

    def copy_device(self, dst: int, src: int, words: int) -> None:
        """cudaMemcpyDeviceToDevice (word-granular)."""
        memory = self._memory()
        memory.check_range(src, words)
        memory.check_range(dst, words)
        memory.i[dst : dst + words] = memory.i[src : src + words].copy()
        memory.host_wrote(dst, words)

    # ------------------------------------------------------------------
    # Streams
    # ------------------------------------------------------------------
    def stream(self) -> Stream:
        """cudaStreamCreate: a new software stream with a unique id."""
        self._check_open()
        return Stream(self, self.gpu.kmu.host_queues.create_stream())

    # ------------------------------------------------------------------
    # Kernels
    # ------------------------------------------------------------------
    def register(self, func: KernelFunction) -> KernelFunction:
        self._check_open()
        return self.gpu.register_kernel(func)

    def launch(
        self,
        kernel_name: str,
        grid,
        block,
        params: Sequence[Union[int, float]] = (),
        stream: Union[int, Stream] = 0,
    ) -> Event:
        """Host-side kernel launch; returns an :class:`Event` handle.

        The Event compares equal to the parameter-buffer address (the old
        return value) and adds ``.wait()`` / ``.elapsed_cycles()``.
        """
        self._check_open()
        if self._launch_interceptor is not None:
            handled = self._launch_interceptor(
                kernel_name, grid, block, params, operator.index(stream)
            )
            if handled is not None:
                return handled
        spec = self.gpu.host_launch(
            kernel_name, grid, block, params, operator.index(stream)
        )
        return Event(self, spec)

    def install_launch_interceptor(self, interceptor) -> None:
        """Route host launches through ``interceptor`` first.

        ``interceptor(kernel_name, grid, block, params, stream)`` either
        returns an :class:`Event` (the launch was handled — e.g. the
        persistent runtime turned it into task-queue records plus a
        worker launch) or ``None`` to fall through to the normal path.
        Pass ``None`` to uninstall.
        """
        self._launch_interceptor = interceptor

    def synchronize(
        self, max_cycles: Optional[int] = DEFAULT_MAX_CYCLES
    ) -> SimStats:
        """cudaDeviceSynchronize: run the simulation until the GPU drains."""
        self._check_open()
        return self.gpu.run(max_cycles=max_cycles)

    def attach_tracer(self, tracer) -> None:
        """Attach an execution tracer (see :mod:`repro.sim.tracing`)."""
        self._check_open()
        self.gpu.tracer = tracer

    def configure_checkpoint(
        self,
        every: Optional[int],
        path=None,
        on_checkpoint=None,
        fingerprint: Optional[str] = None,
    ) -> None:
        """Enable periodic state checkpointing (see :mod:`repro.state`).

        At each multiple of ``every`` simulated cycles (the first cycle
        boundary at or after it) the full simulator state is captured
        and written atomically to ``path`` (when given) and/or passed
        to ``on_checkpoint(document)``.  The configuration lives on
        the device so it covers every internal ``synchronize()`` a
        workload driver performs, not just one call.  ``fingerprint``
        stamps the files so a sweep job never resumes from another job's
        checkpoint.  Pass ``every=None`` to disable.
        """
        self._check_open()
        gpu = self.gpu
        gpu._checkpoint_every = every
        gpu._checkpoint_path = path
        gpu._on_checkpoint = on_checkpoint
        gpu._checkpoint_fingerprint = fingerprint

    # ------------------------------------------------------------------
    # Sanitizer
    # ------------------------------------------------------------------
    @property
    def sanitizing(self) -> bool:
        """True iff the execution sanitizer is attached to this device."""
        return not self._closed and self.gpu.sanitizer is not None

    def sanitizer_report(self) -> SanitizerReport:
        """All sanitizer findings so far (requires ``sanitize=True``)."""
        self._check_open()
        san = self.gpu.sanitizer
        if san is None:
            raise ConfigError(
                "sanitizer is not enabled; create the device with "
                "Device(sanitize=True) or GPUConfig(sanitize=True)"
            )
        return san.report

    # ------------------------------------------------------------------
    @property
    def stats(self) -> SimStats:
        return self.gpu.stats

    @property
    def cycles(self) -> int:
        return self.gpu.cycle


def _validate_mode_latency(
    mode: ExecutionMode, latency: Optional[LatencyModel]
) -> None:
    """Reject contradictory mode/latency combinations.

    The old API silently honoured a user-passed ``latency`` even when it
    contradicted ``mode`` — e.g. ``Device(mode=ExecutionMode.CDP_IDEAL,
    latency=LatencyModel.measured_k20c())`` simulated measured latencies
    while reporting itself (and its stats) as an *ideal* configuration.
    """
    if latency is None:
        return
    ideal_model = LatencyModel.ideal()
    if mode.ideal and latency != ideal_model:
        raise ConfigError(
            f"mode {mode.value!r} is an ideal (zero-launch-latency) "
            "configuration but a non-ideal LatencyModel was passed; drop "
            f"the latency argument or use mode {mode.value[:-1]!r}"
        )
    if mode.is_dynamic and not mode.ideal and latency == ideal_model:
        hint = (
            f"; use mode {mode.value + 'i'!r} for the ideal configuration"
            if not (mode.compiler_optimized or mode.persistent)
            else ""
        )
        raise ConfigError(
            f"mode {mode.value!r} models measured launch latencies but an "
            f"all-zero (ideal) LatencyModel was passed{hint}"
        )
