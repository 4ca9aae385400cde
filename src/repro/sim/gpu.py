"""Top-level GPU model: ties SMXs, KMU, Kernel Distributor, SMX scheduler,
memory system and the device runtime together and runs the simulation.

Timing advances with an event-driven cycle loop: the GPU only visits
cycles at which something can happen (a warp becomes ready, an event
fires), fast-forwarding across idle gaps while integrating the occupancy
statistic over the skipped interval.
"""

from __future__ import annotations

import functools
import heapq
from typing import Callable, Dict, List, Optional, Sequence, Union

import numpy as np

from ..config import GPUConfig, LatencyModel
from ..errors import LaunchError, SimulationError
from ..memory.dram import MemorySubsystem
from ..memory.global_memory import GlobalMemory
from .hwq import HostLaunchSpec
from .kernel import KernelFunction, as_dims
from .kernel_distributor import KernelDistributor
from .kmu import KernelManagementUnit
from .profiler import active_profiler
from .sanitizer import Sanitizer, sanitize_enabled
from .smx import SMX
from .smx_scheduler import SMXScheduler
from .stats import SimStats

from ..config import WORD_BYTES
from ..dtbl.aggregation import AggLaunchRequest

#: Sentinel burst horizon when no other SMX wake-up bounds the burst.
_FAR_FUTURE = 1 << 62


def _next_checkpoint(cycle: int, every: Optional[int]) -> int:
    """The first multiple of ``every`` after ``cycle``; never, if unset."""
    return cycle - cycle % every + every if every else _FAR_FUTURE


class DeviceRuntime:
    """Device-side runtime services invoked from warp instructions."""

    STATE = (("_stream_counter", "value"), ("_param_sizes", "copy"))
    NOT_STATE = ("_gpu",)  # wiring

    def __init__(self, gpu: "GPU") -> None:
        self._gpu = gpu
        # Plain int counter (not itertools.count) so checkpoints can
        # serialize and restore it exactly.
        self._stream_counter = 1
        self._param_sizes: Dict[int, int] = {}

    def create_streams(self, count: int) -> np.ndarray:
        """Allocate ``count`` device-side stream ids (functional only)."""
        start = self._stream_counter
        self._stream_counter = start + count
        return np.arange(start, start + count, dtype=np.int64)

    def alloc_param_buffers(self, count: int, size_words: int) -> np.ndarray:
        """cudaGetParameterBuffer for ``count`` lanes of one warp."""
        memory = self._gpu.memory
        bases = np.empty(count, dtype=np.int64)
        for i in range(count):
            base = memory.alloc(size_words)
            self._param_sizes[base] = size_words
            bases[i] = base
        return bases

    def param_bytes_for(self, param_addr: int) -> int:
        return self._param_sizes.get(param_addr, 0) * WORD_BYTES

    def submit_device_launches(self, requests: Sequence[tuple], deliver_cycle: int) -> None:
        """Deliver a warp's cudaLaunchDevice commands to the KMU."""
        self._gpu.schedule_event(
            deliver_cycle, kind="device_launch_batch", payload=tuple(requests)
        )

    def _deliver_device_batch(self, requests: Sequence[tuple], cycle: int) -> None:
        gpu = self._gpu
        for kernel_name, param_addr, grid, block, _hw_tid in requests:
            gpu.kernels[kernel_name].validate_block(
                block, gpu.config.max_resident_threads
            )
            gpu.kmu.launch_device(kernel_name, grid, block, param_addr, cycle)

    def submit_agg_launches(self, requests: Sequence[tuple], deliver_cycle: int) -> None:
        """Deliver a warp's aggregation operation command to the scheduler."""
        gpu = self._gpu
        for kernel_name, param_addr, grid, block, hw_tid in requests:
            gpu.kernels[kernel_name].validate_block(
                block, gpu.config.max_resident_threads
            )
        gpu.schedule_event(
            deliver_cycle, kind="agg_launch_batch", payload=tuple(requests)
        )

    def _deliver_agg_batch(self, requests: Sequence[tuple], cycle: int) -> None:
        agg_requests = [
            AggLaunchRequest(kernel_name, param_addr, grid, block, hw_tid)
            for kernel_name, param_addr, grid, block, hw_tid in requests
        ]
        self._gpu.scheduler.process_aggregation(agg_requests, cycle)


class GPU:
    """The simulated GPU (Fig. 1 baseline plus the Fig. 4 DTBL extension)."""

    # Restore order: KDE entries before what refers to them (the FCFS
    # queue, thread blocks).
    STATE = (
        ("cycle", "value"),
        ("active_warps", "value", 0),
        ("_event_seq", "value"),
        ("_launch_seq", "value"),
        ("_local_arenas", "copy"),
        ("memory", GlobalMemory),
        ("memsys", MemorySubsystem),
        ("stats", SimStats),
        ("runtime", DeviceRuntime),
        ("distributor", KernelDistributor),
        ("scheduler", SMXScheduler),
        ("kmu", KernelManagementUnit),
        ("smxs", [SMX]),
        ("sanitizer", Sanitizer),
    )
    NOT_STATE = (
        # What the replayed host program supplies and the document's
        # header vouches for.
        "config", "latency", "kernels", "fast_core", "_run_index",
        "_specs_by_seq",  # the host-spec registry
        "tracer",  # a checkpoint refuses one
        "_events",  # stored as (cycle, seq, kind, payload) through _event_fn
        "_gheap",  # derived from the resident warps
        # Host-side checkpoint policy.
        "_pending_resume", "_checkpoint_every", "_checkpoint_path",
        "_on_checkpoint", "_checkpoint_fingerprint",
    )

    def __init__(
        self,
        config: Optional[GPUConfig] = None,
        latency: Optional[LatencyModel] = None,
        memory_words: int = 4 * 1024 * 1024,
    ) -> None:
        self.config = config or GPUConfig.k20c()
        self.latency = latency or LatencyModel.measured_k20c()
        self.memory = GlobalMemory(memory_words)
        self.memsys = MemorySubsystem(self.config)
        self.stats = SimStats(self.config)
        self.stats.dram = self.memsys.dram.stats
        self.kernels: Dict[str, KernelFunction] = {}
        self.distributor = KernelDistributor(self.config.max_concurrent_kernels)
        self.scheduler = SMXScheduler(self)
        self.kmu = KernelManagementUnit(self)
        self.runtime = DeviceRuntime(self)
        self.smxs: List[SMX] = [SMX(i, self) for i in range(self.config.num_smx)]
        self.cycle = 0
        #: Optional execution tracer (see :mod:`repro.sim.tracing`).
        #: Starts as the process-global profiler when one is active
        #: (``--profile``; see :mod:`repro.sim.profiler`), else ``None``.
        self.tracer = active_profiler()
        #: Optional execution sanitizer (see :mod:`repro.sim.sanitizer`),
        #: present when :func:`~repro.sim.sanitizer.sanitize_enabled`;
        #: ``None`` otherwise (zero per-issue cost beyond one attribute
        #: check in each core's step()).
        self.sanitizer = None
        if sanitize_enabled(self.config):
            self.sanitizer = Sanitizer(self)
            self.memory.observer = self.sanitizer
        #: Resident, unfinished warps across all SMXs (occupancy integral).
        self.active_warps = 0
        #: Pending simulation events: ``(cycle, seq, fn, kind, payload)``
        #: heap entries.  ``kind``/``payload`` describe how to rebuild
        #: ``fn`` after a checkpoint restore (see :mod:`repro.state`);
        #: both are ``None`` for ad-hoc events, which a checkpoint
        #: rejects.
        self._events: list = []
        self._event_seq = 0
        #: Monotonic id assigned to every host launch spec, so restored
        #: state can be matched back onto the replayed specs the host
        #: program holds (see :mod:`repro.state.snapshot`).
        self._launch_seq = 0
        self._specs_by_seq: Dict[int, HostLaunchSpec] = {}
        #: Number of completed-or-started :meth:`run` calls; checkpoints
        #: record it so resume can target the right run of a multi-run
        #: host program.
        self._run_index = 0
        #: Restore bundle consumed by the next matching :meth:`run` call.
        self._pending_resume = None
        #: Periodic-checkpoint configuration (see
        #: :meth:`repro.runtime.host_api.Device.configure_checkpoint`).
        #: Stored on the GPU because workload drivers synchronize many
        #: times internally; per-call arguments would miss those runs.
        self._checkpoint_every: Optional[int] = None
        self._checkpoint_path = None
        self._on_checkpoint = None
        self._checkpoint_fingerprint: Optional[str] = None
        #: Execution-core selection (see :attr:`GPUConfig.core`): true
        #: for the event-driven main loop over pre-decoded warps.
        self.fast_core = self.config.core == "fast"
        #: Fast core: the single GPU-wide ready heap.  Entries are
        #: ``(sched, smx_id, ready, age, warp)`` — see :meth:`_run_fast`
        #: for the key's ordering contract.  ``None`` under the
        #: reference core, which keeps per-SMX heaps and polls them.
        self._gheap: Optional[list] = [] if self.fast_core else None
        # Per-SMX local-memory arenas, allocated lazily on first use.
        self._local_arenas: List[Optional[int]] = [None] * self.config.num_smx

    def local_arena_base(self, smx_id: int) -> int:
        """Base address of an SMX's local-memory arena (lazy allocation).

        The arena holds ``max_local_words`` words for every potential
        resident thread, laid out interleaved (word w of all threads is
        contiguous) as CUDA local memory is.
        """
        base = self._local_arenas[smx_id]
        if base is None:
            words = self.config.max_resident_threads * self.config.max_local_words
            base = self.memory.alloc(words)
            self._local_arenas[smx_id] = base
        return base

    # ------------------------------------------------------------------
    # Kernel registration and host-side launching
    # ------------------------------------------------------------------
    def register_kernel(self, func: KernelFunction) -> KernelFunction:
        if func.name in self.kernels:
            raise LaunchError(f"kernel {func.name!r} is already registered")
        self.kernels[func.name] = func
        return func

    def write_params(self, values: Sequence[Union[int, float]]) -> int:
        """Allocate a parameter buffer and fill it with typed values."""
        if not values:
            return 0
        base = self.memory.alloc(len(values))
        for i, value in enumerate(values):
            if isinstance(value, float):
                self.memory.f[base + i] = value
            else:
                self.memory.i[base + i] = int(value)
        self.memory.host_wrote(base, len(values))
        return base

    def host_launch(
        self,
        kernel_name: str,
        grid,
        block,
        params: Sequence[Union[int, float]] = (),
        stream: int = 0,
    ) -> HostLaunchSpec:
        """Launch a kernel from the host; returns the queued launch spec.

        The spec's ``param_addr`` is the parameter-buffer address; its
        ``record`` field is filled in once the KMU dispatches the kernel.
        """
        if kernel_name not in self.kernels:
            raise LaunchError(f"unknown kernel {kernel_name!r}")
        grid_dims = as_dims(grid)
        block_dims = as_dims(block)
        func = self.kernels[kernel_name]
        func.validate_block(block_dims, self.config.max_resident_threads)
        param_addr = self.write_params(params)
        spec = HostLaunchSpec(kernel_name, grid_dims, block_dims, param_addr, stream)
        spec.seq = self._launch_seq
        self._launch_seq += 1
        self._specs_by_seq[spec.seq] = spec
        self.kmu.enqueue_host(spec)
        return spec

    # ------------------------------------------------------------------
    # Event queue
    # ------------------------------------------------------------------
    def schedule_event(
        self,
        cycle: int,
        fn: Optional[Callable[[int], None]] = None,
        kind: Optional[str] = None,
        payload: object = None,
    ) -> None:
        """Schedule ``fn(cycle)`` (or the ``kind`` event) at ``cycle``.

        Internal callers pass ``kind``/``payload`` instead of a closure:
        the callable is built by :meth:`_event_fn`, the same factory a
        checkpoint restore uses to rebuild pending events, so live and
        restored simulations execute identical code.  A raw ``fn`` with
        no ``kind`` still works but cannot be checkpointed.
        """
        if cycle < self.cycle:
            cycle = self.cycle
        if fn is None:
            fn = self._event_fn(kind, payload)
        seq = self._event_seq
        self._event_seq = seq + 1
        heapq.heappush(self._events, (cycle, seq, fn, kind, payload))

    def _event_fn(self, kind: Optional[str], payload: object) -> Callable[[int], None]:
        """Build the callable for a described event (live or restored)."""
        if kind == "device_launch_batch":
            runtime = self.runtime
            return lambda cycle: runtime._deliver_device_batch(payload, cycle)
        if kind == "agg_launch_batch":
            runtime = self.runtime
            return lambda cycle: runtime._deliver_agg_batch(payload, cycle)
        if kind == "kmu_activate":
            return self.kmu._make_activator(payload)
        if kind == "kmu_retry":
            return self.kmu._make_retry()
        if kind == "distribute":
            return self.scheduler._run_distribute
        if kind == "gate_retry":
            return self.scheduler._make_gate_retry(payload)
        raise SimulationError(f"unknown event kind {kind!r}")

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def _has_inflight_work(self) -> bool:
        return (
            self.kmu.pending_count > 0
            or self.distributor.occupied > 0
            or bool(self._events)
        )

    def run(self, max_cycles: Optional[int] = 200_000_000) -> SimStats:
        """Simulate until the GPU drains; returns the stats object.

        ``max_cycles`` is an absolute watchdog on the global cycle counter
        (which accumulates across successive :meth:`run` calls).

        With checkpointing configured (``Device.configure_checkpoint``),
        the full simulator state is snapshotted at every multiple of N
        simulated cycles — at the first cycle boundary at or after it,
        the same one on both cores and across successive :meth:`run`
        calls (see :mod:`repro.state`).  A pending resume armed via
        :func:`repro.state.prepare_resume` is consumed at the entry of
        the :meth:`run` call whose index matches the checkpoint's,
        restoring the saved cycle and continuing.
        """
        self._run_index += 1
        if (
            self._pending_resume is not None
            and self._pending_resume[0] == self._run_index
        ):
            from ..state import snapshot as _snapshot

            doc = self._pending_resume[1]
            self._pending_resume = None
            _snapshot.restore_document(self, doc)
        every = self._checkpoint_every
        checkpoint = None
        if every:
            from ..state import snapshot as _snapshot

            checkpoint = functools.partial(
                _snapshot.checkpoint, self, self._checkpoint_fingerprint,
                self._checkpoint_path, self._on_checkpoint,
            )

        if self.fast_core:
            return self._run_fast(max_cycles, every, checkpoint)
        return self._run_reference(max_cycles, every, checkpoint)

    def _run_fast(
        self,
        max_cycles: Optional[int],
        ckpt_every: Optional[int] = None,
        checkpoint=None,
    ) -> SimStats:
        """Event-driven loop over one GPU-wide ready heap.

        Heap entries are ``(sched, smx_id, ready, age, warp)``.
        ``sched`` is the earliest cycle the entry may issue — later than
        ``ready`` only when an issue-budget conflict deferred the warp —
        and the tuple order reproduces the reference loop exactly:
        visited cycles ascending, same-cycle SMXs in ascending
        ``smx_id`` (the ``for smx in smxs`` order; DRAM bank/row and L2
        LRU state depend on access order), same-SMX warps by ``(ready,
        age)`` (the per-SMX GTO heap key), and at most ``issue_width``
        issues per SMX per visited cycle.

        A popped warp issues through budget-safe run-ahead
        (:meth:`~repro.sim.fast_warp.FastWarp.step_free_window`) when
        its preconditions hold, and through one
        :meth:`~repro.sim.fast_warp.FastWarp.step` otherwise.  Because
        the heap covers every runnable warp on every SMX, run-ahead's
        bounds — the heap head for memory ops, the event queue and
        ``limit`` for everything — hold GPU-wide.
        """
        events = self._events
        gheap = self._gheap
        smxs = self.smxs
        stats = self.stats
        cfg = self.config
        far = _FAR_FUTURE
        watchdog_horizon = far if max_cycles is None else max_cycles + 1
        width = cfg.issue_width
        round_robin = cfg.warp_scheduler == "rr"
        # Budget-safe run-ahead preconditions (see FastWarp.step_free_window):
        # GTO ages and no interleaving observers.
        free_ok = not round_robin and self.tracer is None and self.sanitizer is None
        n = len(smxs)
        issue_at = [-1] * n  # last cycle each SMX issued at ...
        issued_n = [0] * n  # ... and how many issues it made there
        heappop = heapq.heappop
        heappush = heapq.heappush
        cycle = self.cycle
        next_ckpt = _next_checkpoint(cycle, ckpt_every)
        # One fused bound guards both the watchdog and the next periodic
        # checkpoint, so the checkpoint-off hot path pays exactly one
        # compare per cycle advance (`next_ckpt` stays at `far`).  It is
        # also the horizon of run-ahead below, so no warp steps past a
        # due checkpoint on its own.
        limit = next_ckpt if next_ckpt < watchdog_horizon else watchdog_horizon
        while True:
            # Visit `cycle`: deliver due events first — the reference
            # loop drains events before any SMX ticks at a visited
            # cycle.  Events scheduled *during* the issue loop below
            # wait for the next visited cycle, exactly as they wait for
            # the reference loop's next iteration.
            while events and events[0][0] <= cycle:
                heappop(events)[2](cycle)
            # Issue every warp due at this cycle, in reference order.
            while gheap:
                entry = gheap[0]
                warp = entry[4]
                if (
                    warp.finished
                    or warp.at_barrier
                    or entry[2] != warp.ready_cycle
                ):
                    heappop(gheap)  # stale (lazy deletion)
                    continue
                if entry[0] > cycle:
                    break
                heappop(gheap)
                smx_id = entry[1]
                if issue_at[smx_id] == cycle:
                    if issued_n[smx_id] >= width:
                        # Budget-bound: retry next cycle.  Keeping the
                        # original ready preserves the per-SMX (ready,
                        # age) order among deferred and fresh warps —
                        # the order the reference heap yields at that
                        # cycle.
                        heappush(
                            gheap, (cycle + 1, smx_id, entry[2], entry[3], warp)
                        )
                        continue
                    issued_n[smx_id] += 1
                else:
                    issue_at[smx_id] = cycle
                    issued_n[smx_id] = 1
                smx = smxs[smx_id]
                if free_ok and smx.resident_warps <= width:
                    warp.step_free_window(cycle, limit, events, gheap)
                else:
                    warp.step(cycle)
                if not warp.finished and not warp.at_barrier:
                    if round_robin:
                        warp.age = smx._seq
                        smx._seq += 1
                    heappush(
                        gheap,
                        (
                            warp.ready_cycle,
                            smx_id,
                            warp.ready_cycle,
                            warp.age,
                            warp,
                        ),
                    )
            # Advance to the next actionable cycle.  The issue loop left
            # the heap head stale-free, so its sched is a tight bound.
            next_cycle = gheap[0][0] if gheap else far
            if events and events[0][0] < next_cycle:
                next_cycle = events[0][0]
            if next_cycle >= far:
                # Safety net: re-derive readiness straight from the
                # resident warps so a lost heap entry surfaces as
                # continued progress (and gets caught by the
                # differential tests), never a false drain.
                rearmed = False
                for smx in smxs:
                    for tb in smx.blocks:
                        for w in tb.warps:
                            if not w.finished and not w.at_barrier:
                                heappush(
                                    gheap,
                                    (
                                        w.ready_cycle,
                                        smx.smx_id,
                                        w.ready_cycle,
                                        w.age,
                                        w,
                                    ),
                                )
                                rearmed = True
                if rearmed:
                    continue
                if self._has_inflight_work():
                    raise SimulationError(
                        "simulator deadlock: in-flight work but no runnable "
                        f"warps or events at cycle {cycle}"
                    )
                break
            if next_cycle <= cycle:
                next_cycle = cycle + 1
            if next_cycle >= limit:
                if next_cycle >= watchdog_horizon:
                    raise SimulationError(
                        f"watchdog: simulation exceeded {max_cycles} cycles"
                    )
                stats.resident_warp_cycles += self.active_warps * (
                    next_cycle - cycle
                )
                self.cycle = cycle = next_cycle
                # Checkpoint only at the inter-cycle boundary: events not
                # yet drained at `cycle`, issue-budget locals lazily
                # reset, so the captured state is exactly what a fresh
                # loop entry would see.
                checkpoint()
                next_ckpt = _next_checkpoint(cycle, ckpt_every)
                limit = (
                    next_ckpt
                    if next_ckpt < watchdog_horizon
                    else watchdog_horizon
                )
                continue
            stats.resident_warp_cycles += self.active_warps * (next_cycle - cycle)
            self.cycle = cycle = next_cycle
        stats.cycles = self.cycle
        return stats

    def _run_reference(
        self,
        max_cycles: Optional[int],
        ckpt_every: Optional[int] = None,
        checkpoint=None,
    ) -> SimStats:
        """Reference loop: poll every SMX at every visited cycle."""
        events = self._events
        smxs = self.smxs
        # Fused watchdog/checkpoint bound, as in :meth:`_run_fast`: the
        # checkpoint-off path pays one compare per cycle advance.
        watchdog_horizon = (
            _FAR_FUTURE if max_cycles is None else max_cycles + 1
        )
        next_ckpt = _next_checkpoint(self.cycle, ckpt_every)
        limit = next_ckpt if next_ckpt < watchdog_horizon else watchdog_horizon
        while True:
            while events and events[0][0] <= self.cycle:
                heapq.heappop(events)[2](self.cycle)
            for smx in smxs:
                smx.tick(self.cycle)
            next_cycle = None
            if events:
                next_cycle = events[0][0]
            for smx in smxs:
                ready = smx.next_ready_cycle()
                if ready is not None and (next_cycle is None or ready < next_cycle):
                    next_cycle = ready
            if next_cycle is None:
                if self._has_inflight_work():
                    raise SimulationError(
                        "simulator deadlock: in-flight work but no runnable "
                        f"warps or events at cycle {self.cycle}"
                    )
                break
            if next_cycle <= self.cycle:
                next_cycle = self.cycle + 1
            if next_cycle >= limit:
                if next_cycle >= watchdog_horizon:
                    raise SimulationError(
                        f"watchdog: simulation exceeded {max_cycles} cycles"
                    )
                self.stats.resident_warp_cycles += self.active_warps * (
                    next_cycle - self.cycle
                )
                self.cycle = next_cycle
                checkpoint()
                next_ckpt = _next_checkpoint(next_cycle, ckpt_every)
                limit = (
                    next_ckpt
                    if next_ckpt < watchdog_horizon
                    else watchdog_horizon
                )
                continue
            self.stats.resident_warp_cycles += self.active_warps * (
                next_cycle - self.cycle
            )
            self.cycle = next_cycle
        self.stats.cycles = self.cycle
        return self.stats
