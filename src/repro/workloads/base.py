"""Workload base class: the flat / CDP / DTBL implementation contract.

Every benchmark implements three variants of the same algorithm, mirroring
the paper's methodology (Section 5.1):

* **flat** — the nested structure is flattened and serialized within each
  thread;
* **CDP** — a device *kernel* is launched for any dynamically formed
  pocket of parallelism (DFP) with enough work, via
  ``cudaStreamCreateWithFlags`` + ``cudaGetParameterBuffer`` +
  ``cudaLaunchDevice``;
* **DTBL** — the same DFPs are launched as aggregated groups via
  ``cudaGetParameterBuffer`` + ``cudaLaunchAggGroup``.

Data structures and algorithms are identical across variants; only the
dynamic-launch mechanism differs (the paper's fair-comparison rule).
"""

from __future__ import annotations

import abc
import os
from dataclasses import dataclass
from typing import List, Optional

from ..config import GPUConfig
from ..errors import WorkloadError
from ..runtime import Device, ExecutionMode
from ..sim.kernel import KernelFunction
from ..sim.sanitizer import SanitizerReport
from ..sim.stats import SimStats


@dataclass
class WorkloadResult:
    """Outcome of one simulated run."""

    name: str
    mode: ExecutionMode
    stats: SimStats
    #: Cycles spent in the measured (computation) portion.
    cycles: int
    #: Sanitizer findings, when the run was sanitized (always clean here:
    #: :meth:`Workload.execute` raises on findings); ``None`` otherwise.
    sanitizer: Optional["SanitizerReport"] = None

    def summary(self) -> dict:
        data = self.stats.summary()
        data["benchmark"] = self.name
        data["mode"] = self.mode.value
        return data


class Workload(abc.ABC):
    """One benchmark instance bound to a dataset.

    Subclasses implement kernel construction and the host-side driver; the
    base class owns device creation, registration, execution, and the
    correctness check against a pure-Python reference.
    """

    #: Short benchmark name, e.g. ``"bfs"``.
    app_name: str = "workload"
    #: Threads per dynamically launched thread block.
    child_block: int = 32
    #: Minimum DFP size that justifies a dynamic launch.
    child_threshold: int = 32

    def __init__(self, name: str, mode: ExecutionMode) -> None:
        self.name = name
        self.mode = mode

    # ------------------------------------------------------------------
    # Contract
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def build_kernels(self) -> List[KernelFunction]:
        """All kernel functions this variant needs, ready to register."""

    @abc.abstractmethod
    def setup(self, device: Device) -> None:
        """Upload inputs and allocate outputs."""

    @abc.abstractmethod
    def run(self, device: Device) -> None:
        """Host-side driver: launch kernels and synchronize to completion."""

    @abc.abstractmethod
    def check(self, device: Device) -> None:
        """Compare device results against the pure-Python reference.

        Must raise :class:`~repro.errors.WorkloadError` on mismatch.
        """

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def execute_spec(
        self,
        spec,
        on_checkpoint=None,
        memory_words: int = 4 * 1024 * 1024,
        max_cycles: Optional[int] = 500_000_000,
        optimize_kernels: bool = False,
    ) -> WorkloadResult:
        """Run this workload as described by a :class:`~repro.exec.JobSpec`.

        The canonical execution entry point: config, latency scale,
        verification and the whole checkpoint policy come from the spec
        (``<checkpoint_dir>/<fingerprint>.ckpt``, stamped with the spec's
        content fingerprint so a job never resumes from another job's
        checkpoint).  :func:`repro.exec.run_job` is a thin wrapper that
        also builds the workload from the spec.
        """
        if spec.mode is not self.mode:
            raise WorkloadError(
                f"{self.name}: spec mode {spec.mode.value!r} does not match "
                f"workload mode {self.mode.value!r}"
            )
        checkpoint_path = fingerprint = None
        if spec.checkpoint_dir is not None:
            from ..state import checkpoint_path_for

            fingerprint = spec.fingerprint()
            checkpoint_path = str(
                checkpoint_path_for(spec.checkpoint_dir, fingerprint)
            )
        return self._execute(
            config=spec.config,
            memory_words=memory_words,
            verify=spec.verify,
            max_cycles=max_cycles,
            latency_scale=spec.latency_scale,
            optimize_kernels=optimize_kernels,
            checkpoint_every=spec.checkpoint_every,
            checkpoint_path=checkpoint_path,
            resume=spec.resume,
            on_checkpoint=on_checkpoint,
            checkpoint_fingerprint=fingerprint,
        )

    def execute(
        self,
        config: Optional[GPUConfig] = None,
        memory_words: int = 4 * 1024 * 1024,
        verify: bool = True,
        max_cycles: Optional[int] = 500_000_000,
        latency_scale: float = 1.0,
        optimize_kernels: bool = False,
    ) -> WorkloadResult:
        """Build, run and (optionally) verify this workload end to end.

        ``latency_scale`` shrinks the measured Table 3 launch latencies to
        match a scaled-down dataset (see ``LatencyModel.scaled``);
        ``optimize_kernels`` runs the peephole optimizer over every kernel
        before registration (results are still verified).  Checkpointing
        and resume are a :class:`~repro.exec.JobSpec` policy: see
        :meth:`execute_spec` and :func:`repro.exec.run_job`.
        """
        return self._execute(
            config=config,
            memory_words=memory_words,
            verify=verify,
            max_cycles=max_cycles,
            latency_scale=latency_scale,
            optimize_kernels=optimize_kernels,
        )

    def _execute(
        self,
        config: Optional[GPUConfig],
        memory_words: int,
        verify: bool,
        max_cycles: Optional[int],
        latency_scale: float,
        optimize_kernels: bool,
        checkpoint_every: Optional[int] = None,
        checkpoint_path=None,
        resume: bool = False,
        on_checkpoint=None,
        checkpoint_fingerprint: Optional[str] = None,
    ) -> WorkloadResult:
        """The real end-to-end execution (shared by both entry points)."""
        device = Device(
            config=config or GPUConfig.k20c(),
            mode=self.mode,
            latency=self.mode.latency_model(latency_scale),
            memory_words=memory_words,
        )
        kernels = self.build_kernels()
        if self.mode.compiler_optimized:
            # CDP_AGG / CONSOLIDATED: the workload built plain CDP
            # kernels; rewrite them (and generate the batched-launch
            # wrappers) before registration.
            from ..isa.dynopt import transform_kernels

            kernels = transform_kernels(kernels, self.mode)
        persistent_runtime = None
        if self.mode.persistent:
            # PERSISTENT / PERSISTENT_ASYNC: rewrite the CDP launch
            # sites into task-queue pushes and intercept host launches
            # with a resident worker grid (see repro.runtime.persistent).
            from ..runtime.modes import ExecutionMode
            from ..runtime.persistent import PersistentRuntime

            persistent_runtime = PersistentRuntime(
                device,
                async_=self.mode is ExecutionMode.PERSISTENT_ASYNC,
            )
            kernels = persistent_runtime.transform(kernels)
        for func in kernels:
            if optimize_kernels:
                from ..isa.optimizer import optimized_copy
                from ..sim.kernel import KernelFunction

                func = KernelFunction(
                    func.name,
                    optimized_copy(func.program),
                    shared_words=func.shared_words,
                    local_words=func.local_words,
                )
            device.register(func)
        self.setup(device)
        if checkpoint_every:
            device.configure_checkpoint(
                checkpoint_every,
                path=checkpoint_path,
                on_checkpoint=on_checkpoint,
                fingerprint=checkpoint_fingerprint,
            )
        from ..state import (
            CheckpointError,
            discard_checkpoint,
            load_checkpoint,
            prepare_resume,
            quarantine_checkpoint,
        )

        resuming = False
        if resume and checkpoint_path is not None and os.path.exists(checkpoint_path):
            try:
                doc = load_checkpoint(
                    checkpoint_path, fingerprint=checkpoint_fingerprint
                )
                prepare_resume(device.gpu, doc)
                resuming = True
            except CheckpointError:
                # Stale, corrupt or foreign checkpoint: set it aside and
                # run from the beginning.
                quarantine_checkpoint(checkpoint_path)
        try:
            self.run(device)
            device.synchronize(max_cycles=max_cycles)
        except CheckpointError:
            # A mismatch with the replay that only the restore itself can
            # see (inside GPU.run): the job fails, but a retry must not
            # resume into the same error.
            if resuming:
                quarantine_checkpoint(checkpoint_path)
            raise
        if persistent_runtime is not None:
            persistent_runtime.verify_drained()
        if (checkpoint_every or resume) and checkpoint_path is not None:
            discard_checkpoint(checkpoint_path)
        if verify:
            self.check(device)
        if device.sanitizing and not device.sanitizer_report().clean:
            raise WorkloadError(
                f"{self.name} ({self.mode.value}): sanitizer findings:\n"
                + device.sanitizer_report().format()
            )
        result = WorkloadResult(
            name=self.name,
            mode=self.mode,
            stats=device.stats,
            cycles=device.stats.cycles,
            sanitizer=device.sanitizer_report() if device.sanitizing else None,
        )
        # Not left to the cycle collector: the next job in this process
        # would run beside this one's 32 MB store (see Device.close).
        device.close()
        return result

    # ------------------------------------------------------------------
    # Helpers shared by the drivers
    # ------------------------------------------------------------------
    @staticmethod
    def grid_for(items: int, block: int) -> int:
        """Blocks needed to cover ``items`` work items."""
        return max(1, (items + block - 1) // block)

    def expect(self, condition: bool, message: str) -> None:
        if not condition:
            raise WorkloadError(f"{self.name} ({self.mode.value}): {message}")
