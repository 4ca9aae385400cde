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

#: Watchdog on the drain that ends every workload run: the absolute
#: simulated cycle it may not pass.
MAX_CYCLES = 500_000_000


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


class Workload(abc.ABC):
    """One benchmark instance bound to a dataset.

    Subclasses implement kernel construction and the host-side driver; the
    base class owns device creation, registration, execution, and the
    correctness check against a pure-Python reference.
    """

    #: Short benchmark name, e.g. ``"bfs"``.
    app_name: str = "workload"
    #: Each subclass fixes its launch shape as class constants, the same in
    #: every mode: ``parent_block`` (threads per host-launched block),
    #: ``child_block`` (threads per dynamically launched block) and, where
    #: a DFP can be too small to launch, ``child_threshold`` (the least DFP
    #: size that takes a dynamic launch; smaller ones are serialized).
    parent_block: int
    child_block: int
    child_threshold: int

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
    def execute_spec(self, spec, on_checkpoint=None) -> WorkloadResult:
        """Run this workload as described by a :class:`~repro.exec.JobSpec`.

        The canonical execution entry point: config, latency scale,
        verification and the whole checkpoint policy come from the spec.
        A spec with a ``checkpoint_dir`` checkpoints to, and continues
        from, ``<checkpoint_dir>/<fingerprint>.ckpt`` (stamped with the
        spec's content fingerprint, so a job never resumes from another
        job's checkpoint).  :func:`repro.exec.run_job` is a thin wrapper
        that also builds the workload from the spec.
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
            spec.config,
            spec.verify,
            spec.latency_scale,
            checkpoint_every=spec.checkpoint_every,
            checkpoint_path=checkpoint_path,
            on_checkpoint=on_checkpoint,
            checkpoint_fingerprint=fingerprint,
        )

    def execute(
        self,
        config: Optional[GPUConfig] = None,
        verify: bool = True,
        latency_scale: float = 1.0,
    ) -> WorkloadResult:
        """Build, run and (optionally) verify this workload end to end.

        ``latency_scale`` shrinks the measured Table 3 launch latencies to
        match a scaled-down dataset (see ``LatencyModel.scaled``).
        Checkpointing is a :class:`~repro.exec.JobSpec` policy: see
        :meth:`execute_spec` and :func:`repro.exec.run_job`.
        """
        return self._execute(config, verify, latency_scale)

    def _execute(
        self,
        config: Optional[GPUConfig],
        verify: bool,
        latency_scale: float,
        checkpoint_every: Optional[int] = None,
        checkpoint_path=None,
        on_checkpoint=None,
        checkpoint_fingerprint: Optional[str] = None,
    ) -> WorkloadResult:
        """The real end-to-end execution (shared by both entry points)."""
        device = Device(
            config=config or GPUConfig.k20c(),
            mode=self.mode,
            latency=self.mode.latency_model(latency_scale),
        )
        # Closed however the job ends, failures included, not left to the
        # cycle collector: the next job in this process would run beside
        # this one's 32 MB store (see Device.close).
        with device:
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
            if checkpoint_path is not None and os.path.exists(checkpoint_path):
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
                device.synchronize(max_cycles=MAX_CYCLES)
            except CheckpointError:
                # A mismatch with the replay that only the restore itself can
                # see (inside GPU.run): the job fails, but a retry must not
                # resume into the same error.
                if resuming:
                    quarantine_checkpoint(checkpoint_path)
                raise
            if persistent_runtime is not None:
                persistent_runtime.verify_drained()
            if checkpoint_path is not None:
                discard_checkpoint(checkpoint_path)
            if verify:
                self.check(device)
            if device.sanitizing and not device.sanitizer_report().clean:
                raise WorkloadError(
                    f"{self.name} ({self.mode.value}): sanitizer findings:\n"
                    + device.sanitizer_report().format()
                )
            return WorkloadResult(
                name=self.name,
                mode=self.mode,
                stats=device.stats,
                cycles=device.stats.cycles,
                sanitizer=device.sanitizer_report() if device.sanitizing else None,
            )

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
