"""The persistent-threads runtime (Atos baseline): resident workers.

:class:`PersistentRuntime` owns the global task queue and turns every
host launch of a rewritten kernel into queue traffic:

* at construction it allocates and initializes the queue descriptor,
  then :meth:`transform` runs the :mod:`repro.isa.persist` rewrite over
  the workload's kernel set (queue addresses bake into the IR as
  immediates) and installs a launch interceptor on the device;
* each intercepted launch first drains any outstanding work (the queue
  is one shared structure — drains serialize), verifies the previous
  drain's counters, seeds one published record per requested block, and
  launches the generated worker kernel instead of the requested kernel,
  as a fixed grid of one block per SMX (``GPUConfig.num_smx`` blocks,
  whatever the occupancy of each SMX would allow);
* :meth:`verify_drained` asserts the queue invariants
  (``RESERVED == PUBLISHED == FINISHED``, nothing dropped, high-water
  within capacity) — a dropped fence or a stranded record fails loudly
  rather than silently under-computing.

Host seeding writes records directly (payload then sequence word, then
the ``RESERVED``/``PUBLISHED`` counters) while the device is idle, so
the sanitizer sees ordinary host initialization.  Tickets run
monotonically across drains within one execution: the ring's sequence
words stay consistent without re-initializing the storage each drain.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional, Sequence

from ..isa.persist import RECORD_WORDS, PersistResult, persist_transform
from ..isa.taskqueue import (
    OFF_CLAIMED,
    OFF_DROPPED,
    OFF_FINISHED,
    OFF_HIGH_WATER,
    OFF_PUBLISHED,
    OFF_RESERVED,
    QueueLayout,
)
from ..sim.kernel import KernelFunction, as_dims, dims_total

#: Task-queue slots (``verify_drained`` checks the high-water mark
#: against it).
QUEUE_CAPACITY = 16384


class PersistentRuntimeError(RuntimeError):
    """The task queue violated a drain invariant."""


class PersistentRuntime:
    """Queue-backed execution of a rewritten kernel set on one device."""

    def __init__(
        self,
        device,
        *,
        async_: bool = False,
        defect: Optional[str] = None,
    ) -> None:
        self.device = device
        self.async_ = async_
        self._defect = defect
        shape = QueueLayout(0, QUEUE_CAPACITY, RECORD_WORDS)
        base = int(device.upload(shape.init_image()))
        self.queue = dataclasses.replace(shape, base=base)
        self._result: Optional[PersistResult] = None
        self._reserved = 0  # host-side mirror of the RESERVED counter

    # ------------------------------------------------------------------
    # Kernel-set rewrite
    # ------------------------------------------------------------------
    def transform(
        self, kernels: Sequence[KernelFunction]
    ) -> Sequence[KernelFunction]:
        """Rewrite ``kernels`` and hook this runtime into the device."""
        self._result = persist_transform(
            kernels, self.queue, async_=self.async_, defect=self._defect
        )
        if self._result.worker is not None:
            self.device.install_launch_interceptor(self._intercept)
        return self._result.kernels

    @property
    def kernel_ids(self) -> Dict[str, int]:
        return dict(self._result.kernel_ids) if self._result else {}

    # ------------------------------------------------------------------
    # Launch interception
    # ------------------------------------------------------------------
    def _intercept(self, kernel_name, grid, block, params, stream):
        result = self._result
        if result is None or kernel_name not in result.kernel_ids:
            return None  # not ours: the worker itself, or a flat helper
        # The queue is one shared structure: finish outstanding work
        # before reseeding it, and check the previous drain's books.
        self.device.synchronize()
        self.verify_drained()

        blocks = dims_total(as_dims(grid))
        block_threads = dims_total(as_dims(block))
        kid = result.kernel_ids[kernel_name]
        param_addr = self.device.gpu.write_params(tuple(params))
        for cta in range(blocks):
            self._seed_record(
                (kid, param_addr, cta, blocks, block_threads)
            )
        queue = self.queue
        self.device.write_int(queue.field(OFF_RESERVED), self._reserved)
        self.device.write_int(queue.field(OFF_PUBLISHED), self._reserved)
        # Cancel dead async tickets from the previous drain: CLAIMED may
        # have overshot PUBLISHED (optimistic claims abandoned at
        # quiescence), and a stale overshoot would gate the new drain's
        # claims shut forever.  Every prior ticket is settled (drained,
        # verified above), so rewinding to the publish count re-aligns
        # claim tickets with the records seeded below.
        self.device.write_int(
            queue.field(OFF_CLAIMED), self._reserved - blocks
        )

        worker_block = max(result.max_block, block_threads)
        return self.device.launch(
            result.worker,
            grid=self.device.gpu.config.num_smx,
            block=worker_block,
            stream=stream,
        )

    def _seed_record(self, values) -> None:
        """Publish one record from the host (device idle)."""
        queue = self.queue
        ticket = self._reserved
        slot = queue.slot(ticket)
        for i, value in enumerate(values):
            self.device.write_int(slot + 1 + i, int(value))
        self.device.write_int(slot, ticket + 1)  # sequence: published
        self._reserved += 1

    # ------------------------------------------------------------------
    # Invariants
    # ------------------------------------------------------------------
    def counters(self) -> Dict[str, int]:
        queue = self.queue
        read = self.device.read_int
        return {
            "reserved": read(queue.field(OFF_RESERVED)),
            "published": read(queue.field(OFF_PUBLISHED)),
            "finished": read(queue.field(OFF_FINISHED)),
            "high_water": read(queue.field(OFF_HIGH_WATER)),
            "dropped": read(queue.field(OFF_DROPPED)),
        }

    def verify_drained(self) -> None:
        """Raise unless every published record was processed exactly.

        Device-side enqueues (child records) advance ``RESERVED`` past
        the host's seed count, so the invariant is the counters agreeing
        with *each other*; the host mirror then adopts the device's
        ticket position so the next drain seeds from the right slot.
        """
        if self._result is None or self._result.worker is None:
            return
        c = self.counters()
        if not (c["reserved"] == c["published"] == c["finished"]):
            raise PersistentRuntimeError(
                "task queue not drained: "
                f"reserved={c['reserved']} published={c['published']} "
                f"finished={c['finished']}"
            )
        if c["reserved"] < self._reserved:
            raise PersistentRuntimeError(
                f"task queue lost records: reserved={c['reserved']} "
                f"below the {self._reserved} seeded so far"
            )
        self._reserved = c["reserved"]
        if c["dropped"]:
            raise PersistentRuntimeError(
                f"task queue dropped {c['dropped']} records"
            )
        if c["high_water"] > self.queue.capacity:
            raise PersistentRuntimeError(
                f"task queue high-water {c['high_water']} exceeds "
                f"capacity {self.queue.capacity}"
            )
