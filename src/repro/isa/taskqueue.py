"""Device-side bounded MPMC task-queue primitives (Atos-style).

A queue is a global-memory descriptor plus a ring of fixed-size records,
built entirely on the existing atomics — no new opcodes.  Layout::

    word 0   CAPACITY   number of records in the ring (static)
    word 1   RESERVED   producer tickets handed out (atom_add)
    word 2   PUBLISHED  completed publishes (atom_add; quiescence count)
    word 3   CLAIMED    consumer tickets handed out (CAS or atom_add)
    word 4   FINISHED   items fully processed (atom_add)
    word 5   HIGH_WATER max in-flight records seen (atom_max; footprint)
    word 6   DROPPED    bounded enqueues rejected at capacity
    word 7   (reserved)
    word 8+  ring: ``capacity`` records of ``1 + record_words`` words

Every record leads with a *sequence* word (Vyukov MPMC): slot ``i``
starts at sequence ``i``; the producer holding ticket ``t`` waits for
sequence ``t``, stores the payload, then publishes by writing ``t + 1``;
the consumer holding ticket ``t`` waits for ``t + 1``, reads the
payload, then releases the slot to the wrapping producer by writing
``t + capacity``.  The global ``PUBLISHED`` count alone cannot order
payloads — concurrent producers publish out of ticket order — so the
per-slot sequence is what makes a claim safe, while the counters drive
sizing and the ``FINISHED == PUBLISHED`` quiescence test (``FINISHED``
read *first*, so an in-flight item can never be double-counted into a
premature termination).

The ``defect`` knobs deliberately break one ordering each; they exist so
the sanitizer tests can prove the clean protocol is load-bearing.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, List, Optional, Sequence

import numpy as np

from .builder import KernelBuilder
from .instructions import Reg

#: Descriptor field offsets (words from the queue base).
OFF_CAPACITY = 0
OFF_RESERVED = 1
OFF_PUBLISHED = 2
OFF_CLAIMED = 3
OFF_FINISHED = 4
OFF_HIGH_WATER = 5
OFF_DROPPED = 6
HEADER_WORDS = 8

#: Recognized ordering defects (see module docstring).
ENQUEUE_DEFECTS = ("plain-reserve", "publish-before-store")
DEQUEUE_DEFECTS = ("skip-empty-check",)


@dataclasses.dataclass(frozen=True)
class QueueLayout:
    """Host-side description of one queue; addresses bake as immediates."""

    base: int  #: descriptor base address in global memory
    capacity: int  #: ring size in records
    record_words: int  #: payload words per record (sequence word excluded)

    def __post_init__(self) -> None:
        if self.capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {self.capacity}")
        if self.record_words < 1:
            raise ValueError(
                f"record_words must be >= 1, got {self.record_words}"
            )

    # ------------------------------------------------------------------
    # Host-side geometry
    # ------------------------------------------------------------------
    @property
    def stride(self) -> int:
        """Words per ring record (sequence word + payload)."""
        return 1 + self.record_words

    @property
    def storage(self) -> int:
        """Address of ring record 0."""
        return self.base + HEADER_WORDS

    @property
    def total_words(self) -> int:
        return HEADER_WORDS + self.capacity * self.stride

    def field(self, offset: int) -> int:
        """Address of one descriptor counter."""
        return self.base + offset

    def slot(self, ticket: int) -> int:
        """Address of the ring record serving ``ticket`` (its seq word)."""
        return self.storage + (ticket % self.capacity) * self.stride

    def init_image(self) -> np.ndarray:
        """Initial memory image: zero counters, ring sequences ``i``."""
        image = np.zeros(self.total_words, dtype=np.int64)
        image[OFF_CAPACITY] = self.capacity
        image[HEADER_WORDS :: self.stride] = np.arange(self.capacity)
        return image


# ----------------------------------------------------------------------
# Emitters.  All take a KernelBuilder mid-construction; control flow is
# structured, so they compose under if_/while_ like any other DSL code.
# ----------------------------------------------------------------------
def _emit_slot_addr(k: KernelBuilder, q: QueueLayout, ticket: Reg) -> Reg:
    index = k.imod(ticket, q.capacity)
    return k.iadd(q.storage, k.imul(index, q.stride))


def _emit_wait_seq(k: KernelBuilder, slot: Reg, want: Reg) -> None:
    """Spin until the slot's sequence word equals ``want``."""
    ready = k.mov(0)
    with k.while_(lambda: k.eq(ready, 0)):
        k.eq(k.ld(slot), want, dst=ready)


def emit_enqueue(
    k: KernelBuilder,
    q: QueueLayout,
    values: Sequence,
    defect: Optional[str] = None,
) -> Reg:
    """Reserve a ticket, store ``values``, publish.  Returns the ticket.

    Blocks (spins on the slot sequence) while the ring is full — the
    bounded queue applies backpressure rather than corrupting a slot
    whose consumer has not released it yet.
    """
    if len(values) != q.record_words:
        raise ValueError(
            f"queue records hold {q.record_words} words, got {len(values)}"
        )
    if defect not in (None,) + ENQUEUE_DEFECTS:
        raise ValueError(f"unknown enqueue defect {defect!r}")

    if defect == "plain-reserve":
        # BUG (seeded): non-atomic ticket reservation — concurrent
        # producers read the same ticket and race on one slot's payload.
        ticket = k.ld(q.field(OFF_RESERVED))
        k.st(q.field(OFF_RESERVED), k.iadd(ticket, 1))
    else:
        ticket = k.atom_add(q.field(OFF_RESERVED), 1)
    slot = _emit_slot_addr(k, q, ticket)
    _emit_wait_seq(k, slot, ticket)

    def store_payload() -> None:
        for i, value in enumerate(values):
            k.st(slot, value, offset=1 + i)

    def publish() -> None:
        k.atom_exch(slot, k.iadd(ticket, 1))
        k.atom_add(q.field(OFF_PUBLISHED), 1)

    if defect == "publish-before-store":
        # BUG (seeded): the release fence is dropped — the slot is
        # published before its payload lands, so a consumer can read
        # stale or uninitialized words.
        publish()
        store_payload()
    else:
        store_payload()
        inflight = k.isub(k.iadd(ticket, 1), k.ld(q.field(OFF_FINISHED)))
        k.atom_max(q.field(OFF_HIGH_WATER), inflight)
        publish()
    return ticket


def emit_try_enqueue(
    k: KernelBuilder,
    q: QueueLayout,
    values: Sequence,
    on_drop: Optional[Callable[[], None]] = None,
) -> Reg:
    """Enqueue unless the ring looks full; returns an ``ok`` predicate.

    The occupancy gate (``RESERVED - FINISHED < capacity``) races with
    concurrent producers, so a loser may still block briefly on the slot
    sequence — the gate bounds drops, the sequence guards correctness.
    Dropped records bump ``DROPPED`` and invoke ``on_drop``.
    """
    occupancy = k.isub(
        k.ld(q.field(OFF_RESERVED)), k.ld(q.field(OFF_FINISHED))
    )
    ok = k.lt(occupancy, q.capacity)

    def drop() -> None:
        k.atom_add(q.field(OFF_DROPPED), 1)
        if on_drop is not None:
            on_drop()

    k.if_else(ok, lambda: emit_enqueue(k, q, values), drop)
    return ok


@dataclasses.dataclass(frozen=True)
class DequeueRegs:
    """Registers a dequeue attempt leaves behind for the caller."""

    got: Reg  #: 1 when an item was claimed and consumed
    finished: Reg  #: FINISHED snapshot (read before ``published``)
    published: Reg  #: PUBLISHED snapshot
    quiescent: Reg  #: ``finished == published`` predicate


def emit_dequeue_sync(
    k: KernelBuilder,
    q: QueueLayout,
    on_item: Callable[[List[Reg], Reg], None],
    on_miss: Optional[Callable[[], None]] = None,
    defect: Optional[str] = None,
) -> DequeueRegs:
    """One synchronous dequeue attempt (CAS-claim of a published ticket).

    Claims only tickets below the ``PUBLISHED`` snapshot, so the claim
    counter never overshoots; a successful claim then waits on the slot
    sequence (publishes complete out of ticket order) before handing the
    payload registers and ticket to ``on_item``.  ``on_miss`` runs when
    nothing was claimed — empty snapshot or a lost CAS.  The caller owns
    the ``FINISHED`` increment: processing counts as done only when its
    side effects (child enqueues included) have landed.
    """
    if defect not in (None,) + DEQUEUE_DEFECTS:
        raise ValueError(f"unknown dequeue defect {defect!r}")
    finished = k.ld(q.field(OFF_FINISHED))  # F first —
    published = k.ld(q.field(OFF_PUBLISHED))  # — then P
    quiescent = k.eq(finished, published)
    got = k.mov(0)

    def consume(ticket: Reg) -> None:
        k.mov(1, dst=got)
        slot = _emit_slot_addr(k, q, ticket)
        if defect != "skip-empty-check":
            _emit_wait_seq(k, slot, k.iadd(ticket, 1))
        fields = [k.ld(slot, offset=1 + i) for i in range(q.record_words)]
        k.atom_exch(slot, k.iadd(ticket, q.capacity))  # release for wrap
        on_item(fields, ticket)

    if defect == "skip-empty-check":
        # BUG (seeded): claims unconditionally and skips the sequence
        # wait — an empty queue hands out a ticket whose record was
        # never written (uninitialized payload read).
        consume(k.atom_add(q.field(OFF_CLAIMED), 1))
    else:
        claimed = k.ld(q.field(OFF_CLAIMED))

        def attempt() -> None:
            prev = k.atom_cas(q.field(OFF_CLAIMED), claimed, k.iadd(claimed, 1))
            with k.if_(k.eq(prev, claimed)):
                consume(claimed)

        with k.if_(k.lt(claimed, published)):
            attempt()
    if on_miss is not None:
        with k.if_(k.eq(got, 0)):
            on_miss()
    return DequeueRegs(got, finished, published, quiescent)


def emit_dequeue_async(
    k: KernelBuilder,
    q: QueueLayout,
    on_item: Callable[[List[Reg], Reg], None],
    on_dead: Optional[Callable[[], None]] = None,
) -> DequeueRegs:
    """One asynchronous dequeue attempt (optimistic ticket + spin).

    Takes a ticket with a plain ``atom_add`` whenever the queue looks
    non-empty, then spins on the slot sequence until the ticket's item
    is published.  A ticket past the final publish count can never fill;
    the spin detects that (quiescent *and* ticket unpublished — with
    ``FINISHED`` read first the test cannot fire early) and abandons the
    ticket via ``on_dead``.  The fence here is per-iteration: every spin
    re-reads the atomically written counters, so progress by any other
    block is observed without a barrier.
    """
    finished = k.ld(q.field(OFF_FINISHED))  # F first —
    published = k.ld(q.field(OFF_PUBLISHED))  # — then P
    quiescent = k.eq(finished, published)
    got = k.mov(0)

    def claim() -> None:
        ticket = k.atom_add(q.field(OFF_CLAIMED), 1)
        slot = _emit_slot_addr(k, q, ticket)
        want = k.iadd(ticket, 1)
        waiting = k.mov(1)
        with k.while_(lambda: k.ne(waiting, 0)):
            ready = k.eq(k.ld(slot), want)

            def consume() -> None:
                k.mov(0, dst=waiting)
                k.mov(1, dst=got)
                fields = [
                    k.ld(slot, offset=1 + i) for i in range(q.record_words)
                ]
                k.atom_exch(slot, k.iadd(ticket, q.capacity))
                on_item(fields, ticket)

            def spin_or_abandon() -> None:
                fin_now = k.ld(q.field(OFF_FINISHED))  # F first —
                pub_now = k.ld(q.field(OFF_PUBLISHED))  # — then P
                dead = k.iand(
                    k.eq(fin_now, pub_now), k.ge(ticket, pub_now)
                )
                with k.if_(dead):
                    k.mov(0, dst=waiting)
                    if on_dead is not None:
                        on_dead()

            k.if_else(ready, consume, spin_or_abandon)

    with k.if_(k.lt(k.ld(q.field(OFF_CLAIMED)), published)):
        claim()
    return DequeueRegs(got, finished, published, quiescent)
