"""Execution sanitizer: shadow-state correctness checks for the simulator.

DTBL's central claim is semantics preservation — dynamically launched,
coalesced thread blocks must behave exactly like their flat/CDP
equivalents — so the simulator needs a net that catches workloads (or
future core changes) that silently corrupt memory, deadlock a barrier or
launch malformed device-side grids.  When :attr:`repro.config.GPUConfig.sanitize`
is set, or the ``REPRO_SANITIZE`` environment variable is set to anything
but ``""`` or ``"0"`` (:func:`sanitize_enabled`, which the GPU and a
job's fingerprint both read), a :class:`Sanitizer` is attached to the GPU and observes every issued
instruction in *both* execution cores through one hook per
``Warp.step`` / ``FastWarp.step``.  Because both cores issue the same
instruction stream at the same cycles (they are stat-exact by
construction), the sanitizer produces identical findings under either.

Detectors
---------
``data-race`` / ``shared-race``
    Per-word last-writer/last-reader shadow state over global memory and
    per-block shared memory.  Two accesses conflict when they touch the
    same word from different threads, at least one is a **non-atomic
    write**, and no ordering separates them:

    * same block: no barrier between them (same barrier *epoch*);
    * different blocks: the prior accessor's block is still resident;
    * either way, the prior access must not already be *ordered before*
      the current block's view of memory: accesses before the block
      started are ordered by the launch itself (this is what makes
      parent-writes-params -> child-reads clean), and accesses before
      the block's last atomic operation or plain read of an
      atomically-updated word are ordered by that acquire
      (work-queue-style idiom: payload written before an atomically
      claimed ticket, or before a published counter was observed, is
      treated as ordered — including producer/consumer warps inside one
      persistent block);
    * same warp, same instruction: duplicate store addresses across lanes
      **with differing values** (divergent lanes storing the same value to
      the same word is the idempotent flag-store idiom, e.g. graph
      coloring's conflict clear, and is deterministic).

    Write-write pairs are additionally suppressed when the second store
    rewrites exactly the value the first stored (tracked in a per-word
    last-value shadow): unordered same-value stores — e.g. many child
    blocks of one high-degree vertex clearing the same local-max flag —
    produce the same memory state in every interleaving.

    Any pair in which *either* access is atomic is treated as
    synchronized: atomic-vs-atomic is ordered by the memory system, and a
    plain access racing an atomic flag (SSSP's plain ``inflag[v] = 0``
    reset vs the ``atom_cas`` claim, or a plain stale read of an
    atomically updated word) is the intentional benign-race idiom these
    irregular workloads are built on.  Only plain-vs-plain conflicts with
    at least one write are reported.  Only the last access per word is
    remembered, so a race can be masked by an intervening access — a
    standard shadow-state approximation.

``oob`` / ``use-after-free``
    Every global access is checked against the bump allocator's live-range
    map: words outside any live allocation are flagged, and words that
    once belonged to a ``free()``d range are reported as use-after-free.
    Word 0 (the null address) is never addressable.

``uninit-read``
    A plain ``LD``/``FLD`` of an allocated word that no device store,
    atomic, or host write has initialized.

``barrier-divergence``
    A warp issuing ``BAR`` with a partial active mask (divergent lanes
    will never arrive), a warp arriving at a barrier after a sibling warp
    already exited, and a warp exiting while siblings wait at a barrier.

``bad-launch``
    ``LAUNCH_DEVICE`` / ``LAUNCH_AGG`` with non-positive grid or block
    dimensions (zero-dim aggregated groups), block shapes exceeding the
    SMX thread limit, or an unregistered kernel name.

Findings are structured :class:`SanitizerFinding` records collected in a
:class:`SanitizerReport`; every occurrence is counted, while full records
are stored once per (kind, kernel, pc) site so hot loops cannot blow up
the report.  The sanitizer never changes execution: timing, statistics
and memory contents are identical with it on or off.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Tuple

import numpy as np

from ..config import WARP_SIZE, GPUConfig
from ..isa.instructions import Bank, Opcode, Reg
from ..isa.semantics import ATOMIC, MEMORY

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .gpu import GPU
    from .thread_block import ThreadBlock
    from .warp import Warp

def sanitize_enabled(config: GPUConfig) -> bool:
    """Whether a GPU built now under ``config`` gets a sanitizer: its
    ``sanitize`` field, or ``REPRO_SANITIZE`` set to anything but ``""``
    or ``"0"``.  A job's fingerprint hashes this same answer, since a
    sanitized run verifies more than a plain one with equal statistics."""
    return bool(config.sanitize) or os.environ.get("REPRO_SANITIZE", "") not in ("", "0")


#: Shadow "no block" / host sentinel in the writer/reader block fields.
_HOST = 0

#: Global read-modify-write atomics: each is both a read and a write.
_ATOMICS = frozenset(ATOMIC)
#: Plain (non-atomic) global loads.
_PLAIN_READS = frozenset(
    op for op, row in MEMORY.items() if row.space == "global" and not row.store
)
#: What mutates a global word: plain stores and atomics.
_GLOBAL_WRITES = _ATOMICS | {
    op for op, row in MEMORY.items() if row.space == "global" and row.store
}
#: Every global access, through the coalescer.
_GLOBAL_ACCESSES = _PLAIN_READS | _GLOBAL_WRITES


@dataclass(frozen=True)
class SanitizerFinding:
    """One structured sanitizer finding.

    ``address`` is a global word address (or a shared-memory word index
    for ``shared-race``); ``-1`` when not applicable.  ``lanes`` are the
    warp lanes involved at the reporting access.
    """

    kind: str
    cycle: int
    smx: int
    kernel: str
    pc: int
    address: int = -1
    lanes: Tuple[int, ...] = ()
    detail: str = ""

    def __str__(self) -> str:
        where = f"{self.kernel}@pc={self.pc}" if self.pc >= 0 else self.kernel
        addr = f" addr={self.address}" if self.address >= 0 else ""
        lanes = f" lanes={list(self.lanes)}" if self.lanes else ""
        return (
            f"[{self.kind}] cycle={self.cycle} smx={self.smx} {where}"
            f"{addr}{lanes}: {self.detail}"
        )

    def to_dict(self) -> dict:
        """All fields as a JSON-safe dictionary (exact round trip)."""
        return {
            "kind": self.kind,
            "cycle": self.cycle,
            "smx": self.smx,
            "kernel": self.kernel,
            "pc": self.pc,
            "address": self.address,
            "lanes": list(self.lanes),
            "detail": self.detail,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SanitizerFinding":
        return cls(
            kind=data["kind"],
            cycle=data["cycle"],
            smx=data["smx"],
            kernel=data["kernel"],
            pc=data["pc"],
            address=data["address"],
            lanes=tuple(data["lanes"]),
            detail=data["detail"],
        )


class SanitizerReport:
    """Accumulated sanitizer findings.

    ``counts`` tracks every occurrence by kind; ``findings`` stores the
    first full record per (kind, kernel, pc) site, capped at
    ``max_records`` so a racy inner loop cannot make the report unbounded.
    """

    STATE = (
        ("max_records", "value"),
        ("counts", "copy"),
        ("findings", "copy"),
        ("_sites", "copy"),
    )
    NOT_STATE = ()

    def __init__(self, max_records: int = 256) -> None:
        self.max_records = max_records
        self.counts: Dict[str, int] = {}
        self.findings: List[SanitizerFinding] = []
        self._sites: set = set()

    def add(self, finding: SanitizerFinding) -> None:
        self.counts[finding.kind] = self.counts.get(finding.kind, 0) + 1
        site = (finding.kind, finding.kernel, finding.pc)
        if site not in self._sites and len(self.findings) < self.max_records:
            self._sites.add(site)
            self.findings.append(finding)

    @property
    def clean(self) -> bool:
        """True iff no detector fired at all."""
        return not self.counts

    def total(self) -> int:
        return sum(self.counts.values())

    def by_kind(self, kind: str) -> List[SanitizerFinding]:
        return [f for f in self.findings if f.kind == kind]

    def __len__(self) -> int:
        return len(self.findings)

    def __iter__(self):
        return iter(self.findings)

    def to_dict(self) -> dict:
        """Counts and deduplicated findings, JSON-safe (exact round trip)."""
        return {
            "max_records": self.max_records,
            "counts": dict(self.counts),
            "findings": [finding.to_dict() for finding in self.findings],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SanitizerReport":
        report = cls(max_records=data["max_records"])
        report.counts = {kind: int(n) for kind, n in data["counts"].items()}
        report.findings = [
            SanitizerFinding.from_dict(finding) for finding in data["findings"]
        ]
        report._sites = {(f.kind, f.kernel, f.pc) for f in report.findings}
        return report

    def format(self) -> str:
        """Human-readable multi-line summary."""
        if self.clean:
            return "sanitizer: clean (no findings)"
        lines = [
            "sanitizer: "
            + ", ".join(
                f"{kind}={count}" for kind, count in sorted(self.counts.items())
            )
        ]
        lines.extend(str(f) for f in self.findings)
        return "\n".join(lines)


class Sanitizer:
    """Per-GPU shadow state and detectors (see the module docstring)."""

    STATE = (
        ("report", SanitizerReport),
        # One element per word of global memory.
        ("_addressable", "image"),
        ("_freed", "image"),
        ("_init", "image"),
        ("_w_block", "image"),
        ("_w_thread", "image"),
        ("_w_epoch", "image"),
        ("_w_atomic", "image"),
        ("_w_cycle", "image"),
        ("_w_value", "image"),
        ("_r_block", "image"),
        ("_r_thread", "image"),
        ("_r_epoch", "image"),
        ("_r_atomic", "image"),
        ("_r_cycle", "image"),
        # Per-block tables: they grow, so a restore replaces them.
        ("_alive", "copy"),
        ("_start", "copy"),
        ("_fence", "copy"),
        ("_uids", "value"),
        ("_epochs", "copy"),
        ("_shared", "copy"),
        ("_bar_seen", "copy"),
    )
    NOT_STATE = ("_gpu",)  # wiring

    def __init__(self, gpu: "GPU") -> None:
        self._gpu = gpu
        self.report = SanitizerReport()
        n = gpu.memory.size_words
        # Per-word allocator shadow.  np.zeros is calloc-backed, so pages
        # for untouched regions of the (virtual) address space stay lazy.
        self._addressable = np.zeros(n, dtype=bool)
        self._freed = np.zeros(n, dtype=bool)
        self._init = np.zeros(n, dtype=bool)
        # Per-word last-writer / last-reader shadow.  Thread fields hold
        # block-linear thread id + 1 (0 = none); block fields hold the
        # accessor's block uid (0 = none / host).
        self._w_block = np.zeros(n, dtype=np.int32)
        self._w_thread = np.zeros(n, dtype=np.int32)
        self._w_epoch = np.zeros(n, dtype=np.int32)
        self._w_atomic = np.zeros(n, dtype=bool)
        self._w_cycle = np.zeros(n, dtype=np.int64)
        self._w_value = np.zeros(n, dtype=np.float64)
        self._r_block = np.zeros(n, dtype=np.int32)
        self._r_thread = np.zeros(n, dtype=np.int32)
        self._r_epoch = np.zeros(n, dtype=np.int32)
        self._r_atomic = np.zeros(n, dtype=bool)
        self._r_cycle = np.zeros(n, dtype=np.int64)
        # Per-block tables, indexed by block uid (uid 0 = host sentinel).
        cap = 1024
        self._alive = np.zeros(cap, dtype=bool)
        self._start = np.zeros(cap, dtype=np.int64)
        self._fence = np.full(cap, -1, dtype=np.int64)
        self._uids = 0
        self._epochs: Dict[int, int] = {}
        self._shared: Dict[int, tuple] = {}
        self._bar_seen: set = set()

    # ------------------------------------------------------------------
    # Memory-allocator observer protocol (GlobalMemory.observer)
    # ------------------------------------------------------------------
    def _shadowed(self, end: int) -> None:
        """The shadows are cut at the store's bound (see
        :mod:`repro.memory.global_memory`), so marking a word raises it:
        an allocation or a load marks words nothing has stored to."""
        memory = self._gpu.memory
        if end > memory.written_end:
            memory.written_end = end

    def on_alloc(self, base: int, words: int) -> None:
        end = base + words
        self._shadowed(end)
        self._addressable[base:end] = True
        self._freed[base:end] = False
        self._init[base:end] = False
        self._w_block[base:end] = _HOST
        self._r_block[base:end] = _HOST

    def on_free(self, base: int, words: int) -> None:
        end = base + words
        self._addressable[base:end] = False
        self._freed[base:end] = True

    def on_host_write(self, base: int, words: int) -> None:
        # Host writes happen while the device is idle: they initialize the
        # range and reset the race shadow (host access orders everything).
        end = base + words
        self._init[base:end] = True
        self._w_block[base:end] = _HOST
        self._r_block[base:end] = _HOST

    # ------------------------------------------------------------------
    # Block lifecycle (SMX hooks)
    # ------------------------------------------------------------------
    def on_block_start(self, tb: "ThreadBlock", cycle: int) -> None:
        self._uids += 1
        uid = self._uids
        tb.san_uid = uid
        if uid >= self._alive.size:
            grow = self._alive.size * 2
            self._alive = np.concatenate([self._alive, np.zeros(grow, dtype=bool)])
            self._start = np.concatenate([self._start, np.zeros(grow, dtype=np.int64)])
            self._fence = np.concatenate([self._fence, np.full(grow, -1, dtype=np.int64)])
        self._alive[uid] = True
        self._start[uid] = cycle
        self._fence[uid] = -1
        self._epochs[uid] = 0

    def on_block_finished(self, tb: "ThreadBlock", cycle: int) -> None:
        uid = tb.san_uid
        self._alive[uid] = False
        self._epochs.pop(uid, None)
        self._shared.pop(uid, None)

    # ------------------------------------------------------------------
    # Barrier hooks (ThreadBlock)
    # ------------------------------------------------------------------
    def on_barrier_release(self, tb: "ThreadBlock") -> None:
        uid = tb.san_uid
        if uid in self._epochs:
            self._epochs[uid] += 1

    def on_barrier_after_exit(self, tb: "ThreadBlock", warp: "Warp", cycle: int) -> None:
        """A warp reached BAR although a sibling warp already exited."""
        key = (tb.san_uid, "arrive-after-exit")
        if key in self._bar_seen:
            return
        self._bar_seen.add(key)
        self.report.add(
            SanitizerFinding(
                kind="barrier-divergence",
                cycle=cycle,
                smx=tb.smx.smx_id,
                kernel=tb.func.name,
                pc=-1,
                detail=(
                    f"warp {warp.warp_index} arrived at a barrier after a "
                    f"sibling warp exited ({tb.alive_warps} of "
                    f"{len(tb.warps)} warps still alive)"
                ),
            )
        )

    def on_exit_during_barrier(self, tb: "ThreadBlock", warp: "Warp", cycle: int) -> None:
        """A warp exited while sibling warps wait at a barrier."""
        key = (tb.san_uid, "exit-during-barrier")
        if key in self._bar_seen:
            return
        self._bar_seen.add(key)
        self.report.add(
            SanitizerFinding(
                kind="barrier-divergence",
                cycle=cycle,
                smx=tb.smx.smx_id,
                kernel=tb.func.name,
                pc=-1,
                detail=(
                    f"warp {warp.warp_index} exited while sibling warps "
                    "wait at a barrier (barrier released by warp exit)"
                ),
            )
        )

    # ------------------------------------------------------------------
    # Per-instruction hook (both cores call this from step())
    # ------------------------------------------------------------------
    def observe(self, warp: "Warp", pc: int, instr, mask: np.ndarray, cycle: int) -> None:
        op = instr.op
        if op in _GLOBAL_ACCESSES:
            self._check_global(warp, pc, instr, mask, cycle)
        elif op is Opcode.LDS or op is Opcode.STS:
            self._check_shared(warp, pc, instr, mask, cycle)
        elif op is Opcode.BAR:
            self._check_bar(warp, pc, mask, cycle)
        elif op is Opcode.LAUNCH_DEVICE or op is Opcode.LAUNCH_AGG:
            self._check_launch(warp, pc, instr, mask, cycle)

    # ------------------------------------------------------------------
    def _lane_values(self, warp: "Warp", operand, lanes: np.ndarray) -> np.ndarray:
        if type(operand) is Reg:
            return warp.regs_i[operand.idx][lanes]
        return np.full(lanes.size, operand.value, dtype=np.int64)

    def _stored_values(self, warp: "Warp", operand, lanes: np.ndarray) -> np.ndarray:
        """Per-lane values a store writes (float stores read the FLT bank)."""
        if type(operand) is Reg:
            bank = warp.regs_f if operand.bank is Bank.FLT else warp.regs_i
            return bank[operand.idx][lanes]
        return np.full(lanes.size, operand.value)

    def _emit(self, warp, pc, cycle, kind, address, lanes, detail) -> None:
        tb = warp.tb
        self.report.add(
            SanitizerFinding(
                kind=kind,
                cycle=cycle,
                smx=tb.smx.smx_id,
                kernel=tb.func.name,
                pc=pc,
                address=int(address),
                lanes=tuple(int(l) for l in np.atleast_1d(lanes)),
                detail=detail,
            )
        )

    def _check_global(self, warp, pc, instr, mask, cycle) -> None:
        lanes = np.flatnonzero(mask)
        if lanes.size == 0:
            return
        addrs = self._lane_values(warp, instr.a, lanes) + instr.offset
        op = instr.op
        atomic = op in _ATOMICS
        is_write = op in _GLOBAL_WRITES
        is_read = not is_write or atomic  # atomics read-modify-write

        # Hard bounds (the execution core raises right after us for these).
        inb = (addrs >= 0) & (addrs < self._addressable.size)
        if not inb.all():
            bad = np.flatnonzero(~inb)[0]
            self._emit(
                warp, pc, cycle, "oob", addrs[bad], lanes[~inb],
                f"access outside simulated memory (addr {int(addrs[bad])})",
            )
            addrs = addrs[inb]
            lanes = lanes[inb]
            if lanes.size == 0:
                return

        # Live-range check: OOB vs use-after-free.
        live = self._addressable[addrs]
        if not live.all():
            dead = ~live
            freed = self._freed[addrs] & dead
            if freed.any():
                i = int(np.flatnonzero(freed)[0])
                self._emit(
                    warp, pc, cycle, "use-after-free", addrs[i], lanes[freed],
                    f"access to freed allocation at word {int(addrs[i])}",
                )
            wild = dead & ~freed
            if wild.any():
                i = int(np.flatnonzero(wild)[0])
                self._emit(
                    warp, pc, cycle, "oob", addrs[i], lanes[wild],
                    f"access outside any live allocation at word {int(addrs[i])}",
                )

        # Uninitialized plain loads (atomics on fresh counters are common
        # and the RMW result is well-defined on the zeroed store; only
        # plain LD/FLD of never-written words are flagged).
        if op in _PLAIN_READS:
            uninit = live & ~self._init[addrs]
            if uninit.any():
                i = int(np.flatnonzero(uninit)[0])
                self._emit(
                    warp, pc, cycle, "uninit-read", addrs[i], lanes[uninit],
                    f"read of uninitialized word {int(addrs[i])}",
                )

        # ---------------- race detection -------------------------------
        # Any pair involving an atomic access is treated as synchronized
        # (see the module docstring): only plain accesses are checked, and
        # only against plain prior accesses.
        uid = warp.tb.san_uid
        tid1 = warp.warp_index * WARP_SIZE + lanes + 1  # thread id + 1
        epoch = self._epochs.get(uid, 0)
        # Accesses ordered before max(block start, last own atomic) are
        # launch- or acquire-ordered with respect to this block.
        ordered_before = max(int(self._start[uid]), int(self._fence[uid]))
        plain_write = is_write and not atomic
        values = self._stored_values(warp, instr.b, lanes) if plain_write else None

        # Against the last plain writer of each word.
        if not atomic:
            wb = self._w_block[addrs]
            gate = (wb != _HOST) & ~self._w_atomic[addrs]
            if gate.any():
                same = wb == uid
                conflict = gate & (self._w_cycle[addrs] > ordered_before) & (
                    (same & (self._w_thread[addrs] != tid1) & (self._w_epoch[addrs] == epoch))
                    | (~same & self._alive[wb])
                )
                if plain_write:
                    # A store that rewrites the last-written value is the
                    # idempotent flag-store idiom (outcome independent of
                    # order); only value-changing write-write pairs race.
                    conflict &= values != self._w_value[addrs]
                if conflict.any():
                    i = int(np.flatnonzero(conflict)[0])
                    a = int(addrs[i])
                    self._emit(
                        warp, pc, cycle, "data-race", a, lanes[conflict],
                        f"{'write' if is_write else 'read'} races prior write "
                        f"to word {a} by block uid {int(wb[i])} thread "
                        f"{int(self._w_thread[a]) - 1} at cycle {int(self._w_cycle[a])}",
                    )

        # A plain write also races prior plain reads by other threads.
        if plain_write:
            rb = self._r_block[addrs]
            gate = (rb != _HOST) & ~self._r_atomic[addrs]
            if gate.any():
                same = rb == uid
                conflict = gate & (self._r_cycle[addrs] > ordered_before) & (
                    (same & (self._r_thread[addrs] != tid1) & (self._r_epoch[addrs] == epoch))
                    | (~same & self._alive[rb])
                )
                if conflict.any():
                    i = int(np.flatnonzero(conflict)[0])
                    a = int(addrs[i])
                    self._emit(
                        warp, pc, cycle, "data-race", a, lanes[conflict],
                        f"write races prior read of word {a} by block uid "
                        f"{int(rb[i])} thread {int(self._r_thread[a]) - 1} "
                        f"at cycle {int(self._r_cycle[a])}",
                    )

            # Duplicate store addresses within one instruction: divergent
            # lanes of the same warp writing *different values* to the
            # same word (same-value duplicates are the idempotent
            # flag-store idiom and execute deterministically).
            if addrs.size > 1:
                uniq, counts = np.unique(addrs, return_counts=True)
                dups = uniq[counts > 1]
                if dups.size:
                    for a in dups:
                        sel = addrs == a
                        vals = values[sel]
                        if (vals != vals[0]).any():
                            self._emit(
                                warp, pc, cycle, "data-race", int(a), lanes[sel],
                                f"multiple lanes of one warp store differing "
                                f"values to word {int(a)} in the same "
                                "instruction",
                            )
                            break

        # ---------------- shadow update --------------------------------
        self._shadowed(int(addrs.max()) + 1)
        if is_write:
            self._w_block[addrs] = uid
            self._w_thread[addrs] = tid1
            self._w_epoch[addrs] = epoch
            self._w_atomic[addrs] = atomic
            self._w_cycle[addrs] = cycle
            if values is not None:
                self._w_value[addrs] = values
            self._init[addrs] = True
        if is_read:
            self._r_block[addrs] = uid
            self._r_thread[addrs] = tid1
            self._r_epoch[addrs] = epoch
            self._r_atomic[addrs] = atomic
            self._r_cycle[addrs] = cycle
        if atomic or (is_read and self._w_atomic[addrs].any()):
            # Acquire: an atomic of our own, or a plain read of an
            # atomically-updated word (observing a published counter, as
            # persistent-thread work queues do before reading the payload).
            self._fence[uid] = cycle

    # ------------------------------------------------------------------
    def _check_shared(self, warp, pc, instr, mask, cycle) -> None:
        lanes = np.flatnonzero(mask)
        if lanes.size == 0:
            return
        tb = warp.tb
        addrs = self._lane_values(warp, instr.a, lanes) + instr.offset
        size = tb.shared.size
        inb = (addrs >= 0) & (addrs < size)
        if not inb.all():  # the core raises ExecutionError right after us
            addrs = addrs[inb]
            lanes = lanes[inb]
            if lanes.size == 0:
                return
        uid = tb.san_uid
        shadow = self._shared.get(uid)
        if shadow is None:
            shadow = (
                np.zeros(size, dtype=np.int32),  # writer thread id + 1
                np.zeros(size, dtype=np.int32),  # writer epoch
                np.zeros(size, dtype=np.int32),  # reader thread id + 1
                np.zeros(size, dtype=np.int32),  # reader epoch
            )
            self._shared[uid] = shadow
        wt, we, rt, re = shadow
        tid1 = warp.warp_index * WARP_SIZE + lanes + 1
        epoch = self._epochs.get(uid, 0)
        is_write = instr.op is Opcode.STS

        conflict = (wt[addrs] != 0) & (wt[addrs] != tid1) & (we[addrs] == epoch)
        if is_write:
            conflict |= (rt[addrs] != 0) & (rt[addrs] != tid1) & (re[addrs] == epoch)
        if conflict.any():
            i = int(np.flatnonzero(conflict)[0])
            a = int(addrs[i])
            self._emit(
                warp, pc, cycle, "shared-race", a, lanes[conflict],
                f"{'store to' if is_write else 'load of'} shared word {a} "
                f"conflicts with thread {int(wt[a]) - 1 if wt[a] else int(rt[a]) - 1} "
                "with no barrier in between",
            )
        if is_write and addrs.size > 1:
            uniq, counts = np.unique(addrs, return_counts=True)
            if (counts > 1).any():
                a = int(uniq[np.flatnonzero(counts > 1)[0]])
                self._emit(
                    warp, pc, cycle, "shared-race", a, lanes[addrs == a],
                    f"multiple lanes of one warp store to shared word {a} "
                    "in the same instruction",
                )

        if is_write:
            wt[addrs] = tid1
            we[addrs] = epoch
        else:
            rt[addrs] = tid1
            re[addrs] = epoch

    # ------------------------------------------------------------------
    def _check_bar(self, warp, pc, mask, cycle) -> None:
        if np.array_equal(mask, warp.init_mask):
            return
        tb = warp.tb
        key = (tb.san_uid, warp.warp_index, pc)
        if key in self._bar_seen:
            return
        self._bar_seen.add(key)
        missing = np.flatnonzero(warp.init_mask & ~mask)
        self._emit(
            warp, pc, cycle, "barrier-divergence", -1, missing,
            f"warp {warp.warp_index} reached BAR with a partial active mask "
            f"({int(np.count_nonzero(mask))} of "
            f"{int(np.count_nonzero(warp.init_mask))} lanes); divergent "
            "lanes can never arrive",
        )

    # ------------------------------------------------------------------
    def _check_launch(self, warp, pc, instr, mask, cycle) -> None:
        lanes = np.flatnonzero(mask)
        if lanes.size == 0:
            return
        if instr.kernel not in self._gpu.kernels:
            self._emit(
                warp, pc, cycle, "bad-launch", -1, lanes,
                f"device launch of unregistered kernel {instr.kernel!r}",
            )
            return
        dims = [self._lane_values(warp, op, lanes) for op in instr.grid_dims]
        dims += [self._lane_values(warp, op, lanes) for op in instr.block_dims]
        nonpos = np.zeros(lanes.size, dtype=bool)
        for d in dims:
            nonpos |= d <= 0
        if nonpos.any():
            i = int(np.flatnonzero(nonpos)[0])
            shape = tuple(int(d[i]) for d in dims)
            self._emit(
                warp, pc, cycle, "bad-launch", -1, lanes[nonpos],
                f"device launch with non-positive dimension: "
                f"grid={shape[:3]} block={shape[3:]}",
            )
        threads = dims[3] * dims[4] * dims[5]
        too_big = threads > self._gpu.config.max_resident_threads
        if too_big.any():
            i = int(np.flatnonzero(too_big)[0])
            self._emit(
                warp, pc, cycle, "bad-launch", -1, lanes[too_big],
                f"device launch block of {int(threads[i])} threads exceeds "
                f"the SMX limit of {self._gpu.config.max_resident_threads}",
            )
