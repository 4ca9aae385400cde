"""Capture and restore the complete mid-flight simulator state.

Design
------
A checkpoint is a plain-Python *document*: a header (format version,
code-version salt, optional job fingerprint, run index, cycle, GPU
config, sanitize flag) plus a ``state`` dictionary holding every mutable
piece of the simulation.  Restore does **not** rebuild a GPU from
nothing — it is applied to a GPU produced by *replaying the host
program deterministically from scratch* (same kernels registered, same
allocations, same host launches in the same order).  The replay supplies
everything a pickle could not faithfully carry — kernel functions,
decoded programs, the host program's live spec/Event handles — and the
checkpoint overwrites all simulator-side state in place, so a resumed
run is bit-identical to an uninterrupted one in both execution cores.

Object identity is preserved through three registries:

* **launch records** — every :class:`~repro.sim.stats.LaunchRecord` is
  appended to ``stats.launches`` at creation, so a record reference
  anywhere (KDE entry, AGE, pending device launch, host spec, pending
  event) serializes as its index into that list;
* **aggregated group entries** — every reachable
  :class:`~repro.dtbl.agt.AggregatedGroupEntry` (NAGEI chains, LAGEI
  tails, AGT slots, resident aggregated TBs) is collected into one
  deduplicated table and referenced by table index, so the NAGEI/LAGEI
  ``next`` links re-form the exact same chain;
* **host launch specs** — :class:`~repro.sim.hwq.HostLaunchSpec` carries
  a monotonic ``seq`` assigned by :meth:`GPU.host_launch`; the replayed
  host program re-creates specs with identical seqs, and the restore
  patches queue membership and dispatch records back onto those live
  objects (the host program's :class:`~repro.runtime.host_api.Event`
  handles keep working across a resume).

Pending events serialize as their ``(cycle, seq, kind, payload)``
description and are rebuilt through :meth:`GPU._event_fn` — the same
factory live scheduling uses — so restored and live events execute
identical code.  Ad-hoc events (``kind=None``) and attached tracers make
a state uncheckpointable and raise :class:`CheckpointError`.

On-disk format (:data:`CHECKPOINT_FORMAT` 2): a magic prefix, then
zlib-compressed pickle (protocol 4) of the document.  Global memory and
each of the sanitizer's fourteen word-indexed shadow arrays travel as an
*image* — the array up to its last word with any bit set
(:func:`repro.memory.global_memory.trim_image`); the image's length is
its extent and ``memory_words`` in the header is the size it was cut
from.  The extent is found by a blocked backward scan over the integer
view of the data, so a float ``-0.0`` or a NaN payload counts as set,
and nothing in the simulator's store paths records writes for it.
Restore writes each image over the head of the replayed array and
zeroes only what the replay itself left set above the extent
(:func:`~repro.memory.global_memory.apply_image`), so the restored GPU
equals the captured one over the whole address space while a checkpoint
costs what the job has touched, not ``memory_words``.  Format 1 carried
dense copies; its files fail the format check like any unknown format.
Writes are atomic (:func:`repro.exec.cache.atomic_write`: unique temp
file in the target directory + ``os.replace``); loads that fail for any
reason raise :class:`CheckpointError`, and callers quarantine the file
to ``<name>.corrupt`` and fall back to a fresh run.  The header's salt is
:data:`repro.exec.fingerprint.CODE_VERSION`, so a checkpoint written by
different simulator code is rejected as stale rather than restored into
subtly different semantics.
"""

from __future__ import annotations

import heapq
import os
import pickle
import zlib
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from ..dtbl.agt import AggregatedGroupEntry
from ..exec.cache import atomic_write
from ..exec.cli import DEFAULT_CHECKPOINT_DIR  # defined once, importable from here too
from ..exec.fingerprint import CODE_VERSION
from ..memory.global_memory import apply_image, trim_image
from ..sim.hwq import HostLaunchSpec
from ..sim.kernel_distributor import KDEEntry
from ..sim.kmu import DeviceLaunchSpec
from ..sim.sanitizer import SanitizerReport
from ..sim.stats import LaunchRecord
from ..sim.thread_block import ThreadBlock

#: On-disk / in-memory checkpoint document format version.
CHECKPOINT_FORMAT = 2

#: File magic for checkpoint files.
MAGIC = b"REPRO-CKPT\x00"


class CheckpointError(Exception):
    """A checkpoint cannot be captured, read, or restored.

    Raised for uncheckpointable state (ad-hoc events, attached tracer),
    unreadable or truncated files, stale code salts, and mismatches
    between the checkpoint and the replayed host program.
    """


# ======================================================================
# Capture
# ======================================================================
def capture_document(gpu, fingerprint: Optional[str] = None) -> dict:
    """Snapshot ``gpu`` into a self-describing checkpoint document.

    ``fingerprint`` optionally binds the checkpoint to one
    :meth:`~repro.exec.jobspec.JobSpec.fingerprint`, so a sweep
    worker never resumes from another job's file.
    """
    if gpu.tracer is not None:
        raise CheckpointError(
            "cannot checkpoint with a tracer/profiler attached: tracer "
            "state is not serializable"
        )
    return {
        "format": CHECKPOINT_FORMAT,
        "salt": CODE_VERSION,
        "fingerprint": fingerprint,
        "run_index": gpu._run_index,
        "cycle": gpu.cycle,
        "config": gpu.config.to_dict(),
        "memory_words": gpu.memory.size_words,
        "sanitize": gpu.sanitizer is not None,
        "state": _capture_state(gpu),
    }


def _record_index(records: Dict[int, int], record) -> Optional[int]:
    if record is None:
        return None
    index = records.get(id(record))
    if index is None:
        raise CheckpointError(
            "launch record not registered in stats.launches; "
            "checkpoint invariant violated"
        )
    return index


def _capture_state(gpu) -> dict:
    stats = gpu.stats
    records: Dict[int, int] = {id(r): i for i, r in enumerate(stats.launches)}

    # -------------------- aggregated group registry -------------------
    ages: List[AggregatedGroupEntry] = []
    age_ids: Dict[int, int] = {}

    def reg_age(age: Optional[AggregatedGroupEntry]) -> Optional[int]:
        if age is None:
            return None
        key = id(age)
        index = age_ids.get(key)
        if index is None:
            index = len(ages)
            age_ids[key] = index
            ages.append(age)
            reg_age(age.next)
        return index

    for entry in gpu.distributor.active_entries():
        reg_age(entry.nagei)
        reg_age(entry.lagei)
    for slot in gpu.scheduler.agt._slots:
        reg_age(slot)
    for smx in gpu.smxs:
        for tb in smx.blocks:
            reg_age(tb.age)

    age_state = [
        {
            "agg_dims": age.agg_dims,
            "param_addr": age.param_addr,
            "next": age_ids[id(age.next)] if age.next is not None else None,
            "next_block": age.next_block,
            "exe_blocks": age.exe_blocks,
            "in_agt": age.in_agt,
            "agt_index": age.agt_index,
            "gate_until": age.gate_until,
            "fetch_issued": age.fetch_issued,
            "record": _record_index(records, age.record),
        }
        for age in ages
    ]

    # -------------------- kernel distributor --------------------------
    kde_state = [
        {
            "index": entry.index,
            "func": entry.func.name,
            "grid_dims": entry.grid_dims,
            "block_dims": entry.block_dims,
            "param_addr": entry.param_addr,
            "next_block": entry.next_block,
            "exe_blocks": entry.exe_blocks,
            "nagei": age_ids[id(entry.nagei)] if entry.nagei is not None else None,
            "lagei": age_ids[id(entry.lagei)] if entry.lagei is not None else None,
            "agg_exe_blocks": entry.agg_exe_blocks,
            "marked": entry.marked,
            "ever_marked": entry.ever_marked,
            "record": _record_index(records, entry.record),
            "stream_id": entry.stream_id,
        }
        for entry in gpu.distributor.active_entries()
    ]

    # -------------------- SMXs, thread blocks, warps ------------------
    warp_refs: Dict[int, tuple] = {}
    smx_state = []
    for smx in gpu.smxs:
        blocks = []
        for tb_index, tb in enumerate(smx.blocks):
            warps = []
            for warp_index, warp in enumerate(tb.warps):
                warp_refs[id(warp)] = (smx.smx_id, tb_index, warp_index)
                warps.append(
                    {
                        "regs_i": warp.regs_i.copy(),
                        "regs_f": warp.regs_f.copy(),
                        "stack": [
                            [frame[0], frame[1], np.array(frame[2], dtype=bool)]
                            + list(frame[3:])
                            for frame in warp.stack
                        ],
                        "ready_cycle": warp.ready_cycle,
                        "finished": warp.finished,
                        "at_barrier": warp.at_barrier,
                        "age": warp.age,
                    }
                )
            blocks.append(
                {
                    "func": tb.func.name,
                    "grid_dims": tb.grid_dims,
                    "block_dims": tb.block_dims,
                    "block_linear_index": tb.block_linear_index,
                    "param_addr": tb.param_addr,
                    "kde": tb.kde_entry.index,
                    "age": age_ids[id(tb.age)] if tb.age is not None else None,
                    "shared": tb.shared.copy(),
                    "alive_warps": tb._alive_warps,
                    "barrier_arrivals": tb._barrier_arrivals,
                    "san_uid": tb.san_uid,
                    "slots": [w.context_slot for w in tb.warps],
                    "warps": warps,
                }
            )
        smx_state.append(
            {
                "free_threads": smx.free_threads,
                "free_blocks": smx.free_blocks,
                "free_regs": smx.free_regs,
                "free_shared": smx.free_shared,
                "free_warp_slots": smx.free_warp_slots,
                "resident_warps": smx.resident_warps,
                "seq": smx._seq,
                "free_slots": list(smx._free_slots),
                "l1": _capture_cache(smx.l1),
                "blocks": blocks,
            }
        )

    # -------------------- ready heaps ---------------------------------
    # Fast core: serialize the GPU-wide heap's live entries verbatim —
    # the (sched, ready) pair matters because budget-deferred entries
    # (sched > ready) exist at checkpoint boundaries and their sched
    # keys order same-cycle issue across SMXs.  Stale lazy-deletion
    # entries are dropped; the issue loop guarantees the head is
    # stale-free whenever the loop computes its next visited cycle, so
    # dropping non-head stale entries (which are pop-and-discard no-ops)
    # cannot change any observable ordering.
    gheap_state = None
    if gpu._gheap is not None:
        gheap_state = []
        for sched, smx_id, ready, age_key, warp in gpu._gheap:
            if warp.finished or warp.at_barrier or ready != warp.ready_cycle:
                continue
            gheap_state.append((sched, smx_id, ready, age_key, warp_refs[id(warp)]))

    # -------------------- pending events ------------------------------
    events = []
    for cycle, seq, _fn, kind, payload in gpu._events:
        events.append((cycle, seq, kind, _encode_payload(records, kind, payload)))

    # -------------------- KMU / HWQs ----------------------------------
    hq = gpu.kmu.host_queues
    kmu_state = {
        "busy_until": gpu.kmu._busy_until,
        "dispatch_scheduled": gpu.kmu._dispatch_scheduled,
        "reserved_entries": gpu.kmu._reserved_entries,
        "hwqs": [
            {
                "pending": [_spec_seq(spec) for spec in hwq.pending],
                "head_inflight": hwq.head_inflight,
            }
            for hwq in hq.hwqs
        ],
        "stream_to_hwq": dict(hq._stream_to_hwq),
        "next_stream": hq._next_stream,
        "device_pending": [
            (
                spec.kernel_name,
                spec.grid_dims,
                spec.block_dims,
                spec.param_addr,
                _record_index(records, spec.record),
            )
            for spec in gpu.kmu.device_pending
        ],
    }

    # Host spec dispatch records, for every spec ever launched: the
    # replayed host program re-creates the same specs (same seqs), and
    # restore patches their record references so Event handles created
    # before the checkpoint still resolve after a resume.
    spec_records = {
        seq: _record_index(records, spec.record)
        for seq, spec in gpu._specs_by_seq.items()
    }

    scheduler = gpu.scheduler
    memsys = gpu.memsys
    return {
        "memory": {
            "image": gpu.memory.image(),
            "next_free": gpu.memory._next_free,
            "live": dict(gpu.memory._live),
        },
        "stats": {
            "counters": {
                name: getattr(stats, name) for name in stats._COUNTER_FIELDS
            },
            "coalescing": stats.coalescing.to_dict(),
            "launches": [record.to_dict() for record in stats.launches],
        },
        "dram": {
            "stats": memsys.dram.stats.to_dict(),
            "bank_next_free": list(memsys.dram._bank_next_free),
            "bank_open_row": list(memsys.dram._bank_open_row),
            "bus_next_free": memsys.dram._bus_next_free,
            "activity_end": memsys.dram._activity_end,
        },
        "l2": _capture_cache(memsys.l2),
        "ages": age_state,
        "kde": {
            "entries": kde_state,
            "occupied": gpu.distributor.occupied,
            "peak_occupied": gpu.distributor.peak_occupied,
        },
        "scheduler": {
            "fcfs": [entry.index for entry in scheduler.fcfs],
            "agt_slots": [
                age_ids[id(slot)] if slot is not None else None
                for slot in scheduler.agt._slots
            ],
            "agt_occupied": scheduler.agt.occupied,
            "agt_peak_occupied": scheduler.agt.peak_occupied,
            "distribute_scheduled": scheduler._distribute_scheduled,
            "gate_retries": sorted(scheduler._gate_retries),
            "smx_cursor": scheduler._smx_cursor,
        },
        "kmu": kmu_state,
        "runtime": {
            "stream_counter": gpu.runtime._stream_counter,
            "param_sizes": dict(gpu.runtime._param_sizes),
        },
        "spec_records": spec_records,
        "smxs": smx_state,
        "gheap": gheap_state,
        "events": events,
        "gpu": {
            "cycle": gpu.cycle,
            "active_warps": gpu.active_warps,
            "event_seq": gpu._event_seq,
            "launch_seq": gpu._launch_seq,
            "local_arenas": list(gpu._local_arenas),
        },
        "sanitizer": _capture_sanitizer(gpu.sanitizer),
    }


def _spec_seq(spec: HostLaunchSpec) -> int:
    if spec.seq < 0:
        raise CheckpointError(
            "host launch spec without a seq id; checkpoint invariant violated"
        )
    return spec.seq


def _capture_cache(cache) -> dict:
    stats = cache.stats
    return {
        "sets": [list(ways) for ways in cache._sets],
        "stats": (stats.accesses, stats.hits, stats.misses, stats.evictions),
    }


def _encode_payload(records: Dict[int, int], kind: Optional[str], payload):
    if kind in ("device_launch_batch", "agg_launch_batch"):
        return tuple(payload)
    if kind == "kmu_activate":
        if isinstance(payload, HostLaunchSpec):
            return ("host", _spec_seq(payload))
        return (
            "device",
            payload.kernel_name,
            payload.grid_dims,
            payload.block_dims,
            payload.param_addr,
            _record_index(records, payload.record),
        )
    if kind in ("kmu_retry", "distribute"):
        return None
    if kind == "gate_retry":
        return int(payload)
    raise CheckpointError(
        f"pending event of kind {kind!r} is not checkpointable"
    )


#: The sanitizer's word-indexed shadow arrays, one element per word of
#: global memory; a checkpoint carries each as a trimmed image.
_SHADOW_FIELDS = (
    "_addressable", "_freed", "_init",
    "_w_block", "_w_thread", "_w_epoch", "_w_atomic", "_w_cycle", "_w_value",
    "_r_block", "_r_thread", "_r_epoch", "_r_atomic", "_r_cycle",
)


def _capture_sanitizer(san) -> Optional[dict]:
    if san is None:
        return None
    return {
        "report": san.report.to_dict(),
        "shadow": {name: trim_image(getattr(san, name)) for name in _SHADOW_FIELDS},
        "alive": san._alive.copy(),
        "start": san._start.copy(),
        "fence": san._fence.copy(),
        "uids": san._uids,
        "epochs": dict(san._epochs),
        "shared": {
            uid: tuple(arr.copy() for arr in arrays)
            for uid, arrays in san._shared.items()
        },
        "bar_seen": list(san._bar_seen),
    }


# ======================================================================
# Restore
# ======================================================================
def restore_document(gpu, doc: dict) -> None:
    """Overwrite ``gpu``'s state with a checkpoint document.

    ``gpu`` must come from a deterministic replay of the same host
    program: same config, same memory size, same sanitize setting, same
    registered kernels and the same host launches issued so far.
    """
    _validate_header(gpu, doc)
    state = doc["state"]
    if state["gpu"]["launch_seq"] != gpu._launch_seq:
        raise CheckpointError(
            f"host launch replay mismatch: checkpoint saw "
            f"{state['gpu']['launch_seq']} host launches, replay made "
            f"{gpu._launch_seq}"
        )
    for name in {entry["func"] for entry in state["kde"]["entries"]}:
        if name not in gpu.kernels:
            raise CheckpointError(f"kernel {name!r} not registered in replay")
    _restore_state(gpu, state)


def prepare_resume(gpu, doc: dict) -> None:
    """Arm ``gpu`` to restore ``doc`` when the matching run begins.

    The replayed host program re-executes earlier :meth:`GPU.run` calls
    normally; the run whose index matches the checkpoint's consumes the
    pending restore at entry and continues from the checkpointed cycle.
    """
    _validate_header(gpu, doc)
    if doc["run_index"] <= gpu._run_index:
        raise CheckpointError(
            f"checkpoint targets run {doc['run_index']} but the replay is "
            f"already past run {gpu._run_index}"
        )
    gpu._pending_resume = (doc["run_index"], doc)


def _validate_header(gpu, doc: dict) -> None:
    if doc.get("format") != CHECKPOINT_FORMAT:
        raise CheckpointError(
            f"unsupported checkpoint format {doc.get('format')!r}"
        )
    if doc.get("salt") != CODE_VERSION:
        raise CheckpointError(
            f"stale checkpoint: written by {doc.get('salt')!r}, "
            f"running {CODE_VERSION!r}"
        )
    if doc.get("config") != gpu.config.to_dict():
        raise CheckpointError("checkpoint GPU config differs from the replay")
    if doc.get("memory_words") != gpu.memory.size_words:
        raise CheckpointError("checkpoint memory size differs from the replay")
    if doc.get("sanitize") != (gpu.sanitizer is not None):
        raise CheckpointError(
            "checkpoint sanitize setting differs from the replay"
        )
    if gpu.tracer is not None:
        raise CheckpointError("cannot restore with a tracer/profiler attached")


def _restore_state(gpu, state: dict) -> None:
    stats = gpu.stats

    # -------------------- memory --------------------------------------
    mem = state["memory"]
    gpu.memory.load_image(mem["image"])
    gpu.memory._next_free = mem["next_free"]
    gpu.memory._live = dict(mem["live"])

    # -------------------- statistics ----------------------------------
    for name, value in state["stats"]["counters"].items():
        setattr(stats, name, value)
    co = state["stats"]["coalescing"]
    stats.coalescing.warp_accesses = co["warp_accesses"]
    stats.coalescing.transactions = co["transactions"]
    stats.coalescing.lanes = co["lanes"]
    stats.coalescing.histogram[:] = np.asarray(co["histogram"], dtype=np.int64)
    launches = [LaunchRecord.from_dict(d) for d in state["stats"]["launches"]]
    stats.launches = launches

    # -------------------- memory system -------------------------------
    dram = gpu.memsys.dram
    ds = state["dram"]["stats"]
    dram.stats.n_read = ds["n_read"]
    dram.stats.n_write = ds["n_write"]
    dram.stats.row_hits = ds["row_hits"]
    dram.stats.row_misses = ds["row_misses"]
    dram.stats.n_activity = ds["n_activity"]
    dram._bank_next_free = list(state["dram"]["bank_next_free"])
    dram._bank_open_row = list(state["dram"]["bank_open_row"])
    dram._bus_next_free = state["dram"]["bus_next_free"]
    dram._activity_end = state["dram"]["activity_end"]
    _restore_cache(gpu.memsys.l2, state["l2"])

    # -------------------- aggregated groups ---------------------------
    ages: List[AggregatedGroupEntry] = []
    for data in state["ages"]:
        age = AggregatedGroupEntry(
            data["agg_dims"],
            data["param_addr"],
            launches[data["record"]] if data["record"] is not None else None,
        )
        age.next_block = data["next_block"]
        age.exe_blocks = data["exe_blocks"]
        age.in_agt = data["in_agt"]
        age.agt_index = data["agt_index"]
        age.gate_until = data["gate_until"]
        age.fetch_issued = data["fetch_issued"]
        ages.append(age)
    for age, data in zip(ages, state["ages"]):
        if data["next"] is not None:
            age.next = ages[data["next"]]

    # -------------------- kernel distributor --------------------------
    distributor = gpu.distributor
    distributor._entries = [None] * distributor.num_entries
    for data in state["kde"]["entries"]:
        entry = KDEEntry(
            data["index"],
            gpu.kernels[data["func"]],
            data["grid_dims"],
            data["block_dims"],
            data["param_addr"],
            launches[data["record"]] if data["record"] is not None else None,
            data["stream_id"],
        )
        entry.next_block = data["next_block"]
        entry.exe_blocks = data["exe_blocks"]
        entry.nagei = ages[data["nagei"]] if data["nagei"] is not None else None
        entry.lagei = ages[data["lagei"]] if data["lagei"] is not None else None
        entry.agg_exe_blocks = data["agg_exe_blocks"]
        entry.marked = data["marked"]
        entry.ever_marked = data["ever_marked"]
        distributor._entries[entry.index] = entry
    distributor.occupied = state["kde"]["occupied"]
    distributor.peak_occupied = state["kde"]["peak_occupied"]

    # -------------------- scheduler / AGT -----------------------------
    scheduler = gpu.scheduler
    sched = state["scheduler"]
    scheduler.fcfs.clear()
    scheduler.fcfs.extend(distributor._entries[index] for index in sched["fcfs"])
    agt = scheduler.agt
    agt._slots = [
        ages[index] if index is not None else None
        for index in sched["agt_slots"]
    ]
    agt.occupied = sched["agt_occupied"]
    agt.peak_occupied = sched["agt_peak_occupied"]
    scheduler._distribute_scheduled = sched["distribute_scheduled"]
    scheduler._gate_retries = set(sched["gate_retries"])
    scheduler._smx_cursor = sched["smx_cursor"]

    # -------------------- KMU / HWQs ----------------------------------
    kmu = gpu.kmu
    km = state["kmu"]
    kmu._busy_until = km["busy_until"]
    kmu._dispatch_scheduled = km["dispatch_scheduled"]
    kmu._reserved_entries = km["reserved_entries"]
    hq = kmu.host_queues
    for hwq, data in zip(hq.hwqs, km["hwqs"]):
        hwq.pending.clear()
        hwq.pending.extend(gpu._specs_by_seq[seq] for seq in data["pending"])
        hwq.head_inflight = data["head_inflight"]
    hq._stream_to_hwq = dict(km["stream_to_hwq"])
    hq._next_stream = km["next_stream"]
    kmu.device_pending.clear()
    for kernel_name, grid, block, param_addr, record in km["device_pending"]:
        kmu.device_pending.append(
            DeviceLaunchSpec(
                kernel_name,
                grid,
                block,
                param_addr,
                launches[record] if record is not None else None,
            )
        )

    # Patch dispatch records back onto the replayed host specs so the
    # host program's Event handles resolve after the resume.
    for seq, record in state["spec_records"].items():
        spec = gpu._specs_by_seq.get(seq)
        if spec is None:
            raise CheckpointError(
                f"replay did not produce host launch seq {seq}"
            )
        spec.record = launches[record] if record is not None else None

    # -------------------- device runtime ------------------------------
    gpu.runtime._stream_counter = state["runtime"]["stream_counter"]
    gpu.runtime._param_sizes = dict(state["runtime"]["param_sizes"])

    # -------------------- SMXs ----------------------------------------
    for smx, data in zip(gpu.smxs, state["smxs"]):
        smx.free_threads = data["free_threads"]
        smx.free_blocks = data["free_blocks"]
        smx.free_regs = data["free_regs"]
        smx.free_shared = data["free_shared"]
        smx.free_warp_slots = data["free_warp_slots"]
        smx.resident_warps = data["resident_warps"]
        smx._seq = data["seq"]
        smx._free_slots = list(data["free_slots"])
        _restore_cache(smx.l1, data["l1"])
        smx.blocks = []
        smx._ready_heap = []
        for tb_data in data["blocks"]:
            func = gpu.kernels[tb_data["func"]]
            age_index = tb_data["age"]
            tb = ThreadBlock(
                smx,
                func,
                tb_data["grid_dims"],
                tb_data["block_dims"],
                tb_data["block_linear_index"],
                tb_data["param_addr"],
                distributor._entries[tb_data["kde"]],
                ages[age_index] if age_index is not None else None,
                list(tb_data["slots"]),
            )
            tb.shared[:] = tb_data["shared"]
            tb._alive_warps = tb_data["alive_warps"]
            tb._barrier_arrivals = tb_data["barrier_arrivals"]
            tb.san_uid = tb_data["san_uid"]
            for warp, w in zip(tb.warps, tb_data["warps"]):
                warp.regs_i[:] = w["regs_i"]
                warp.regs_f[:] = w["regs_f"]
                warp.stack = [
                    [frame[0], frame[1], np.array(frame[2], dtype=bool)]
                    + list(frame[3:])
                    for frame in w["stack"]
                ]
                warp.ready_cycle = w["ready_cycle"]
                warp.finished = w["finished"]
                warp.at_barrier = w["at_barrier"]
                warp.age = w["age"]
            smx.blocks.append(tb)

    # -------------------- ready heaps ---------------------------------
    if state["gheap"] is not None:
        gheap = []
        for sched_c, smx_id, ready, age_key, ref in state["gheap"]:
            ref_smx, tb_index, warp_index = ref
            warp = gpu.smxs[ref_smx].blocks[tb_index].warps[warp_index]
            gheap.append((sched_c, smx_id, ready, age_key, warp))
        heapq.heapify(gheap)
        gpu._gheap = gheap
    else:
        gpu._gheap = None
        # Reference core: one live entry per runnable warp reproduces
        # the lazily-deduplicated heaps exactly (stale entries are
        # pop-and-discard no-ops in tick()/next_ready_cycle()).
        for smx in gpu.smxs:
            for tb in smx.blocks:
                for warp in tb.warps:
                    if not warp.finished and not warp.at_barrier:
                        heapq.heappush(
                            smx._ready_heap,
                            (warp.ready_cycle, warp.age, warp),
                        )

    # -------------------- pending events ------------------------------
    events = []
    for cycle, seq, kind, payload in state["events"]:
        payload = _decode_payload(gpu, launches, kind, payload)
        events.append((cycle, seq, gpu._event_fn(kind, payload), kind, payload))
    heapq.heapify(events)
    gpu._events = events

    # -------------------- sanitizer -----------------------------------
    _restore_sanitizer(gpu.sanitizer, state["sanitizer"])

    # -------------------- GPU scalars ---------------------------------
    g = state["gpu"]
    gpu.cycle = g["cycle"]
    gpu.active_warps = g["active_warps"]
    gpu._event_seq = g["event_seq"]
    gpu._launch_seq = g["launch_seq"]
    gpu._local_arenas = list(g["local_arenas"])


def _restore_cache(cache, data: dict) -> None:
    cache._sets = [dict.fromkeys(tags) for tags in data["sets"]]
    accesses, hits, misses, evictions = data["stats"]
    cache.stats.accesses = accesses
    cache.stats.hits = hits
    cache.stats.misses = misses
    cache.stats.evictions = evictions


def _decode_payload(gpu, launches, kind: Optional[str], payload):
    if kind == "kmu_activate":
        if payload[0] == "host":
            spec = gpu._specs_by_seq.get(payload[1])
            if spec is None:
                raise CheckpointError(
                    f"replay did not produce host launch seq {payload[1]}"
                )
            return spec
        _tag, kernel_name, grid, block, param_addr, record = payload
        return DeviceLaunchSpec(
            kernel_name,
            grid,
            block,
            param_addr,
            launches[record] if record is not None else None,
        )
    return payload


def _restore_sanitizer(san, data: Optional[dict]) -> None:
    if (san is None) != (data is None):
        raise CheckpointError(
            "checkpoint sanitize setting differs from the replay"
        )
    if san is None:
        return
    san.report = SanitizerReport.from_dict(data["report"])
    for name in _SHADOW_FIELDS:
        apply_image(getattr(san, name), data["shadow"][name])
    san._alive = data["alive"].copy()
    san._start = data["start"].copy()
    san._fence = data["fence"].copy()
    san._uids = data["uids"]
    san._epochs = dict(data["epochs"])
    san._shared = {
        uid: tuple(arr.copy() for arr in arrays)
        for uid, arrays in data["shared"].items()
    }
    san._bar_seen = set(data["bar_seen"])


# ======================================================================
# File I/O
# ======================================================================
def checkpoint_path_for(directory, fingerprint: str) -> Path:
    """Canonical checkpoint file path for a job fingerprint."""
    return Path(directory) / f"{fingerprint}.ckpt"


def save_checkpoint(path, doc: dict) -> None:
    """Atomically write a checkpoint document to ``path``.

    Readers and concurrent writers never observe a torn file
    (:func:`repro.exec.cache.atomic_write`).
    """
    atomic_write(path, MAGIC + zlib.compress(pickle.dumps(doc, protocol=4), 1))


def load_checkpoint(path, fingerprint: Optional[str] = None) -> dict:
    """Read and validate a checkpoint document from ``path``.

    Raises :class:`CheckpointError` for missing, truncated, corrupt,
    wrong-format, stale-salt or wrong-fingerprint files — callers decide
    whether to quarantine and fall back to a fresh run.
    """
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    if not raw.startswith(MAGIC):
        raise CheckpointError(f"{path} is not a checkpoint file")
    try:
        doc = pickle.loads(zlib.decompress(raw[len(MAGIC):]))
    except Exception as exc:
        raise CheckpointError(f"corrupt checkpoint {path}: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("format") != CHECKPOINT_FORMAT:
        raise CheckpointError(
            f"unsupported checkpoint format in {path}: "
            f"{doc.get('format') if isinstance(doc, dict) else type(doc)!r}"
        )
    if doc.get("salt") != CODE_VERSION:
        raise CheckpointError(
            f"stale checkpoint {path}: written by {doc.get('salt')!r}, "
            f"running {CODE_VERSION!r}"
        )
    if fingerprint is not None and doc.get("fingerprint") not in (None, fingerprint):
        raise CheckpointError(
            f"checkpoint {path} belongs to a different job "
            f"({doc.get('fingerprint')!r})"
        )
    return doc


def quarantine_checkpoint(path) -> Optional[Path]:
    """Move an unusable checkpoint aside to ``<name>.corrupt``.

    Returns the quarantine path, or ``None`` when the file was already
    gone (another worker may have quarantined it first).
    """
    path = Path(path)
    target = path.with_suffix(path.suffix + ".corrupt")
    try:
        os.replace(path, target)
    except OSError:
        return None
    return target
