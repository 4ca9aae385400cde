"""Checkpoint documents: capture, restore and the file format.

What a document holds is not written here: each stateful class lists its
state in a ``STATE`` table, and a document's ``state`` is the GPU's table
captured recursively by :mod:`repro.state.schema`, keyed by attribute
name.  Restore is applied to a GPU produced by *replaying the host
program deterministically from scratch*: the replay supplies what a
pickle could not carry (kernel functions, decoded programs, the host
program's live spec/Event handles) and the document overwrites all
simulator-side state in place.

What is not a row stays explicit below: the three identity registries
that ``"record"`` / ``"age"`` / ``"spec"`` rows refer into
(``stats.launches``, where every record is appended at creation; the
table of every reachable aggregated group, so NAGEI/LAGEI ``next`` links
re-form the same chains; the host launch specs by ``seq``, whose dispatch
records restore patches so Event handles keep working), pending events
(rebuilt through :meth:`GPU._event_fn`, the factory live scheduling
uses), the ready heaps (rebuilt from the warps), the header and the file
(magic prefix + zlib-compressed pickle, written atomically).  Anything
that fails a check — unreadable, truncated, another format (1 to 3 have
no reader), stale salt, foreign fingerprint, a mismatch with the replay
— raises :class:`CheckpointError`; callers quarantine the file and run
fresh.
"""

from __future__ import annotations

import dataclasses
import heapq
import os
import pickle
import time
import zlib
from pathlib import Path
from typing import Optional

from ..dtbl.agt import AggregatedGroupEntry
from ..exec.cache import atomic_write, temp_files
from ..exec.fingerprint import CODE_VERSION
from ..memory.global_memory import apply_image, image_extent, trim_image
from ..sim.hwq import HostLaunchSpec
from ..sim.kmu import DeviceLaunchSpec
from ..sim.stats import launch_columns, launch_records
from .schema import (
    CheckpointError,
    build,
    capture,
    components,
    construct,
    decode,
    encode,
    restore,
    rows,
)

#: On-disk / in-memory checkpoint document format version.
CHECKPOINT_FORMAT = 4

#: File magic for checkpoint files.
MAGIC = b"REPRO-CKPT\x00"


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
    records = {id(record): i for i, record in enumerate(gpu.stats.launches)}
    ages: list = []
    age_ids: dict = {}

    def record_index(record) -> int:
        index = records.get(id(record))
        if index is None:
            raise CheckpointError(
                "launch record not registered in stats.launches; "
                "checkpoint invariant violated"
            )
        return index

    def age_index(age) -> int:
        index = age_ids.get(id(age))
        if index is None:
            index = age_ids[id(age)] = len(ages)
            ages.append(age)
        return index

    bound = gpu.memory.written_end
    if gpu.sanitizer is not None:
        _audit_bound(gpu, bound)
    refs = {
        "record": record_index,
        "age": age_index,
        "spec": _spec_seq,
        "kde": lambda entry: entry.index,
        "kernel": lambda func: func.name,
        "smx": lambda smx: smx.smx_id,
        "image": lambda array: trim_image(array, bound),
    }
    state = capture(gpu, refs)
    state["launches"] = launch_columns(gpu.stats.launches)
    # Host spec dispatch records, for every spec ever launched.
    state["spec_records"] = {
        seq: encode(spec.record, "record", refs)
        for seq, spec in gpu._specs_by_seq.items()
    }
    state["events"] = [
        (cycle, seq, kind, _encode_payload(refs, kind, payload))
        for cycle, seq, _fn, kind, payload in gpu._events
    ]
    # Last: capturing a group registers its ``next``, so the table grows
    # under this loop until every chain has been followed to its end.
    state["ages"] = [capture(age, refs) for age in ages]
    return {
        "format": CHECKPOINT_FORMAT,
        "salt": CODE_VERSION,
        "fingerprint": fingerprint,
        "run_index": gpu._run_index,
        "cycle": gpu.cycle,
        **_constructor_inputs(gpu),
        "state": state,
    }


def _audit_bound(gpu, bound: int) -> None:
    """Every ``"image"`` row scanned whole, as no checkpoint otherwise
    does: a write site that does not raise the bound fails the first
    sanitized checkpoint after it instead of truncating an image."""
    for prefix, component in components(gpu):
        for name, kind, _is_arg, _drained in rows(type(component)):
            if kind == "image":
                extent = image_extent(getattr(component, name))
                if extent > bound:
                    raise CheckpointError(
                        f"{prefix}{name} is set up to word {extent}, above the "
                        f"store's write bound {bound}: a write site does not "
                        "maintain GlobalMemory.written_end"
                    )


def _constructor_inputs(gpu) -> dict:
    """What a replay must have built its GPU from for ``gpu``'s state to
    fit: the header carries it, :func:`_validate_header` compares it."""
    return {
        "config": gpu.config.to_dict(),
        "latency": dataclasses.asdict(gpu.latency),
        "memory_words": gpu.memory.size_words,
        "sanitize": gpu.sanitizer is not None,
    }


def _spec_seq(spec: HostLaunchSpec) -> int:
    if spec.seq < 0:
        raise CheckpointError(
            "host launch spec without a seq id; checkpoint invariant violated"
        )
    return spec.seq


def _encode_payload(refs: dict, kind: str, payload):
    if kind != "kmu_activate":
        return payload  # a tuple of launch requests, a cycle, or None
    if isinstance(payload, HostLaunchSpec):
        return ("host", _spec_seq(payload))
    return ("device", capture(payload, refs))


def restore_document(gpu, doc: dict) -> None:
    """Overwrite ``gpu``'s state with a checkpoint document.

    ``gpu`` must come from a deterministic replay of the same host
    program: same config, same memory size, same sanitize setting, same
    registered kernels and the same host launches issued so far.
    """
    _validate_header(gpu, doc)
    state = doc["state"]
    if state["_launch_seq"] != gpu._launch_seq:
        raise CheckpointError(
            f"host launch replay mismatch: checkpoint saw "
            f"{state['_launch_seq']} host launches, replay made "
            f"{gpu._launch_seq}"
        )
    launches = launch_records(state["launches"])
    ages: list = []

    def replayed(table: dict, what: str):
        def lookup(key):
            if key not in table:
                raise CheckpointError(f"replay did not produce {what} {key!r}")
            return table[key]

        return lookup

    memory = gpu.memory
    bound = memory.written_end  # the replay's: what it may have set ends here

    def put_image(array, image) -> None:
        apply_image(array, image, bound)
        if image.size > memory.written_end:
            memory.written_end = image.size

    spec = replayed(gpu._specs_by_seq, "host launch seq")
    refs = {
        "record": launches.__getitem__,
        "age": ages.__getitem__,
        "spec": spec,
        "kde": lambda index: gpu.distributor._entries[index],
        "kernel": replayed(gpu.kernels, "kernel"),
        "smx": gpu.smxs.__getitem__,
        "image": put_image,
    }
    gpu.stats.launches = launches
    # Every group exists before any ``next`` link is resolved.
    ages.extend(
        construct(AggregatedGroupEntry, data, refs) for data in state["ages"]
    )
    for age, data in zip(ages, state["ages"]):
        restore(age, data, refs)
    restore(gpu, state, refs)
    for seq, record in state["spec_records"].items():
        spec(seq).record = decode(record, "record", refs)
    _rebuild_ready_heaps(gpu)
    events = []
    for cycle, seq, kind, payload in state["events"]:
        if kind == "kmu_activate":
            tag, what = payload
            payload = spec(what) if tag == "host" else build(DeviceLaunchSpec, what, refs)
        events.append((cycle, seq, gpu._event_fn(kind, payload), kind, payload))
    heapq.heapify(events)
    gpu._events = events


def _rebuild_ready_heaps(gpu) -> None:
    """One live entry per runnable warp, on either core.

    The heaps are lazily deduplicated: an entry whose warp has finished,
    waits at a barrier or has moved its ``ready_cycle`` is stale, and a
    stale entry is a pop-and-discard no-op wherever it sits (the fast
    loop leaves the head stale-free whenever it computes its next visited
    cycle), so dropping them all changes no observable ordering.  In the
    fast core's ``(sched, smx_id, ready, age, warp)`` key, ``sched``
    exceeds ``ready`` only for an entry an issue budget deferred, and at
    an inter-cycle boundary — the only place a checkpoint is taken —
    such an entry is due exactly at ``gpu.cycle``.

    The walk also rebinds each fast-core warp's register rows
    (``FastWarp.bind_rows``): the restore replaced the register files
    they were views of.
    """
    fast = gpu._gheap is not None
    gheap = []
    for smx in gpu.smxs:
        warps = [warp for tb in smx.blocks for warp in tb.warps]
        runnable = [w for w in warps if not (w.finished or w.at_barrier)]
        if fast:
            for w in warps:
                w.bind_rows()
            gheap += [
                (max(w.ready_cycle, gpu.cycle), smx.smx_id, w.ready_cycle, w.age, w)
                for w in runnable
            ]
        else:
            smx._ready_heap = [(w.ready_cycle, w.age, w) for w in runnable]
            heapq.heapify(smx._ready_heap)
    if fast:
        heapq.heapify(gheap)
        gpu._gheap = gheap


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
    _validate_version(doc, "document")
    for key, replayed in _constructor_inputs(gpu).items():
        if doc.get(key) != replayed:
            raise CheckpointError(f"checkpoint {key} differs from the replay")
    if gpu.tracer is not None:
        raise CheckpointError("cannot restore with a tracer/profiler attached")


def _validate_version(doc, where) -> None:
    if not isinstance(doc, dict) or doc.get("format") != CHECKPOINT_FORMAT:
        raise CheckpointError(
            f"unsupported checkpoint format in {where}: "
            f"{doc.get('format') if isinstance(doc, dict) else type(doc)!r}"
        )
    if doc.get("salt") != CODE_VERSION:
        raise CheckpointError(
            f"stale checkpoint {where}: written by {doc.get('salt')!r}, "
            f"running {CODE_VERSION!r}"
        )


def checkpoint_path_for(directory, fingerprint: str) -> Path:
    """Canonical checkpoint file path for a job fingerprint."""
    return Path(directory) / f"{fingerprint}.ckpt"


#: Host seconds this process has spent in :func:`checkpoint`'s capture and
#: save.  It only grows: read it twice and subtract.
_host_seconds = 0.0


def host_seconds() -> float:
    return _host_seconds


def checkpoint(gpu, fingerprint, path, callback) -> None:
    """One cadence checkpoint of :meth:`GPU.run`: capture, write to
    ``path`` if there is one, then hand the document to ``callback`` —
    the first two on the clock :func:`host_seconds` reads."""
    global _host_seconds
    began = time.perf_counter()
    doc = capture_document(gpu, fingerprint)
    if path is not None:
        save_checkpoint(path, doc)
    _host_seconds += time.perf_counter() - began
    if callback is not None:
        callback(doc)


def save_checkpoint(path, doc: dict) -> None:
    """Write a document to ``path``; readers and concurrent writers never
    observe a torn file (:func:`repro.exec.cache.atomic_write`)."""
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
    _validate_version(doc, path)
    if fingerprint is not None and doc.get("fingerprint") not in (None, fingerprint):
        raise CheckpointError(
            f"checkpoint {path} belongs to a different job "
            f"({doc.get('fingerprint')!r})"
        )
    return doc


def discard_checkpoint(path) -> None:
    """Remove a job's checkpoint and what writers killed mid-write left
    of it (preemption, cancel and crash are all ``SIGKILL``).

    For the checkpoint's owner, once the job has finished or the file is
    set aside: no attempt of that job is writing then.
    """
    path = Path(path)
    for leftover in [path, *temp_files(path)]:
        try:
            leftover.unlink()
        except OSError:
            pass


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
        target = None
    discard_checkpoint(path)
    return target
