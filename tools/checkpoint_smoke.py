#!/usr/bin/env python
"""CI smoke: interrupt one Fig. 11 simulation mid-run, then resume it.

One (benchmark, mode) point from the paper's speedup grid runs three
times on each simulation core:

1. **clean** — uninterrupted, no checkpointing: the golden payload;
2. **interrupted** — checkpointing every few thousand cycles, killed by
   an exception raised from the first checkpoint callback (after the
   file landed on disk, exactly like a crashed sweep worker);
3. **resumed** — ``resume=True`` against the file the kill left behind.

The resumed payload must equal the clean payload bit-for-bit, and the
checkpoint file must be cleaned up on success.  Any difference exits
nonzero with a per-counter diff.

Each checkpoint's file size and memory-image extent are printed, and an
image as long as the whole address space fails the check: the document
is meant to cost what the job has touched.  Beside the extent goes the
store's write bound at that checkpoint (``GlobalMemory.written_end``,
below which the capture looked for the image's end): an extent above it,
found by scanning the whole store the way no checkpoint does any more,
means a write site does not maintain the bound, and fails.
``REPRO_SANITIZE=1`` runs the same three steps with the sanitizer's
shadow state in the file.
"""

import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

import tempfile  # noqa: E402
import dataclasses  # noqa: E402

from repro.config import GPUConfig  # noqa: E402
from repro.exec import JobSpec, run_job  # noqa: E402
from repro.runtime import ExecutionMode  # noqa: E402
from repro.memory.global_memory import image_extent  # noqa: E402
from repro.state import checkpoint_path_for, load_checkpoint, snapshot  # noqa: E402

BENCH = "bfs_citation"
MODE = ExecutionMode.DTBL
SCALE = 0.1
LATENCY_SCALE = 0.25
CKPT_EVERY = 8_000


#: cycle -> (write bound, extent of the whole store) at each capture: a
#: document does not carry the bound, so the capture is watched.
BOUNDS = {}
_capture_document = snapshot.capture_document


def _watched_capture(gpu, fingerprint=None):
    BOUNDS[gpu.cycle] = (gpu.memory.written_end, image_extent(gpu.memory.i))
    return _capture_document(gpu, fingerprint)


snapshot.capture_document = _watched_capture


class Interrupt(Exception):
    pass


def _bomb(doc):
    raise Interrupt()


def smoke_one(fast: bool) -> bool:
    core = "fast" if fast else "ref"
    config = dataclasses.replace(GPUConfig.k20c(), core=("fast" if fast else "reference"))
    job = JobSpec.create(BENCH, MODE, SCALE, LATENCY_SCALE, config=config)
    ckdir = tempfile.mkdtemp(prefix="repro-ckpt-smoke-")
    path = checkpoint_path_for(ckdir, job.fingerprint())
    ck_job = job.with_policy(
        checkpoint_every=CKPT_EVERY, checkpoint_dir=ckdir
    )

    clean = run_job(job).to_payload()
    try:
        run_job(ck_job, on_checkpoint=_bomb)
    except Interrupt:
        pass
    else:
        print(f"[{core}] FAIL: the run never reached a checkpoint "
              f"(checkpoint_every={CKPT_EVERY} too large?)")
        return False
    if not path.exists():
        print(f"[{core}] FAIL: interrupt left no checkpoint at {path}")
        return False
    doc = load_checkpoint(path)
    extent = doc["state"]["memory"]["i"].size
    bound, scanned = BOUNDS[doc["cycle"]]
    print(f"[{core}] checkpoint at cycle {doc['cycle']:,}: "
          f"{path.stat().st_size / 1024:.1f} KiB on disk, memory image "
          f"{extent:,} of {doc['memory_words']:,} words, write bound {bound:,}")
    if extent >= doc["memory_words"]:
        print(f"[{core}] FAIL: the memory image spans the whole address space")
        return False
    if scanned > bound or extent != scanned:
        print(f"[{core}] FAIL: the store is set up to word {scanned:,}, the "
              f"image holds {extent:,} and the write bound says {bound:,}")
        return False

    resumed = run_job(ck_job.with_policy(resume=True)).to_payload()
    if resumed["stats"] != clean["stats"]:
        golden, live = clean["stats"], resumed["stats"]
        drifted = {
            key: (golden.get(key), live.get(key))
            for key in set(golden) | set(live)
            if golden.get(key) != live.get(key)
        }
        print(f"[{core}] FAIL: resumed stats differ from the clean run; "
              f"changed counters (clean, resumed): {drifted}")
        return False
    if path.exists():
        print(f"[{core}] FAIL: checkpoint not removed after completion")
        return False
    print(f"[{core}] {BENCH} {MODE.value} scale={SCALE}: interrupt + "
          f"resume bit-identical ({clean['stats']['cycles']:,} cycles)")
    return True


def main() -> int:
    ok = True
    for fast in (False, True):
        ok = smoke_one(fast) and ok
    print("checkpoint smoke:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
