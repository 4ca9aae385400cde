"""Register rows: the fast core's per-warp views of its register files.

A ``FastWarp`` reads and writes its registers through ``rows_i`` /
``rows_f``, one NumPy view per row of ``regs_i`` / ``regs_f``, built
once.  The 2-D files stay the storage that the reference handlers, the
sanitizer, checkpoints and tests read and write in place, so the rule
is that every row is a view of its file's row — and the one place that
replaces the files, a checkpoint restore, must rebind the rows.  These
tests pin that rule directly (a stale view otherwise shows only when a
random draw of the checkpoint property happens to resume a live warp):
the rows after construction and after a mid-kernel restore, a write
through the 2-D file read by decoded closures, and a whole workload
interrupted and resumed on the fast core with fusion and run-ahead on.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro import Device, ExecutionMode, GPUConfig, KernelBuilder, KernelFunction
from repro.config import WARP_SIZE
from repro.exec import JobSpec, run_job
from repro.isa import parse_program
from repro.sim.fast_warp import FastWarp
from repro.sim.gpu import GPU
from repro.sim.thread_block import ThreadBlock
from repro.state import snapshot

N = 200
BLOCK = 96


def _rows_are_views(warp) -> bool:
    return all(
        len(rows) == len(regs)
        and all(np.shares_memory(row, regs[k]) for k, row in enumerate(rows))
        for rows, regs in ((warp.rows_i, warp.regs_i), (warp.rows_f, warp.regs_f))
    )


def _live_warps(gpu) -> list:
    return [
        warp for smx in gpu.smxs for tb in smx.blocks for warp in tb.warps
        if not warp.finished
    ]


def _loop_kernel() -> KernelFunction:
    """Params [n, out]: out[g] = an int and a float accumulated over
    ``3 + tid % 5`` trips, so warps diverge and live long."""
    k = KernelBuilder("rows")
    gtid = k.gtid()
    param = k.param()
    n = k.ld(param, offset=0)
    with k.if_(k.lt(gtid, n)):
        acc = k.mov(1)
        facc = k.itof(gtid)
        trips = k.iadd(k.imod(k.tid(), 5), 3)
        with k.for_range(0, trips) as i:
            k.iadd(k.imul(acc, 3), i, dst=acc)
            k.fadd(k.fmul(facc, 0.5), k.itof(i), dst=facc)
        out = k.ld(param, offset=1)
        k.st(k.iadd(out, k.imul(gtid, 2)), acc)
        k.fst(k.iadd(out, k.imul(gtid, 2)), facc, offset=1)
    k.exit()
    return KernelFunction("rows", k.build())


def _run(docs=None, resume=None):
    """One fast-core run -> (out words, stats); keeps every checkpoint
    document in ``docs``, or resumes from ``resume``."""
    func = _loop_kernel()
    config = dataclasses.replace(GPUConfig.small(), core="fast")
    with Device(config=config, mode=ExecutionMode.FLAT) as dev:
        dev.register(func)
        out = dev.alloc(2 * N)
        if docs is not None:
            dev.configure_checkpoint(50, on_checkpoint=docs.append)
        dev.launch(func.name, grid=-(-N // BLOCK), block=BLOCK, params=[N, out])
        if resume is not None:
            snapshot.prepare_resume(dev.gpu, resume)
        dev.synchronize()
        stats = dev.stats.to_dict()
        del stats["config"]
        return dev.download_ints(out, 2 * N).tolist(), stats


class TestRowsAreViews:
    def test_after_construction(self):
        config = dataclasses.replace(GPUConfig.small(), core="fast")
        with Device(config=config, mode=ExecutionMode.FLAT) as dev:
            func = _loop_kernel()
            dev.register(func)
            block = ThreadBlock(
                dev.gpu.smxs[0], func, (1, 1, 1), (BLOCK, 1, 1), 0, 0, None, None, [0, 1, 2]
            )
            assert block.warps and all(type(w) is FastWarp for w in block.warps)
            for warp in block.warps:
                assert warp.regs_i.shape[0] > 1 and warp.regs_f.shape[0] > 1
                assert _rows_are_views(warp)

    def test_after_a_mid_kernel_restore(self, monkeypatch):
        docs = []
        golden = _run(docs)
        assert golden == _run()  # checkpointing perturbs nothing
        seen = []
        restore = snapshot.restore_document

        def restore_then_look(gpu, doc):
            restore(gpu, doc)
            warps = _live_warps(gpu)
            seen.append((len(warps), all(_rows_are_views(w) for w in warps)))

        monkeypatch.setattr(snapshot, "restore_document", restore_then_look)
        # A checkpoint with warps resident and mid-kernel.
        doc = next(doc for doc in docs if doc["state"]["smxs"][0]["blocks"])
        assert _run(resume=doc) == golden
        ((live, views),) = seen
        assert live and views


# ----------------------------------------------------------------------
# A write through the 2-D file is what a decoded closure reads
# ----------------------------------------------------------------------
_PROGRAM = """
.kernel rows
    iadd %r2 %r1 %r1
    fadd %f2 %f1 %f1
    ld %r3 %r0 off=1
    fst %r0 %f2 off=2
    exit
"""


@pytest.mark.parametrize("lanes", [WARP_SIZE, 20], ids=["full", "partial"])
def test_a_write_through_the_register_file_reaches_the_closures(lanes):
    config = dataclasses.replace(GPUConfig.small(), core="fast")
    gpu = GPU(config, memory_words=1 << 12)
    func = KernelFunction("rows", parse_program(_PROGRAM))
    block = ThreadBlock(gpu.smxs[0], func, (1, 1, 1), (WARP_SIZE, 1, 1), 0, 0, None, None, [0])
    (warp,) = block.warps
    base = gpu.memory.alloc(1024)
    gpu.memory.write_ints(base, np.arange(1024, dtype=np.int64) * 3)
    lane = np.arange(WARP_SIZE, dtype=np.int64)
    warp.regs_i[0][...] = 100 + 2 * lane
    warp.regs_i[1][...] = lane - 7
    warp.regs_f[1][...] = lane * 0.25
    mask = lane < lanes
    warp.stack[:] = [[0, -1, mask, lanes, lanes == WARP_SIZE]]
    for cycle in range(4):
        warp.step(100 * (cycle + 1))
    on = mask.nonzero()[0]
    assert warp.regs_i[2][on].tolist() == (2 * (lane[on] - 7)).tolist()
    assert warp.regs_f[2][on].tolist() == (lane[on] * 0.5).tolist()
    assert warp.regs_i[3][on].tolist() == ((101 + 2 * lane[on] - base) * 3).tolist()
    assert gpu.memory.f[102 + 2 * lane[on]].tolist() == (lane[on] * 0.5).tolist()
    assert not warp.regs_i[2][~mask].any() and not warp.regs_i[3][~mask].any()


# ----------------------------------------------------------------------
# A whole workload, interrupted and resumed with fusion and run-ahead on
# ----------------------------------------------------------------------
class _Interrupt(Exception):
    pass


def test_an_interrupted_workload_resumes_to_identical_stats(tmp_path):
    def spec(checkpointed):
        extra = {"checkpoint_every": 3_000, "checkpoint_dir": str(tmp_path)} if checkpointed else {}
        return JobSpec.create("bht", ExecutionMode.DTBL, 0.08, 0.25, **extra)

    def stop_at_second(doc):
        stop_at_second.cycles.append(doc["cycle"])
        if len(stop_at_second.cycles) == 2:
            raise _Interrupt()

    stop_at_second.cycles = []
    golden = run_job(spec(False)).stats.to_dict()
    with pytest.raises(_Interrupt):
        run_job(spec(True), on_checkpoint=stop_at_second)
    resumed_cycles = []
    resumed = run_job(spec(True), on_checkpoint=lambda doc: resumed_cycles.append(doc["cycle"]))
    assert resumed.stats.to_dict() == golden
    # It did resume: its first checkpoint is past the one it stopped at.
    assert resumed_cycles and resumed_cycles[0] > stop_at_second.cycles[-1]
