"""Checkpoint/restore: file format, validation and round-trip identity.

Two layers of coverage:

* **file layer** — save/load/quarantine semantics on real checkpoint
  documents: atomic writes, magic/salt/format/fingerprint validation,
  truncation and corruption handling;
* **round-trip identity** — a run interrupted at a checkpoint and
  resumed in a *replayed* host program finishes bit-identical to an
  uninterrupted run: statistics, global memory, outputs and sanitizer
  state.  Property-tested over random programs, interrupt points and
  both simulation cores (à la ``tests/test_random_programs.py``), plus
  a workload-level sweep with the sanitizer on;
* **sparse image** — the document carries memory and the sanitizer's
  word-indexed shadows only up to their last non-zero word, and a
  restore still equals the captured GPU over the whole address space.
"""

import contextlib
import dataclasses
import pickle
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ExecutionMode, GPUConfig
from repro.config import ALU_LATENCY
from repro.sim.sanitizer import Sanitizer
from repro.state import (
    CheckpointError,
    capture_document,
    checkpoint_path_for,
    diff,
    load_checkpoint,
    prepare_resume,
    quarantine_checkpoint,
    restore_document,
    save_checkpoint,
)
from repro.workloads import get_benchmark

from ..helpers import make_device, map_kernel

SCALE = 0.08

#: The sanitizer's word-indexed shadow arrays, which travel as images.
SHADOWS = [name for name, kind in Sanitizer.STATE if kind == "image"]
assert len(SHADOWS) == 14


class Interrupt(Exception):
    pass


# ----------------------------------------------------------------------
# A tiny deterministic host program, replayable for resume.
# ----------------------------------------------------------------------
def _build(data, mult, add, mode=ExecutionMode.FLAT, fast=False,
           sanitize=True, wild_dst=False):
    """Fresh device + registered map kernel + uploaded inputs.

    ``wild_dst`` points the output 100k words above the allocator's
    high-water mark instead of at an allocation: in range, never
    allocated (the sanitizer reports it; the stores still land).
    """
    config = dataclasses.replace(
        GPUConfig.k20c(), core=("fast" if fast else "reference"), sanitize=sanitize
    )
    dev = make_device(mode, config=config)
    func = map_kernel(
        "ckpt_prop", lambda k, v: k.iadd(k.imul(v, mult), add)
    )
    dev.register(func)
    n = len(data)
    src = dev.upload(np.asarray(data, dtype=np.int64))
    dst = dev.gpu.memory.words_in_use + 100_000 if wild_dst else dev.alloc(n)
    return dev, func, n, src, dst


def _launch(dev, func, n, src, dst):
    dev.launch(
        func.name, grid=(n + 127) // 128, block=128, params=[n, src, dst]
    )


def _final_state(dev, dst, n):
    gpu = dev.gpu
    return {
        "out": dev.download_ints(dst, n).tolist(),
        "stats": gpu.stats.to_dict(),
        "memory": gpu.memory.i.copy(),
        "sanitizer": gpu.sanitizer.report.to_dict() if gpu.sanitizer else None,
    }


def _assert_same_final_state(final, golden):
    assert final["out"] == golden["out"]
    assert final["stats"] == golden["stats"]
    assert np.array_equal(final["memory"], golden["memory"])
    assert final["sanitizer"] == golden["sanitizer"]


def _capture_one(every=20, stop_at=1, **build_kwargs):
    """Run the tiny program until its ``stop_at``-th checkpoint.

    Returns ``(doc, path)``: the captured document (as handed to the
    ``on_checkpoint`` callback) and the checkpoint file on disk.
    """
    path = Path(tempfile.mkdtemp()) / "unit.ckpt"
    data = list(range(64))
    seen = []

    def grab(doc):
        seen.append(doc)
        if len(seen) >= stop_at:
            raise Interrupt()

    dev, func, n, src, dst = _build(data, 3, 7, **build_kwargs)
    dev.configure_checkpoint(every, path=str(path), on_checkpoint=grab)
    _launch(dev, func, n, src, dst)
    with pytest.raises(Interrupt):
        dev.synchronize()
    assert path.exists()
    return seen[-1], path


# ----------------------------------------------------------------------
# File layer
# ----------------------------------------------------------------------
class TestCheckpointFiles:
    def test_checkpoint_path_for(self, tmp_path):
        path = checkpoint_path_for(tmp_path, "abc123")
        assert path == tmp_path / "abc123.ckpt"

    def test_save_load_roundtrip(self, tmp_path):
        doc, _ = _capture_one()
        path = tmp_path / "roundtrip.ckpt"
        save_checkpoint(path, doc)
        loaded = load_checkpoint(path)
        for key in ("format", "salt", "run_index", "cycle", "config",
                    "latency", "memory_words", "sanitize"):
            assert loaded[key] == doc[key]
        assert set(loaded["state"]) == set(doc["state"])
        # Atomic write leaves no temporaries behind.
        assert [p.name for p in tmp_path.iterdir()] == ["roundtrip.ckpt"]

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError):
            load_checkpoint(tmp_path / "nope.ckpt")

    def test_load_rejects_non_checkpoint_bytes(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"definitely not a checkpoint")
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_load_rejects_corrupt_payload(self, tmp_path):
        path = tmp_path / "corrupt.ckpt"
        path.write_bytes(b"REPRO-CKPT\x00garbage-not-zlib")
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_load_rejects_truncated_file(self, tmp_path):
        doc, _ = _capture_one()
        path = tmp_path / "torn.ckpt"
        save_checkpoint(path, doc)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_load_rejects_stale_salt(self, tmp_path):
        doc, _ = _capture_one()
        path = tmp_path / "stale.ckpt"
        save_checkpoint(path, dict(doc, salt="some-older-code-version"))
        with pytest.raises(CheckpointError, match="stale"):
            load_checkpoint(path)

    def test_load_rejects_unknown_format(self, tmp_path):
        doc, _ = _capture_one()
        path = tmp_path / "other.ckpt"
        for fmt in (999, 2, 1):  # a future format, and the two older ones
            save_checkpoint(path, dict(doc, format=fmt))
            with pytest.raises(CheckpointError, match="format"):
                load_checkpoint(path)

    def test_load_enforces_fingerprint_binding(self, tmp_path):
        doc, _ = _capture_one()
        path = tmp_path / "bound.ckpt"
        save_checkpoint(path, dict(doc, fingerprint="job-a"))
        assert load_checkpoint(path, fingerprint="job-a")["cycle"] == doc["cycle"]
        with pytest.raises(CheckpointError, match="different job"):
            load_checkpoint(path, fingerprint="job-b")

    def test_quarantine_moves_file_aside(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"junk")
        target = quarantine_checkpoint(path)
        assert target == tmp_path / "bad.ckpt.corrupt"
        assert target.exists() and not path.exists()

    def test_quarantine_missing_file_returns_none(self, tmp_path):
        assert quarantine_checkpoint(tmp_path / "gone.ckpt") is None


# ----------------------------------------------------------------------
# Capture/restore validation
# ----------------------------------------------------------------------
class TestValidation:
    def test_capture_refuses_attached_tracer(self):
        dev, func, n, src, dst = _build(list(range(8)), 2, 1)
        dev.gpu.tracer = object()
        with pytest.raises(CheckpointError, match="tracer"):
            capture_document(dev.gpu)

    def test_prepare_resume_refuses_config_mismatch(self):
        doc, _ = _capture_one(sanitize=True)
        dev, *_ = _build(list(range(64)), 3, 7, sanitize=False)
        with pytest.raises(CheckpointError):
            prepare_resume(dev.gpu, doc)

    def test_prepare_resume_refuses_another_latency_model(self):
        """``GPU.latency`` is constructor input like the config, and the
        header vouches for it too (the ``STATE`` audit found it did not)."""
        doc, _ = _capture_one()
        dev, *_ = _build(list(range(64)), 3, 7)
        dev.gpu.latency = dev.gpu.latency.scaled(0.5)
        with pytest.raises(CheckpointError, match="latency"):
            prepare_resume(dev.gpu, doc)

    @pytest.mark.parametrize(
        "registry,key,message",
        [("kernels", "ckpt_prop", "kernel 'ckpt_prop'"),
         ("_specs_by_seq", 0, "host launch seq 0")],
    )
    def test_restore_refuses_a_replay_missing_what_a_row_refers_to(
        self, registry, key, message
    ):
        doc, _ = _capture_one(every=300)  # past the KMU's dispatch latency
        dev, func, n, src, dst = _build(list(range(64)), 3, 7)
        _launch(dev, func, n, src, dst)
        del getattr(dev.gpu, registry)[key]
        with pytest.raises(CheckpointError, match=f"did not produce {message}"):
            restore_document(dev.gpu, doc)

    def test_prepare_resume_refuses_replay_already_past(self):
        doc, _ = _capture_one()
        dev, func, n, src, dst = _build(list(range(64)), 3, 7)
        _launch(dev, func, n, src, dst)
        dev.synchronize()  # the replay's run 1 already completed
        with pytest.raises(CheckpointError, match="already past"):
            prepare_resume(dev.gpu, doc)


# ----------------------------------------------------------------------
# Round-trip identity: random programs, both cores
# ----------------------------------------------------------------------
class TestRoundTripProperty:
    @settings(max_examples=20, deadline=None)
    @given(
        n=st.integers(min_value=16, max_value=192),
        mult=st.integers(min_value=-7, max_value=7),
        add=st.integers(min_value=-100, max_value=100),
        every=st.integers(min_value=20, max_value=300),
        stop_at=st.integers(min_value=1, max_value=3),
        fast=st.booleans(),
        mode=st.sampled_from([ExecutionMode.FLAT, ExecutionMode.DTBL]),
        wild_dst=st.booleans(),
        data=st.data(),
    )
    def test_interrupt_resume_bit_identical(
        self, n, mult, add, every, stop_at, fast, mode, wild_dst, data
    ):
        values = data.draw(
            st.lists(
                st.integers(min_value=-(2**31), max_value=2**31),
                min_size=n, max_size=n,
            )
        )

        # An example builds five devices; each closes when the example
        # ends, so its store goes then and not at a later collection.
        with contextlib.ExitStack() as devices:
            def build(core=fast):
                built = _build(values, mult, add, mode, core, wild_dst=wild_dst)
                devices.enter_context(built[0])
                return built

            def run_checkpointed(core):
                """Uninterrupted, keeping every checkpoint document."""
                docs = []
                dev, func, _, src, dst = build(core)
                dev.configure_checkpoint(every, on_checkpoint=docs.append)
                _launch(dev, func, n, src, dst)
                dev.synchronize()
                return dev, dst, docs

            # Golden: one uninterrupted, uncheckpointed run.
            dev, func, _, src, dst = build()
            _launch(dev, func, n, src, dst)
            dev.synchronize()
            golden = _final_state(dev, dst, n)

            # Checkpointing perturbs nothing, and lands where it is due: at
            # the first cycle boundary at or after each multiple of
            # ``every`` (never early; a multiple passed inside one
            # instruction's latency is skipped) — the same cycles on both
            # cores, which can differ only in how they step between them.
            dev, dst, docs = run_checkpointed(fast)
            _assert_same_final_state(_final_state(dev, dst, n), golden)
            drained = capture_document(dev.gpu)
            cycles = [doc["cycle"] for doc in docs]
            assert cycles == [doc["cycle"] for doc in run_checkpointed(not fast)[2]]
            for before, cycle in zip([0] + cycles, cycles):
                assert cycle // every > before // every

            # Interrupt at the stop_at-th checkpoint (if the program runs
            # long enough to reach it; otherwise the clean completion below
            # must still match the golden run).
            path = Path(tempfile.mkdtemp()) / "prop.ckpt"

            def bomb(doc):
                bomb.count += 1
                if bomb.count >= stop_at:
                    raise Interrupt()

            bomb.count = 0
            dev, func, _, src, dst = build()
            dev.configure_checkpoint(every, path=str(path), on_checkpoint=bomb)
            _launch(dev, func, n, src, dst)
            try:
                dev.synchronize()
                interrupted = False
            except Interrupt:
                interrupted = True

            if interrupted:
                # Replay the host program and resume from the file.
                doc = load_checkpoint(path)
                resumed_docs = []
                dev, func, _, src, dst = build()
                dev.configure_checkpoint(every, on_checkpoint=resumed_docs.append)
                _launch(dev, func, n, src, dst)
                prepare_resume(dev.gpu, doc)
                dev.synchronize()
                # Every later checkpoint is the one the uninterrupted run
                # took, whole state, starting with its (stop_at + 1)-th.
                assert diff(docs[stop_at:], resumed_docs) is None

            _assert_same_final_state(_final_state(dev, dst, n), golden)
            assert diff(drained, capture_document(dev.gpu)) is None


# ----------------------------------------------------------------------
# Cadence: checkpoint_every is a schedule, not a lower bound
# ----------------------------------------------------------------------
class TestCadence:
    @pytest.mark.parametrize("sanitize", [False, True], ids=["plain", "sanitized"])
    @pytest.mark.parametrize("fast", [False, True], ids=["ref", "fast"])
    def test_kth_checkpoint_lands_within_one_issue_of_k_times_every(
        self, fast, sanitize
    ):
        """One warp alone on the machine in a long ALU loop: the fast
        core runs it ahead, past every other warp's ready cycle and
        bounded by the next due checkpoint (or steps it one instruction
        at a time under the sanitizer); a window bounded by the watchdog
        alone used to carry the cycle past every due checkpoint to the
        end of the run."""
        from repro import KernelBuilder, KernelFunction

        k = KernelBuilder("lone_spin")
        out = k.ld(k.param(), offset=0)
        acc = k.mov(0)
        with k.for_range(0, 1500) as i:
            k.iadd(acc, i, dst=acc)
        k.st(out, acc)
        k.exit()
        config = dataclasses.replace(
            GPUConfig.k20c(), core=("fast" if fast else "reference"),
            sanitize=sanitize,
        )
        dev = make_device(config=config)
        dev.register(KernelFunction("lone_spin", k.build()))
        dev.launch("lone_spin", grid=1, block=32, params=[dev.alloc(1)])
        cycles = []
        every = 8_000
        dev.configure_checkpoint(
            every, on_checkpoint=lambda doc: cycles.append(doc["cycle"])
        )
        dev.gpu.run()
        assert len(cycles) == dev.gpu.cycle // every >= 4
        for k_th, cycle in enumerate(cycles, start=1):
            assert 0 <= cycle - k_th * every < ALU_LATENCY


# ----------------------------------------------------------------------
# Sparse image: restore equals capture over the whole address space
# ----------------------------------------------------------------------
#: A quiet-NaN bit pattern with a payload, as an int64 word.
NAN_PAYLOAD = 0x7FF8_0000_DEAD_BEEF


def _bits(array):
    return array.view(np.int64) if array.dtype.kind == "f" else array


class TestSparseImage:
    """Document-level round trips: capture -> save -> load -> restore
    into a replay whose own memory and shadows are dirty at the top."""

    @pytest.fixture
    def close_after(self):
        """Closes the test's devices when it ends.  Each holds a 32 MB
        store and the sanitizer's shadows, pages of which these tests
        touch.  Left open, they wait for the cycle collector, and
        whether it happens to run between two of these tests decides
        whether their images pile up: the suite's peak RSS would wander
        with it."""
        devices = []
        yield devices.append
        for device in devices:
            device.close()

    def _roundtrip(self, tmp_path, prepare, close_after):
        captured, *_ = _build(list(range(64)), 3, 7)
        close_after(captured)
        prepare(captured.gpu)
        # The pokes here go through the raw views, past every write site
        # that keeps the bound: declare the widest one on both sides.
        captured.gpu.memory.written_end = captured.gpu.memory.size_words
        path = tmp_path / "image.ckpt"
        save_checkpoint(path, capture_document(captured.gpu))
        doc = load_checkpoint(path)

        replay, *_ = _build(list(range(64)), 3, 7)
        close_after(replay)
        gpu = replay.gpu
        gpu.memory.i[-5:] = 99
        gpu.memory.i[1000:1010] = -1
        gpu.sanitizer._w_value[-7] = 2.5
        gpu.sanitizer._init[-3:] = True
        gpu.sanitizer._r_cycle[500_000] = 12
        gpu.memory.written_end = gpu.memory.size_words
        restore_document(gpu, doc)

        assert np.array_equal(gpu.memory.i, captured.gpu.memory.i)
        for name in SHADOWS:
            want = _bits(getattr(captured.gpu.sanitizer, name))
            assert np.array_equal(_bits(getattr(gpu.sanitizer, name)), want), name
        return doc, captured.gpu

    def test_all_zero_memory(self, tmp_path, close_after):
        def prepare(gpu):
            gpu.memory.i[:] = 0

        doc, _ = self._roundtrip(tmp_path, prepare, close_after)
        assert doc["state"]["memory"]["i"].size == 0

    def test_last_word_set_makes_a_full_image(self, tmp_path, close_after):
        def prepare(gpu):
            gpu.memory.i[-1] = 5
            gpu.sanitizer._w_atomic[-1] = True

        doc, gpu = self._roundtrip(tmp_path, prepare, close_after)
        words = gpu.memory.size_words
        assert doc["state"]["memory"]["i"].size == words
        assert doc["state"]["sanitizer"]["_w_atomic"].size == words

    def test_image_ends_at_the_last_non_zero_word(self, tmp_path, close_after):
        doc, gpu = self._roundtrip(tmp_path, lambda gpu: None, close_after)
        top = int(np.flatnonzero(gpu.memory.i)[-1])
        assert doc["state"]["memory"]["i"].size == top + 1 < gpu.memory.words_in_use

    def test_negative_zero_and_nan_payloads_survive(self, tmp_path, close_after):
        def prepare(gpu):
            gpu.memory.i[2_000_000] = NAN_PAYLOAD
            gpu.memory.f[2_000_001] = -0.0  # the topmost set word
            gpu.sanitizer._w_value.view(np.int64)[3_000_000] = NAN_PAYLOAD
            gpu.sanitizer._w_value[3_000_001] = -0.0

        doc, gpu = self._roundtrip(tmp_path, prepare, close_after)
        assert doc["state"]["memory"]["i"].size == 2_000_002
        image = doc["state"]["sanitizer"]["_w_value"]
        assert image.size == 3_000_002
        assert image.view(np.int64)[-2] == NAN_PAYLOAD
        assert np.signbit(image[-1]) and image[-1] == 0.0

    @pytest.mark.parametrize("fast", [False, True], ids=["ref", "fast"])
    def test_replay_of_an_earlier_run_left_words_above_the_image(self, fast):
        """Run 1 writes above the high-water mark; run 2 zeroes those
        words again and then runs a second kernel.  A checkpoint taken
        during that kernel has an image that ends below them, while the
        replay — which has just re-executed run 1 — holds them non-zero
        until the restore clears them."""
        data = list(range(1, 65))

        def program(dev, func, n, src, wild, every=None, on_checkpoint=None):
            low = dev.alloc(n)
            _launch(dev, func, n, src, wild)
            dev.synchronize()
            zero = map_kernel("ckpt_zero", lambda k, v: k.imul(v, 0))
            dev.register(zero)
            _launch(dev, zero, n, src, wild)
            _launch(dev, func, n, src, low)
            dev.configure_checkpoint(every, on_checkpoint=on_checkpoint)
            dev.gpu.run()
            return low

        def build():
            return _build(data, 3, 7, fast=fast, wild_dst=True)

        dev, func, n, src, wild = build()
        low = program(dev, func, n, src, wild)
        golden = _final_state(dev, low, n)
        assert not golden["memory"][wild:].any()

        short = []

        def keep_short(doc):
            if doc["state"]["memory"]["i"].size <= wild:
                short.append(doc)

        dev, func, n, src, wild = build()
        program(dev, func, n, src, wild, every=20, on_checkpoint=keep_short)
        doc = pickle.loads(pickle.dumps(short[0]))
        assert doc["run_index"] == 2

        dev, func, n, src, wild = build()
        prepare_resume(dev.gpu, doc)
        low = program(dev, func, n, src, wild)
        final = _final_state(dev, low, n)
        _assert_same_final_state(final, golden)


# ----------------------------------------------------------------------
# Round-trip identity: real workloads, sanitizer on
# ----------------------------------------------------------------------
def _workload(bench, mode, fast):
    workload = get_benchmark(bench, ExecutionMode(mode), SCALE)
    config = dataclasses.replace(
        GPUConfig.k20c(), core=("fast" if fast else "reference"), sanitize=True
    )
    return workload, config


@pytest.fixture(scope="module")
def clean_workload_stats():
    cache = {}

    def get(bench, mode, fast):
        key = (bench, mode, fast)
        if key not in cache:
            workload, config = _workload(bench, mode, fast)
            result = workload.execute(config=config, latency_scale=0.25)
            cache[key] = (
                result.stats.to_dict(),
                result.sanitizer.to_dict(),
            )
        return cache[key]

    return get


class TestWorkloadRoundTrip:
    @pytest.mark.parametrize("fast", [False, True], ids=["ref", "fast"])
    @pytest.mark.parametrize(
        "bench,mode",
        [("bht", "cdp"), ("bht", "dtbl"), ("bfs_citation", "dtbl"), ("amr", "dtbl")],
    )
    def test_sanitized_workload_resumes_bit_identical(
        self, tmp_path, clean_workload_stats, bench, mode, fast
    ):
        from repro.exec import JobSpec

        # ``amr`` has linked aggregated groups in flight from its second
        # checkpoint on; the others are interrupted at their first.
        stop_at = 2 if bench == "amr" else 1

        def bomb(doc):
            bomb.count += 1
            if bomb.count == stop_at:
                raise Interrupt()

        bomb.count = 0

        def spec(config):
            return JobSpec.create(
                bench, ExecutionMode(mode), SCALE, 0.25, config=config,
                checkpoint_every=4_000, checkpoint_dir=str(tmp_path),
            )

        def run(on_checkpoint):
            """``execute_spec``, and the drained machine's document (taken
            where the workload verifies its outputs)."""
            workload, config = _workload(bench, mode, fast)
            drained = []
            verify = workload.check

            def capture_then_verify(device):
                drained.append(capture_document(device.gpu))
                verify(device)

            workload.check = capture_then_verify
            result = workload.execute_spec(spec(config), on_checkpoint=on_checkpoint)
            return result, drained[0]

        docs = []
        _, drained = run(docs.append)
        with pytest.raises(Interrupt):
            run(bomb)
        # The same job again finds the interrupted run's file and continues.
        resumed_docs = []
        result, resumed_drained = run(resumed_docs.append)

        stats, sanitizer = clean_workload_stats(bench, mode, fast)
        assert result.stats.to_dict() == stats
        assert result.sanitizer.to_dict() == sanitizer
        # Whole state, not just what the workload reports: every later
        # checkpoint and the drained machine equal the uninterrupted run's.
        assert bench != "amr" or docs[stop_at - 1]["state"]["ages"]
        assert diff(docs[stop_at:], resumed_docs) is None
        assert diff(drained, resumed_drained) is None

    def test_format_2_file_is_quarantined_then_run_fresh(
        self, tmp_path, clean_workload_stats
    ):
        """A checkpoint left behind by the hand-walked format 2 (no
        reader exists): ``load`` refuses it, the workload sets it aside
        and the job runs from cycle 0."""
        path = self._interrupted(tmp_path)
        doc = load_checkpoint(path)
        state = doc["state"]
        state["memory"]["image"] = state["memory"].pop("i")
        state["gpu"] = {"launch_seq": state.pop("_launch_seq")}
        save_checkpoint(path, dict(doc, format=2))
        with pytest.raises(CheckpointError, match="format"):
            load_checkpoint(path)
        self._resumes_fresh(tmp_path, path, clean_workload_stats)

    def test_replay_mismatch_found_at_restore_quarantines_the_file(
        self, tmp_path, clean_workload_stats
    ):
        """A mismatch only ``restore_document`` can see fires inside
        ``GPU.run``, long after ``load`` + ``prepare_resume`` accepted
        the file: the error propagates, but the file must not be left to
        poison every retry."""
        path = self._interrupted(tmp_path)
        doc = load_checkpoint(path)
        doc["state"]["_launch_seq"] += 1
        save_checkpoint(path, doc)

        workload, config = _workload("bht", "dtbl", True)
        with pytest.raises(CheckpointError, match="replay mismatch"):
            workload.execute_spec(self._spec(tmp_path, config))
        assert not path.exists()
        self._resumes_fresh(tmp_path, path, clean_workload_stats)

    @staticmethod
    def _spec(tmp_path, config):
        from repro.exec import JobSpec

        return JobSpec.create(
            "bht", ExecutionMode.DTBL, SCALE, 0.25, config=config,
            checkpoint_every=4_000, checkpoint_dir=str(tmp_path),
        )

    def _interrupted(self, tmp_path):
        """Kill ``bht``/``dtbl`` at its first checkpoint; the file's path."""
        def bomb(doc):
            raise Interrupt()

        workload, config = _workload("bht", "dtbl", True)
        with pytest.raises(Interrupt):
            workload.execute_spec(self._spec(tmp_path, config), on_checkpoint=bomb)
        (path,) = tmp_path.glob("*.ckpt")
        return path

    def _resumes_fresh(self, tmp_path, path, clean_workload_stats):
        workload, config = _workload("bht", "dtbl", True)
        result = workload.execute_spec(self._spec(tmp_path, config))
        stats, sanitizer = clean_workload_stats("bht", "dtbl", True)
        assert result.stats.to_dict() == stats
        assert result.sanitizer.to_dict() == sanitizer
        assert path.with_suffix(".ckpt.corrupt").exists() and not path.exists()

    @pytest.mark.parametrize("sanitize", [False, True], ids=["plain", "sanitized"])
    def test_document_size_follows_the_touched_words(self, sanitize):
        """A count, not a timing: at scale 0.1 a ``bht``/``dtbl``
        checkpoint carries memory up to its highest non-zero word and no
        further, and pickles far below the 32 MiB address space."""
        from repro.exec import JobSpec, run_job

        config = dataclasses.replace(GPUConfig.k20c(), sanitize=sanitize)
        spec = JobSpec.create(
            "bht", ExecutionMode.DTBL, 0.1, 0.25, config=config,
            checkpoint_every=30_000,
        )
        docs = []
        run_job(spec, on_checkpoint=docs.append)
        assert docs
        for doc in docs:
            image = doc["state"]["memory"]["i"]
            assert 0 < image.size < doc["memory_words"] // 8
            assert image[-1] != 0
            assert len(pickle.dumps(doc, protocol=4)) < 16 * 2**20
            assert (doc["state"]["sanitizer"] is not None) == doc["sanitize"]
            for name in SHADOWS if doc["sanitize"] else ():
                array = doc["state"]["sanitizer"][name]
                assert array.size < doc["memory_words"] // 8, name
