"""``GlobalMemory.written_end``: an upper bound on every write, kept by
the write sites, and all a checkpoint reads of the store.

* **corpus** — over every golden grid point, both cores, plain and
  sanitized: at each checkpoint the whole-store scan (``image_extent``,
  the oracle) ends at or below the bound, and the document is, pickle
  byte for pickle byte, the one the scanning ``trim_image`` of the parent
  commit produces;
* **write sites** — kernels whose highest write no allocator-derived
  bound would cover: a wild store, a store after ``free`` rolled the
  allocator back, an atomic, a local store, a host ``memset`` of zeros;
* **restore** — onto a replay whose own bound is above the image (what
  it holds up there is zeroed) and below it (the bound is raised), and
  the resumed run continues bit-identically;
* **audit** — a write site that does not raise the bound fails the first
  sanitized checkpoint after it.
"""

import dataclasses
import pickle

import numpy as np
import pytest

from repro import ExecutionMode, GPUConfig
from repro.isa.builder import KernelBuilder
from repro.memory.global_memory import image_extent
from repro.sim.kernel import KernelFunction
from repro.state import CheckpointError, capture_document, diff, snapshot

from ..helpers import make_device
from ..test_golden_stats import GRID, LATENCY_SCALE, SCALE, golden_record

CORES = [("ref", "reference"), ("fast", "fast")]
BOTH_CORES = pytest.mark.parametrize("core", [c for _, c in CORES], ids=[t for t, _ in CORES])
SANITIZE = pytest.mark.parametrize("sanitize", [False, True], ids=["plain", "sanitized"])


def scanning_trim(array, bound):
    """``trim_image`` as it was before the bound: the whole array scanned."""
    return array[: image_extent(array)].copy()


@pytest.fixture
def watched(monkeypatch):
    """Every ``capture_document`` of a cadence checkpoint, held against
    the oracle; yields the list of ``(bound, extent)`` pairs seen."""
    seen = []
    capture = snapshot.capture_document

    def watching(gpu, fingerprint=None):
        bound, extent = gpu.memory.written_end, image_extent(gpu.memory.i)
        assert extent <= bound <= gpu.memory.size_words
        doc = capture(gpu, fingerprint)
        with monkeypatch.context() as patch:
            patch.setattr(snapshot, "trim_image", scanning_trim)
            scanned = capture(gpu, fingerprint)
        assert diff(doc, scanned) is None
        assert pickle.dumps(doc, protocol=4) == pickle.dumps(scanned, protocol=4)
        seen.append((bound, extent))
        return doc

    monkeypatch.setattr(snapshot, "capture_document", watching)
    return seen


@SANITIZE
@pytest.mark.parametrize(
    "bench,mode,tag,core", GRID, ids=[f"{b}-{m}-{t}" for b, m, t, _ in GRID]
)
def test_corpus_documents_equal_the_scanned_ones(bench, mode, tag, core, sanitize, watched):
    cycles = golden_record(bench, mode)["cycles"]
    from repro.exec import JobSpec, run_job

    config = dataclasses.replace(GPUConfig.k20c(), core=core, sanitize=sanitize)
    spec = JobSpec.create(
        bench, ExecutionMode(mode), SCALE, LATENCY_SCALE, config=config,
        checkpoint_every=cycles // 5,
    )
    result = run_job(spec, on_checkpoint=lambda doc: None)
    assert result.stats.cycles == cycles
    assert len(watched) >= 3
    assert watched[-1][1] > 0


# ----------------------------------------------------------------------
# Write sites
# ----------------------------------------------------------------------
def _kernel(name, body, local_words=0):
    k = KernelBuilder(name)
    body(k, k.param())
    k.exit()
    return KernelFunction(name, k.build(), local_words=local_words)


def _device(core, sanitize=False):
    return make_device(config=dataclasses.replace(GPUConfig.k20c(), core=core, sanitize=sanitize))


def _run(dev, func, params, threads=32):
    dev.register(func)
    dev.launch(func.name, grid=1, block=threads, params=params)
    dev.synchronize()
    memory = dev.gpu.memory
    return memory.written_end, image_extent(memory.i)


class TestWriteSites:
    @BOTH_CORES
    def test_wild_store_above_the_allocator(self, core):
        dev = _device(core)
        wild = dev.gpu.memory.words_in_use + 100_000
        func = _kernel("wild", lambda k, p: k.st(k.iadd(k.ld(p), k.tid()), 7))
        bound, extent = _run(dev, func, [wild])
        assert extent == wild + 32 <= bound
        assert dev.gpu.memory.words_in_use < wild

    @BOTH_CORES
    def test_float_store_and_immediate_base(self, core):
        """``FST``, and a store whose base is an immediate (the fast core
        hands that one to the reference handler)."""
        dev = _device(core)
        far = dev.gpu.memory.words_in_use + 100_000

        def body(k, p):
            k.fst(k.iadd(k.ld(p), k.tid()), 1.5)
            k.st(far + 40, 9)

        bound, extent = _run(dev, _kernel("fst_imm", body), [far])
        assert extent == far + 41 <= bound

    @BOTH_CORES
    def test_store_after_free_rolled_the_allocator_back(self, core):
        dev = _device(core)
        memory = dev.gpu.memory
        top = dev.alloc(64)
        memory.free(int(top))
        assert memory.words_in_use == top
        func = _kernel("stale", lambda k, p: k.st(k.iadd(k.ld(p), k.tid()), 3))
        # (The launch's one-word parameter buffer takes the freed ``top``.)
        bound, extent = _run(dev, func, [top + 8])
        assert memory.words_in_use == top + 1 and extent == top + 40 <= bound

    @BOTH_CORES
    @pytest.mark.parametrize("conflict", [False, True], ids=["distinct", "conflicting"])
    def test_atomic_is_the_highest_write(self, core, conflict):
        dev = _device(core)
        counters = dev.gpu.memory.words_in_use + 100_000

        def body(k, p):
            addr = k.ld(p) if conflict else k.iadd(k.ld(p), k.tid())
            k.atom_add(addr, 1, dst=k.ireg())

        bound, extent = _run(dev, _kernel("bump", body), [counters + (31 if conflict else 0)])
        assert extent == counters + 32 <= bound
        assert dev.gpu.memory.read_int(counters + 31) == (32 if conflict else 1)

    @BOTH_CORES
    def test_local_store_is_the_highest_write(self, core):
        dev = _device(core)
        func = _kernel("spill", lambda k, p: k.stl(3, k.iadd(k.tid(), 1)), local_words=4)
        bound, extent = _run(dev, func, [0])
        arena = dev.gpu.local_arena_base(0)
        assert extent > arena and extent <= bound
        # The end of the highest row stored to, not of the arena — unless
        # REPRO_SANITIZE=1 made a sanitizer mark the whole allocation.
        rows = 4 if dev.gpu.sanitizer is None else dev.gpu.config.max_local_words
        assert bound <= arena + rows * dev.gpu.config.max_resident_threads

    def test_host_memset_of_zeros_is_the_highest_write(self):
        dev = _device("fast")
        low = dev.upload(np.arange(1, 9))
        high = dev.alloc(1000)
        dev.memset(high + 500, 0, 100)
        memory = dev.gpu.memory
        # (Under REPRO_SANITIZE=1 a sanitizer has marked all of ``high``.)
        exact = dev.gpu.sanitizer is None
        assert memory.written_end == (high + 600 if exact else high + 1000)
        assert image_extent(memory.i) == low + 8
        assert capture_document(dev.gpu)["state"]["memory"]["i"].size == low + 8
        dev.copy_device(high + 700, low, 8)
        assert image_extent(memory.i) == high + 708
        assert memory.written_end == (high + 708 if exact else high + 1000)

    def test_launch_parameters_raise_it(self):
        dev = _device("fast")
        dev.register(_kernel("noop", lambda k, p: None))
        memory = dev.gpu.memory
        assert memory.written_end == 0
        dev.launch("noop", grid=1, block=32, params=[1, 2.5, 3])
        assert image_extent(memory.i) == memory.written_end == memory.words_in_use == 4

    @BOTH_CORES
    def test_sanitizer_shadows_stay_below_it(self, core):
        """A load marks reader shadows and an allocation the addressable
        shadow, on words nothing has stored to."""
        dev = _device(core, sanitize=True)
        quiet = dev.alloc(5000)  # allocated, never touched
        far = quiet + 100_000  # never allocated either: a wild load
        func = _kernel("peek", lambda k, p: k.ld(k.iadd(k.ld(p), k.tid()), dst=k.ireg()))
        bound, extent = _run(dev, func, [far])
        sanitizer = dev.gpu.sanitizer
        assert quiet + 5000 < image_extent(sanitizer._addressable) < far  # + parameters
        assert extent < far < image_extent(sanitizer._r_cycle) == far + 32 <= bound
        capture_document(dev.gpu)  # the sanitized audit agrees


# ----------------------------------------------------------------------
# Restore
# ----------------------------------------------------------------------
class _Stop(Exception):
    pass


def _program(core, every=None, on_checkpoint=None, dirt=None):
    """Two kernels over one array, the second run checkpointed; ``dirt``
    writes to the replay before that run begins."""
    dev = _device(core, sanitize=True)
    data = dev.upload(np.arange(1, 257))

    def body(k, p):
        addr = k.iadd(k.ld(p), k.gtid())
        with k.for_range(0, 6):
            k.st(addr, k.iadd(k.imul(k.ld(addr), 3), 1))

    func = _kernel("grind", body)
    dev.register(func)
    if dirt is not None:
        dirt(dev)
    dev.launch(func.name, grid=2, block=128, params=[data])
    dev.configure_checkpoint(every, on_checkpoint=on_checkpoint)
    dev.gpu.run()
    return dev, data


def _final(dev, data):
    gpu = dev.gpu
    return {
        "out": dev.download_ints(data, 256).tolist(),
        "stats": gpu.stats.to_dict(),
        "memory": gpu.memory.i.copy(),
        "report": gpu.sanitizer.report.to_dict(),
        "drained": capture_document(gpu),
    }


class TestRestore:
    @BOTH_CORES
    @pytest.mark.parametrize("replay", ["higher", "lower"])
    def test_resume_onto_a_replay_with_another_bound(self, core, replay):
        def scratch(dev, zeroed):
            """A write far above everything else, zeroed again or not."""
            base = dev.alloc(50_000)
            dev.gpu.memory.write_ints(base + 40_000, np.arange(1, 101))
            if zeroed:
                dev.memset(base + 40_000, 0, 100)

        # "lower": the host program itself writes high and zeroes it again,
        # so the image ends below the bound on every side.  "higher": only
        # the replay writes up there, and leaves it set.
        program = (lambda dev: scratch(dev, zeroed=True)) if replay == "lower" else None
        golden_dev, data = _program(core, dirt=program)
        golden = _final(golden_dev, data)

        docs = []

        def grab(doc):
            docs.append(doc)
            if len(docs) == 2:
                raise _Stop

        with pytest.raises(_Stop):
            _program(core, every=40, on_checkpoint=grab, dirt=program)
        doc = docs[-1]
        image = doc["state"]["memory"]["i"].size
        seen = {}

        def replayed(dev):
            memory = dev.gpu.memory
            if replay == "higher":
                scratch(dev, zeroed=False)
            else:
                program(dev)
                # Everything from here up is zero, so this too is a valid
                # bound for the replay — and one below the image.
                memory.written_end = image - 10
            seen["before"] = memory.written_end
            snapshot.prepare_resume(dev.gpu, doc)

        resumed_dev, data = _program(core, every=40, dirt=replayed)
        assert (seen["before"] > image) == (replay == "higher")
        memory = resumed_dev.gpu.memory
        assert memory.written_end >= max(seen["before"], image)
        assert image_extent(memory.i) <= memory.written_end
        final = _final(resumed_dev, data)
        assert final["out"] == golden["out"]
        assert final["stats"] == golden["stats"]
        assert np.array_equal(final["memory"], golden["memory"])
        assert final["report"] == golden["report"]
        assert diff(final["drained"], golden["drained"]) is None

    def test_restore_zeroes_between_the_image_and_the_replays_bound(self):
        dev, _ = _program("fast")
        doc = capture_document(dev.gpu)
        image = doc["state"]["memory"]["i"].size
        replay, _ = _program("fast")
        memory = replay.gpu.memory
        memory.write_ints(image + 5000, np.arange(1, 11))
        replay.gpu.sanitizer._r_cycle[image + 5003] = 77
        assert memory.written_end == image + 5010
        snapshot.restore_document(replay.gpu, doc)
        assert not memory.i[image:].any()
        assert not replay.gpu.sanitizer._r_cycle[image:].any()
        assert np.array_equal(memory.i, dev.gpu.memory.i)
        assert memory.written_end == image + 5010


# ----------------------------------------------------------------------
# Audit
# ----------------------------------------------------------------------
class TestAudit:
    def test_a_write_site_that_skips_the_bound_fails_a_sanitized_checkpoint(self):
        from repro.memory.global_memory import GlobalMemory

        class Careless(GlobalMemory):
            def write_int(self, addr, value):  # a new write site, bound forgotten
                self.i[addr] = value

        dev = _device("fast", sanitize=True)
        dev.upload(np.arange(1, 9))
        capture_document(dev.gpu)
        dev.gpu.memory.__class__ = Careless
        dev.gpu.memory.write_int(3_000_000, 5)
        with pytest.raises(CheckpointError, match=r"memory\.i is set up to word 3000001"):
            capture_document(dev.gpu)

    def test_a_shadow_above_the_bound_fails_too(self):
        dev = _device("fast", sanitize=True)
        dev.upload(np.arange(1, 9))
        dev.gpu.sanitizer._w_cycle[2_000_000] = 1
        with pytest.raises(CheckpointError, match=r"sanitizer\._w_cycle"):
            capture_document(dev.gpu)

    def test_unsanitized_capture_does_not_scan(self):
        """Without the sanitizer there is no audit: the capture reads
        below the bound only (which is the point), so a careless write is
        cut off — the failure mode the sanitized tier-1 run exists for."""
        dev = _device("fast")
        if dev.gpu.sanitizer is not None:
            pytest.skip("REPRO_SANITIZE=1 attaches a sanitizer to every device")
        base = dev.upload(np.arange(1, 9))
        dev.gpu.memory.i[3_000_000] = 5
        assert capture_document(dev.gpu)["state"]["memory"]["i"].size == base + 8
