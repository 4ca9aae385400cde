"""In-process tests of :class:`repro.serve.JobManager`: no daemon, no HTTP.

The spec table (``serve.jobs._decode_wire``, an ``lru_cache`` keyed by a
wire spec's codec bytes and the daemon's checkpoint policy) keeps a wire
spec decoded, so a resubmission skips ``from_dict``, the policy stamp and
the hash; these tests hold it to answering exactly what a fresh decode
answers, and the codec to giving back every document it keys.  Jobs that
would need a worker get a fake one.
"""

from __future__ import annotations

import asyncio

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from repro import ExecutionMode, JobSpec
from repro.exec import SpecError, codec
from repro.serve import JobManager, ServeConfig
from repro.serve import jobs as serve_jobs

EVERY = 4000

table = serve_jobs._decode_wire


def wire(**fields) -> dict:
    return {"benchmark": "bht", "mode": "flat", "scale": 0.05,
            "latency_scale": 0.25, **fields}


def fresh(manager: JobManager, document: dict) -> JobSpec:
    """What the daemon decoded every submission into before the table."""
    return JobSpec.from_dict(document).with_default_policy(
        manager.config.checkpoint_every, manager.config.checkpoint_dir
    )


def kept(manager: JobManager, document: dict) -> bool:
    """Whether the table answers ``document`` without decoding it."""
    hits = table.cache_info().hits
    manager._decode(document)
    return table.cache_info().hits == hits + 1


@pytest.fixture
def manager(tmp_path):
    """A manager whose cache answers every spec this module submits, so
    no submission needs a worker; the spec table starts empty."""
    table.cache_clear()
    manager = JobManager(ServeConfig(
        cache_dir=str(tmp_path / "cache"), checkpoint_every=EVERY,
        checkpoint_dir=str(tmp_path / "ckpt"),
    ))
    stored = set()

    def submit(document, **kwargs):
        key = fresh(manager, document).fingerprint()
        if key not in stored:
            manager.cache.store(key, {"stats": {}})
            stored.add(key)
        return manager.submit(document, **kwargs)

    manager.submit_hit = submit
    return manager


class TestSpecTable:
    def test_a_resubmitted_spec_is_decoded_once(self, manager, monkeypatch):
        decodes = []
        from_dict = JobSpec.from_dict.__func__

        def counted(cls, data):
            decodes.append(data)
            return from_dict(cls, data)

        document = wire()
        expected = fresh(manager, document).fingerprint()
        manager.cache.store(expected, {"stats": {}})
        monkeypatch.setattr(JobSpec, "from_dict", classmethod(counted))
        infos = [manager.submit(dict(document)) for _ in range(3)]
        assert len(decodes) == 1
        assert [info["fingerprint"] for info in infos] == [expected] * 3
        assert all(info["status"] == "done" for info in infos)
        assert infos[0]["spec"]["checkpoint_every"] == EVERY
        assert table.cache_info()[:2] == (2, 1)  # hits, misses

    def test_types_are_never_confused(self, manager):
        """``1`` and ``1.0`` are two entries with the fingerprint a fresh
        decode gives each (the same one: ``scale`` is a float either
        way); ``1`` is no ``true``."""
        whole, point = wire(scale=1), wire(scale=1.0)
        infos = [manager.submit_hit(document) for document in (whole, point)]
        assert table.cache_info().currsize == 2
        assert infos[0]["fingerprint"] == fresh(manager, whole).fingerprint()
        assert infos[1]["fingerprint"] == fresh(manager, point).fingerprint()
        manager.submit_hit(wire(verify=True))
        with pytest.raises(SpecError):
            manager.submit(wire(verify=1))
        assert table.cache_info().currsize == 3

    def test_the_table_is_bounded_oldest_first(self, manager):
        limit = table.cache_info().maxsize
        documents = [wire(scale=0.01 * (n + 1)) for n in range(limit + 20)]
        for document in documents:
            manager._decode(document)
        assert table.cache_info().currsize == limit
        # Newest first: a hit refreshes an entry, a miss evicts the
        # least recent, and neither touches an entry still to be asked.
        answers = [kept(manager, document) for document in reversed(documents)]
        assert answers[::-1] == [False] * 20 + [True] * limit

    def test_a_daemon_policy_is_part_of_the_key(self, manager, tmp_path):
        other = JobManager(ServeConfig(
            cache_dir=None, checkpoint_every=None,
            checkpoint_dir=str(tmp_path / "other"),
        ))
        document = wire()
        stamped, plain = manager._decode(document), other._decode(document)
        assert stamped == fresh(manager, document)
        assert plain == JobSpec.from_dict(document) != stamped
        assert table.cache_info().currsize == 2

    @pytest.mark.parametrize("bad", [
        {"benchmark": "bht"},
        wire(latency=1),
        wire(scale=-1.0),
        wire(config={"dram_banks": 0}),
        wire(checkpoint_every=0),
        wire(verify="false"),
    ])
    def test_a_rejected_spec_leaves_no_entry(self, manager, bad):
        with pytest.raises(SpecError):
            manager.submit(bad)
        assert table.cache_info().currsize == 0

    @pytest.mark.parametrize("config", [
        {"issue_width": 4},  # a field an older client may still send
        {"l2_line": 128},
        {"dram_hit_latency": -100},
        {"dram_row_bytes": 100},
        {"l2_size": 1000},
    ])
    def test_a_removed_or_impossible_config_key_is_refused(self, manager, config):
        """A removed field, or a DRAM timing or L2 no machine has, is
        refused by name as a :class:`SpecError`: what the daemon answers
        with 400."""
        with pytest.raises(SpecError, match=next(iter(config))):
            manager.submit(wire(config=config))
        assert table.cache_info().currsize == 0

    def test_sanitize_rehashes_a_kept_spec(self, manager, monkeypatch):
        document = wire()
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        plain = manager.submit_hit(document)["fingerprint"]
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        sanitized = manager.submit_hit(document)["fingerprint"]
        assert sanitized == fresh(manager, document).fingerprint() != plain
        monkeypatch.delenv("REPRO_SANITIZE")
        assert manager.submit_hit(document)["fingerprint"] == plain
        assert table.cache_info()[:4] == (2, 1, 256, 1)  # hits, misses, max, size

    def test_specs_the_codec_cannot_write_exactly_skip_the_table(self, manager):
        """An int over 64 bits cannot be encoded, a non-finite float is
        written as ``null``: such specs are decoded every time, and
        answered as a fresh decode answers them."""
        huge = wire(checkpoint_every=2**70)
        info = manager.submit_hit(huge)
        assert info["fingerprint"] == fresh(manager, huge).fingerprint()
        assert info["spec"]["checkpoint_every"] == 2**70
        # A non-finite scale is refused by name (400).
        for field in ("scale", "latency_scale"):
            with pytest.raises(SpecError, match=f"^{field} must be finite"):
                manager.submit(wire(**{field: float("inf")}))
        assert table.cache_info()[:2] == (0, 0)
        # ``null`` is a legal checkpoint_every; NaN, which encodes as it, is not.
        manager.submit_hit(wire(checkpoint_every=None))
        with pytest.raises(SpecError):
            manager.submit(wire(checkpoint_every=float("nan")))
        assert table.cache_info()[:4] == (0, 1, 256, 1)

    def test_infos_share_no_dict(self, manager):
        document = wire()
        first, second = (manager.submit_hit(document) for _ in range(2))
        first["spec"]["config"]["num_smx"] = -1
        first["spec"]["scale"] = -1
        assert second["spec"] == fresh(manager, document).to_dict()
        assert manager.submit_hit(document)["spec"] == second["spec"]

    def test_a_job_spec_instance_is_validated_not_kept(self, manager):
        spec = JobSpec.create("bht", ExecutionMode.FLAT, 0.05, 0.25)
        info = manager.submit_hit(spec.to_dict())
        manager.cache.store(spec.with_default_policy(
            EVERY, manager.config.checkpoint_dir).fingerprint(), {"stats": {}})
        assert manager.submit(spec)["fingerprint"] == info["fingerprint"]
        assert table.cache_info()[:4] == (0, 1, 256, 1)


def _typed(value):
    """``value`` with the type of every leaf beside it (``1 == 1.0 ==
    True``, and ``0.0 == -0.0``, would hide a changed leaf)."""
    if type(value) is dict:
        return {key: _typed(item) for key, item in value.items()}
    return type(value), repr(value)


#: Leaves the codec writes exactly, and ones it does not: a non-finite
#: float (``null``), an int over 64 bits (refused), an enum (its value).
_EDGES = [float("nan"), float("inf"), -0.0, 2**63, 2**64, -(2**63) - 1,
          ExecutionMode.FLAT]
_leaves = (st.none() | st.booleans() | st.integers() | st.floats() | st.text()
           | st.sampled_from(_EDGES))
_documents = st.recursive(
    st.dictionaries(st.text(), _leaves, max_size=4),
    lambda inner: st.dictionaries(st.text(), _leaves | inner, max_size=4),
    max_leaves=16,
)


@given(st.one_of(_documents, _documents.map(lambda extra: wire(config=extra))))
@example(wire(scale=float("nan")))
@example(wire(config={"num_smx": float("-inf")}))
@example(wire(mode=ExecutionMode.FLAT))
@example(wire(checkpoint_every=2**64))
@example(wire(scale=-0.0, checkpoint_every=2**64 - 1))
def test_a_wire_key_decodes_to_its_document(document):
    """The table rebuilds a spec from its key's bytes: every document
    that has a key decodes from it to itself, leaf types and all."""
    key = serve_jobs._wire_key(document)
    assume(key is not None)
    assert _typed(codec.decode(key)) == _typed(document)


class TestJobInfo:
    def test_label_and_spec_are_computed_once_per_job(self, manager, monkeypatch):
        """A job's answers and events carry its spec's label and wire
        form, computed at submission, not for every answer."""
        document = wire()
        spec = fresh(manager, document)
        calls = []

        def counted(name, method):
            def call(self):
                calls.append(name)
                return method(self)
            return call

        for name in ("label", "to_dict"):
            monkeypatch.setattr(JobSpec, name, counted(name, getattr(JobSpec, name)))
        info = manager.submit_hit(document)
        job = manager.get(info["id"])
        answers = [job.info() for _ in range(3)]
        assert sorted(calls) == ["label", "to_dict"]
        monkeypatch.undo()
        assert [event["event"] for event in job.events] == ["queued", "done"]
        assert all(event["label"] == spec.label() for event in job.events)
        for answer in [info, *answers]:
            assert answer["spec"] == spec.to_dict()
            assert answer["label"] == spec.label()


class _FakeConn:
    def __init__(self, manager: JobManager, seen: list) -> None:
        self.manager, self.seen = manager, seen

    def send(self, spec) -> None:
        (job,) = self.manager._running.values()
        self.seen.append([event["event"] for event in job.events])


class _FakeProc:
    pid = 4242


class _FakeWorker:
    def __init__(self, conn) -> None:
        self.job = None
        self.conn = conn
        self.proc = _FakeProc()


def test_started_is_stamped_before_the_send_that_wakes_the_worker(tmp_path):
    """The send may hand the CPU to the worker: an event stamped after it
    would count the worker's head start as queue wait."""
    seen = []

    async def main():
        manager = JobManager(ServeConfig(cache_dir=None, checkpoint_every=None))
        manager._workers.append(_FakeWorker(_FakeConn(manager, seen)))
        return manager.submit(wire())

    info = asyncio.run(main())
    assert info["status"] == "running"
    assert seen == [["queued", "started"]]
