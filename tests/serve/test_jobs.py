"""In-process tests of :class:`repro.serve.JobManager`: no daemon, no HTTP.

The spec table (``JobManager._decode``) keeps a wire spec decoded by its
codec bytes, so a resubmission skips ``from_dict``, the policy stamp and
the hash; these tests hold it to answering exactly what a fresh decode
answers.  Jobs that would need a worker get a fake one.
"""

from __future__ import annotations

import asyncio

import pytest

from repro import ExecutionMode, JobSpec
from repro.exec import SpecError
from repro.serve import JobManager, ServeConfig
from repro.serve import jobs as serve_jobs

EVERY = 4000


def wire(**fields) -> dict:
    return {"benchmark": "bht", "mode": "flat", "scale": 0.05,
            "latency_scale": 0.25, **fields}


def fresh(manager: JobManager, document: dict) -> JobSpec:
    """What the daemon decoded every submission into before the table."""
    return JobSpec.from_dict(document).with_default_policy(
        manager.config.checkpoint_every, manager.config.checkpoint_dir
    )


@pytest.fixture
def manager(tmp_path):
    """A manager whose cache answers every spec this module submits, so
    no submission needs a worker."""
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
        assert len(manager._specs) == 1

    def test_types_are_never_confused(self, manager):
        """``1`` and ``1.0`` are two entries with the fingerprint a fresh
        decode gives each (the same one: ``scale`` is a float either
        way); ``1`` is no ``true``."""
        whole, point = wire(scale=1), wire(scale=1.0)
        infos = [manager.submit_hit(document) for document in (whole, point)]
        assert len(manager._specs) == 2
        assert infos[0]["fingerprint"] == fresh(manager, whole).fingerprint()
        assert infos[1]["fingerprint"] == fresh(manager, point).fingerprint()
        manager.submit_hit(wire(verify=True))
        with pytest.raises(SpecError):
            manager.submit(wire(verify=1))
        assert len(manager._specs) == 3

    def test_the_table_is_bounded_oldest_first(self, manager):
        documents = [wire(scale=0.01 * (n + 1))
                     for n in range(serve_jobs.SPEC_TABLE_LIMIT + 20)]
        for document in documents:
            manager._decode(document)
        assert len(manager._specs) == serve_jobs.SPEC_TABLE_LIMIT
        kept = [serve_jobs._wire_key(document) in manager._specs
                for document in documents]
        assert kept == [False] * 20 + [True] * serve_jobs.SPEC_TABLE_LIMIT

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
        assert manager._specs == {}

    def test_sanitize_rehashes_a_kept_spec(self, manager, monkeypatch):
        document = wire()
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        plain = manager.submit_hit(document)["fingerprint"]
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        sanitized = manager.submit_hit(document)["fingerprint"]
        assert sanitized == fresh(manager, document).fingerprint() != plain
        monkeypatch.delenv("REPRO_SANITIZE")
        assert manager.submit_hit(document)["fingerprint"] == plain
        assert len(manager._specs) == 1

    def test_specs_the_codec_cannot_write_exactly_skip_the_table(self, manager):
        """An int over 64 bits cannot be encoded, a non-finite float is
        written as ``null``: such specs are decoded every time, and
        answered as a fresh decode answers them."""
        huge = wire(checkpoint_every=2**70)
        info = manager.submit_hit(huge)
        assert info["fingerprint"] == fresh(manager, huge).fingerprint()
        assert info["spec"]["checkpoint_every"] == 2**70
        # A valid scale, but one no fingerprint can hash: refused (400).
        with pytest.raises(ValueError, match="not JSON compliant"):
            manager.submit(wire(scale=float("inf")))
        assert manager._specs == {}
        # ``null`` is a legal checkpoint_every; NaN, which encodes as it, is not.
        manager.submit_hit(wire(checkpoint_every=None))
        with pytest.raises(SpecError):
            manager.submit(wire(checkpoint_every=float("nan")))
        assert len(manager._specs) == 1

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
        assert len(manager._specs) == 1


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
