"""``diff`` on documents; ``dump_state`` / ``check_drained`` where the
hand-written walks never went.  (Their older tests keep their ids in
``tests/sim/test_debug.py`` and ``tests/sim/test_validation.py``.)"""

import copy

import numpy as np
import pytest

from repro import Device, ExecutionMode, JobSpec, run_job
from repro.errors import SimulationError
from repro.sim.kmu import DeviceLaunchSpec
from repro.sim.tracing import OpcodeProfiler
from repro.state import CheckpointError, capture_document, check_drained, diff, dump_state


class _Stop(Exception):
    pass


@pytest.fixture(scope="module")
def document():
    """A mid-flight ``amr``/``dtbl`` document: resident blocks and linked
    aggregated groups."""
    spec = JobSpec.create("amr", ExecutionMode.DTBL, 0.08, 0.25, checkpoint_every=500)
    docs = []

    def keep(doc):
        if len(doc["state"]["ages"]) >= 2:
            docs.append(doc)
            raise _Stop

    with pytest.raises(_Stop):
        run_job(spec, on_checkpoint=keep)
    return docs[0]


def _edited(document, edit):
    other = copy.deepcopy(document)
    edit(other["state"])
    return other


def _first_warp(state):
    smx = next(i for i, s in enumerate(state["smxs"]) if s["blocks"])
    return smx, state["smxs"][smx]["blocks"][0]["warps"][0]


class TestDiff:
    def test_equal_documents(self, document):
        assert diff(document, copy.deepcopy(document)) is None

    def test_a_scalar_deep_in_a_warp(self, document):
        smx, warp = _first_warp(document["state"])
        ready = warp["ready_cycle"]

        def edit(state):
            _first_warp(state)[1]["ready_cycle"] += 4

        assert diff(document, _edited(document, edit)) == (
            f"state.smxs[{smx}].blocks[0].warps[0].ready_cycle: {ready} != {ready + 4}"
        )

    def test_an_array_element(self, document):
        smx, _ = _first_warp(document["state"])

        def edit(state):
            _first_warp(state)[1]["regs_i"][1, 7] = -99

        found = diff(document, _edited(document, edit))
        assert found.startswith(f"state.smxs[{smx}].blocks[0].warps[0].regs_i[1, 7]: ")
        assert found.endswith("!= -99")

    def test_bit_patterns_not_values(self):
        zeros = {"x": np.zeros(3)}
        assert diff(zeros, {"x": np.array([0.0, -0.0, 0.0])}) == "x[1]: 0.0 != -0.0"
        nan = {"x": np.array([np.nan])}
        assert diff(nan, copy.deepcopy(nan)) is None

    def test_a_differing_list_length(self, document):
        def edit(state):
            for column in state["launches"].values():
                column.pop()

        n = len(document["state"]["launches"]["kind"])
        assert diff(document, _edited(document, edit)) == (
            f"state.launches.kind: length {n} != {n - 1}"
        )

    def test_a_repointed_age_next_link(self, document):
        ages = document["state"]["ages"]
        index = next(i for i, age in enumerate(ages) if age["next"] is not None)
        old = ages[index]["next"]

        def edit(state):
            state["ages"][index]["next"] = index

        assert diff(document, _edited(document, edit)) == (
            f"state.ages[{index}].next: {old} != {index}"
        )

    def test_a_missing_key(self, document):
        def edit(state):
            del state["kmu"]["_busy_until"]

        assert "'_busy_until'" in diff(document, _edited(document, edit))


class TestDumpWhereCaptureRefuses:
    def test_with_a_tracer_attached_and_an_ad_hoc_event_pending(self):
        """The tool for a stuck simulation must not raise where a
        checkpoint rightly does."""
        gpu = Device().gpu
        gpu.tracer = OpcodeProfiler()
        with pytest.raises(CheckpointError, match="tracer"):
            capture_document(gpu)
        gpu.tracer = None
        gpu.schedule_event(40, lambda cycle: None)
        with pytest.raises(CheckpointError, match="not checkpointable"):
            capture_document(gpu)
        gpu.tracer = OpcodeProfiler()
        assert "events: 1 pending [(40, 'ad-hoc')]" in dump_state(gpu)


class TestDrainedRowsTheOldCheckMissed:
    def test_a_leaked_free_slot(self):
        gpu = Device().gpu
        gpu.smxs[2]._free_slots.pop()
        with pytest.raises(SimulationError, match=r"smxs\[2\]\._free_slots holds 63"):
            check_drained(gpu)

    def test_a_device_launch_left_pending(self):
        gpu = Device().gpu
        gpu.kmu.device_pending.append(
            DeviceLaunchSpec("ghost", (1, 1, 1), (32, 1, 1), 0, None)
        )
        with pytest.raises(SimulationError, match=r"kmu\.device_pending holds 1"):
            check_drained(gpu)
