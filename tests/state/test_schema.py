"""The ``STATE`` tables are complete: a forgotten field fails here.

A field added to a stateful class without a row would be a *silent*
resume divergence, so every class carrying ``STATE`` is audited: its
``__slots__`` (or a built instance's ``vars()``) must equal the table's
attributes plus the class's explicit ``NOT_STATE``, every kind must be
one the walker knows, ``arg:`` rows must spell the constructor's
signature, and every ``drained`` name must be a ``GPUConfig`` field.
"""

import dataclasses
import inspect
import sys

import numpy as np
import pytest

from repro import GPUConfig
from repro.sim.fast_warp import FastWarp
from repro.sim.warp import Warp
from repro.state.schema import ANY, components, rows

from ..helpers import make_device, map_kernel

REF_KINDS = {"record", "age", "kde", "kernel", "spec", "smx"}
KINDS = {"value", "copy", "image"} | REF_KINDS


def unaccounted(obj):
    """Attribute names of ``obj`` — an instance, or a ``__slots__`` class —
    that neither ``STATE`` nor ``NOT_STATE`` explains, and declared names
    that are not attributes at all."""
    cls = obj if isinstance(obj, type) else type(obj)
    if isinstance(obj, type) or not hasattr(obj, "__dict__"):
        have = {s for k in cls.__mro__ for s in getattr(k, "__slots__", ())}
    else:
        have = set(vars(obj))
    declared = [row[0] for row in cls.STATE] + list(cls.NOT_STATE)
    assert len(declared) == len(set(declared)), f"{cls.__name__}: a name twice"
    # A row may read a property (ThreadBlock.slots) instead of a slot.
    stored = {n for n in declared if not isinstance(getattr(cls, n, None), property)}
    return sorted(have ^ stored)


def stateful_classes():
    return {
        cls
        for name, module in list(sys.modules.items())
        if name.startswith("repro.")
        for cls in vars(module).values()
        if isinstance(cls, type) and hasattr(cls, "STATE")
    }


class _Stop(Exception):
    pass


def _stop(doc):
    raise _Stop


@pytest.fixture(scope="module")
def machines():
    """A sanitized GPU per core, stopped with thread blocks resident."""
    gpus = []
    for core in ("reference", "fast"):
        config = dataclasses.replace(GPUConfig.k20c(), core=core, sanitize=True)
        dev = make_device(config=config)
        func = map_kernel("audit", lambda k, v: k.iadd(v, 1))
        dev.register(func)
        src = dev.upload(np.arange(256, dtype=np.int64))
        dev.launch(func.name, grid=2, block=128, params=[256, src, dev.alloc(256)])
        dev.configure_checkpoint(300, on_checkpoint=_stop)
        with pytest.raises(_Stop):
            dev.gpu.run()
        assert any(smx.blocks for smx in dev.gpu.smxs)
        gpus.append(dev.gpu)
    return gpus


class TestAudit:
    def test_every_attribute_is_a_row_or_an_explicit_non_row(self, machines):
        audited = set()
        for gpu in machines:
            for prefix, component in components(gpu):
                assert unaccounted(component) == [], prefix
                audited.add(type(component))
        # Classes a running machine holds only sometimes have __slots__.
        for cls in stateful_classes() - audited:
            assert "__slots__" in vars(cls), f"{cls.__name__} was not reached"
            assert unaccounted(cls) == [], cls.__name__
        assert {Warp, FastWarp} <= audited

    def test_rows_are_well_formed(self):
        config = GPUConfig.k20c()
        for cls in stateful_classes():
            args = []
            for name, kind, is_arg, drained in rows(cls):
                inner = kind[0] if type(kind) is list else kind
                assert inner in KINDS or hasattr(inner, "STATE"), (cls, name)
                if isinstance(drained, str):
                    assert isinstance(getattr(config, drained), int), (cls, name)
                else:
                    assert drained is ANY or isinstance(drained, int), (cls, name)
                if is_arg:
                    args.append(name)
            if args:
                signature = list(inspect.signature(cls.__init__).parameters)[1:]
                assert args == signature, cls

    def test_a_field_without_a_row_is_named(self, machines):
        class LeakyWarp(Warp):
            __slots__ = ("scratch",)

        assert unaccounted(LeakyWarp) == ["scratch"]
        smx = machines[0].smxs[0]
        smx.retired_blocks = 0
        try:
            assert unaccounted(smx) == ["retired_blocks"]
        finally:
            del smx.retired_blocks

    def test_a_row_without_a_field_is_named(self):
        class Renamed(Warp):
            __slots__ = ()
            STATE = Warp.STATE + (("issue_count", "value"),)

        assert unaccounted(Renamed) == ["issue_count"]


class TestReadyHeapIsDerived:
    def test_fast_heap_at_a_boundary_is_a_function_of_the_warps(self):
        """Restore rebuilds the fast core's GPU-wide heap from the warps
        alone, as ``(max(ready, cycle), smx, ready, age)``: at every
        checkpoint boundary of a real run the live entries must be
        exactly that, budget-deferred ones (``sched > ready``) included."""
        # 32 warps become ready together on one SMX (issue width 4), and
        # a cadence of 1 makes every visited cycle a boundary.
        dev = make_device(memory_words=1 << 14)
        gpu = dev.gpu
        func = map_kernel("crowd", lambda k, v: k.imul(k.iadd(v, 1), 3))
        dev.register(func)
        src = dev.upload(np.arange(1024, dtype=np.int64))
        dev.launch(func.name, grid=1, block=1024, params=[1024, src, dev.alloc(1024)])
        boundaries = deferred = 0

        def compare(doc):
            nonlocal boundaries, deferred
            live = sorted(
                (sched, smx_id, ready, age, id(warp))
                for sched, smx_id, ready, age, warp in gpu._gheap
                if not (warp.finished or warp.at_barrier or ready != warp.ready_cycle)
            )
            derived = sorted(
                (max(w.ready_cycle, gpu.cycle), smx.smx_id, w.ready_cycle, w.age, id(w))
                for smx in gpu.smxs for tb in smx.blocks for w in tb.warps
                if not (w.finished or w.at_barrier)
            )
            assert live == derived
            boundaries += 1
            deferred += sum(entry[0] > entry[2] for entry in live)

        dev.configure_checkpoint(1, on_checkpoint=compare)
        gpu.run()
        assert boundaries > 100 and deferred > 0
