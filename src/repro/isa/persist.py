"""Persistent-threads rewrite: CDP launch sites become task-queue pushes.

The Atos-style persistent modes run no device launches at all.  This
pass takes the plain-CDP kernel set a workload built and produces:

* every kernel rewritten **under its original name**, with each
  canonical launch site (see :mod:`repro.isa.dynopt.sites`) replaced by
  a loop that enqueues one *block-task record* per child block onto the
  global MPMC queue (:mod:`repro.isa.taskqueue`); and
* one generated worker kernel that the runtime launches as a fixed
  resident grid: each block's leader claims a record, publishes it to
  the block through shared memory, and every thread below the record's
  block size runs the matching child body — spliced in with its
  geometry reads (``GTID``/``CTAID``/``NCTAID``/``NTID``/``PARAM``)
  substituted from the record, exactly the way the dynopt wrappers
  re-base bodies under a batched launch.

Because the worker splices the *rewritten* bodies, nested launches
(child-of-child) become enqueues from inside the worker itself; the
leader's ``FINISHED`` increment sits after the block-wide barrier, so a
task only counts as done once all of its child records are published —
which is what makes the queue's ``FINISHED == PUBLISHED`` quiescence
test a sound termination detector.

A record is ``(kernel id, param buffer, ctaid, nctaid, block size)``.
Unlike dynopt, this pass refuses loudly: a kernel that launches (or is
launched by) the rewritten graph but cannot be spliced would strand
queue records with no resident consumer, so it raises
:class:`PersistError` instead of degrading.
"""

from __future__ import annotations

import dataclasses
from functools import partial
from typing import Dict, List, Optional, Sequence, Set

from ..sim.kernel import KernelFunction
from .builder import KernelBuilder
from .instructions import Special
from .program import Program
from .dynopt.sites import find_launch_sites
from .dynopt.splice import BLOCK_SPECIALS, splice_body, spliceable
from .taskqueue import (
    OFF_FINISHED,
    QueueLayout,
    emit_dequeue_async,
    emit_dequeue_sync,
    emit_enqueue,
)

#: Payload words per block-task record.
RECORD_WORDS = 5
#: Record field order.
REC_KID, REC_PARAM, REC_CTAID, REC_NCTAID, REC_BLOCK = range(RECORD_WORDS)

#: Shared-memory control slots the worker block uses per iteration.
WORKER_SHARED_WORDS = 6
_S_CMD, _S_KID, _S_PARAM, _S_CTAID, _S_NCTAID, _S_BS = range(6)

#: Name of the generated worker kernel.
WORKER_NAME = "__persist_worker"


class PersistError(RuntimeError):
    """A kernel set cannot run under the persistent-threads rewrite."""


@dataclasses.dataclass
class PersistResult:
    """Everything the runtime needs to drive the rewritten kernel set."""

    kernels: List[KernelFunction]  #: rewritten set + generated worker
    worker: Optional[str]  #: worker kernel name (None: nothing to do)
    kernel_ids: Dict[str, int]  #: spliced kernel name -> record kid
    max_block: int  #: largest static child block size seen at a site


def _rewrite_sites(
    program: Program,
    queue: QueueLayout,
    kernel_ids: Dict[str, int],
    defect: Optional[str],
) -> tuple:
    """Replace known launch sites with enqueue loops.

    Returns ``(program, max_block)`` — the input program untouched when
    it has no rewritable sites.
    """
    sites = [
        site
        for site in find_launch_sites(program)
        if site.kernel in kernel_ids and site.block_size is not None
    ]
    if not sites:
        return program, 0

    highest = program.max_register_index()
    kb = KernelBuilder(
        program.name,
        int_reg_start=highest["int"] + 1,
        flt_reg_start=highest["flt"] + 1,
        label_stem="pq",
    )

    def enqueue_blocks(site):
        kid = kernel_ids[site.kernel]
        with kb.for_range(0, site.grid_x) as cta:
            record = [kid, site.param, cta, site.grid_x, site.block_size]
            emit_enqueue(kb, queue, record, defect=defect)

    splice_body(
        kb.program,
        program,
        sites={site.index: partial(enqueue_blocks, site) for site in sites},
        drop_trailing_exit=False,
    )
    return kb.program, max(site.block_size for site in sites)


def _build_worker(
    name: str,
    bodies: Sequence[tuple],
    queue: QueueLayout,
    async_: bool,
) -> Program:
    """The resident worker: leader claims records, block runs bodies."""
    max_int = max(p.max_register_index()["int"] for _, p in bodies)
    max_flt = max(p.max_register_index()["flt"] for _, p in bodies)
    kb = KernelBuilder(
        name,
        int_reg_start=max_int + 1,
        flt_reg_start=max_flt + 1,
        label_stem="pw",
    )
    tid = kb.tid()
    leader = kb.eq(tid, 0)
    shared = kb.mov(0)
    with kb.if_(leader):
        kb.sts(shared, 1, offset=_S_CMD)
    kb.bar()
    with kb.while_(lambda: kb.ne(kb.lds(shared, offset=_S_CMD), 0)):
        # Every thread just read CMD in the loop condition; a barrier
        # opens a fresh epoch before the leader overwrites it.
        kb.bar()
        with kb.if_(leader):
            done = kb.mov(0)
            with kb.while_(lambda: kb.eq(done, 0)):

                def take(fields, ticket) -> None:
                    kb.sts(shared, fields[REC_KID], offset=_S_KID)
                    kb.sts(shared, fields[REC_PARAM], offset=_S_PARAM)
                    kb.sts(shared, fields[REC_CTAID], offset=_S_CTAID)
                    kb.sts(shared, fields[REC_NCTAID], offset=_S_NCTAID)
                    kb.sts(shared, fields[REC_BLOCK], offset=_S_BS)
                    kb.sts(shared, 1, offset=_S_CMD)
                    kb.mov(1, dst=done)

                if async_:
                    regs = emit_dequeue_async(kb, queue, take)
                else:
                    regs = emit_dequeue_sync(kb, queue, take)
                with kb.if_(kb.iand(kb.eq(done, 0), regs.quiescent)):
                    kb.sts(shared, 0, offset=_S_CMD)
                    kb.mov(1, dst=done)
        kb.bar()
        cmd = kb.lds(shared, offset=_S_CMD)
        with kb.if_(kb.ne(cmd, 0)):
            kid = kb.lds(shared, offset=_S_KID)
            param = kb.lds(shared, offset=_S_PARAM)
            ctaid = kb.lds(shared, offset=_S_CTAID)
            nctaid = kb.lds(shared, offset=_S_NCTAID)
            bs = kb.lds(shared, offset=_S_BS)
            with kb.if_(kb.lt(tid, bs)):
                subst = {
                    Special.PARAM: param,
                    Special.GTID: kb.iadd(kb.imul(ctaid, bs), tid),
                    Special.CTAID_X: ctaid,
                    Special.NCTAID_X: nctaid,
                    Special.NTID_X: bs,
                }
                for body_kid, body in bodies:
                    with kb.if_(kb.eq(kid, body_kid)):
                        splice_body(
                            kb.program,
                            body,
                            label_prefix=f"k{body_kid}_",
                            special_subst=subst,
                        )
        kb.bar()
        # FINISHED counts a task only after the closing barrier: every
        # child record the body enqueued is published by now, so the
        # F == P quiescence test can never run ahead of nested work.
        with kb.if_(kb.iand(leader, cmd)):
            kb.atom_add(queue.field(OFF_FINISHED), 1)
    kb.exit()
    return kb.program


def persist_transform(
    kernels: Sequence[KernelFunction],
    queue: QueueLayout,
    *,
    async_: bool = False,
    defect: Optional[str] = None,
) -> PersistResult:
    """Rewrite a CDP kernel set for the persistent-threads runtime."""
    if queue.record_words != RECORD_WORDS:
        raise PersistError(
            f"persistent queue records need {RECORD_WORDS} words, the "
            f"queue provides {queue.record_words}"
        )
    by_name = {func.name: func for func in kernels}
    programs = {
        func.name: func.program.definalize() for func in kernels
    }
    site_targets: Dict[str, Set[str]] = {
        name: {
            site.kernel
            for site in find_launch_sites(program)
            if site.block_size is not None
        }
        for name, program in programs.items()
    }

    # The splice set: every kernel with launch sites plus everything
    # transitively reachable as a launch target.
    spliced: Set[str] = {
        name for name, targets in site_targets.items() if targets
    }
    frontier = set().union(*site_targets.values()) if site_targets else set()
    while frontier - spliced:
        name = (frontier - spliced).pop()
        spliced.add(name)
        frontier |= site_targets.get(name, set())
    if not spliced:
        return PersistResult(list(kernels), None, {}, 0)

    missing = sorted(n for n in spliced if n not in by_name)
    if missing:
        raise PersistError(
            f"launch targets not in the kernel set: {', '.join(missing)}"
        )
    kernel_ids = {
        func.name: kid
        for kid, func in enumerate(f for f in kernels if f.name in spliced)
    }

    rewritten: Dict[str, Program] = {}
    max_block = 0
    for name in kernel_ids:
        program, block = _rewrite_sites(
            programs[name], queue, kernel_ids, defect
        )
        rewritten[name] = program
        max_block = max(max_block, block)

    bad = sorted(
        name
        for name in kernel_ids
        if not spliceable(
            by_name[name], BLOCK_SPECIALS, program=rewritten[name]
        )
    )
    if bad:
        raise PersistError(
            "kernels cannot run as persistent block-tasks (barrier, "
            f"shared memory, early exit or exotic specials): {', '.join(bad)}"
        )

    bodies = [(kernel_ids[name], rewritten[name]) for name in kernel_ids]
    worker_program = _build_worker(WORKER_NAME, bodies, queue, async_)
    worker_local = max(by_name[name].local_words for name in kernel_ids)

    out: List[KernelFunction] = []
    for func in kernels:
        if func.name in rewritten:
            out.append(
                KernelFunction(
                    func.name,
                    rewritten[func.name],
                    shared_words=func.shared_words,
                    local_words=func.local_words,
                )
            )
        else:
            out.append(func)
    out.append(
        KernelFunction(
            WORKER_NAME,
            worker_program,
            shared_words=WORKER_SHARED_WORDS,
            local_words=worker_local,
        )
    )
    return PersistResult(out, WORKER_NAME, kernel_ids, max_block)
