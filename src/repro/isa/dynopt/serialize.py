"""Threshold serialization of small child launches (Olabi et al.).

A CDP launch whose element count is provably below
:data:`SERIAL_THRESHOLD` spends more cycles in the device runtime than
in the child kernel.  This pass wraps each recognizable
launch site in a runtime size check: small launches execute the child
body in an inlined per-thread loop, large ones keep the original
device launch (which the aggregation pass then batches).
"""

from __future__ import annotations

from functools import partial
from typing import Dict

from ..builder import KernelBuilder
from ..instructions import Imm, Special
from ..program import Program
from .sites import find_launch_sites
from .splice import THREAD_SPECIALS, splice_body, spliceable

#: Child launches whose element count is below this many threads run as
#: an inlined loop in the parent (``cdpa`` only, following Olabi et al.).
#: A serialized launch trades a whole child block for a per-thread loop,
#: so only launches smaller than a warp's worth of threads qualify: the
#: workloads' DFP thresholds (24-32) already serialize most of that tail,
#: leaving sub-block stragglers like AMR's fixed 16-cell refinements.
SERIAL_THRESHOLD = 32


def serialize_small_launches(
    program: Program, kernels: Dict[str, object]
) -> Program:
    """Return the rewritten program (``program`` when no site qualifies).

    ``kernels`` maps kernel name to the registered
    :class:`~repro.sim.kernel.KernelFunction`; only sites whose child is
    registered and :func:`~repro.isa.dynopt.splice.spliceable` with
    :data:`~repro.isa.dynopt.splice.THREAD_SPECIALS` are rewritten.  An
    inlined child runs in the parent's thread, so a child with local
    memory (whose words would land on the parent's) stays a launch, as
    one with shared memory does.  The pass is single-sweep: launch
    sites inside inlined bodies are left as plain CDP launches for the
    aggregation pass to batch.
    """
    highest = program.max_register_index()
    next_int = highest["int"] + 1
    next_flt = highest["flt"] + 1
    candidates = []  # (site, int window, float window)
    bodies: Dict[str, Program] = {}
    for site in find_launch_sites(program):
        if site.work is None or site.block_size is None:
            continue
        func = kernels.get(site.kernel)
        if func is None or func.local_words or program.name == site.kernel:
            continue
        if site.kernel not in bodies:
            bodies[site.kernel] = (
                func.program.definalize()
                if spliceable(func, THREAD_SPECIALS)
                else None
            )
        body = bodies[site.kernel]
        if body is None:
            continue
        candidates.append((site, next_int, next_flt))
        body_highest = body.max_register_index()
        next_int += body_highest["int"] + 1
        next_flt += body_highest["flt"] + 1
    if not candidates:
        return program

    kb = KernelBuilder(
        program.name,
        int_reg_start=next_int,
        flt_reg_start=next_flt,
        label_stem="ser",
    )
    out = kb.program

    def inline_loop(site, int_shift, flt_shift):
        counter = kb.mov(0)
        with kb.while_(lambda: kb.lt(counter, site.work)):
            splice_body(
                out,
                bodies[site.kernel],
                label_prefix=f"i{site.index}_",
                int_shift=int_shift,
                flt_shift=flt_shift,
                special_subst={
                    Special.GTID: counter,
                    Special.PARAM: site.param,
                    Special.NTID_X: Imm(site.block_size),
                },
            )
            kb.iadd(counter, 1, dst=counter)

    def size_check(site, int_shift, flt_shift):
        """Small launches run as an inlined loop, large ones stay."""
        small = kb.lt(site.work, SERIAL_THRESHOLD)
        inline = partial(inline_loop, site, int_shift, flt_shift)
        kb.if_else(small, inline, partial(site.keep, out))

    splice_body(
        out,
        program,
        sites={
            site.index: partial(size_check, site, int_shift, flt_shift)
            for site, int_shift, flt_shift in candidates
        },
        drop_trailing_exit=False,
    )
    return out
