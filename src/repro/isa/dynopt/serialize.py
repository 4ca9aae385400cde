"""Threshold serialization of small child launches (Olabi et al.).

A CDP launch whose element count is provably below
``DynoptOptions.serial_threshold`` spends more cycles in the device
runtime than in the child kernel.  This pass wraps each recognizable
launch site in a runtime size check: small launches execute the child
body in an inlined per-thread loop, large ones keep the original
device launch (which the aggregation pass then batches).
"""

from __future__ import annotations

from typing import Dict, Tuple

from ..builder import KernelBuilder
from ..instructions import Imm, Special
from ..program import Program
from .options import DynoptOptions
from .sites import find_launch_sites
from .splice import inlinable, splice_body, summarize_body

#: Specials an inlined child body may read: ``GTID`` becomes the loop
#: counter, ``PARAM`` the parent-held buffer base, ``NTID_X`` the static
#: block size.  Anything else (real thread/block geometry) has no
#: per-iteration equivalent, so such bodies are never inlined.
_ALLOWED = {Special.GTID, Special.PARAM, Special.NTID_X}


def serialize_small_launches(
    program: Program,
    kernels: Dict[str, object],
    options: DynoptOptions,
) -> Tuple[Program, int]:
    """Return (rewritten program, extra local words the host now needs).

    ``kernels`` maps kernel name to the registered
    :class:`~repro.sim.kernel.KernelFunction`; only sites whose child is
    registered, loop-free at the barrier level, and restricted to the
    supported specials are rewritten.  The pass is single-sweep: launch
    sites inside inlined bodies are left as plain CDP launches for the
    aggregation pass to batch.
    """
    candidates = []
    bodies: Dict[str, Program] = {}
    summaries = {}
    for site in find_launch_sites(program):
        if site.work is None or site.block_size is None:
            continue
        func = kernels.get(site.kernel)
        if func is None or func.shared_words or program.name == site.kernel:
            continue
        if site.kernel not in bodies:
            bodies[site.kernel] = func.program.definalize()
            summaries[site.kernel] = summarize_body(bodies[site.kernel])
        if not inlinable(summaries[site.kernel], _ALLOWED):
            continue
        candidates.append(site)
    if not candidates:
        return program, 0

    highest = program.max_register_index()
    next_int = highest["int"] + 1
    next_flt = highest["flt"] + 1
    windows = {}
    for site in candidates:
        summary = summaries[site.kernel]
        windows[site.index] = (next_int, next_flt)
        next_int += summary.max_int + 1
        next_flt += summary.max_flt + 1

    kb = KernelBuilder(
        program.name,
        int_reg_start=next_int,
        flt_reg_start=next_flt,
        label_stem="ser",
    )
    out = kb.program
    position_labels: Dict[int, list] = {}
    for name, pc in program.labels.items():
        position_labels.setdefault(pc, []).append(name)
    by_index = {site.index: site for site in candidates}
    threshold = options.serial_threshold

    extra_local = 0
    pc = 0
    instrs = program.instructions
    while pc <= len(instrs):
        for name in position_labels.get(pc, ()):
            out.label(name)
        if pc == len(instrs):
            break
        site = by_index.get(pc)
        if site is None:
            out.emit(instrs[pc].replace())
            pc += 1
            continue

        int_shift, flt_shift = windows[site.index]
        body = bodies[site.kernel]
        func = kernels[site.kernel]
        extra_local = max(extra_local, func.local_words)
        prefix = f"i{site.index}_"

        def inline_loop(site=site, body=body, prefix=prefix,
                        int_shift=int_shift, flt_shift=flt_shift):
            counter = kb.mov(0)
            with kb.while_(lambda: kb.lt(counter, site.work)):
                splice_body(
                    out,
                    body,
                    label_prefix=prefix,
                    int_shift=int_shift,
                    flt_shift=flt_shift,
                    special_subst={
                        Special.GTID: counter,
                        Special.PARAM: site.param,
                        Special.NTID_X: Imm(site.block_size),
                    },
                )
                kb.iadd(counter, 1, dst=counter)

        def keep_launch(site=site):
            out.emit(site.stream.replace())
            out.emit(site.launch.replace())

        small = kb.lt(site.work, threshold)
        kb.if_else(small, inline_loop, keep_launch)
        pc += 2  # past the STREAM_CREATE / LAUNCH_DEVICE pair
    return out, extra_local
