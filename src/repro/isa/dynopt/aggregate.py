"""Block-level launch aggregation and consolidation staging.

Rewrites every recognizable CDP launch site in a kernel so the block's
threads *stage* their launch requests instead of issuing them:

* a block leader allocates one global *launch table* per child kernel
  (``GET_PARAM_BUF``) and publishes its address through shared memory;
* each requesting thread claims a slot with an atomic cursor bump and
  stores its (size, param-buffer) record into shared memory;
* after a closing barrier the leader prefix-sums the staged sizes into
  the table and issues **one** batched ``LAUNCH_DEVICE`` of the child's
  generated wrapper kernel (``<child>__agg`` / ``<child>__cons``).

Launch-table ABI (global memory, one table per block and child)::

    word 0            atomic request cursor
    word 1            total size (blocks for agg, threads for cons)
    word 2 + 2*i      start of request i (prefix sum, same unit)
    word 3 + 2*i      parameter-buffer base of request i
    word 2 + 2*n      sentinel: total size again (scan terminator)

Requests past :data:`STAGING_CAPACITY` overflow to a plain per-thread
CDP launch, so the table size affects performance, never correctness.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, List, Optional, Tuple

from ..builder import KernelBuilder
from ..instructions import Opcode
from ..program import Program
from .sites import LaunchSite, find_launch_sites

#: Launch records staged in shared memory per (block, child kernel).
#: Sized for the benchmark suite's parent blocks (64-128 threads): one
#: record per thread with headroom for multi-launch parents, while the
#: per-block footprint (``1 + 2 * STAGING_CAPACITY`` shared words per
#: child kernel) stays low enough not to throttle occupancy on the K20c
#: configuration.
STAGING_CAPACITY = 176


@dataclasses.dataclass
class AggregateResult:
    program: Program
    #: Extra shared-memory words the rewritten kernel needs.
    shared_words: int
    #: Child kernels now launched through a wrapper: name -> block size.
    children: Dict[str, int]


def table_words() -> int:
    """Global words per launch table (header + records + sentinel)."""
    return 2 * STAGING_CAPACITY + 3


def aggregate_launches(
    program: Program,
    *,
    suffix: str,
    flavor: str,
    shared_base: int = 0,
    wrapper_blocks: Optional[Dict[str, int]] = None,
    can_wrap: Optional[Callable[[str, int], bool]] = None,
) -> AggregateResult:
    """Stage launches per block; returns the rewritten program.

    ``flavor`` selects the staged unit: ``"agg"`` stages grid *blocks*
    (per-request blocks preserved, Olabi-style batching), ``"cons"``
    stages element counts so the wrapper packs *threads* densely
    (Wu/Becchi-style consolidation; requires a recovered work operand).

    ``wrapper_blocks`` records the block size each child's wrapper was
    generated for; a site launching the same child with a different
    block size is left as a plain CDP launch.  ``can_wrap`` lets the
    caller veto children whose body cannot be re-based under a batched
    launch.
    """
    if flavor not in ("agg", "cons"):
        raise ValueError(f"unknown aggregation flavor {flavor!r}")
    unchanged = AggregateResult(program, 0, {})
    instrs = program.instructions
    if not instrs or instrs[-1].op != Opcode.EXIT:
        return unchanged
    exit_pc = len(instrs) - 1
    if any(instr.op == Opcode.EXIT for instr in instrs[:exit_pc]):
        return unchanged  # early exits would skip the leader's flush
    if any(pc >= exit_pc for pc in program.labels.values()):
        return unchanged  # a jump could land on (or past) the EXIT

    groups: Dict[Tuple[str, int], List[LaunchSite]] = {}
    block_of: Dict[str, int] = dict(wrapper_blocks or {})
    for site in find_launch_sites(program):
        bs = site.block_size
        if bs is None:
            continue
        if flavor == "cons" and site.work is None:
            continue
        if block_of.setdefault(site.kernel, bs) != bs:
            continue
        if can_wrap is not None and not can_wrap(site.kernel, bs):
            continue
        groups.setdefault((site.kernel, bs), []).append(site)
    if not groups:
        return unchanged

    ordered = sorted(groups.items(), key=lambda kv: kv[1][0].index)
    cap = STAGING_CAPACITY
    highest = program.max_register_index()
    kb = KernelBuilder(
        program.name,
        int_reg_start=highest["int"] + 1,
        flt_reg_start=highest["flt"] + 1,
        label_stem="agg",
    )
    out = kb.program

    # --- prologue: leader allocates one table per child, publishes it.
    table_slot = {g: shared_base + g for g in range(len(ordered))}
    record_base = {
        g: shared_base + len(ordered) + g * 2 * cap
        for g in range(len(ordered))
    }
    ltid = kb.tid()
    with kb.if_(kb.eq(ltid, 0)):
        for g in range(len(ordered)):
            table = kb.get_param_buffer(table_words())
            kb.st(table, 0, offset=0)
            kb.sts(table_slot[g], table)
    kb.bar()
    table_regs = [kb.lds(table_slot[g]) for g in range(len(ordered))]

    # --- body: replace each site with a staging sequence.
    site_group = {}
    for g, ((_, _), sites) in enumerate(ordered):
        for site in sites:
            site_group[site.index] = (g, site)
    position_labels: Dict[int, list] = {}
    for name, pc in program.labels.items():
        position_labels.setdefault(pc, []).append(name)

    pc = 0
    while pc < exit_pc:
        for name in position_labels.get(pc, ()):
            out.label(name)
        hit = site_group.get(pc)
        if hit is None:
            out.emit(instrs[pc].replace())
            pc += 1
            continue
        g, site = hit
        staged = site.grid_x if flavor == "agg" else site.work
        slot = kb.atom_add(table_regs[g], 1)

        def stage(g=g, site=site, staged=staged, slot=slot):
            record = kb.iadd(kb.imul(slot, 2), record_base[g])
            kb.sts(record, staged, offset=0)
            kb.sts(record, site.param, offset=1)

        def overflow(site=site):
            out.emit(site.stream.replace())
            out.emit(site.launch.replace())

        kb.if_else(kb.lt(slot, cap), stage, overflow)
        pc += 2  # past the STREAM_CREATE / LAUNCH_DEVICE pair

    # --- epilogue: leader prefix-sums the records and batch-launches.
    kb.bar()
    with kb.if_(kb.eq(ltid, 0)):
        for g, ((child, bs), _) in enumerate(ordered):
            table = table_regs[g]
            count = kb.imin(kb.ld(table), cap)
            running = kb.mov(0)
            with kb.for_range(0, count) as i:
                record = kb.iadd(kb.imul(i, 2), record_base[g])
                size = kb.lds(record, offset=0)
                param = kb.lds(record, offset=1)
                entry = kb.iadd(table, kb.imul(i, 2))
                kb.st(entry, running, offset=2)
                kb.st(entry, param, offset=3)
                kb.iadd(running, size, dst=running)
            kb.st(kb.iadd(table, kb.imul(count, 2)), running, offset=2)
            kb.st(table, running, offset=1)
            with kb.if_(kb.gt(running, 0)):
                kb.stream_create()
                if flavor == "agg":
                    grid = running
                else:
                    grid = kb.idiv(kb.iadd(running, bs - 1), bs)
                kb.launch_device(child + suffix, table, grid, bs)
    out.emit(instrs[exit_pc].replace())

    shared_words = len(ordered) * (1 + 2 * cap)
    children = {child: bs for (child, bs) in groups}
    if wrapper_blocks is not None:
        for child, bs in children.items():
            wrapper_blocks.setdefault(child, bs)
    return AggregateResult(out, shared_words, children)
