"""Generated child kernels that consume a batched launch table.

``<child>__agg`` (CDP_AGG) keeps the original per-request block shape:
every real block scans the table for the request that owns its block
index and re-bases the child's thread geometry inside that request.

``<child>__cons`` (CONSOLIDATED) packs the staged *element counts*
densely: every real thread scans for the request that owns its global
index, so tail threads of one request are back-filled by the next —
fewer, denser blocks (Wu & Becchi).

Both wrappers splice the child's *original* body with its ``PARAM`` /
``GTID`` (and for agg, block-geometry) reads substituted; the pipeline
then re-runs the dynopt passes over the wrapper so nested launches in
the body are themselves serialized/aggregated.
"""

from __future__ import annotations

from typing import Optional

from ..builder import KernelBuilder
from ..instructions import Special
from ..program import Program
from .splice import splice_body, summarize_body

#: Geometry reads an agg wrapper can re-base (1:1 block mapping).
_AGG_SPECIALS = {
    Special.GTID,
    Special.PARAM,
    Special.TID_X,
    Special.NTID_X,
    Special.CTAID_X,
    Special.NCTAID_X,
}

#: A cons wrapper interleaves requests within blocks, so only
#: block-shape-independent reads survive the repacking.
_CONS_SPECIALS = {Special.GTID, Special.PARAM, Special.NTID_X}


def wrappable(func, flavor: str) -> bool:
    """Whether ``func``'s body can run under a batched launch table."""
    summary = summarize_body(func.program)
    if summary.exit_count != 1 or not summary.trailing_exit:
        return False
    if flavor == "agg":
        return summary.specials <= _AGG_SPECIALS
    return (
        summary.specials <= _CONS_SPECIALS
        and not summary.has_bar
        and func.shared_words == 0
    )


def build_wrapper(name: str, func, block_size: int, flavor: str) -> Optional[Program]:
    """Prologue + re-based child body, as an unfinalized program."""
    if not wrappable(func, flavor):
        return None
    body = func.program.definalize()
    summary = summarize_body(body)
    kb = KernelBuilder(
        name,
        int_reg_start=summary.max_int + 1,
        flt_reg_start=summary.max_flt + 1,
        label_stem="wrp",
    )
    table = kb.param()

    def scan(owner):
        """Find the request whose half-open range contains ``owner``.

        Walks ``start_{r+1} <= owner``; the sentinel entry written by
        the flush guarantees termination.  Returns the record address.
        """
        index = kb.mov(0)
        next_start = kb.iadd(table, 4)
        with kb.while_(lambda: kb.le(kb.ld(next_start), owner)):
            kb.iadd(index, 1, dst=index)
            kb.iadd(next_start, 2, dst=next_start)
        return kb.iadd(table, kb.imul(index, 2))

    if flavor == "agg":
        cta = kb.ctaid()
        record = scan(cta)
        subst = {}
        if Special.PARAM in summary.specials:
            subst[Special.PARAM] = kb.ld(record, offset=3)
        needs_local = summary.specials & {
            Special.GTID, Special.CTAID_X, Special.NCTAID_X
        }
        if needs_local:
            start = kb.ld(record, offset=2)
            local_cta = kb.isub(cta, start)
            if Special.CTAID_X in summary.specials:
                subst[Special.CTAID_X] = local_cta
            if Special.GTID in summary.specials:
                subst[Special.GTID] = kb.iadd(
                    kb.imul(local_cta, kb.ntid()), kb.tid()
                )
            if Special.NCTAID_X in summary.specials:
                subst[Special.NCTAID_X] = kb.isub(
                    kb.ld(record, offset=4), start
                )
        splice_body(
            kb.program, body,
            label_prefix="", int_shift=0, flt_shift=0,
            special_subst=subst,
        )
        kb.exit()
        return kb.program

    # cons: thread-granular repacking behind an in-bounds guard.
    index = kb.gtid()
    total = kb.ld(table, offset=1)
    with kb.if_(kb.lt(index, total)):
        record = scan(index)
        subst = {}
        if Special.PARAM in summary.specials:
            subst[Special.PARAM] = kb.ld(record, offset=3)
        if Special.GTID in summary.specials:
            subst[Special.GTID] = kb.isub(index, kb.ld(record, offset=2))
        splice_body(
            kb.program, body,
            label_prefix="", int_shift=0, flt_shift=0,
            special_subst=subst,
        )
    kb.exit()
    return kb.program
