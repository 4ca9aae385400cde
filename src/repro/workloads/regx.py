"""Regular-expression matching (Table 4: DARPA packets, random strings).

GRegex-style [37] DFA matching: the attack signatures are compiled into a
dense anchored DFA table (see :mod:`repro.workloads.regex_engine`) that
lives in global memory.  One parent thread handles one packet; every byte
position is a potential match start that must be verified by walking the
DFA over a bounded window.

The per-position verification sweep is the DFP: serialized inside the
packet's thread in flat mode (with a cheap first-byte prescreen before the
DFA walk), or launched as a child with one thread per position in CDP /
DTBL.  Packet lengths and prefix densities vary widely, so the flat
version is heavily imbalanced; random small-alphabet strings (regx_string)
trigger near-constant prefix hits — the paper's highest-DFP benchmark.
"""

from __future__ import annotations

import dataclasses
from typing import List

import numpy as np

from ..isa.builder import KernelBuilder, Value
from ..runtime import Device, ExecutionMode
from ..sim.kernel import KernelFunction
from .base import Workload
from .common import emit_dfp, emit_dynamic_launch
from .datasets.memo import memoised_derived
from .datasets.strings import PacketSet
from .regex_engine import Dfa, build_anchored_dfa

_P = dict(NPKT=0, OFFSETS=1, LENGTHS=2, BYTES=3, TABLE=4, ACCEPT=5, MATCHES=6)
_C = dict(COUNT=0, PSTART=1, BYTES=2, TABLE=3, ACCEPT=4, MATCHES=5, PKT=6, PLEN=7)


def _emit_verify(
    k: KernelBuilder,
    dfa: Dfa,
    pos: Value,
    pstart: Value,
    plen: Value,
    bytes_addr: Value,
    table: Value,
    accept: Value,
    matches_slot,
) -> None:
    """Walk the anchored DFA from ``pos``; count a match if accepted.

    The first symbol is prescreened (a root-table lookup) before the
    bounded verification loop runs, in both flat and child variants.
    """
    state = k.mov(0)
    first = k.ld(k.iadd(bytes_addr, k.iadd(pstart, pos)))
    k.ld(k.iadd(table, first), dst=state)  # root transition = prescreen
    matched = k.mov(0)
    j = k.mov(1)
    limit = k.imin(k.isub(plen, pos), dfa.max_pattern_len)

    def cond():
        live = k.ne(state, 1)
        pending = k.iand(k.lt(j, limit), k.eq(matched, 0))
        return k.iand(live, pending)

    # Check acceptance of the first-step state, then loop.
    k.ld(k.iadd(accept, state), dst=matched)
    with k.while_(cond):
        symbol = k.ld(k.iadd(bytes_addr, k.iadd(pstart, k.iadd(pos, j))))
        row = k.imul(state, dfa.alphabet)
        k.ld(k.iadd(table, k.iadd(row, symbol)), dst=state)
        with k.if_(k.ne(state, 1)):
            k.ld(k.iadd(accept, state), dst=matched)
        k.iadd(j, 1, dst=j)
    with k.if_(k.ne(matched, 0)):
        k.atom_add(matches_slot, 1)


def build_regx_child(dfa: Dfa, block: int) -> KernelFunction:
    """One thread per byte position of the packet."""
    k = KernelBuilder("regx_verify")
    gtid = k.gtid()
    param = k.param()
    count = k.ld(param, offset=_C["COUNT"])
    with k.if_(k.lt(gtid, count)):
        pstart = k.ld(param, offset=_C["PSTART"])
        bytes_addr = k.ld(param, offset=_C["BYTES"])
        table = k.ld(param, offset=_C["TABLE"])
        accept = k.ld(param, offset=_C["ACCEPT"])
        matches = k.ld(param, offset=_C["MATCHES"])
        pkt = k.ld(param, offset=_C["PKT"])
        plen = k.ld(param, offset=_C["PLEN"])
        _emit_verify(
            k, dfa, gtid, pstart, plen, bytes_addr, table, accept, k.iadd(matches, pkt)
        )
    k.exit()
    return KernelFunction("regx_verify", k.build())


def build_regx_kernel(
    mode: ExecutionMode, dfa: Dfa, threshold: int, block: int
) -> KernelFunction:
    """One thread per packet."""
    k = KernelBuilder("regx_scan")
    gtid = k.gtid()
    param = k.param()
    npkt = k.ld(param, offset=_P["NPKT"])
    with k.if_(k.lt(gtid, npkt)):
        offsets = k.ld(param, offset=_P["OFFSETS"])
        lengths = k.ld(param, offset=_P["LENGTHS"])
        bytes_addr = k.ld(param, offset=_P["BYTES"])
        table = k.ld(param, offset=_P["TABLE"])
        accept = k.ld(param, offset=_P["ACCEPT"])
        matches = k.ld(param, offset=_P["MATCHES"])
        pstart = k.ld(k.iadd(offsets, gtid))
        plen = k.ld(k.iadd(lengths, gtid))

        def serial() -> None:
            with k.for_range(0, plen) as pos:
                _emit_verify(
                    k, dfa, pos, pstart, plen, bytes_addr, table, accept,
                    k.iadd(matches, gtid),
                )

        def launch() -> None:
            emit_dynamic_launch(
                k,
                mode,
                "regx_verify",
                [plen, pstart, bytes_addr, table, accept, matches, gtid, plen],
                plen,
                block,
            )

        emit_dfp(k, mode, plen, threshold, launch, serial)
    k.exit()
    return KernelFunction("regx_scan", k.build())


class RegexWorkload(Workload):
    """Multi-pattern DFA matching over a packet collection."""

    app_name = "regx"
    parent_block = 64
    child_threshold = 32
    child_block = 32

    def __init__(self, name: str, mode: ExecutionMode, packets: PacketSet) -> None:
        super().__init__(name, mode)
        self.packets = packets
        self.dfa = self.anchored_dfa()

    def build_kernels(self) -> List[KernelFunction]:
        kernels = [
            build_regx_kernel(self.mode, self.dfa, self.child_threshold, self.child_block)
        ]
        if self.mode.is_dynamic:
            kernels.append(build_regx_child(self.dfa, self.child_block))
        return kernels

    @memoised_derived("packets")
    def anchored_dfa(self) -> Dfa:
        return build_anchored_dfa(self.packets.patterns, self.packets.alphabet)

    def setup(self, device: Device) -> None:
        packets = self.packets
        lengths = np.array([len(p) for p in packets.packets], dtype=np.int64)
        offsets = np.zeros(len(lengths), dtype=np.int64)
        np.cumsum(lengths[:-1], out=offsets[1:])
        blob = np.concatenate(packets.packets)
        self.offsets_addr = device.upload(offsets)
        self.lengths_addr = device.upload(lengths)
        self.bytes_addr = device.upload(blob)
        # Remap the anchored alphabet: regx_string uses lowercase letters,
        # darpa full bytes; the table is indexed by raw symbol either way.
        self.table_addr = device.upload(self.dfa.transitions)
        self.accept_addr = device.upload(self.dfa.accepting)
        self.matches_addr = device.alloc(packets.count)

    def run(self, device: Device) -> None:
        device.launch(
            "regx_scan",
            grid=self.grid_for(self.packets.count, self.parent_block),
            block=self.parent_block,
            params=[
                self.packets.count,
                self.offsets_addr,
                self.lengths_addr,
                self.bytes_addr,
                self.table_addr,
                self.accept_addr,
                self.matches_addr,
            ],
        )

    # ------------------------------------------------------------------
    @memoised_derived("packets")
    def reference_counts(self) -> np.ndarray:
        # The same DFA over Python lists: ``matches_at`` walks its tables
        # and the packet one element at a time.
        dfa = dataclasses.replace(
            self.dfa,
            transitions=self.dfa.transitions.tolist(),
            accepting=self.dfa.accepting.tolist(),
        )
        return np.array(
            [
                sum(1 for start in range(len(text)) if dfa.matches_at(text, start))
                for text in (packet.tolist() for packet in self.packets.packets)
            ],
            dtype=np.int64,
        )

    def check(self, device: Device) -> None:
        got = device.download_ints(self.matches_addr, self.packets.count)
        expected = self.reference_counts()
        mismatches = int((got != expected).sum())
        self.expect(
            mismatches == 0, f"{mismatches} per-packet match counts differ"
        )
