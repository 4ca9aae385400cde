"""A small pattern-matching engine: patterns → NFA → dense DFA tables.

This is the substrate the REGX benchmark consumes (the paper's GRegex
engine [37] is a DFA-table GPU matcher).  Patterns support a practical
regex subset:

* literal characters;
* ``.`` — any symbol in the alphabet;
* ``[abc]`` / ``[a-z0-9]`` — character classes (with ``^`` negation);
* ``\\.`` etc. — escapes for the metacharacters.

Each pattern compiles to a per-position symbol-set NFA; the engine then
runs textbook subset construction to a dense ``states × alphabet``
transition table plus an accepting-state bitmap, laid out for upload into
simulated global memory.  Two entry points:

* :func:`build_anchored_dfa` — matches any pattern starting exactly at
  the walk's first symbol (what the per-position verifier kernels use;
  state 1 is a trap state, so walks stop early on mismatch);
* :func:`build_ac_dfa` — the unanchored scanner (``Σ* (p1|p2|...)``,
  Aho-Corasick-equivalent for literal patterns), used by the reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Sequence, Tuple

from ..errors import WorkloadError

#: One NFA position: (pattern index, offset within the pattern).
_Position = Tuple[int, int]


@dataclass(frozen=True)
class Dfa:
    """Dense-table DFA over the byte alphabet [0, alphabet)."""

    #: transitions[state * alphabet + symbol] -> next state
    transitions: "object"
    #: 1 where the state signals at least one pattern match
    accepting: "object"
    alphabet: int
    num_states: int
    #: Length of the longest pattern (bounds verification windows).
    max_pattern_len: int
    #: True when built anchored (state 1 is the trap state).
    anchored: bool = True

    def step(self, state: int, symbol: int) -> int:
        return int(self.transitions[state * self.alphabet + symbol])

    def matches_at(self, text: Sequence[int], start: int) -> bool:
        """Anchored check: does any pattern match starting at ``start``?"""
        state = 0
        limit = min(len(text), start + self.max_pattern_len)
        for pos in range(start, limit):
            state = self.step(state, int(text[pos]))
            if self.anchored and state == 1:
                return False
            if self.accepting[state]:
                return True
        return False


def parse_pattern(pattern: str, alphabet: int) -> List[FrozenSet[int]]:
    """Compile one pattern into per-position symbol sets."""
    if not pattern:
        raise WorkloadError("empty pattern")
    full = frozenset(range(alphabet))
    sets: List[FrozenSet[int]] = []
    i = 0
    while i < len(pattern):
        ch = pattern[i]
        if ch == "\\":
            if i + 1 >= len(pattern):
                raise WorkloadError(f"pattern {pattern!r}: dangling escape")
            sets.append(frozenset({ord(pattern[i + 1])}))
            i += 2
        elif ch == ".":
            sets.append(full)
            i += 1
        elif ch == "[":
            end = pattern.find("]", i + 1)
            if end < 0:
                raise WorkloadError(f"pattern {pattern!r}: unterminated class")
            body = pattern[i + 1 : end]
            negate = body.startswith("^")
            if negate:
                body = body[1:]
            if not body:
                raise WorkloadError(f"pattern {pattern!r}: empty class")
            members = set()
            j = 0
            while j < len(body):
                if j + 2 < len(body) and body[j + 1] == "-":
                    lo, hi = ord(body[j]), ord(body[j + 2])
                    if lo > hi:
                        raise WorkloadError(f"pattern {pattern!r}: bad range")
                    members.update(range(lo, hi + 1))
                    j += 3
                else:
                    members.add(ord(body[j]))
                    j += 1
            chosen = full - frozenset(members) if negate else frozenset(members)
            if not chosen:
                raise WorkloadError(f"pattern {pattern!r}: class matches nothing")
            sets.append(frozenset(chosen))
            i = end + 1
        else:
            sets.append(frozenset({ord(ch)}))
            i += 1
    for symbol_set in sets:
        if any(s >= alphabet or s < 0 for s in symbol_set):
            raise WorkloadError(
                f"pattern {pattern!r} uses symbols outside the alphabet"
            )
    return sets


def _determinize(
    patterns: Sequence[str], alphabet: int, unanchored: bool
) -> Dfa:
    """Subset construction over the per-position NFA."""
    import numpy as np

    if not patterns:
        raise WorkloadError("need at least one pattern")
    compiled = [parse_pattern(p, alphabet) for p in patterns]

    start: FrozenSet[_Position] = frozenset(
        (idx, 0) for idx in range(len(compiled))
    )

    def is_accepting(positions: FrozenSet[_Position]) -> bool:
        return any(offset == len(compiled[idx]) for idx, offset in positions)

    def advance(positions: FrozenSet[_Position], symbol: int) -> FrozenSet[_Position]:
        result = set()
        for idx, offset in positions:
            if offset < len(compiled[idx]) and symbol in compiled[idx][offset]:
                result.add((idx, offset + 1))
        if unanchored:
            # Σ* self-loop: a fresh match can begin at every symbol.
            for idx in range(len(compiled)):
                if symbol in compiled[idx][0]:
                    result.add((idx, 1))
                result.add((idx, 0))
        return frozenset(result)

    dead: FrozenSet[_Position] = frozenset()
    # State 0 is the start; state 1 the dead/trap state (kept even for
    # unanchored automata, where it is unreachable, so layouts match).
    state_ids: Dict[FrozenSet[_Position], int] = {start: 0, dead: 1}
    order: List[FrozenSet[_Position]] = [start, dead]
    worklist = [start]
    transitions: List[List[int]] = []

    while worklist:
        positions = worklist.pop()
        sid = state_ids[positions]
        while len(transitions) <= sid:
            transitions.append([1] * alphabet)
        row = transitions[sid]
        if positions == dead:
            continue
        for symbol in range(alphabet):
            nxt = advance(positions, symbol)
            nid = state_ids.get(nxt)
            if nid is None:
                nid = len(order)
                state_ids[nxt] = nid
                order.append(nxt)
                worklist.append(nxt)
            row[symbol] = nid
    while len(transitions) < len(order):
        transitions.append([1] * alphabet)

    num_states = len(order)
    table = np.asarray(transitions, dtype=np.int64).reshape(num_states * alphabet)
    accepting = np.asarray(
        [1 if is_accepting(positions) else 0 for positions in order], dtype=np.int64
    )
    return Dfa(
        transitions=table,
        accepting=accepting,
        alphabet=alphabet,
        num_states=num_states,
        max_pattern_len=max(len(c) for c in compiled),
        anchored=not unanchored,
    )


def build_anchored_dfa(patterns: Sequence[str], alphabet: int = 256) -> Dfa:
    """DFA matching any pattern anchored at the first walked symbol."""
    return _determinize(patterns, alphabet, unanchored=False)


def build_ac_dfa(patterns: Sequence[str], alphabet: int = 256) -> Dfa:
    """Unanchored scanner DFA (``Σ* (p1|p2|...)``): a single forward pass
    reports a match at every position where some pattern *ends*."""
    return _determinize(patterns, alphabet, unanchored=True)


def count_matches(dfa: Dfa, text: Sequence[int], patterns: Sequence[str]) -> int:
    """Reference matcher: number of positions where a pattern starts
    (evaluated with bounded anchored walks, like the verifier kernels)."""
    count = 0
    for start in range(len(text)):
        if dfa.matches_at(text, start):
            count += 1
    return count
