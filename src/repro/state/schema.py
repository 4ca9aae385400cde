"""The one walker over the per-class ``STATE`` tables.

Every stateful simulator class declares its mutable state once, next to
its ``__init__``, as rows ``(attribute, kind[, drained])``; ``NOT_STATE``
beside it names what is deliberately not a row (wiring, constructor-
derived geometry, derived heaps), and ``tests/state/test_schema.py``
fails when an attribute is in neither.  ``kind`` is one of

``"value"``
    an immutable value, stored and restored as is;
``"copy"``
    a list / dict / set / tuple / ndarray, nested freely: :func:`copied`
    out and again in, so a document never aliases a live machine;
``"image"``
    a word-indexed ndarray others hold views of: the capturing side's
    ``refs["image"](array)`` trims it on the way out, the restoring
    side's ``refs["image"](array, image)`` writes it over the live array
    in place (:mod:`repro.memory.global_memory`; both need the store's
    write bound, which the snapshot has and a table does not);
``"record"`` / ``"age"`` / ``"kde"`` / ``"kernel"`` / ``"spec"`` / ``"smx"``
    a reference into an identity registry, stored as what the capturing
    side's ``refs[kind]`` makes of the object (an index, a name, a seq)
    and resolved by the restoring side's; ``None`` stays ``None``;
a class with ``STATE``
    a child component, walked recursively and updated in place;
``[kind]``
    a list or deque of references or of children; children whose class
    takes constructor arguments are rebuilt, others updated in place.

An ``"arg:<kind>"`` row is also a positional constructor argument (rows
in signature order): :func:`construct` passes them, :func:`restore`
skips them.  ``drained`` is what the attribute holds once the machine
has drained — a literal, or the name of the ``GPUConfig`` field holding
it; containers are compared by their number of (distinct) entries.
"""

from __future__ import annotations

import functools

import numpy as np

#: ``drained`` of a row that says nothing about the drained machine.
ANY = object()

_LEAVES = frozenset((int, float, bool, str, type(None)))


class CheckpointError(Exception):
    """A checkpoint cannot be captured, read, or restored.

    Raised for uncheckpointable state (an attached tracer),
    unreadable or truncated files, stale code salts, and mismatches
    between the checkpoint and the replayed host program.
    """


@functools.lru_cache(maxsize=None)
def rows(cls) -> tuple:
    """``cls.STATE`` as ``(attribute, kind, is_arg, drained)`` tuples."""
    table = []
    for name, kind, *drained in cls.STATE:
        is_arg = isinstance(kind, str) and kind.startswith("arg:")
        if is_arg:
            kind = kind.removeprefix("arg:")
        table.append((name, kind, is_arg, drained[0] if drained else ANY))
    return tuple(table)


def copied(value):
    """Copy of a container down to its immutable leaves (arrays copied)."""
    kind = type(value)
    if kind is np.ndarray:
        return value.copy()
    if kind is dict:
        if _LEAVES.issuperset(map(type, value.values())):
            return value.copy()
        return {key: copied(item) for key, item in value.items()}
    if kind is list or kind is tuple:
        if _LEAVES.issuperset(map(type, value)):
            return kind(value)
        return kind([copied(item) for item in value])
    if kind is set:
        return set(value)
    return value


@functools.lru_cache(maxsize=None)
def _pairs(cls) -> tuple:
    return tuple(row[:2] for row in rows(cls))


def capture(obj, refs: dict) -> dict:
    """``obj``'s rows as a plain dictionary keyed by attribute name."""
    out = {}
    for name, kind in _pairs(type(obj)):
        value = getattr(obj, name)
        # Most rows are values: spare them the call.
        out[name] = value if kind == "value" or value is None else encode(value, kind, refs)
    return out


def encode(value, kind, refs: dict):
    """A non-value row's document form."""
    if value is None:
        return None
    if kind == "copy":
        return copied(value)
    if type(kind) is list:
        inner = kind[0]
        if type(inner) is str:
            one = refs[inner]
            return [None if item is None else one(item) for item in value]
        return [None if item is None else capture(item, refs) for item in value]
    if type(kind) is str:
        return refs[kind](value)
    return capture(value, refs)


def restore(obj, data: dict, refs: dict) -> None:
    """Overwrite ``obj``'s non-constructor rows from ``data``."""
    for name, kind, is_arg, _drained in rows(type(obj)):
        if is_arg:
            continue
        value = data[name]
        cls = kind[0] if type(kind) is list else kind
        if kind == "image":
            refs["image"](getattr(obj, name), value)
        elif isinstance(cls, type) and not any(row[2] for row in rows(cls)):
            # Children built by the replay (no ``arg:`` rows): in place.
            current = getattr(obj, name)
            if type(kind) is not list:
                current, value = [current], [value]
            if len(current) != len(value) or any(
                (child is None) != (child_data is None)
                for child, child_data in zip(current, value)
            ):
                raise CheckpointError(
                    f"{type(obj).__name__}.{name}: the checkpoint and the "
                    "replay do not hold the same components"
                )
            for child, child_data in zip(current, value):
                if child is not None:
                    restore(child, child_data, refs)
        elif type(kind) is list:
            # Same container type as the replay built (list or deque).
            container = type(getattr(obj, name))
            setattr(obj, name, container(decode(item, cls, refs) for item in value))
        else:
            setattr(obj, name, decode(value, kind, refs))


def decode(value, kind, refs: dict):
    if kind == "value" or value is None:
        return value
    if kind == "copy":
        return copied(value)
    if type(kind) is str:
        return refs[kind](value)
    return build(kind, value, refs)


def construct(cls, data: dict, refs: dict):
    """A new ``cls`` from its ``arg:`` rows; the other rows not yet set."""
    return cls(*[
        decode(data[name], kind, refs)
        for name, kind, is_arg, _drained in rows(cls)
        if is_arg
    ])


def build(cls, data: dict, refs: dict):
    obj = construct(cls, data, refs)
    restore(obj, data, refs)
    return obj


def components(obj, prefix: str = "", prune=None):
    """``(prefix, component)`` for ``obj`` and everything below it.

    ``prefix + attribute`` is a row's path (``smxs[3].blocks[1].``).
    Elements of a list for which ``prune(child)`` holds are skipped with
    their subtrees.
    """
    yield prefix, obj
    for name, kind, _is_arg, _drained in rows(type(obj)):
        listed = type(kind) is list
        if not isinstance(kind[0] if listed else kind, type):
            continue
        value = getattr(obj, name)
        for index, child in enumerate(value) if listed else [(None, value)]:
            if child is None or (listed and prune is not None and prune(child)):
                continue
            where = f"{prefix}{name}[{index}]." if listed else f"{prefix}{name}."
            yield from components(child, where, prune)


def undrained(obj, config) -> list:
    """``(attribute, held, drained)`` for each row of ``obj`` itself that
    is not at its drained value."""
    found = []
    for name, _kind, _is_arg, drained in rows(type(obj)):
        if drained is ANY:
            continue
        want = getattr(config, drained) if isinstance(drained, str) else drained
        value = getattr(obj, name)
        if hasattr(value, "__len__"):
            held = f"{len(value)} entries, {len(set(value))} distinct"
            ok = len(value) == len(set(value)) == want
        else:
            held, ok = repr(value), value == want
        if not ok:
            found.append((name, held, want))
    return found
