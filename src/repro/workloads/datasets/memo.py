"""Inputs are built once per process: a bounded memo of seeded datasets.

Every generator in this package is a pure function of its arguments, and
so is every host value a workload derives from its dataset: its reference
answer, and the structures its kernels are built from (bht's quadtree,
regx's DFA), each a function of the dataset and the few workload
parameters it reads.  A
resident worker, a sweep or a bench pass asks for the same inputs job
after job; :func:`memoised` builds each dataset once per process and hands
every later caller the same object, and :func:`memoised_derived` keeps
each derived value in its dataset's entry.

Sharing is safe because nothing can write into a shared input: every
array a memoised call returns is read-only, every list a tuple, and the
dataset and derived classes are frozen dataclasses.  A workload that wrote
into its input would raise ``ValueError`` rather than leak into the next
job.

The memo holds at most :data:`MAX_BYTES` and evicts the least recently
used entry, with the derived values kept in it.  ``generator.__wrapped__``
(and ``Workload.<method>.__wrapped__``) compute without it.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import sys
from collections import OrderedDict
from typing import Any, Callable, Dict, Hashable, Optional

import numpy as np

#: What the memo may hold: array data by ``nbytes``, other leaves by
#: ``sys.getsizeof``.
MAX_BYTES = 32 * 1024 * 1024


class _Entry:
    __slots__ = ("value", "nbytes", "derived")

    def __init__(self, value: Any, nbytes: int) -> None:
        self.value = value
        self.nbytes = nbytes
        #: Values derived from ``value``, by their key.
        self.derived: Dict[Hashable, Any] = {}


#: key -> entry, least recently used first.
_entries: "OrderedDict[Hashable, _Entry]" = OrderedDict()
#: id(value) -> its entry's key (the entry keeps the id from being reused).
_keys_by_id: Dict[int, Hashable] = {}
#: The entries' ``nbytes`` summed.
_total = 0


def freeze(value: Any) -> Any:
    """``value`` with every array read-only and every list a tuple."""
    if isinstance(value, np.ndarray):
        value.flags.writeable = False
        return value
    if isinstance(value, (list, tuple)):
        return tuple(freeze(item) for item in value)
    if dataclasses.is_dataclass(value):
        return dataclasses.replace(value, **{
            field.name: freeze(getattr(value, field.name))
            for field in dataclasses.fields(value)
        })
    return value


def _nbytes(value: Any) -> int:
    if isinstance(value, np.ndarray):
        return value.nbytes
    if isinstance(value, tuple):
        return sum(_nbytes(item) for item in value)
    if dataclasses.is_dataclass(value):
        return sum(_nbytes(getattr(value, field.name))
                   for field in dataclasses.fields(value))
    return sys.getsizeof(value)


def _evict(key: Hashable) -> None:
    global _total
    entry = _entries.pop(key)
    del _keys_by_id[id(entry.value)]
    _total -= entry.nbytes


def _make_room(nbytes: int, keep: Optional[Hashable] = None) -> bool:
    """Evict least recently used entries other than ``keep`` until
    ``nbytes`` more fit; False when they cannot."""
    for key in list(_entries):
        if _total + nbytes <= MAX_BYTES:
            break
        if key != keep:
            _evict(key)
    return _total + nbytes <= MAX_BYTES


def clear() -> None:
    """Forget every entry."""
    for key in list(_entries):
        _evict(key)


def memoised(generator: Callable) -> Callable:
    """Decorator: one frozen build per distinct argument binding.

    The key binds the call to ``generator``'s signature with defaults
    applied, so ``f(900)``, ``f(n=900)`` and spellings that differ only in
    defaults share an entry; each argument's type is part of the key.
    """
    signature = inspect.signature(generator)

    @functools.wraps(generator)
    def build(*args, **kwargs):
        global _total
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        key = (generator, tuple(
            (name, type(value), value) for name, value in bound.arguments.items()
        ))
        entry = _entries.get(key)
        if entry is not None:
            _entries.move_to_end(key)
            return entry.value
        value = freeze(generator(*bound.args, **bound.kwargs))
        nbytes = _nbytes(value)
        if _make_room(nbytes):
            _entries[key] = _Entry(value, nbytes)
            _keys_by_id[id(value)] = key
            _total += nbytes
        return value

    return build


def _derived(dataset: Any, key: Hashable, compute: Callable[[], Any]) -> Any:
    """``compute()``, frozen, kept in ``dataset``'s entry under ``key``;
    computed afresh when ``dataset`` is not a memoised build."""
    global _total
    entry_key = _keys_by_id.get(id(dataset))
    if entry_key is None:
        return freeze(compute())
    entry = _entries[entry_key]
    _entries.move_to_end(entry_key)
    if key in entry.derived:
        return entry.derived[key]
    value = freeze(compute())
    nbytes = _nbytes(value)
    if _entries.get(entry_key) is entry and _make_room(nbytes, keep=entry_key):
        entry.derived[key] = value
        entry.nbytes += nbytes
        _total += nbytes
    return value


def _param_key(value: Any) -> Hashable:
    """Type-exact, as the generators' keys are: ``1``, ``1.0`` and
    ``True`` compare equal but are three keys."""
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    return type(value), value


def memoised_derived(dataset: str, *params: str) -> Callable:
    """Method decorator: a host value derived from ``self.<dataset>``,
    kept in that dataset's memo entry.

    The key is the workload class, the method, and the value of
    ``self.<param>`` for each of ``params``: the workload parameters the
    method reads besides the dataset.  Workloads of one class in different
    modes therefore share the value.  Only host computation is shared:
    every job still uploads its own copy and compares its own device
    output against the reference.
    """

    def wrap(method: Callable) -> Callable:
        @functools.wraps(method)
        def derived(self):
            key = (type(self), method.__name__) + tuple(
                _param_key(getattr(self, name)) for name in params
            )
            return _derived(getattr(self, dataset), key, lambda: method(self))

        return derived

    return wrap
