"""Functional global memory: a flat word-addressable store with an allocator.

One word is 8 bytes and is visible both as an ``int64`` and as a ``float64``
through two NumPy views of the same buffer, so integer indices/flags and
floating-point payloads can share one address space exactly like a real
GPU's global memory.

Addresses used throughout the simulator are *word* indices into this store.

A checkpoint carries the store (and every word-indexed shadow of it) as
an *image*: the prefix that ends at the last word whose bits are not all
zero.  :func:`trim_image` and :func:`apply_image` are that pair for any
word-indexed array (an ``"image"`` row of a ``STATE`` table, see
:mod:`repro.state.schema`).  Both look below a *bound* only:
:attr:`GlobalMemory.written_end`, an upper bound on the highest word any
write has touched, which every write site raises where its bounds check
already has the highest address in hand (one integer compare per store
issue; loads pay nothing).  An upper bound is enough — the image is cut
at the last set word *below* it, wherever exactly the bound lies — and it
is what spares a checkpoint the read of the whole 32 MB store, which no
faster primitive removes: that scan already ran at memory bandwidth.
:func:`image_extent` over a whole array is the oracle the bound is
tested against (and audited with at every sanitized checkpoint).
"""

from __future__ import annotations

import numpy as np

from ..config import WORD_BYTES
from ..errors import MemoryError_

#: Elements examined per step of :func:`image_extent`'s backward scan.
_SCAN_BLOCK = 1 << 16


def image_extent(array: np.ndarray) -> int:
    """Index one past the last element of ``array`` with any bit set.

    The scan runs backwards in blocks over the integer view of the data,
    so a float ``-0.0`` or NaN payload counts as set and an all-zero
    array has extent 0.
    """
    bits = array if array.dtype.kind in "biu" else array.view(f"i{array.itemsize}")
    end = bits.size
    while end > 0:
        start = max(0, end - _SCAN_BLOCK)
        set_bits = np.flatnonzero(bits[start:end])
        if set_bits.size:
            return start + int(set_bits[-1]) + 1
        end = start
    return 0


def trim_image(array: np.ndarray, bound: int) -> np.ndarray:
    """Copy of ``array`` up to its last set element; nothing is set at or
    above ``bound``."""
    return array[: image_extent(array[:bound])].copy()


def apply_image(array: np.ndarray, image: np.ndarray, bound: int) -> None:
    """Make ``array`` equal what :func:`trim_image` was taken from.

    Writes ``image`` over the head of ``array`` and zeroes what ``array``
    may hold above it, which ends below ``bound``.
    """
    array[: image.size] = image
    array[image.size : bound] = 0


class GlobalMemory:
    """Flat global memory with a bump allocator.

    Parameters
    ----------
    size_words:
        Capacity of the store in 8-byte words.  The default (4 Mi words =
        32 MB) is ample for the scaled-down workloads.
    """

    STATE = (("i", "image"), ("_next_free", "value"), ("_live", "copy"))
    NOT_STATE = (
        "size_words",  # constructor input
        "_buffer", "f",  # the words of `i` under other names
        "observer",  # wiring
        # Any upper bound serves, so a restore keeps the replay's own and
        # raises it to the images it applies.
        "written_end",
    )

    def __init__(self, size_words: int = 4 * 1024 * 1024) -> None:
        if size_words <= 0:
            raise MemoryError_("global memory size must be positive")
        self.size_words = int(size_words)
        self._buffer = np.zeros(self.size_words, dtype=np.int64)
        #: Integer view of the store (int64 per word).
        self.i = self._buffer
        #: Float view of the same bytes (float64 per word).
        self.f = self._buffer.view(np.float64)
        # Word 0 is reserved so that address 0 can act as a null pointer.
        self._next_free = 1
        #: Live allocations: base address -> word count.  Freed ranges are
        #: removed; the sanitizer keeps the dead-range shadow.
        self._live: dict = {}
        #: No word at or above this index has ever been written: every
        #: write site — the host-side methods below, the store, local-store
        #: and atomic paths of both cores, the sanitizer for its shadows —
        #: raises it to one past its highest address.
        self.written_end = 0
        #: Optional allocation/host-write observer (the sanitizer).  Must
        #: provide ``on_alloc(base, words)``, ``on_free(base, words)`` and
        #: ``on_host_write(base, words)``.
        self.observer = None

    def release(self) -> None:
        """Give the store back; what a closed device ends with.

        A closed device may still be referenced for a while (a workload's
        ``DeviceArray`` handles hold it until the job returns), and would
        keep every page its kernels touched resident until then.  The
        words go as soon as nothing else holds ``i`` / ``f``: resident
        warps do, finished blocks have let theirs go
        (``SMX.block_finished``).
        """
        self._buffer = self.i = np.zeros(0, dtype=np.int64)
        self.f = self._buffer.view(np.float64)

    # ------------------------------------------------------------------
    # Allocation
    # ------------------------------------------------------------------
    def alloc(self, words: int) -> int:
        """Allocate ``words`` consecutive words; returns the base address."""
        if words <= 0:
            raise MemoryError_(f"allocation size must be positive, got {words}")
        base = self._next_free
        if base + words > self.size_words:
            raise MemoryError_(
                f"out of simulated global memory: requested {words} words, "
                f"{self.size_words - base} free"
            )
        self._next_free = base + words
        self._live[base] = int(words)
        if self.observer is not None:
            self.observer.on_alloc(base, int(words))
        return base

    def free(self, base: int, words: int = None) -> None:
        """Free a previous :meth:`alloc`.

        Under the bump allocator only the most recent live allocation's
        words are actually reclaimed (``_next_free`` rolls back); freeing
        older allocations removes them from the live-range map but leaves
        the high-water mark in place.  Freeing an address that is not a
        live allocation base — including a second free of the same base —
        raises :class:`MemoryError_`.
        """
        extent = self._live.get(base)
        if extent is None:
            raise MemoryError_(
                f"free() of address {base}, which is not a live allocation "
                "(double free, interior pointer, or never allocated)"
            )
        if words is not None and int(words) != extent:
            raise MemoryError_(
                f"free() extent mismatch at address {base}: allocation is "
                f"{extent} words, free() passed {words}"
            )
        del self._live[base]
        if base + extent == self._next_free:
            self._next_free = base
        if self.observer is not None:
            self.observer.on_free(base, extent)

    def live_range(self, base: int):
        """Word count of the live allocation at ``base``, or None."""
        return self._live.get(base)

    def alloc_array(self, values: np.ndarray) -> int:
        """Allocate and initialize from an int or float array."""
        arr = np.asarray(values)
        base = self.alloc(arr.size)
        if np.issubdtype(arr.dtype, np.floating):
            self.f[base : base + arr.size] = arr.ravel()
        else:
            self.i[base : base + arr.size] = arr.ravel()
        self.host_wrote(base, arr.size)
        return base

    @property
    def words_in_use(self) -> int:
        """Words handed out by the allocator so far."""
        return self._next_free

    @property
    def bytes_in_use(self) -> int:
        return self.words_in_use * WORD_BYTES

    # ------------------------------------------------------------------
    # Bounds-checked scalar access (host-side convenience; the warp engine
    # uses the raw views for speed after a vectorized bounds check).
    # ------------------------------------------------------------------
    def read_int(self, addr: int) -> int:
        self.check_range(addr, 1)
        return int(self.i[addr])

    def write_int(self, addr: int, value: int) -> None:
        self.check_range(addr, 1)
        self.i[addr] = value
        self.host_wrote(addr, 1)

    def read_float(self, addr: int) -> float:
        self.check_range(addr, 1)
        return float(self.f[addr])

    def write_float(self, addr: int, value: float) -> None:
        self.check_range(addr, 1)
        self.f[addr] = value
        self.host_wrote(addr, 1)

    def read_ints(self, addr: int, count: int) -> np.ndarray:
        self.check_range(addr, count)
        return self.i[addr : addr + count].copy()

    def write_ints(self, addr: int, values: np.ndarray) -> None:
        arr = np.asarray(values, dtype=np.int64)
        self.check_range(addr, arr.size)
        self.i[addr : addr + arr.size] = arr
        self.host_wrote(addr, arr.size)

    def read_floats(self, addr: int, count: int) -> np.ndarray:
        self.check_range(addr, count)
        return self.f[addr : addr + count].copy()

    def write_floats(self, addr: int, values: np.ndarray) -> None:
        arr = np.asarray(values, dtype=np.float64)
        self.check_range(addr, arr.size)
        self.f[addr : addr + arr.size] = arr
        self.host_wrote(addr, arr.size)

    def host_wrote(self, addr: int, count: int) -> None:
        """What every host-side write of [addr, addr+count) ends with."""
        if addr + count > self.written_end:
            self.written_end = addr + count
        if self.observer is not None:
            self.observer.on_host_write(addr, count)

    def check_range(self, addr: int, count: int = 1) -> None:
        """Raise :class:`MemoryError_` unless [addr, addr+count) is valid."""
        if addr < 0 or addr + count > self.size_words:
            raise MemoryError_(
                f"global memory access out of range: addr={addr} count={count} "
                f"size={self.size_words}"
            )
