"""Kernel functions and launch geometry."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

from ..config import (
    MAX_LOCAL_WORDS, SHARED_MEM_SIZE, WARP_SIZE, WORD_BYTES, GPUConfig,
)
from ..errors import LaunchError
from ..isa.program import Program

#: (x, y, z) launch dimensions.
LaunchDims = Tuple[int, int, int]


def as_dims(dims: object) -> LaunchDims:
    """Coerce an int or a 1-3 element sequence to concrete (x, y, z)."""
    if isinstance(dims, int):
        seq = (dims,)
    else:
        seq = tuple(map(int, dims))  # type: ignore[arg-type]
    if not 1 <= len(seq) <= 3:
        raise LaunchError(f"launch dims must have 1-3 components, got {dims!r}")
    padded = seq + (1,) * (3 - len(seq))
    if min(padded) <= 0:
        raise LaunchError(f"launch dims must be positive, got {dims!r}")
    return padded  # type: ignore[return-value]


def dims_total(dims: LaunchDims) -> int:
    return dims[0] * dims[1] * dims[2]


@dataclass
class KernelFunction:
    """A compiled kernel: program plus static resource demands.

    ``regs_per_thread`` feeds the SMX occupancy limit; it defaults to the
    register count the program actually uses.  ``shared_words`` is the
    static shared-memory allocation of each thread block.
    """

    name: str
    program: Program
    shared_words: int = 0
    regs_per_thread: int = field(default=0)
    #: Per-thread local-memory words (LDL/STL address space).
    local_words: int = 0

    def __post_init__(self) -> None:
        self.program.finalize()
        if self.regs_per_thread <= 0:
            highest = self.program.max_register_index()
            # int64/float64 registers each occupy two 32-bit architectural
            # registers on the modeled hardware.
            self.regs_per_thread = 2 * (highest["int"] + 1 + highest["flt"] + 1)
        if self.shared_words < 0:
            raise LaunchError("shared_words must be non-negative")
        if self.local_words < 0:
            raise LaunchError("local_words must be non-negative")

    def validate_block(self, block_dims: LaunchDims, config: GPUConfig) -> None:
        """Refuse a block with more threads, or needing more registers or
        shared memory, than one SMX of ``config`` holds, or a kernel with
        more local memory than a thread has: no SMX could ever take it."""
        threads = dims_total(block_dims)
        max_threads = config.max_resident_threads
        if threads <= 0 or threads > max_threads:
            raise LaunchError(
                f"kernel {self.name!r}: block of {threads} threads exceeds the "
                f"{max_threads}-thread limit"
            )
        registers = threads * self.regs_per_thread
        if registers > config.registers_per_smx:
            raise LaunchError(
                f"kernel {self.name!r}: block of {threads} threads needs {registers} "
                f"registers, more than the {config.registers_per_smx} of an SMX"
            )
        shared = self.shared_words * WORD_BYTES
        if shared > SHARED_MEM_SIZE:
            raise LaunchError(
                f"kernel {self.name!r}: block needs {shared} bytes of shared memory, "
                f"more than the {SHARED_MEM_SIZE} of an SMX"
            )
        if self.local_words > MAX_LOCAL_WORDS:
            raise LaunchError(
                f"kernel {self.name!r}: {self.local_words} local-memory words per "
                f"thread, more than the {MAX_LOCAL_WORDS} a thread has"
            )

    def warps_per_block(self, block_dims: LaunchDims) -> int:
        threads = dims_total(block_dims)
        return (threads + WARP_SIZE - 1) // WARP_SIZE
