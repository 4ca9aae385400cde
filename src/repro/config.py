"""Simulator configuration: the paper's Table 2 and Table 3.

:class:`GPUConfig` holds the settings of the GPGPU-Sim configuration the
paper uses (Table 2: a Tesla K20c / GK110) that a caller varies: SMX
counts and limits, the warp scheduler, the L2 size, the DRAM timing, the
AGT and the execution core.  The machine parameters that take one value
everywhere (the rest of Table 2, the SMX pipeline, L2 geometry and the
DTBL bookkeeping sizes) are module constants here.  :class:`LatencyModel`
holds the measured device-runtime API latencies (Table 3) in the paper's
per-warp linear form ``b + A * x`` where ``x`` is the number of threads in
the warp invoking the call.

Both classes are frozen dataclasses; derive variants with
:func:`dataclasses.replace`.  Being immutable values, decoded configs are
shared: :meth:`GPUConfig.from_dict` returns one instance per distinct
config, kept by a ``functools.lru_cache`` of 256 per process.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, fields, replace

from .errors import ConfigError

#: Valid :attr:`GPUConfig.core` selections.
CORES = ("reference", "fast")

#: Number of threads in a warp (SIMD width).  Fixed by the architecture.
WARP_SIZE = 32

#: Size of one simulated global-memory word in bytes (int64/float64 views).
WORD_BYTES = 8

#: Size of one coalesced memory segment (transaction) in bytes.
SEGMENT_BYTES = 128

#: Words per coalesced segment.
SEGMENT_WORDS = SEGMENT_BYTES // WORD_BYTES

# ----- Fixed machine parameters ---------------------------------------------
# One value each on every configuration the paper and this repository run;
# :class:`GPUConfig` holds only the settings a caller varies.

# Table 2 rows that only the report prints.
#: SMX core clock in MHz (timing is in cycles).
SMX_CLOCK_MHZ = 706
#: Memory clock in MHz.
MEMORY_CLOCK_MHZ = 2600
#: L1 cache size per SMX in bytes.
L1_SIZE = 16 * 1024
#: Shared memory size per SMX in bytes.
SHARED_MEM_SIZE = 48 * 1024

# SMX pipeline.  Every pipeline latency is at least one cycle: then every
# issue but a launch-API op advances its warp's time, which the fast
# core's run-ahead relies on.
#: Warp schedulers per SMX; each may issue one instruction per cycle.
ISSUE_WIDTH = 4
#: Result latency of a simple ALU instruction, in cycles.
ALU_LATENCY = 10
#: Result latency of an SFU-class instruction (div, sqrt), in cycles.
SFU_LATENCY = 20
#: Shared-memory access latency, in cycles (conflict-free).
SHARED_LATENCY = 30
#: Shared-memory banks; an n-way bank conflict serializes n accesses.
SHARED_BANKS = 32
#: L1 hit latency for local-memory accesses, in cycles.
L1_HIT_LATENCY = 35
#: L1 associativity (local-memory cache).
L1_ASSOC = 4
#: Maximum per-thread local-memory words a kernel may declare.
MAX_LOCAL_WORDS = 64
#: Barrier re-check granularity, in cycles.
BARRIER_LATENCY = 5

# L2 (its line is one coalesced segment, ``SEGMENT_BYTES``).
#: L2 associativity.
L2_ASSOC = 8
#: Bytes of one L2 set: every ``l2_size`` is whole sets.
L2_SET_BYTES = SEGMENT_BYTES * L2_ASSOC
#: L2 hit latency in SMX cycles.
L2_HIT_LATENCY = 120

# DTBL extension (Section 4) and launch bookkeeping.
#: Per-kernel context setup on an SMX (function load, register /
#: shared-memory partitioning) charged when a block of a kernel not
#: currently resident on that SMX arrives.  Coalesced aggregated TBs
#: share their kernel's context — one of DTBL's §4.2 benefits.
CONTEXT_SETUP_CYCLES = 40
#: On-chip SRAM bytes per AGT entry (Section 4.3).
AGT_ENTRY_BYTES = 20
#: Extra KDE/FCFS/SSCR/TBCR register bytes (Section 4.3).
DTBL_REGISTER_BYTES = 1096
#: Global-memory bytes reserved per pending device-launched kernel
#: (kernel record, stream state, saved configuration).
CDP_PENDING_KERNEL_BYTES = 2048
#: Global-memory bytes reserved per pending aggregated group
#: (configuration only; parameters are counted separately).
DTBL_PENDING_GROUP_BYTES = 256

#: :class:`GPUConfig` counts and sizes that a component divides by, indexes
#: with or allocates from: each must be at least 1.
STRUCTURAL_FIELDS = (
    "num_smx", "max_resident_blocks", "max_resident_threads",
    "registers_per_smx", "max_concurrent_kernels", "l2_size", "dram_banks",
    "agt_entries",
)

#: :class:`GPUConfig` DRAM latencies and busy slots, in cycles: each may be
#: 0 but none negative (data cannot return before it was requested).
DRAM_CYCLE_FIELDS = (
    "dram_base_latency", "dram_bus_cycles", "dram_row_hit_cycles",
    "dram_row_miss_cycles", "dram_hit_latency", "dram_miss_latency",
)


@dataclass(frozen=True)
class LatencyModel:
    """Device-runtime API latencies in SMX cycles (paper Table 3).

    ``cudaGetParameterBuffer`` and ``cudaLaunchDevice`` follow the paper's
    per-warp linear model ``b + A * x``; the others are flat costs.
    An *ideal* model (all zeros) gives the paper's CDPI / DTBLI
    configurations: CDP and DTBL at launch-latency scale 0 (see
    :meth:`~repro.runtime.ExecutionMode.latency_model`).
    """

    #: cudaStreamCreateWithFlags flat cost (CDP only).
    stream_create: int = 7165
    #: cudaGetParameterBuffer per-warp initialization cost ``b``.
    param_buffer_base: int = 8023
    #: cudaGetParameterBuffer per-calling-thread cost ``A``.
    param_buffer_per_thread: int = 129
    #: cudaLaunchDevice per-warp initialization cost ``b`` (CDP only).
    launch_device_base: int = 12187
    #: cudaLaunchDevice per-calling-thread cost ``A`` (CDP only).
    launch_device_per_thread: int = 1592
    #: Kernel dispatch latency from the KMU to the Kernel Distributor.
    kernel_dispatch: int = 283
    #: DTBL: per-entry KDE search cost; pipelined, <= 32 cycles per warp.
    kde_search_per_entry: int = 1
    #: DTBL: AGT free-entry probe via the hash function (single cycle).
    agt_probe: int = 1

    def param_buffer_cycles(self, calling_threads: int) -> int:
        """Per-warp cost of ``cudaGetParameterBuffer`` for ``x`` callers."""
        if calling_threads <= 0:
            return 0
        return self.param_buffer_base + self.param_buffer_per_thread * calling_threads

    def launch_device_cycles(self, calling_threads: int) -> int:
        """Per-warp cost of ``cudaLaunchDevice`` for ``x`` callers."""
        if calling_threads <= 0:
            return 0
        return self.launch_device_base + self.launch_device_per_thread * calling_threads

    def kde_search_cycles(self, kde_entries: int) -> int:
        """Pipelined eligible-kernel search over the Kernel Distributor."""
        return self.kde_search_per_entry * kde_entries

    @classmethod
    def measured_k20c(cls) -> "LatencyModel":
        """The paper's Table 3 numbers, measured on a Tesla K20c."""
        return cls()

    def scaled(self, factor: float) -> "LatencyModel":
        """Scale the launch-path latencies by ``factor``.

        The benchmark harness runs workloads scaled down by orders of
        magnitude relative to the paper's inputs; the GPU's latency-hiding
        slack shrinks with them.  Scaling the Table 3 constants by the same
        factor keeps the launch-overhead-to-work ratio representative while
        preserving every CDP:DTBL cost *ratio* (see DESIGN.md).  The
        pipelined KDE search and single-cycle AGT probe are architectural
        constants and are not scaled.
        """
        if factor <= 0:
            raise ConfigError("latency scale factor must be positive")

        def s(value: int) -> int:
            return max(0, int(round(value * factor)))

        return LatencyModel(
            stream_create=s(self.stream_create),
            param_buffer_base=s(self.param_buffer_base),
            param_buffer_per_thread=s(self.param_buffer_per_thread),
            launch_device_base=s(self.launch_device_base),
            launch_device_per_thread=s(self.launch_device_per_thread),
            kernel_dispatch=s(self.kernel_dispatch),
            kde_search_per_entry=self.kde_search_per_entry,
            agt_probe=self.agt_probe,
        )

    @classmethod
    def ideal(cls) -> "LatencyModel":
        """Zero launch overhead: the paper's CDPI / DTBLI configurations
        (launch-latency scale 0)."""
        return cls(
            stream_create=0,
            param_buffer_base=0,
            param_buffer_per_thread=0,
            launch_device_base=0,
            launch_device_per_thread=0,
            kernel_dispatch=0,
            kde_search_per_entry=0,
            agt_probe=0,
        )


@dataclass(frozen=True)
class GPUConfig:
    """The architecture parameters a caller varies (paper Table 2 plus
    timing-model knobs); the fixed ones are this module's constants."""

    # ----- Table 2 -------------------------------------------------------
    #: Number of streaming multiprocessors.
    num_smx: int = 13
    #: Maximum resident thread blocks per SMX.
    max_resident_blocks: int = 16
    #: Maximum resident threads per SMX.
    max_resident_threads: int = 2048
    #: 32-bit registers per SMX.
    registers_per_smx: int = 65536
    #: Maximum concurrently executing kernels (= HWQs = KDE entries).
    max_concurrent_kernels: int = 32

    # ----- SMX pipeline ---------------------------------------------------
    #: Warp scheduling policy: "gto" (greedy-then-oldest, the paper's
    #: configuration) or "rr" (loose round-robin ablation).
    warp_scheduler: str = "gto"

    # ----- Memory system --------------------------------------------------
    #: L2 total size in bytes.  The real GK110 has 1.5 MB; the default here
    #: is scaled down by the same factor as the workload datasets so that
    #: the working-set-to-L2 ratio (which drives the paper's DRAM-behaviour
    #: results) is representative.  See DESIGN.md, "Substitutions".
    l2_size: int = 96 * 1024
    #: Extra latency from L2 miss to DRAM service start.
    dram_base_latency: int = 220
    #: Shared command-bus occupancy per transaction (throughput bound:
    #: at most one command per ``dram_bus_cycles``).
    dram_bus_cycles: int = 2
    #: Bank busy slot for a row-buffer hit (throughput).
    dram_row_hit_cycles: int = 2
    #: Bank busy slot for a row-buffer miss (precharge+activate; ~tRC).
    dram_row_miss_cycles: int = 24
    #: Data-return latency for a row-buffer hit (what the warp waits for).
    dram_hit_latency: int = 20
    #: Data-return latency for a row-buffer miss.
    dram_miss_latency: int = 60
    #: DRAM row size in bytes.
    dram_row_bytes: int = 2048
    #: Number of independent DRAM banks in the controller model.  Few banks
    #: with a long row-miss slot make scattered streams throughput-poor
    #: relative to coalesced row-hit streams (~4x), matching the dynamic
    #: range of the paper's Fig. 7.
    dram_banks: int = 4

    # ----- DTBL extension (Section 4) --------------------------------------
    #: Aggregated Group Table entries (Fig. 12 sweeps 512/1024/2048).
    agt_entries: int = 1024
    #: Section 4.3's rejected alternative: schedule every aggregated group
    #: independently from the KDE (no TB coalescing, no AGT).  Pair with a
    #: larger ``max_concurrent_kernels`` to emulate the enlarged KDE.
    dtbl_no_coalescing: bool = False

    # ----- Simulator execution core ----------------------------------------
    #: Execution core selection: ``"reference"`` (the per-instruction
    #: oracle interpreter, :mod:`repro.sim.warp`) or ``"fast"``
    #: (pre-decoded per-opcode kernels plus the event-driven scheduler,
    #: :mod:`repro.sim.fast_warp`).  The two are stat-exact with one
    #: another.
    core: str = "fast"
    #: Enable the execution sanitizer (:mod:`repro.sim.sanitizer`): shadow-
    #: state data-race detection, out-of-bounds / use-after-free checks
    #: against the allocator's live-range map, uninitialized-read tracking,
    #: barrier-divergence detection and device-launch argument validation.
    #: Purely observational — simulation results and statistics are
    #: unchanged; findings accumulate in ``gpu.sanitizer.report``.  Also
    #: switched on globally by ``REPRO_SANITIZE`` set to anything but
    #: ``""`` or ``"0"`` (:func:`repro.sim.sanitizer.sanitize_enabled`).
    sanitize: bool = False

    def __post_init__(self) -> None:
        if self.core not in CORES:
            raise ConfigError(
                f"core must be one of {CORES}, got {self.core!r}"
            )
        for name in STRUCTURAL_FIELDS:
            value = getattr(self, name)
            if value < 1:
                raise ConfigError(f"{name} must be at least 1, got {value}")
        if self.max_resident_threads % WARP_SIZE:
            raise ConfigError("max_resident_threads must be a multiple of the warp size")
        if self.agt_entries & (self.agt_entries - 1):
            raise ConfigError("agt_entries must be a power of two (hash is a mask)")
        if self.warp_scheduler not in ("gto", "rr"):
            raise ConfigError("warp_scheduler must be 'gto' or 'rr'")
        for name in DRAM_CYCLE_FIELDS:
            value = getattr(self, name)
            if value < 0:
                raise ConfigError(f"{name} must not be negative, got {value}")
        if self.dram_row_bytes < 1 or self.dram_row_bytes % SEGMENT_BYTES:
            raise ConfigError(
                f"dram_row_bytes must be a positive multiple of {SEGMENT_BYTES}, "
                f"got {self.dram_row_bytes}"
            )
        if self.l2_size % L2_SET_BYTES:
            raise ConfigError(
                f"l2_size must be a positive multiple of {L2_SET_BYTES} "
                f"(one {L2_ASSOC}-way set of {SEGMENT_BYTES}-byte lines), got {self.l2_size}"
            )

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """All fields as a JSON-safe dictionary (exact round trip)."""
        # Every field is a number, a string or a bool: nothing for
        # ``dataclasses.asdict`` to recurse into or copy.
        return {name: getattr(self, name) for name in _GPU_FIELDS}

    @classmethod
    def from_dict(cls, data: dict) -> "GPUConfig":
        """Rebuild a config from :meth:`to_dict` output.

        Unknown keys and values not of their field's exact type (an
        ``int`` field takes neither ``10.0`` nor ``True``) raise
        :class:`ConfigError`: a stale cache entry from a different code
        version, or a client's typo, must not be silently reinterpreted.
        Missing keys take the current defaults.

        Equal dictionaries decode to one shared instance (the config is
        frozen), and decoding the same dictionary again, as every cache
        hit does, skips construction and validation (:func:`_decoded`,
        keyed by field names, value types and values, so a dictionary
        that fails validation never matches a decoded one).
        """
        if not isinstance(data, dict):
            raise ConfigError(f"config must be an object, not {type(data).__name__}")
        try:
            return _decoded(_intern_key(cls, data))
        except TypeError:  # an unhashable value: _check_fields refuses it
            _check_fields(data)
            raise

    @property
    def max_resident_warps(self) -> int:
        """Maximum resident warps per SMX (2048 threads -> 64 warps)."""
        return self.max_resident_threads // WARP_SIZE

    @property
    def agt_sram_bytes(self) -> int:
        """On-chip SRAM consumed by the AGT (Section 4.3 overhead)."""
        return self.agt_entries * AGT_ENTRY_BYTES

    def with_agt_entries(self, entries: int) -> "GPUConfig":
        """Return a copy with a different AGT size (Fig. 12 sweep)."""
        return replace(self, agt_entries=entries)

    @classmethod
    def k20c(cls) -> "GPUConfig":
        """The paper's baseline configuration (Table 2)."""
        return cls()

    @classmethod
    def small(cls) -> "GPUConfig":
        """A scaled-down GPU for fast unit tests (2 SMXs, small caches)."""
        return cls(
            num_smx=2,
            max_resident_blocks=8,
            max_resident_threads=512,
            registers_per_smx=16384,
            l2_size=64 * 1024,
            agt_entries=64,
        )


_GPU_FIELDS = tuple(f.name for f in fields(GPUConfig))
#: Each field's one accepted type in :meth:`GPUConfig.from_dict`.
_GPU_TYPES = {
    f.name: {"int": int, "bool": bool, "str": str}[f.type]
    for f in fields(GPUConfig)
}

def _intern_key(cls, data: dict) -> tuple:
    """Type-exact identity of a field dictionary: ``10`` and ``10.0``
    (or ``1`` and ``True``) are equal values but different keys."""
    values = tuple(data.values())
    return (cls, tuple(data), tuple(map(type, values)), values)


@functools.lru_cache(maxsize=256)
def _decoded(key: tuple) -> GPUConfig:
    """The validated config of one :func:`_intern_key`, shared by every
    caller (it is frozen).  256 covers every config a sweep or a daemon
    sees; a dictionary that fails validation raises and is not kept."""
    cls, names, _, values = key
    data = dict(zip(names, values))
    _check_fields(data)
    return _shared(cls(**data))


@functools.lru_cache(maxsize=256)
def _shared(config: GPUConfig) -> GPUConfig:
    """The first decoded config equal to ``config``, so dictionaries
    written in another field order, or with defaults left out, share
    one instance too."""
    return config


def _check_fields(data: dict) -> None:
    unknown = set(data).difference(_GPU_FIELDS)
    if unknown:
        raise ConfigError(f"unknown GPUConfig fields: {sorted(unknown)}")
    for name, value in data.items():
        expected = _GPU_TYPES[name]
        if type(value) is not expected:
            raise ConfigError(
                f"GPUConfig.{name} must be {expected.__name__}, "
                f"got {type(value).__name__} {value!r}"
            )
