"""Section 4.3 hardware-overhead model.

The paper quantifies DTBL's on-chip cost: new KDE fields (NAGEI, LAGEI),
the FCFS controller's first-marked flag, SSCR/TBCR AGEI fields — 1096 bytes
total — plus the AGT itself at 20 bytes per entry (20 KB for 1024 entries,
about 0.5% of the SMX shared-memory+register area).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..config import AGT_ENTRY_BYTES, DTBL_REGISTER_BYTES, SHARED_MEM_SIZE, GPUConfig


@dataclass(frozen=True)
class OverheadReport:
    """On-chip SRAM cost of the DTBL extension for a given configuration."""

    agt_entries: int
    agt_entry_bytes: int
    agt_sram_bytes: int
    register_bytes: int
    total_bytes: int
    #: AGT SRAM as a fraction of total SMX shared memory + register file.
    fraction_of_smx_storage: float

    def rows(self) -> list:
        """Table rows for the overhead bench/report."""
        return [
            ("AGT entries", self.agt_entries),
            ("AGT bytes/entry", self.agt_entry_bytes),
            ("AGT SRAM (bytes)", self.agt_sram_bytes),
            ("KDE/FCFS/SSCR/TBCR fields (bytes)", self.register_bytes),
            ("Total (bytes)", self.total_bytes),
            ("Fraction of SMX storage", round(self.fraction_of_smx_storage, 5)),
        ]


def overhead_report(config: GPUConfig) -> OverheadReport:
    """Compute the Section 4.3 overhead numbers for ``config``."""
    agt_bytes = config.agt_sram_bytes
    # Register file: 65536 x 32-bit registers per SMX, plus shared memory.
    smx_storage = config.num_smx * (
        config.registers_per_smx * 4 + SHARED_MEM_SIZE
    )
    total = agt_bytes + DTBL_REGISTER_BYTES
    return OverheadReport(
        agt_entries=config.agt_entries,
        agt_entry_bytes=AGT_ENTRY_BYTES,
        agt_sram_bytes=agt_bytes,
        register_bytes=DTBL_REGISTER_BYTES,
        total_bytes=total,
        fraction_of_smx_storage=agt_bytes / smx_storage,
    )
