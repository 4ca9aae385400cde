"""Machine state: deterministic checkpoint/restore, and ways to read it.

Each stateful simulator class declares its state in a ``STATE`` table.
:mod:`~repro.state.schema` walks the tables, :mod:`~repro.state.snapshot`
turns the walk into checkpoint documents that restore bit-identically
into a replayed host program, and :mod:`~repro.state.inspection` compares
documents, checks a drained machine and dumps a stuck one (see
``docs/architecture.md``, "Checkpoint & resume").
"""

from .inspection import check_drained, diff, dump_state, dump_warp
from .schema import CheckpointError
from .snapshot import (
    CHECKPOINT_FORMAT,
    capture_document,
    checkpoint_path_for,
    discard_checkpoint,
    load_checkpoint,
    prepare_resume,
    quarantine_checkpoint,
    restore_document,
    save_checkpoint,
)

__all__ = [
    "CHECKPOINT_FORMAT",
    "CheckpointError",
    "capture_document",
    "check_drained",
    "checkpoint_path_for",
    "diff",
    "discard_checkpoint",
    "dump_state",
    "dump_warp",
    "load_checkpoint",
    "prepare_resume",
    "quarantine_checkpoint",
    "restore_document",
    "save_checkpoint",
]
