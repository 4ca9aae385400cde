"""Compiler optimization passes for dynamic parallelism.

The software rivals to the paper's DTBL hardware: launch aggregation
with threshold serialization (Olabi et al., the ``cdpa`` mode) and
workload consolidation (Wu & Becchi, the ``cons`` mode), implemented as
IR-to-IR passes over unfinalized programs.  The workload layer applies
:func:`transform_kernels` automatically when one of the
compiler-optimized execution modes is selected.
"""

from .aggregate import AggregateResult, aggregate_launches, table_words
from .pipeline import transform_kernels
from .serialize import serialize_small_launches
from .sites import LaunchSite, find_launch_sites
from .wrappers import build_wrapper, wrappable

__all__ = [
    "AggregateResult",
    "LaunchSite",
    "aggregate_launches",
    "build_wrapper",
    "find_launch_sites",
    "serialize_small_launches",
    "table_words",
    "transform_kernels",
    "wrappable",
]
