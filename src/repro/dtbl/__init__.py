"""The paper's contribution: Dynamic Thread Block Launch (Section 4).

* :mod:`repro.dtbl.agt` — the Aggregated Group Table and its entries;
* :mod:`repro.dtbl.overhead` — the Section 4.3 hardware-overhead model.

The aggregation operation command is the warp's list of
``(kernel_name, param_addr, agg_dims, block_dims, hw_tid)`` launch
requests, one per launching lane, the same shape a CDP launch batch has.
:meth:`repro.sim.smx_scheduler.SMXScheduler.process_aggregation` runs the
Fig. 5 coalescing procedure on it, and the rest of DTBL's scheduling half
lives in the same class, which consumes the data structures defined here.
"""

from .agt import AggregatedGroupEntry, AggregatedGroupTable
from .overhead import OverheadReport, overhead_report

__all__ = [
    "AggregatedGroupEntry",
    "AggregatedGroupTable",
    "OverheadReport",
    "overhead_report",
]
