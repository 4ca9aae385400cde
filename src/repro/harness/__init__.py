"""Experiment harness: states the paper's tables, figures and claims as
rows (:mod:`.paper`), resolves the cells they need and regenerates the
evaluation of Section 5 from them (:func:`evaluate`).
"""

from .claims import Cells, Claim, ClaimError, Expect, Figure, Needs, Verdict
from .experiments import Evaluation, Experiment, evaluate
from .paper import CLAIMS, FIGURES
from .reporting import format_table
from .runner import run_jobs

__all__ = [
    "CLAIMS",
    "FIGURES",
    "Cells",
    "Claim",
    "ClaimError",
    "Evaluation",
    "Expect",
    "Experiment",
    "Figure",
    "Needs",
    "Verdict",
    "evaluate",
    "format_table",
    "run_jobs",
]
