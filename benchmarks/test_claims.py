"""Every claim row of :mod:`repro.harness.paper` holds on the full grid,
and EXPERIMENTS.md is what the harness prints for it."""

import pathlib

import pytest

from repro.harness import CLAIMS

EXPERIMENTS_MD = pathlib.Path(__file__).resolve().parent.parent / "EXPERIMENTS.md"


@pytest.mark.parametrize("claim_id", [claim.id for claim in CLAIMS])
def test_claim(evaluation, claim_id):
    (verdict,) = [v for v in evaluation.verdicts if v.claim.id == claim_id]
    assert verdict.ok, verdict.failure()


def test_experiments_md_is_generated(evaluation):
    """No hand-typed measured number survives: the committed file equals
    the rendering of this session's resolved cells, byte for byte."""
    assert EXPERIMENTS_MD.read_text(encoding="utf-8") == evaluation.document()
