"""Tests for report formatting helpers."""

import pytest

from repro.harness.reporting import format_table, geomean, mean


class TestFormatTable:
    def test_basic_render(self):
        out = format_table("Title", ["a", "bb"], [[1, 2.5], ["x", "y"]])
        lines = out.splitlines()
        assert lines[0] == "## Title"
        assert [cell.strip() for cell in lines[2].strip("|").split("|")] == ["a", "bb"]
        assert set(lines[3]) <= set("|-: ")  # the Markdown delimiter row
        assert "2.500" in out
        assert "x" in out

    def test_alignment(self):
        out = format_table("T", ["col"], [[123456], [1]])
        rows = out.splitlines()[-2:]
        assert len(rows[0]) == len(rows[1])
        assert "123,456" in rows[0]

    def test_note(self):
        out = format_table("T", ["c"], [[1]], note="a footnote")
        assert out.endswith("a footnote")


class TestAggregates:
    def test_geomean(self):
        assert geomean([2.0, 8.0]) == pytest.approx(4.0)
        assert geomean([]) == 0.0
        assert geomean([1.0, 1.0, 1.0]) == pytest.approx(1.0)

    def test_geomean_rejects_nonpositive(self):
        """A broken cell fails the average instead of vanishing from it."""
        with pytest.raises(ValueError):
            geomean([0.0, 4.0])

    def test_mean(self):
        assert mean([1.0, 2.0, 3.0]) == pytest.approx(2.0)
        assert mean([]) == 0.0
