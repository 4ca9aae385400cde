"""Export of experiment results to CSV / JSON."""

import csv
import json

from repro.harness.experiments import Experiment, evaluate
from repro.harness.export import (
    experiment_to_csv,
    experiment_to_dict,
    experiments_to_json,
    write_experiments,
)


def table2() -> Experiment:
    """A real experiment: Table 2 reads no cell, so nothing is resolved."""
    return evaluate(resolve=None, figure="table2").experiments["table2"]


def sample_experiment() -> Experiment:
    return Experiment(
        experiment_id="Figure 99",
        title="Sample",
        headers=["benchmark", "value"],
        rows=[["a", 1.5], ["b", 2]],
        summary={"avg": 1.75},
        paper={"avg": 2.0},
        note="a note",
    )


class TestCsv:
    def test_roundtrip(self):
        text = experiment_to_csv(sample_experiment())
        rows = list(csv.reader(text.splitlines()))
        assert rows[0] == ["benchmark", "value"]
        assert rows[1] == ["a", "1.5"]
        assert rows[2] == ["b", "2"]

    def test_real_experiment(self):
        text = experiment_to_csv(table2())
        assert "706MHz" in text


class TestJson:
    def test_dict_fields(self):
        data = experiment_to_dict(sample_experiment())
        assert data["experiment_id"] == "Figure 99"
        assert data["summary"]["avg"] == 1.75
        assert data["paper"]["avg"] == 2.0

    def test_json_serializable(self):
        text = experiments_to_json([sample_experiment(), table2()])
        parsed = json.loads(text)
        assert len(parsed) == 2


class TestWriteFiles:
    def test_writes_csv_and_json(self, tmp_path):
        paths = write_experiments([sample_experiment()], tmp_path)
        names = {p.name for p in paths}
        assert "figure_99.csv" in names
        assert "experiments.json" in names
        combined = json.loads((tmp_path / "experiments.json").read_text())
        assert combined[0]["title"] == "Sample"
