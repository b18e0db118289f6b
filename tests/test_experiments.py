"""The paper's experiments: their recipes, and a short run of each
through `gridcast experiment`."""
import csv
import json

import pytest

from gridcast.cli import main
from gridcast.experiments import (
    REPLY_MODEL,
    SYNTH_BENCHMARK_SETTINGS,
    THREAD_MODEL,
    thread_config,
)

# experiment -> (short-run arguments, CSV header)
RUNS = {
    "synth-benchmark": (
        ["--horizon", "20000", "--epochs", "1"],
        ["task", "predictor", "mae", "rmse", "n", "unit"],
    ),
    "sweep": (
        ["--horizon", "20000", "--seeds", "1", "--d-values", "300,600"],
        ["seed", "d", "thread_mae_hours", "reply_mae_counts", "n_thread", "n_reply", "score"],
    ),
    "breakout": (
        ["--horizon", "20000", "--epochs", "1", "--durations", "300,600"],
        ["start_duration_s", "model_rate", "prefix_rate", "n"],
    ),
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_experiment_runs_and_writes_its_csv(name, tmp_path, capsys):
    argv, header = RUNS[name]
    out = tmp_path / f"{name}.csv"
    assert main(["experiment", name, *argv, "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert json.loads(captured.out)["out"] == str(out)  # one summary line
    with open(out, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == header
    assert len(rows) > 1


def test_benchmark_recipe_builds_the_two_model_constants():
    assert SYNTH_BENCHMARK_SETTINGS.model_config("reply") == REPLY_MODEL
    assert thread_config(SYNTH_BENCHMARK_SETTINGS) == THREAD_MODEL
