"""Smoke tests of the experiment scripts: each runs end to end on a short
horizon and writes its CSV."""
import csv
import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"

# script -> (short-run arguments, CSV header)
RUNS = {
    "run_synth_benchmark": (
        ["--horizon", "20000", "--epochs", "1"],
        ["task", "predictor", "mae", "rmse", "n", "unit"],
    ),
    "run_interval_sweep": (
        ["--horizon", "20000", "--seeds", "1", "--d-values", "300", "600"],
        ["seed", "d", "thread_mae_hours", "reply_mae_counts", "n_thread", "n_reply", "score"],
    ),
    "run_breakout_experiment": (
        ["--horizon", "20000", "--epochs", "1", "--max-duration-intervals", "2"],
        ["start_duration_s", "model_rate", "prefix_rate", "n"],
    ),
}


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", sorted(RUNS))
def test_script_runs_and_writes_its_csv(name, tmp_path, capsys):
    argv, header = RUNS[name]
    out = tmp_path / f"{name}.csv"
    assert _load(name).main([*argv, "--out", str(out)]) == 0
    with open(out, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == header
    assert len(rows) > 1
    assert f"wrote {out}" in capsys.readouterr().out
