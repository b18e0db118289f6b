"""The paper's experiments: their recipes, and a short run of each
through `gridcast experiment`."""
import csv
import json
from dataclasses import replace

import pytest
from conftest import ConstGapStub, ConstRowStub, lattice_stream

from gridcast.cli import main
from gridcast.evaluate import evaluate_reply_counts, evaluate_thread_arrival
from gridcast.config import RunSettings
from gridcast.experiments import (
    REPLY_MODEL,
    SYNTH_BENCHMARK_SETTINGS,
    THREAD_MODEL,
    held_out_report,
    search_on_split,
    thread_config,
)
from gridcast.grid import build_grid, rows_covering

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


@pytest.mark.parametrize("name", sorted(RUNS))
def test_experiment_on_an_empty_corpus_is_a_config_error(name, tmp_path, capsys):
    """Seed 0 draws no thread before --horizon 1: exit 2 with one error line."""
    argv, _ = RUNS[name]
    assert argv[:2] == ["--horizon", "20000"]
    out = tmp_path / f"{name}.csv"
    assert main(["experiment", name, "--horizon", "1", *argv[2:], "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {
        "error": "config", "message": "the generator drew no thread before horizon 1.0",
    }
    assert not out.exists()


def test_benchmark_recipe_builds_the_two_model_constants():
    assert SYNTH_BENCHMARK_SETTINGS.model_config("reply") == REPLY_MODEL
    assert thread_config(SYNTH_BENCHMARK_SETTINGS) == THREAD_MODEL
    assert THREAD_MODEL == replace(REPLY_MODEL, kind="thread", n_filters=8, n_blocks=1)


@pytest.mark.parametrize("filter_shape, k_w", [("KxK", 2), ("Kx1", 1)])
def test_search_on_split_trains_the_settings_filter_shape(filter_shape, k_w):
    stream = lattice_stream([1, 2, 3, 1, 2, 3, 1, 2, 3, 1, 2, 3], replies_per=2)
    grid = build_grid(stream, 300.0, 0.0, rows_covering(stream, 300.0, 0.0))
    settings = RunSettings(window_h=4, window_w=3, filter_shape=filter_shape, epochs=1,
                           search_filters="2", search_kernels="2", search_blocks="1,2")
    results = search_on_split(grid, "thread", settings)
    assert [(c.k_h, c.k_w, c.n_blocks) for c, _ in results] == [(2, k_w, 1), (2, k_w, 2)]
    assert [c for c, _ in results] == settings.search_configs("thread")
    assert all(loss >= 0.0 for _, loss in results)


def test_held_out_report_scores_the_test_side_of_the_split():
    """Rows 14..20 and the threads arriving in them: time_split(grid, 0.7)
    of a 20-row grid is (14, col_split)."""
    stream = lattice_stream([1, 2, 3, 1, 2, 3, 1, 2, 3], replies_per=2)
    grid = build_grid(stream, 300.0, 0.0, 20)
    assert rows_covering(stream, 300.0, 0.0) == 19
    tt = stream.thread_times
    col_split = int((grid.arrival_rows < 14).sum())
    reply, thread = ConstRowStub(0.5), ConstGapStub(2.0)
    assert held_out_report("reply", reply, grid, tt, 0.7) == evaluate_reply_counts(
        reply, grid, 6, start_row=14
    )
    want = evaluate_thread_arrival(thread, grid, tt, list(range(col_split, grid.spec.n_cols - 1)))
    assert held_out_report("thread", thread, grid, tt, 0.7) == want
    assert want.n == grid.spec.n_cols - 1 - col_split > 0
