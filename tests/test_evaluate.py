"""Measurement protocols: exact-zero oracles via ground-truth stand-ins,
hand-computed baselines; and the interval-length sweep of
gridcast.experiments, which scores with them."""
from dataclasses import replace

import numpy as np
import pytest
from conftest import (
    ConstGapStub,
    ConstRowStub,
    TrueGapStub,
    TrueRowStub,
    lattice_stream,
    per_start_adaptive_evaluation,
    tiny_config,
)

from gridcast import experiments, forecast, models
from gridcast.evaluate import (
    EvalReport,
    EvalTask,
    MeanGapBaseline,
    MeanRowBaseline,
    PersistenceGapBaseline,
    PersistenceRowBaseline,
    config_digest,
    evaluate_adaptive,
    evaluate_reply_counts,
    evaluate_thread_arrival,
    train_mean_cell_count,
    train_mean_gap_intervals,
)
from gridcast.experiments import INTERVAL_SWEEP_SETTINGS, sweep_interval_length
from gridcast.grid import EventStream, GridError, ThreadCascade, build_grid, gap_columns
from gridcast.models import ReplyCountModel, build_model
from gridcast.synth import SynthParams, synth_generate

D = 300.0
HOUR = 3600.0


@pytest.fixture
def lattice():
    """Gaps of 2,3,1,2,4 intervals; six bare threads on the 300 s lattice."""
    stream = lattice_stream([2, 3, 1, 2, 4], d=D)
    grid = build_grid(stream, d=D, t0=0.0, n_rows=13)
    return stream, grid


# ---------------------------------------------------------------------------
# metrics


def test_report_validation():
    with pytest.raises(ValueError):
        EvalReport(task=EvalTask.REPLY_COUNT, mae=2.0, rmse=1.0, unit="count",
                   n=3, stddev=0.0, label="")
    with pytest.raises(ValueError):
        EvalReport(task=EvalTask.REPLY_COUNT, mae=1.0, rmse=1.0, unit="count",
                   n=0, stddev=0.0, label="")


def test_config_digest_is_stable_and_order_free():
    a = config_digest({"d": 300, "seed": 1})
    b = config_digest({"seed": 1, "d": 300})
    assert a == b and len(a) == 16
    assert config_digest({"d": 301, "seed": 1}) != a


# ---------------------------------------------------------------------------
# thread-arrival protocol


def test_thread_arrival_true_gaps_score_exact_zero(lattice):
    stream, grid = lattice
    tt = stream.thread_times
    report = evaluate_thread_arrival(TrueGapStub(tt, D), grid, tt, gap_columns(grid, 0))
    assert report.mae == 0.0 and report.rmse == 0.0
    assert report.n == 5 and report.unit == "hours"
    sim = evaluate_thread_arrival(TrueGapStub(tt, D), grid, tt, gap_columns(grid, 0),
                                  mode="simulate")
    assert sim.mae == 0.0  # integer gaps survive lattice quantisation


def test_thread_arrival_plus_one_gap_is_exactly_d(lattice):
    stream, grid = lattice
    tt = stream.thread_times
    report = evaluate_thread_arrival(TrueGapStub(tt, D, offset=1.0), grid, tt,
                                     gap_columns(grid, 0))
    assert report.mae == D / HOUR
    assert report.rmse == D / HOUR
    assert report.stddev == 0.0


def test_thread_arrival_mean_baseline_hand_value(lattice):
    stream, grid = lattice
    tt = stream.thread_times
    g = train_mean_gap_intervals(tt, 6, D)
    assert g == 2.4  # gaps 2,3,1,2,4 intervals
    report = evaluate_thread_arrival(MeanGapBaseline(g), grid, tt, gap_columns(grid, 0))
    # |720 - gap_s| for gaps 600,900,300,600,1200 -> mean 264 s
    assert report.mae == pytest.approx(264.0 / HOUR)


def test_thread_arrival_persistence_baseline_hand_value():
    stream = lattice_stream([2, 3], d=D)
    grid = build_grid(stream, d=D, t0=0.0, n_rows=6)
    tt = stream.thread_times
    report = evaluate_thread_arrival(PersistenceGapBaseline(tt, D), grid, tt,
                                     gap_columns(grid, 0))
    # first gap predicted 0 (no history): error 600; second repeats 2
    # intervals against a true 3: error 300
    assert report.mae == pytest.approx(450.0 / HOUR)


def test_thread_arrival_validation(lattice):
    stream, grid = lattice
    tt = stream.thread_times
    stub = TrueGapStub(tt, D)
    with pytest.raises(ValueError):
        evaluate_thread_arrival(stub, grid, tt[:-1], gap_columns(grid, 0))
    with pytest.raises(ValueError):
        evaluate_thread_arrival(stub, grid, tt, indices=[])
    with pytest.raises(IndexError):
        evaluate_thread_arrival(stub, grid, tt, indices=[5])  # last thread
    with pytest.raises(IndexError):
        evaluate_thread_arrival(stub, grid, tt, indices=[-1])


# ---------------------------------------------------------------------------
# reply-count protocol


def test_reply_counts_true_rows_score_exact_zero(small_grid):
    report = evaluate_reply_counts(TrueRowStub(small_grid), small_grid,
                                   n_intervals=3, start_row=2)
    assert report.mae == 0.0 and report.rmse == 0.0
    assert report.unit == "count"


def test_reply_counts_offset_two_scores_exactly_two(small_grid):
    report = evaluate_reply_counts(TrueRowStub(small_grid, offset=2.0),
                                   small_grid, n_intervals=3, start_row=2)
    assert report.mae == 2.0
    assert report.stddev == 0.0


def test_reply_counts_zero_stub_hand_value(small_grid):
    report = evaluate_reply_counts(ConstRowStub(0.0), small_grid,
                                   n_intervals=2, start_row=3)
    # live cells rows 3-4: truths 0,1 then 0,0,2 -> mean 3/5
    assert report.n == 5
    assert report.mae == pytest.approx(3 / 5)


def test_reply_counts_persistence_baseline_hand_value(small_grid):
    report = evaluate_reply_counts(PersistenceRowBaseline(small_grid.counts), small_grid,
                                   n_intervals=2, start_row=3)
    # row 3 predicted by row 2 = [1,0,-]; row 4 by row 3 = [0,1,0]
    # errors: |1-0|, |0-1|, then |0-0|, |1-0|, |0-2| -> mean 1.0
    assert report.mae == 1.0


def test_reply_counts_validation(small_grid):
    stub = ConstRowStub(0.0)
    with pytest.raises(ValueError):
        evaluate_reply_counts(stub, small_grid, n_intervals=0, start_row=1)
    with pytest.raises(ValueError):
        evaluate_reply_counts(stub, small_grid, n_intervals=2, start_row=0)
    with pytest.raises(ValueError):
        evaluate_reply_counts(stub, small_grid, n_intervals=9, start_row=1)


def test_train_mean_cell_count_hand_value(small_grid):
    # rows 0-2 post-arrival cells: a=[2,1,1], b=[2,0] -> mean 1.2
    assert train_mean_cell_count(small_grid, 0, 3) == pytest.approx(1.2)
    with pytest.raises(ValueError):
        train_mean_cell_count(small_grid, 0, 0)


def test_train_mean_cell_count_all_masked():
    stream = EventStream.from_cascades([ThreadCascade("a", 100.0, (110.0,))])
    grid = build_grid(stream, d=60.0, t0=0.0, n_rows=3)
    with pytest.raises(ValueError):
        train_mean_cell_count(grid, 0, 1)  # row 0 is pre-arrival


def test_train_mean_gap_needs_two_threads():
    with pytest.raises(ValueError):
        train_mean_gap_intervals([100.0], 1, D)


# ---------------------------------------------------------------------------
# adaptive protocol


@pytest.fixture
def unit_lattice():
    """Thirteen threads one interval apart, two same-interval replies each."""
    stream = lattice_stream([1] * 12, d=D, replies_per=2)
    grid = build_grid(stream, d=D, t0=0.0, n_rows=15)
    return stream, grid


def test_adaptive_perfect_stubs_score_exact_zero(unit_lattice):
    stream, grid = unit_lattice
    tt = stream.thread_times
    # one roll per step keeps row materialisation in lockstep with the
    # (perfect) one-interval gaps, so every appended arrival cell is
    # rolled from truth rather than seeded as a bare post marker
    thread_reports, reply_reports = evaluate_adaptive(
        TrueGapStub(tt, D), TrueRowStub(grid), grid, tt,
        n_threads=2, checkpoints=(2, 4), n_start_points=5, seed=0,
        n_intervals=1,
    )
    assert len(thread_reports) == 2 and len(reply_reports) == 2
    assert [r.label for r in thread_reports] == ["step 1", "step 2"]
    assert [r.label for r in reply_reports] == ["2d", "4d"]
    assert all(r.mae == 0.0 for r in thread_reports)
    assert all(r.mae == 0.0 for r in reply_reports)


def test_adaptive_offset_gap_error_telescopes(unit_lattice):
    stream, grid = unit_lattice
    tt = stream.thread_times
    thread_reports, reply_reports = evaluate_adaptive(
        TrueGapStub(tt, D, offset=1.0), TrueRowStub(grid), grid, tt,
        n_threads=2, checkpoints=(2, 4), n_start_points=5, seed=0,
    )
    # step-k arrival error is exactly k*d seconds for every start point
    assert thread_reports[0].mae == 1 * D / HOUR
    assert thread_reports[1].mae == 2 * D / HOUR
    assert all(r.stddev == 0.0 for r in thread_reports)
    # the misplaced arrival row sees only the seeded post (1) instead of
    # the true cascade burst (3): every checkpoint misses by exactly 2
    assert all(r.mae == 2.0 for r in reply_reports)


def test_adaptive_is_deterministic(unit_lattice):
    stream, grid = unit_lattice
    tt = stream.thread_times
    kw = dict(n_threads=2, checkpoints=(2,), n_start_points=4, seed=9)
    a = evaluate_adaptive(TrueGapStub(tt, D), TrueRowStub(grid), grid, tt, **kw)
    b = evaluate_adaptive(TrueGapStub(tt, D), TrueRowStub(grid), grid, tt, **kw)
    assert a == b


def test_adaptive_bounds_the_roll_to_the_last_checkpoint(unit_lattice):
    # a huge but finite last gap must not roll rows without end
    stream, grid = unit_lattice
    tt = stream.thread_times
    with pytest.raises(GridError, match="rows rolled, more than the"):
        evaluate_adaptive(ConstGapStub(1e12), ConstRowStub(0.0), grid, tt,
                          n_threads=1, n_start_points=20, seed=0, checkpoints=(2,))


def test_adaptive_insufficient_data(small_grid, small_stream):
    tt = small_stream.thread_times
    with pytest.raises(ValueError, match="insufficient"):
        evaluate_adaptive(
            TrueGapStub(tt, 60.0), TrueRowStub(small_grid), small_grid, tt,
            n_threads=6, n_start_points=20, seed=0,
        )


def test_adaptive_validation(unit_lattice):
    stream, grid = unit_lattice
    tt = stream.thread_times
    with pytest.raises(ValueError):
        evaluate_adaptive(TrueGapStub(tt, D), TrueRowStub(grid), grid,
                          tt[:-1], n_threads=2, n_start_points=20, seed=0)
    with pytest.raises(ValueError):
        evaluate_adaptive(TrueGapStub(tt, D), TrueRowStub(grid), grid, tt,
                          n_threads=0, n_start_points=20, seed=0)


@pytest.fixture(scope="module")
def adaptive_corpus():
    """A synthetic corpus with more than 20 valid start points for three
    threads, and tiny float32 thread and reply models trained one epoch."""
    stream = synth_generate(SynthParams(lambda_thread=1 / 600, mu_reply=0.05, theta=300.0,
                                        horizon=40_000.0, breakout_fraction=0.25,
                                        breakout_boost=4.0, seed=5))
    grid = build_grid(stream, d=D, t0=0.0, n_rows=140)
    trained = {}
    for kind in ("thread", "reply"):
        config = tiny_config(kind)
        trained[kind] = build_model(config, seed=1)
        models.train(trained[kind], models.training_segments(grid, config, 0.7),
                     models.TrainConfig(epochs=1, batch_size=16))
    return stream, grid, trained


def _adaptive_pair(adaptive_corpus, pair):
    stream, grid, trained = adaptive_corpus
    return {"trained": (trained["thread"], trained["reply"]),
            "const": (ConstGapStub(1.5), ConstRowStub(0.7)),
            "true": (TrueGapStub(stream.thread_times, D, offset=0.4),
                     TrueRowStub(grid, offset=0.3))}[pair]


ADAPTIVE_RUN = dict(n_threads=3, seed=4)


@pytest.mark.parametrize("pair", ["trained", "const", "true"])
@pytest.mark.parametrize("n_start_points", [1, 5, 20])
def test_adaptive_evaluation_equals_the_per_start_oracle(adaptive_corpus, pair, n_start_points):
    stream, grid, _ = adaptive_corpus
    thread, reply = _adaptive_pair(adaptive_corpus, pair)
    got = evaluate_adaptive(thread, reply, grid, stream.thread_times,
                            n_start_points=n_start_points, **ADAPTIVE_RUN)
    want = per_start_adaptive_evaluation(thread, reply, grid, stream.thread_times,
                                         n_start_points=n_start_points, **ADAPTIVE_RUN)
    assert got[0][0].n == n_start_points
    assert repr(got) == repr(want)


class BatchRecorder:
    """A reply model that records the shape of every batch it is handed."""

    def __init__(self, model):
        self.model, self.window, self.channels = model, model.window, model.channels
        self.shapes = []

    def predict_next_rows(self, features, row_indices):
        self.shapes.append(features.shape)
        return self.model.predict_next_rows(features, row_indices)


@pytest.mark.parametrize("cells", [1000, 4000, forecast.LOCKSTEP_CELLS])
def test_adaptive_evaluation_rolls_its_starts_within_the_cell_budget(adaptive_corpus,
                                                                     monkeypatch, cells):
    """The starts roll together, in slices whose windows hold at most
    LOCKSTEP_CELLS cells (here 2, 9 and all 20 of the grid's widest 6 x 72),
    and the reports are the oracle's."""
    monkeypatch.setattr(forecast, "LOCKSTEP_CELLS", cells)
    stream, grid, trained = adaptive_corpus
    reply = BatchRecorder(trained["reply"])
    got = evaluate_adaptive(trained["thread"], reply, grid, stream.thread_times,
                            n_start_points=20, **ADAPTIVE_RUN)
    assert all(n * h * w <= cells or n == 1 for n, _, h, w in reply.shapes)
    assert max(n for n, *_ in reply.shapes) == min(20, cells // (6 * grid.spec.n_cols))
    assert repr(got) == repr(per_start_adaptive_evaluation(
        trained["thread"], trained["reply"], grid, stream.thread_times, n_start_points=20,
        **ADAPTIVE_RUN))


# ---------------------------------------------------------------------------
# interval-length sweep


def _sweep_stream():
    return synth_generate(SynthParams(
        lambda_thread=1 / 300.0, mu_reply=0.05, theta=300.0,
        horizon=9000.0, breakout_fraction=0.0, breakout_boost=1.0, seed=5,
    ))


_SWEEP_CFG = replace(
    INTERVAL_SWEEP_SETTINGS, window_h=6, window_w=4, n_filters=2,
    kernel_size=2, n_blocks=1, epochs=1, span_seconds=600.0,
)


def test_sweep_single_candidate():
    res = sweep_interval_length(_sweep_stream(), [300.0], _SWEEP_CFG)
    assert res.best_d == 300.0
    assert len(res.rows) == 1 and len(res.scores) == 1
    row = res.rows[0]
    assert row.n_thread > 0 and row.n_reply > 0
    assert row.thread_mae_hours >= 0 and row.reply_mae_counts >= 0


def test_sweep_orders_candidates_and_picks_argmin():
    res = sweep_interval_length(_sweep_stream(), [600.0, 300.0], _SWEEP_CFG)
    assert [r.d for r in res.rows] == [300.0, 600.0]
    assert res.best_d == res.rows[int(np.argmin(res.scores))].d


def test_sweep_reads_candidates_from_a_one_pass_iterable():
    res = sweep_interval_length(_sweep_stream(), iter([600.0, 300.0]), _SWEEP_CFG)
    assert [r.d for r in res.rows] == [300.0, 600.0]
    with pytest.raises(GridError, match="empty"):
        sweep_interval_length(_sweep_stream(), iter([]), _SWEEP_CFG)


def test_sweep_rejects_oversized_and_empty_candidates():
    stream = _sweep_stream()
    with pytest.raises(GridError, match="too large"):
        sweep_interval_length(stream, [20000.0], _SWEEP_CFG)
    with pytest.raises(GridError, match="empty"):
        sweep_interval_length(stream, [], _SWEEP_CFG)


def test_sweep_rolls_the_same_in_any_lockstep_grouping(monkeypatch):
    """Every start rolled alone gives the rows of the default groups."""
    grouped = sweep_interval_length(_sweep_stream(), [300.0], _SWEEP_CFG)
    monkeypatch.setattr(forecast, "LOCKSTEP_CELLS", 1)
    alone = sweep_interval_length(_sweep_stream(), [300.0], _SWEEP_CFG)
    assert alone.rows == grouped.rows


@pytest.mark.parametrize("cells", [1, 500, forecast.LOCKSTEP_CELLS])
def test_sweep_rolls_within_the_cell_budget(monkeypatch, cells):
    """Every self-fed step hands the reply model at most LOCKSTEP_CELLS
    window cells (each window as wide as the grid), or one window that
    alone has more."""
    monkeypatch.setattr(forecast, "LOCKSTEP_CELLS", cells)
    shapes = []
    predict = ReplyCountModel.predict_next_rows

    def recording(self, features, row_indices):
        shapes.append(features.shape)
        return predict(self, features, row_indices)

    monkeypatch.setattr(ReplyCountModel, "predict_next_rows", recording)
    sweep_interval_length(_sweep_stream(), [300.0], _SWEEP_CFG)
    assert shapes
    assert all(n * h * w <= cells or n == 1 for n, _, h, w in shapes)
    assert (max(n for n, *_ in shapes) > 1) == (cells > 1)


def test_sweep_builds_both_models_from_its_settings(monkeypatch):
    built = []

    def recording_build_model(config, **kwargs):
        built.append(config)
        return build_model(config, **kwargs)

    monkeypatch.setattr(experiments, "build_model", recording_build_model)
    settings = replace(_SWEEP_CFG, filter_shape="Kx1")
    sweep_interval_length(_sweep_stream(), [300.0], settings)
    assert built == [settings.model_config("thread"), settings.model_config("reply")]
    assert [(c.k_h, c.k_w) for c in built] == [(2, 1), (2, 1)]
