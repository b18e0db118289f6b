"""Closed-loop simulation and breakout identification."""

import os
import sys
import time
from functools import partial

import numpy as np
import pytest
from conftest import (
    ConstGapStub,
    ConstRowStub,
    TrueRowStub,
    cascade,
    per_cascade_breakout_curve,
    per_state_roll,
    tiny_config,
    tiny_model,
    zero_weights,
)

from gridcast import forecast, models
from gridcast.forecast import (
    ForecastState,
    adaptive_forecast,
    append_thread_column,
    average_cascade_size,
    breakout_classify,
    breakout_curve,
    build_breakout_state,
    default_breakout_horizon,
    roll_reply_row,
    roll_reply_rows,
)
from gridcast.grid import (
    CHANNEL_ORDER,
    EventStream,
    Grid,
    GridError,
    GridSpec,
    assemble_features,
    build_grid,
)
from gridcast.synth import SynthParams, synth_generate

LN2 = float(np.log(2.0))


def _column_grid(cells, arrival=0, d=60.0):
    """Single-cascade grid with the given per-interval counts."""
    counts = np.array(cells, dtype=np.int64).reshape(-1, 1)
    spec = GridSpec(d=d, t0=0.0, n_rows=len(cells), n_cols=1)
    return Grid(spec=spec, counts=counts, arrival_rows=np.array([arrival]))


# ---------------------------------------------------------------------------
# state construction


def test_from_grid_defaults_quantise_thread_times(small_grid):
    state = ForecastState.from_grid(small_grid)
    assert state.thread_times == [0.0, 60.0, 240.0]  # rows 0, 1, 4 at d=60
    assert state.n_observed_cols == 3 and state.n_observed_rows == 5


def test_from_grid_accepts_true_times(small_grid):
    state = ForecastState.from_grid(small_grid, thread_times=[0.0, 65.0, 240.0])
    assert state.thread_times == [0.0, 65.0, 240.0]
    with pytest.raises(GridError):
        ForecastState.from_grid(small_grid, thread_times=[0.0, 65.0])


def test_to_grid_roundtrip_validates(small_grid):
    state = ForecastState.from_grid(small_grid)
    back = state.to_grid()
    assert np.array_equal(back.counts, small_grid.counts)
    assert np.array_equal(back.arrival_rows, small_grid.arrival_rows)
    back.validate()


def test_features_are_rebuilt_not_cached(small_grid):
    state = ForecastState.from_grid(small_grid)
    before = state.features(CHANNEL_ORDER).copy()
    roll_reply_row(state, ConstRowStub(3.0))
    after = state.features(CHANNEL_ORDER)
    assert after.shape[1] == before.shape[1] + 1
    # relative-time channel renormalises when the grid grows
    want = assemble_features(state.to_grid(), CHANNEL_ORDER).data
    assert np.array_equal(after, want)


# ---------------------------------------------------------------------------
# rolling rows


def test_roll_appends_rounded_row(small_grid):
    state = ForecastState.from_grid(small_grid)
    raw = roll_reply_row(state, ConstRowStub(2.0))
    assert np.allclose(raw, 2.0)
    assert state.n_rows == 6
    assert state.counts[5].tolist() == [2, 2, 2]


def test_roll_rounds_half_to_even(small_grid):
    state = ForecastState.from_grid(small_grid)
    roll_reply_row(state, ConstRowStub(2.5))
    assert state.counts[5].tolist() == [2, 2, 2]
    roll_reply_row(state, ConstRowStub(3.5))
    assert state.counts[6].tolist() == [4, 4, 4]


def test_roll_zeroes_pre_arrival_and_seeds_arrival(small_grid):
    state = ForecastState.from_grid(small_grid)
    append_thread_column(state, 2.0)  # arrival row 6, beyond current rows
    roll_reply_row(state, ConstRowStub(0.2))  # row 5: new col still pre-arrival
    assert state.counts[5].tolist() == [0, 0, 0, 0]
    roll_reply_row(state, ConstRowStub(0.2))  # row 6: arrival must carry >= 1
    assert state.counts[6].tolist() == [0, 0, 0, 1]


def test_roll_rejects_bad_stub_output(small_grid):
    class BadShape(ConstRowStub):
        def predict_next_rows(self, features, row_indices):
            return np.zeros((len(features), 2))

    class Negative(ConstRowStub):
        def predict_next_rows(self, features, row_indices):
            return np.full((len(features), features.shape[-1]), -0.5)

    state = ForecastState.from_grid(small_grid)
    with pytest.raises(GridError, match="shape"):
        roll_reply_row(state, BadShape(0.0))
    with pytest.raises(GridError, match="negative"):
        roll_reply_row(state, Negative(0.0))


class OneBadRowStub(ConstRowStub):
    """Predicts 1 in every window but those predicting row bad_row, which
    read the stub's value."""

    def __init__(self, value: float, bad_row: int):
        super().__init__(value)
        self.bad_row = bad_row

    def predict_next_rows(self, features, row_indices):
        out = np.ones((len(features), features.shape[-1]))
        out[np.asarray(row_indices) == self.bad_row] = self.value
        return out


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 1e300, 2.0**63])
def test_roll_rejects_prediction_outside_int64_range(small_grid, value):
    state = ForecastState.from_grid(small_grid)
    with pytest.raises(GridError, match="non-finite"):
        roll_reply_row(state, ConstRowStub(value))
    assert state.n_rows == small_grid.spec.n_rows  # nothing appended
    # one bad state stops a lockstep roll before any state grows
    states = [ForecastState.from_grid(small_grid.crop(n, slice(0, w)))
              for n, w in ((2, 1), (3, 3), (4, 2), (5, 3))]
    before = [state.counts.copy() for state in states]
    with pytest.raises(GridError, match="non-finite"):
        roll_reply_rows(states, OneBadRowStub(value, bad_row=4))
    assert all(np.array_equal(st.counts, b) for st, b in zip(states, before))


def test_a_mixed_width_group_rolls_in_one_prediction(small_grid):
    """One predict_next_rows call for states of widths 1 to 3, their
    windows zero-padded on the right to width 3; the padding's
    predictions (NaN here) are dropped unchecked."""
    widths = [1, 3, 2]
    states = [ForecastState.from_grid(small_grid.crop(n, slice(0, w)))
              for n, w in zip((2, 3, 4), widths)]
    calls = []

    class CountingStub(ConstRowStub):
        def predict_next_rows(self, features, row_indices):
            calls.append((features.shape, list(row_indices)))
            out = super().predict_next_rows(features, row_indices)
            for k, w in enumerate(widths):
                assert not features[k, :, :, w:].any()
                out[k, w:] = np.nan
            return out

    raws = roll_reply_rows(states, CountingStub(2.0))
    assert calls == [((3, len(CHANNEL_ORDER), 4, 3), [2, 3, 4])]
    assert [raw.tolist() for raw in raws] == [[2.0] * w for w in widths]
    assert [st.counts.shape for st in states] == [(3, 1), (4, 3), (5, 2)]


def test_roll_stores_largest_prediction_below_2_63(small_grid):
    state = ForecastState.from_grid(small_grid)
    top = np.nextafter(2.0**63, 0.0)
    roll_reply_row(state, ConstRowStub(top))
    assert state.counts[-1].tolist() == [int(top)] * small_grid.spec.n_cols


# ---------------------------------------------------------------------------
# appending columns


def test_append_thread_column_chains_unrounded_time(small_grid):
    state = ForecastState.from_grid(small_grid, thread_times=[0.0, 65.0, 240.0])
    r = append_thread_column(state, 2.4)
    assert state.thread_times[-1] == 240.0 + 2.4 * 60.0  # measure-mode chain
    assert r == 4 + 2  # arrival row advances by the rounded gap
    assert state.arrival_rows.tolist() == [0, 1, 4, 6]
    assert state.counts.shape == (5, 4)
    assert not state.counts[:, 3].any()  # row 6 not materialised yet


def test_append_marks_post_when_row_exists(small_grid):
    state = ForecastState.from_grid(small_grid)
    r = append_thread_column(state, 0.0)
    assert r == 4
    assert state.counts[4, 3] == 1
    state.to_grid().validate()


def test_append_rejects_negative_gap(small_grid):
    state = ForecastState.from_grid(small_grid)
    with pytest.raises(GridError):
        append_thread_column(state, -0.5)


@pytest.mark.parametrize("gap", [np.nan, np.inf, -np.inf])
def test_append_rejects_non_finite_gap(small_grid, gap):
    state = ForecastState.from_grid(small_grid)
    with pytest.raises(GridError, match="not finite"):
        append_thread_column(state, gap)
    assert state.n_cols == small_grid.spec.n_cols


@pytest.mark.parametrize("gaps", [[1e19], [1e300], [2.0**62, 2.0**62]])
def test_append_rejects_an_arrival_row_past_int64(small_grid, gaps):
    """The last case fits int64 on its own and overflows only once added
    to the arrival row the first gap left."""
    state = ForecastState.from_grid(small_grid)
    for gap in gaps[:-1]:
        append_thread_column(state, gap)
    counts, rows = state.counts.copy(), state.arrival_rows.copy()
    with pytest.raises(GridError, match="int64"):
        append_thread_column(state, gaps[-1])
    assert state.arrival_rows.dtype == np.int64
    assert np.array_equal(state.arrival_rows, rows)
    assert np.array_equal(state.counts, counts)
    assert len(state.thread_times) == state.n_cols


def test_adaptive_stops_on_non_finite_gap_stub(small_grid):
    state = ForecastState.from_grid(small_grid)
    with pytest.raises(GridError, match="not finite"):
        adaptive_forecast(state, ConstGapStub(np.nan), ConstRowStub(0.0), 1, 1)


# ---------------------------------------------------------------------------
# adaptive loop, hand-walked


def test_adaptive_forecast_matches_hand_walk(small_grid):
    state = ForecastState.from_grid(small_grid, thread_times=[0.0, 65.0, 240.0])
    adaptive_forecast(state, ConstGapStub(1.0), ConstRowStub(2.0),
                      n_threads=2, n_intervals=1)
    want = np.array([
        [2, 0, 0, 0, 0],
        [1, 2, 0, 0, 0],
        [1, 0, 0, 0, 0],
        [0, 1, 0, 0, 0],
        [0, 0, 2, 0, 0],
        [2, 2, 2, 2, 0],
        [2, 2, 2, 2, 2],
    ])
    assert np.array_equal(state.counts, want)
    assert state.arrival_rows.tolist() == [0, 1, 4, 5, 6]
    assert state.thread_times == [0.0, 65.0, 240.0, 300.0, 360.0]
    state.to_grid().validate()


def test_adaptive_forecast_zero_work_is_identity(small_grid):
    state = ForecastState.from_grid(small_grid)
    adaptive_forecast(state, ConstGapStub(1.0), ConstRowStub(2.0), 0, 0)
    assert np.array_equal(state.counts, small_grid.counts)
    assert state.n_rows == 5 and state.n_cols == 3


def test_adaptive_forecast_materialises_anchor_rows(small_grid):
    # no reply rolls per step: the loop must still roll enough rows to
    # reach each new cascade's anchor before predicting the next gap
    state = ForecastState.from_grid(small_grid, thread_times=[0.0, 65.0, 240.0])
    adaptive_forecast(state, ConstGapStub(2.0), ConstRowStub(0.0),
                      n_threads=2, n_intervals=0)
    assert state.arrival_rows.tolist() == [0, 1, 4, 6, 8]
    assert state.n_rows == 7  # rows 5 and 6 rolled to anchor the 4th cascade
    assert state.counts[6, 3] == 1  # its post got seeded by the roll
    state.to_grid().validate()


def test_adaptive_forecast_bounds_the_catch_up_rolls(small_grid):
    # a huge but finite gap must not roll rows without end
    state = ForecastState.from_grid(small_grid)
    with pytest.raises(GridError, match="more than the 5 observed"):
        adaptive_forecast(state, ConstGapStub(1e12), ConstRowStub(0.0), 2, 1)
    # the bound is the observed grid's row count: 5 catch-up rows are fine
    state = ForecastState.from_grid(small_grid)
    adaptive_forecast(state, ConstGapStub(5.0), ConstRowStub(0.0), 2, 0)
    assert state.n_rows == 10
    state = ForecastState.from_grid(small_grid)
    with pytest.raises(GridError, match="needs 6 rows rolled"):
        adaptive_forecast(state, ConstGapStub(6.0), ConstRowStub(0.0), 2, 0)


def test_adaptive_forecast_rejects_negative_budgets(small_grid):
    state = ForecastState.from_grid(small_grid)
    with pytest.raises(GridError):
        adaptive_forecast(state, ConstGapStub(1.0), ConstRowStub(0.0), -1, 0)
    with pytest.raises(GridError):
        adaptive_forecast(state, ConstGapStub(1.0), ConstRowStub(0.0), 0, -1)


# ---------------------------------------------------------------------------
# average size


def test_average_cascade_size(small_stream):
    assert average_cascade_size(small_stream) == 3.0  # sizes 4, 3, 2


def test_average_cascade_size_counts_thread_post():
    stream = EventStream.from_cascades([
        cascade("a", 0.0, *[float(i) for i in range(1, 10)]),   # size 10
        cascade("b", 10.0, *[float(i) for i in range(11, 20)]),  # size 10
        cascade("c", 20.0, *[20.0 + i for i in range(1, 40)]),   # size 40
    ])
    assert average_cascade_size(stream) == 20.0


def test_average_cascade_size_scale_invariance():
    sizes = [(4, 0.0), (3, 100.0), (2, 200.0)]
    once = EventStream.from_cascades([
        cascade(f"c{i}", t, *[t + k + 1.0 for k in range(n - 1)])
        for i, (n, t) in enumerate(sizes)
    ])
    twice = EventStream.from_cascades([
        cascade(f"c{i}", t, *[t + k + 1.0 for k in range(n - 1)])
        for i, (n, t) in enumerate(sizes + [(n, t + 1000.0) for n, t in sizes])
    ])
    assert average_cascade_size(once) == average_cascade_size(twice)


def test_average_cascade_size_empty_stream():
    with pytest.raises(GridError):
        average_cascade_size(EventStream(()))


# ---------------------------------------------------------------------------
# breakout verdicts


def test_breakout_threshold_is_strict():
    state = ForecastState.from_grid(_column_grid([10, 10, 10, 10]))
    at = breakout_classify(state, 0, None, l_bar=20.0, horizon_intervals=0)
    assert at.prefix_total == 40.0 and at.predicted_total == 40.0
    assert at.threshold == 40.0
    assert not at.is_breakout  # exactly at twice the average: not a breakout
    above = breakout_classify(
        ForecastState.from_grid(_column_grid([10, 10, 10, 11])),
        0, None, l_bar=20.0, horizon_intervals=0,
    )
    assert above.is_breakout


def test_breakout_rollout_accumulates_raw_predictions():
    state = ForecastState.from_grid(_column_grid([3, 2]))
    v = breakout_classify(state, 0, ConstRowStub(0.4), l_bar=2.0,
                          horizon_intervals=5)
    assert v.prefix_total == 5.0
    assert abs(v.predicted_total - (5.0 + 5 * 0.4)) < 1e-12  # raw, unrounded
    assert v.is_breakout  # 7.0 > 4.0


def test_breakout_zero_weight_model_adds_log_two_per_interval():
    model = tiny_model("reply")
    zero_weights(model)
    state = ForecastState.from_grid(_column_grid([2, 1]))
    h = 6
    v = breakout_classify(state, 0, model, l_bar=10.0, horizon_intervals=h)
    assert abs(v.predicted_total - (3.0 + h * LN2)) < 1e-5
    assert not v.is_breakout


def test_breakout_monotone_in_prefix():
    lean = ForecastState.from_grid(_column_grid([3, 2]))
    fat = ForecastState.from_grid(_column_grid([3, 6]))
    kw = dict(l_bar=3.0, horizon_intervals=3)
    v_lean = breakout_classify(lean, 0, ConstRowStub(0.3), **kw)
    v_fat = breakout_classify(fat, 0, ConstRowStub(0.3), **kw)
    assert v_fat.predicted_total >= v_lean.predicted_total
    assert v_fat.is_breakout or not v_lean.is_breakout


def test_breakout_classify_validation():
    state = ForecastState.from_grid(_column_grid([1]))
    with pytest.raises(GridError):
        breakout_classify(state, 0, None, l_bar=0.0, horizon_intervals=0)
    with pytest.raises(GridError):
        breakout_classify(state, 0, None, l_bar=1.0, horizon_intervals=-1)
    with pytest.raises(GridError):
        breakout_classify(state, 5, None, l_bar=1.0, horizon_intervals=0)


# ---------------------------------------------------------------------------
# prefix states


def test_build_breakout_state_trims_rows_and_columns(small_grid):
    state, col = build_breakout_state(small_grid, column=2, class_row=5,
                                      context_cols=2)
    assert (state.n_rows, state.n_cols) == (5, 2)
    assert col == 1
    assert np.array_equal(state.counts, small_grid.counts[:, 1:3])
    state2, col2 = build_breakout_state(small_grid, column=1, class_row=2,
                                        context_cols=16)
    assert (state2.n_rows, state2.n_cols) == (2, 2)
    assert col2 == 1
    assert np.array_equal(state2.counts, small_grid.counts[:2, :2])


def test_build_breakout_state_validation(small_grid):
    with pytest.raises(GridError):
        build_breakout_state(small_grid, column=9, class_row=2, context_cols=16)
    with pytest.raises(GridError):
        build_breakout_state(small_grid, column=0, class_row=0, context_cols=16)
    with pytest.raises(GridError):
        build_breakout_state(small_grid, column=0, class_row=6, context_cols=16)


# ---------------------------------------------------------------------------
# horizon and curve


def test_default_breakout_horizon(small_stream):
    # lifetimes in 60 s intervals: ceil(130/60)=3, ceil(135/60)=3, ceil(10/60)=1
    assert default_breakout_horizon(small_stream, 60.0) == 3
    # lower-method percentile: [1, 1, 2] at 95% picks the middle element
    stream, _ = _curve_fixture()
    assert default_breakout_horizon(stream, 60.0) == 1


def test_default_breakout_horizon_empty():
    with pytest.raises(GridError):
        default_breakout_horizon(EventStream(()), 60.0)


def _curve_fixture():
    """Sizes 2, 2, 9 -> mean 13/3, threshold 26/3; only 'c' is a breakout."""
    stream = EventStream.from_cascades([
        cascade("a", 0.0, 30.0),
        cascade("b", 60.0, 90.0),
        cascade("c", 120.0, 125.0, 130.0, 135.0, 140.0, 145.0, 150.0, 155.0, 185.0),
    ])
    return stream, build_grid(stream, d=60.0, t0=0.0, n_rows=4)


def test_breakout_curve_hand_rates_prefix_only():
    stream, grid = _curve_fixture()
    pts = breakout_curve(stream, grid, None, [60.0, 120.0], horizon_intervals=0, context_cols=16)
    # one interval in: c's prefix is 8 <= 26/3 -> missed breakout (2/3 right)
    # two intervals in: c's prefix is 9 > 26/3 -> all three verdicts right
    assert [p.start_duration for p in pts] == [60.0, 120.0]
    assert pts[0].correct_rate == pytest.approx(2 / 3)
    assert pts[1].correct_rate == 1.0
    assert all(p.n == 3 for p in pts)


def test_breakout_curve_with_perfect_rows_is_exact():
    stream, grid = _curve_fixture()
    # horizon 2 with one observed interval leaves one predicted row; true
    # rows push c to its real total of 9 > 26/3, fixing the s=60 miss
    pts = breakout_curve(stream, grid, TrueRowStub(grid), [60.0],
                         horizon_intervals=2, context_cols=16)
    assert pts[0].correct_rate == 1.0


def test_breakout_curve_clamps_late_arrivals():
    stream, grid = _curve_fixture()
    pts = breakout_curve(stream, grid, None, [600.0], horizon_intervals=0, context_cols=16)
    assert pts[0].correct_rate == 1.0  # full columns observed everywhere


def test_breakout_curve_validation():
    stream, grid = _curve_fixture()
    with pytest.raises(GridError, match="multiple"):
        breakout_curve(stream, grid, None, [90.0], horizon_intervals=0, context_cols=16)
    with pytest.raises(GridError, match="multiple"):
        breakout_curve(stream, grid, None, [0.0], horizon_intervals=0, context_cols=16)
    short = EventStream.from_cascades([cascade("a", 0.0)])
    with pytest.raises(GridError, match="disagree"):
        breakout_curve(short, grid, None, [60.0], horizon_intervals=0, context_cols=16)
    for reply in (None, ConstRowStub(1.0)):
        with pytest.raises(GridError, match="context_cols"):
            breakout_curve(stream, grid, reply, [60.0], horizon_intervals=2, context_cols=0)


# ---------------------------------------------------------------------------
# the lockstep roll against the per-state oracle

D = 300.0


@pytest.fixture(scope="module")
def corpus():
    """A boosted synthetic corpus cut off before its last arrivals, so late
    cascades have clamped prefixes and some arrive past the last row, and
    a tiny float32 reply model trained one epoch on it."""
    stream = synth_generate(SynthParams(lambda_thread=1 / 600, mu_reply=0.05, theta=300.0,
                                        horizon=20_000.0, breakout_fraction=0.25,
                                        breakout_boost=4.0, seed=3))
    grid = build_grid(stream, d=D, t0=0.0, n_rows=60)
    assert (grid.arrival_rows >= grid.spec.n_rows).any()
    config = tiny_config("reply")
    model = models.build_model(config, seed=1)
    segments = models.training_segments(grid, config, 0.7)
    models.train(model, segments, models.TrainConfig(epochs=1, batch_size=16))
    return stream, grid, model


def _predictors(grid, model):
    return {"trained": model, "true-rows": TrueRowStub(grid, offset=0.3)}


@pytest.mark.parametrize("predictor", ["trained", "true-rows"])
@pytest.mark.parametrize("horizon, context_cols", [(None, 16), (0, 16), (12, 1), (20, 4)])
def test_lockstep_curve_equals_the_per_cascade_oracle(corpus, predictor, horizon, context_cols):
    stream, grid, model = corpus
    reply = _predictors(grid, model)[predictor]
    durations = [k * D for k in (1, 2, 3, 5, 10, 40)]
    got = breakout_curve(stream, grid, reply, durations, horizon, context_cols)
    want = per_cascade_breakout_curve(stream, grid, reply, durations, horizon, context_cols)
    assert got == want


@pytest.mark.parametrize("predictor", ["trained", "true-rows"])
@pytest.mark.parametrize("cells", [48, 72, 8192])
def test_roll_reply_rows_equals_per_state_rolls(corpus, predictor, cells):
    """States of widths 1 to 4 and of many row counts, rolled in
    consecutive batches of at most `cells` window cells: 2, 3 and every
    window of the trained model's 6 x 4, and 3, 4 and every window of
    the stub's 4 x 4."""
    stream, grid, model = corpus
    reply = _predictors(grid, model)[predictor]
    starts = [build_breakout_state(grid, j, min(int(grid.arrival_rows[j]) + k, 60), 4)[0]
              for j in range(grid.spec.n_cols) for k in (1, 3)]
    assert {st.n_cols for st in starts} == {1, 2, 3, 4}
    lockstep = [ForecastState.from_grid(st.to_grid()) for st in starts]
    alone = [ForecastState.from_grid(st.to_grid()) for st in starts]
    batch = max(1, cells // (reply.window[0] * 4))
    for _ in range(3):
        for lo in range(0, len(starts), batch):
            raws = roll_reply_rows(lockstep[lo : lo + batch], reply)
            for state, raw in zip(alone[lo : lo + batch], raws):
                assert raw.tobytes() == per_state_roll(state, reply).tobytes()
    assert all(np.array_equal(a.counts, b.counts) for a, b in zip(lockstep, alone))


@pytest.mark.parametrize("predictor", ["trained", "true-rows"])
def test_lockstep_curve_in_many_groups_equals_the_oracle(corpus, monkeypatch, predictor):
    """A budget of a few windows per Lockstep (3 of the trained model's
    6 x 16, 4 of the stub's 4 x 16) splits each duration's cascades
    across Locksteps of mixed widths."""
    monkeypatch.setattr(forecast, "LOCKSTEP_CELLS", 300)
    stream, grid, model = corpus
    reply = _predictors(grid, model)[predictor]
    durations = [k * D for k in (1, 2, 5)]
    got = breakout_curve(stream, grid, reply, durations, 12, 16)
    want = per_cascade_breakout_curve(stream, grid, reply, durations, 12, 16)
    assert got == want


class ShapeRecorder(TrueRowStub):
    """TrueRowStub that records the shape of every batch it is handed."""

    def __init__(self, grid, window):
        super().__init__(grid, offset=0.3, window=window)
        self.shapes = []

    def predict_next_rows(self, features, row_indices):
        self.shapes.append(features.shape)
        return super().predict_next_rows(features, row_indices)


@pytest.mark.parametrize("cells", [50, 1000, forecast.LOCKSTEP_CELLS])
def test_a_wide_context_curve_rolls_within_the_cell_budget(corpus, monkeypatch, cells):
    """With context_cols past the grid's width every window is as wide as
    the grid. No call gets more than LOCKSTEP_CELLS window cells, unless
    it holds one window that alone has more, and the verdicts are the
    oracle's. It runs on one CPU: the recorder sees only the calls made
    in this process, and on more CPUs forked children make some."""
    _on_cpus(monkeypatch, 1)
    monkeypatch.setattr(forecast, "LOCKSTEP_CELLS", cells)
    stream, grid, _ = corpus
    reply = ShapeRecorder(grid, window=(4, 3))
    durations = [D, 3 * D]
    got = breakout_curve(stream, grid, reply, durations, 12, grid.spec.n_cols + 5)
    assert reply.shapes
    assert all(n * h * w <= cells or n == 1 for n, _, h, w in reply.shapes)
    assert max(w for *_, w in reply.shapes) == grid.spec.n_cols
    assert max(n for n, *_ in reply.shapes) == min(grid.spec.n_cols,
                                                   max(1, cells // (4 * grid.spec.n_cols)))
    assert got == per_cascade_breakout_curve(stream, grid, reply, durations, 12,
                                             grid.spec.n_cols + 5)


# ---------------------------------------------------------------------------
# the curve's jobs on several CPUs

on_linux = pytest.mark.skipif(not sys.platform.startswith("linux"),
                              reason="the curve forks on Linux only")


def _on_cpus(monkeypatch, n):
    """Make this process's affinity mask hold n CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


def _counted_forks(monkeypatch) -> list[int]:
    """The pids of the children forked from here on."""
    forks, fork = [], os.fork

    def counted():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return forks


def _assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@on_linux
@pytest.mark.parametrize("context_cols", [16, 4, 1])
@pytest.mark.parametrize("horizon", [6, None, 0])
def test_the_curve_on_two_cpus_is_the_one_cpu_curve(corpus, monkeypatch, horizon, context_cols):
    """A child rolls part of the curve when a model rolls at all, and
    every curve is repr-equal to the one-CPU run and to the oracle."""
    stream, grid, model = corpus
    durations = [k * D for k in (1, 2, 3, 5, 10)]
    forks = _counted_forks(monkeypatch)
    curves = {}
    for n in (2, 1):
        _on_cpus(monkeypatch, n)
        curves[n] = [breakout_curve(stream, grid, reply, durations, horizon, context_cols)
                     for reply in (model, None)]
        _assert_no_child()
    assert len(forks) == (horizon != 0)
    want = [per_cascade_breakout_curve(stream, grid, reply, durations, horizon, context_cols)
            for reply in (model, None)]
    assert repr(curves[2]) == repr(curves[1]) == repr(want)


class NegativeRowStub(TrueRowStub):
    """TrueRowStub whose estimate for the first window of every batch of
    `batch` windows is negative; it writes the pid of the process that
    returned one to `mark`."""

    def __init__(self, grid, batch, mark):
        super().__init__(grid, window=(4, 3))
        self.batch, self.mark = batch, mark

    def predict_next_rows(self, features, row_indices):
        out = super().predict_next_rows(features, row_indices)
        if len(out) == self.batch:
            out[0, 0] = -1.0
            self.mark.write_text(str(os.getpid()))
        return out


@on_linux
def test_a_failing_child_raises_the_serial_error_and_leaves_no_child(corpus, monkeypatch,
                                                                      tmp_path):
    """Groups of 10, 10, 10 and 8 windows roll two rows each: the parent
    takes groups 0 and 2 and the child 1 and 3, whose first cascade gets
    a negative estimate."""
    stream, grid, _ = corpus
    assert grid.spec.n_cols == 38
    monkeypatch.setattr(forecast, "LOCKSTEP_CELLS", 10 * 4 * 16)
    mark = tmp_path / "pid"
    reply = NegativeRowStub(grid, 8, mark)
    errors = {}
    for n in (2, 1):
        _on_cpus(monkeypatch, n)
        with pytest.raises(GridError) as raised:
            breakout_curve(stream, grid, reply, [D], 3, 16)
        _assert_no_child()
        errors[n] = (str(raised.value), int(mark.read_text()) != os.getpid())
    assert errors == {2: ("reply-count prediction negative, non-finite or >= 2**63", True),
                      1: ("reply-count prediction negative, non-finite or >= 2**63", False)}


def _job(i: int, failing: set[int]) -> int:
    if i in failing:
        raise GridError(f"job {i} in {os.getpid()}")
    return i * i


@on_linux
@pytest.mark.parametrize("failing, first", [(set(), None), ({1, 2}, 1), ({2, 3}, 2), ({3}, 3)])
def test_the_lowest_failing_job_raises_wherever_it_ran(monkeypatch, failing, first):
    """Four jobs of equal cost: the parent runs 0 and 2, the child 1 and 3."""
    _on_cpus(monkeypatch, 2)
    forks = _counted_forks(monkeypatch)
    jobs = [partial(_job, i, failing) for i in range(4)]
    if first is None:
        assert forecast._run_jobs(jobs, [1] * 4) == [0, 1, 4, 9]
    else:
        with pytest.raises(GridError, match=f"job {first} in") as raised:
            forecast._run_jobs(jobs, [1] * 4)
        assert str(raised.value).endswith(str(forks[0] if first % 2 else os.getpid()))
    assert len(forks) == 1
    _assert_no_child()


def _interrupted():
    raise KeyboardInterrupt


def _unpicklable():
    return lambda: None


@on_linux
def test_a_child_that_cannot_send_its_results_raises_and_is_reaped(monkeypatch):
    _on_cpus(monkeypatch, 2)
    jobs = [partial(int, 0), _unpicklable, partial(int, 2), partial(int, 3)]
    with pytest.raises(RuntimeError, match="ended with exit code 1"):
        forecast._run_jobs(jobs, [1] * 4)
    _assert_no_child()


@on_linux
def test_an_interrupted_parent_kills_and_reaps_its_child(monkeypatch):
    """The parent's first job raises at once, while the child's would
    sleep for a minute."""
    _on_cpus(monkeypatch, 2)
    jobs = [_interrupted, partial(time.sleep, 60), partial(int, 2), partial(time.sleep, 60)]
    t0 = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        forecast._run_jobs(jobs, [1] * 4)
    assert time.monotonic() - t0 < 30
    _assert_no_child()


@on_linux
def test_a_share_whose_fork_fails_runs_in_the_parent(monkeypatch):
    _on_cpus(monkeypatch, 2)

    def no_fork():
        raise BlockingIOError("no process left")

    monkeypatch.setattr(os, "fork", no_fork)
    assert forecast._run_jobs([partial(_job, i, set()) for i in range(4)], [1] * 4) == [0, 1, 4, 9]
    _assert_no_child()


def test_jobs_are_dealt_largest_first_to_the_least_loaded_worker():
    assert forecast._deal([20, 20, 20, 16], 2) == [[0, 2], [1, 3]]
    assert forecast._deal([5, 0, 9, 4, 4], 2) == [[2, 4], [0, 1, 3]]
    assert forecast._deal([3, 0, 0], 1) == [[0, 1, 2]]


@on_linux
def test_a_bad_duration_raises_before_anything_rolls_or_forks(corpus, monkeypatch):
    stream, grid, _ = corpus
    _on_cpus(monkeypatch, 2)
    reply = ShapeRecorder(grid, window=(4, 3))
    with pytest.raises(GridError, match="multiple"):
        breakout_curve(stream, grid, reply, [D, 1.5 * D], 6, 16)
    assert reply.shapes == []
    _assert_no_child()


def test_breakout_classify_leaves_its_state_unchanged(corpus):
    stream, grid, model = corpus
    l_bar = average_cascade_size(stream)
    for j in (0, 3, grid.spec.n_cols - 1):
        state, col = build_breakout_state(grid, j, min(int(grid.arrival_rows[j]) + 2, 60), 4)
        counts, n_rows = state.counts.copy(), state.n_rows
        v = breakout_classify(state, col, model, l_bar, 6)
        assert v.predicted_total >= v.prefix_total
        assert state.n_rows == n_rows and state.counts.tobytes() == counts.tobytes()
        assert breakout_classify(state, col, model, l_bar, 6) == v
