"""Closed-loop simulation: alternating thread-gap and reply-count rolls.

The forecaster owns a growing copy of the grid. One iteration predicts
the gap to the next thread from the newest cascade's anchor window,
appends a column whose arrival row advances by the rounded gap (the
wall-clock time chains unrounded, so timing error telescopes cleanly),
then rolls the reply model forward a fixed number of rows across every
column. Appended cells obey the same discipline as real grids:
pre-arrival cells stay structural zeros, and an arrival cell carries at
least the thread post itself. The window a model reads is rebuilt from
the counts and arrival rows for every prediction, never cached. A reply
roll computes only its window's own cells (grid.feature_window), with
the bits that assembling the whole state's features would give them;
the gap prediction, once per simulated thread, cuts its window from the
whole state's features (ForecastState.features).

Every reply roll goes through roll_reply_rows, which advances any number
of independent states by one row each with one batched prediction, their
windows zero-padded on the right to the widest state. A breakout curve
rolls a duration's cascades, and the d-sweep its starts, in lockstep
groups of at most LOCKSTEP_CELLS state cells (lockstep_groups), so each
step of a group is one batch.

Model protocol (duck-typed so ground-truth stand-ins drop in):
  - gap predictors expose .window, .channels and
    predict_gap(features, col_index) -> float >= 0, where col_index is
    the index of the column being created;
  - row predictors expose .window, .channels and
    predict_next_rows(features (N, C, h, w), row_indices (N,)) -> (N, w)
    floats >= 0, where row_indices[k] is the absolute grid row that
    window k's prediction fills; a window's columns past its state's
    width are zero padding, and their predictions are dropped unchecked.
Trained models ignore the index arguments.

Breakout verdicts accumulate the raw (unrounded) per-interval
predictions for the target column on top of the observed prefix and
compare against twice the average cascade size, strictly.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .grid import (
    Channel,
    EventStream,
    Grid,
    GridError,
    GridSpec,
    assemble_features,
    feature_window,
    window_at,
)
from .models import arrival_time


@dataclass
class ForecastState:
    d: float
    t0: float
    counts: np.ndarray
    arrival_rows: np.ndarray
    thread_times: list[float]
    n_observed_cols: int
    n_observed_rows: int

    @property
    def n_rows(self) -> int:
        return self.counts.shape[0]

    @property
    def n_cols(self) -> int:
        return self.counts.shape[1]

    @property
    def simulated_thread_times(self) -> list[float]:
        return self.thread_times[self.n_observed_cols :]

    @classmethod
    def from_grid(cls, grid: Grid, thread_times: list[float] | None = None) -> "ForecastState":
        """Seed a simulation from an observed grid. Pass the true thread
        timestamps when known; otherwise arrival rows quantise them."""
        if thread_times is None:
            thread_times = [
                grid.spec.t0 + float(r) * grid.spec.d for r in grid.arrival_rows
            ]
        if len(thread_times) != grid.spec.n_cols:
            raise GridError("one thread time per column, please")
        return cls(
            d=grid.spec.d,
            t0=grid.spec.t0,
            counts=grid.counts.copy(),
            arrival_rows=grid.arrival_rows.copy(),
            thread_times=list(thread_times),
            n_observed_cols=grid.spec.n_cols,
            n_observed_rows=grid.spec.n_rows,
        )

    def to_grid(self) -> Grid:
        spec = GridSpec(d=self.d, t0=self.t0, n_rows=self.n_rows, n_cols=self.n_cols)
        return Grid(
            spec=spec,
            counts=self.counts.copy(),
            arrival_rows=self.arrival_rows.copy(),
        )

    def features(self, channels: tuple[Channel, ...]) -> np.ndarray:
        """Channel stack over the whole current state, rebuilt fresh: the
        full view the gap prediction reads. Reply rolls build only the
        window they read (grid.feature_window)."""
        return assemble_features(self.to_grid(), channels).data


# A lockstep roll holds its whole group of states at once, where a
# one-by-one roll held one. A group closes once its states hold this
# many count cells (2 MB of int64). On a breakout curve over the
# benchmark's wide shape (1977 cascades, 4016 rows) the peak RSS was
# 107 MB one by one, 114 MB at this budget, 135 MB at 4x it and 988 MB
# unbounded, and the curve ran as fast at this budget as at 8x it; on
# the benchmark's 174-cascade curve (about 0.55M cells per duration) the
# time was the same at 2**18, 2**19 and 2**20.
LOCKSTEP_CELLS = 2**18


def lockstep_groups(pairs):
    """Split an iterable of (state, tag) pairs into consecutive lists
    whose states hold at most LOCKSTEP_CELLS count cells together, or
    one state that alone holds more. The iterable is drawn only as each
    group fills, so states built lazily are held one group at a time."""
    group, cells = [], 0
    for state, tag in pairs:
        if group and cells + state.counts.size > LOCKSTEP_CELLS:
            yield group
            group, cells = [], 0
        group.append((state, tag))
        cells += state.counts.size
    if group:
        yield group


def roll_reply_rows(states: list[ForecastState], reply_model) -> list[np.ndarray]:
    """Append one predicted row across all columns of each state.

    The states are independent and share one batched prediction: each
    window is zero-padded on the right to the widest state's width.
    Convolutions that are causal in columns never read the padding, so
    the real columns keep their bits; padding on the left would be read.
    Returns each state's raw per-column estimates before rounding and
    mask discipline; the states store rounded integer counts. Every
    prediction is checked before any state grows, so a bad one leaves
    all of them unchanged.
    """
    h, _ = reply_model.window
    widths = np.array([state.n_cols for state in states])
    windows = [
        feature_window(state.counts, state.arrival_rows, reply_model.channels,
                       state.n_rows - 1, state.n_cols - 1, h, state.n_cols)
        for state in states
    ]
    batch = np.zeros((len(states), windows[0].shape[0], h, widths.max()))
    for k, window in enumerate(windows):
        batch[k, :, :, : widths[k]] = window
    rows = np.array([state.n_rows for state in states], dtype=np.int64)
    pred = np.asarray(reply_model.predict_next_rows(batch, rows), dtype=np.float64)
    if pred.shape != (len(states), batch.shape[3]):
        raise GridError(f"row prediction shape {pred.shape} != ({len(states)}, {batch.shape[3]})")
    # one range check over the real columns: NaN fails it too, and int64
    # holds every value inside
    real = np.arange(pred.shape[1]) < widths[:, None]
    if not np.all((pred >= 0) & (pred < 2.0**63) | ~real):
        raise GridError("reply-count prediction negative, non-finite or >= 2**63")
    raws = [raw[:width] for raw, width in zip(pred, widths)]
    for state, raw in zip(states, raws):
        new_row = state.n_rows
        vals = np.round(raw).astype(np.int64)
        vals[state.arrival_rows > new_row] = 0  # still pre-arrival
        at_arrival = state.arrival_rows == new_row
        vals[at_arrival] = np.maximum(vals[at_arrival], 1)  # thread post itself
        state.counts = np.vstack([state.counts, vals[None, :]])
    return raws


def roll_reply_row(state: ForecastState, reply_model) -> np.ndarray:
    """roll_reply_rows for one state: its raw per-column estimates."""
    return roll_reply_rows([state], reply_model)[0]


def roll_until(state: ForecastState, reply_model, n_rows: int) -> None:
    """Roll reply rows until the state has n_rows rows. Needing more
    rolls than the observed grid has rows is a GridError, not a roll
    without end."""
    catch_up = n_rows - state.n_rows
    if catch_up > state.n_observed_rows:
        raise GridError(
            f"reaching row {n_rows - 1} needs {catch_up} rows rolled, "
            f"more than the {state.n_observed_rows} observed"
        )
    for _ in range(catch_up):
        roll_reply_row(state, reply_model)


def append_thread_column(state: ForecastState, o_hat: float) -> int:
    """Add the next simulated cascade; returns its arrival row."""
    if not 0 <= o_hat < math.inf:  # NaN fails too
        raise GridError(f"gap prediction {o_hat} is negative or not finite")
    r_next = int(state.arrival_rows[-1]) + int(round(o_hat))
    if r_next >= 2**63:  # arrival_rows is int64
        raise GridError(f"gap prediction {o_hat} puts the arrival row past int64")
    t_next = arrival_time(state.thread_times[-1], o_hat, state.d, mode="measure")
    col = np.zeros((state.n_rows, 1), dtype=np.int64)
    if r_next < state.n_rows:
        col[r_next, 0] = 1  # thread post lands inside already-rolled rows
    state.counts = np.hstack([state.counts, col])
    state.arrival_rows = np.append(state.arrival_rows, r_next)
    state.thread_times.append(t_next)
    return r_next


def adaptive_forecast(
    state: ForecastState,
    thread_model,
    reply_model,
    n_threads: int,
    n_intervals: int,
) -> ForecastState:
    """Alternate gap prediction and reply rolls, mutating the state.

    Before each gap prediction the newest column's anchor row is
    materialised (rolling extra rows, within roll_until's bound, if a
    long gap outran the grid).
    """
    if n_threads < 0 or n_intervals < 0:
        raise GridError("n_threads and n_intervals must be >= 0")
    h, w = thread_model.window
    for _ in range(n_threads):
        roll_until(state, reply_model, int(state.arrival_rows[-1]) + 1)
        data = state.features(thread_model.channels)
        window = window_at(data, int(state.arrival_rows[-1]), state.n_cols - 1, h, w)
        o_hat = float(thread_model.predict_gap(window, state.n_cols))
        append_thread_column(state, o_hat)
        for _ in range(n_intervals):
            roll_reply_row(state, reply_model)
    return state


# ---------------------------------------------------------------------------
# breakout identification


def average_cascade_size(stream: EventStream) -> float:
    """Mean cascade size, thread post included."""
    if len(stream) == 0:
        raise GridError("empty stream has no average size")
    return float(np.mean([c.size for c in stream.cascades]))


@dataclass(frozen=True)
class BreakoutVerdict:
    cascade_id: str
    start_duration: float
    prefix_total: float
    predicted_total: float
    threshold: float
    is_breakout: bool


@dataclass(frozen=True)
class BreakoutCurvePoint:
    start_duration: float
    correct_rate: float
    n: int


def breakout_classify(
    state: ForecastState,
    column: int,
    reply_model,
    l_bar: float,
    horizon_intervals: int,
    cascade_id: str = "",
    start_duration: float = 0.0,
) -> BreakoutVerdict:
    """Verdict for one cascade from its observed prefix state.

    predicted_total = observed prefix + raw rolled-out estimates over
    horizon_intervals rows; breakout iff strictly above 2 * l_bar.
    With horizon 0 (or no model) the verdict uses the prefix alone.
    Holding the model's outputs fixed, the verdict is monotone in the
    prefix: more observed events never flip breakout to non-breakout.
    """
    return _breakout_verdicts(
        [state], [column], reply_model, l_bar, horizon_intervals, [cascade_id], start_duration
    )[0]


def _breakout_verdicts(
    states: list[ForecastState],
    columns: list[int],
    reply_model,
    l_bar: float,
    horizon_intervals: int,
    cascade_ids: list[str],
    start_duration: float,
) -> list[BreakoutVerdict]:
    """breakout_classify for each (state, column), the states rolled in
    lockstep."""
    if l_bar <= 0:
        raise GridError("average cascade size must be positive")
    if horizon_intervals < 0:
        raise GridError("horizon must be >= 0")
    for state, column in zip(states, columns):
        if not 0 <= column < state.n_cols:
            raise GridError(f"column {column} outside state")
    prefixes = [float(state.counts[:, column].sum()) for state, column in zip(states, columns)]
    totals = list(prefixes)
    if horizon_intervals > 0 and reply_model is not None:
        for _ in range(horizon_intervals):
            raws = roll_reply_rows(states, reply_model)
            for k, (raw, column) in enumerate(zip(raws, columns)):
                totals[k] += float(raw[column])
    threshold = 2.0 * l_bar
    return [
        BreakoutVerdict(
            cascade_id=cascade_id,
            start_duration=start_duration,
            prefix_total=prefix,
            predicted_total=total,
            threshold=threshold,
            is_breakout=total > threshold,
        )
        for cascade_id, prefix, total in zip(cascade_ids, prefixes, totals)
    ]


def build_breakout_state(
    grid: Grid, column: int, class_row: int, context_cols: int
) -> tuple[ForecastState, int]:
    """Truncate a grid to what was observable at `class_row` for the
    given cascade: rows [0, class_row) and a trailing window of columns
    ending at the cascade's own. Returns (state, target column index
    within the state)."""
    if not 0 <= column < grid.spec.n_cols:
        raise GridError(f"no column {column} in grid")
    if class_row < 1:
        raise GridError("need at least one observed row")
    if class_row > grid.spec.n_rows:
        raise GridError(
            f"prefix needs {class_row} rows but the grid has {grid.spec.n_rows}"
        )
    c0 = max(0, column - context_cols + 1)
    return ForecastState.from_grid(grid.crop(class_row, slice(c0, column + 1))), column - c0


def default_breakout_horizon(stream: EventStream, d: float) -> int:
    """Cascade lifetime (intervals, ceiling) at the 95th percentile."""
    lifetimes = [
        math.ceil((c.last_event_time - c.thread_time) / d) for c in stream.cascades
    ]
    if not lifetimes:
        raise GridError("empty stream")
    return int(np.percentile(lifetimes, 95.0, method="lower"))


def duration_intervals(duration: float, d: float) -> int:
    """A start duration in whole intervals of length d; GridError unless
    it is a positive multiple of d."""
    n = round(duration / d)
    if n < 1 or abs(n * d - duration) > 1e-9 * max(1.0, abs(duration)):
        raise GridError(f"start duration {duration} is not a positive multiple of d = {d}")
    return n


def breakout_curve(
    stream: EventStream,
    grid: Grid,
    reply_model,
    start_durations: list[float],
    horizon_intervals: int | None,
    context_cols: int,
) -> list[BreakoutCurvePoint]:
    """Correct-verdict rate at each start duration over the whole stream.

    Durations must be positive multiples of the grid's interval length,
    and the cascades of one duration roll in lockstep groups
    (lockstep_groups). Ground truth: final cascade size strictly above
    twice the stream's average. The roll-out horizon shrinks with the
    duration (observed intervals replace predicted ones) and never goes
    negative. For
    cascades arriving near the grid bottom the observed prefix is
    clamped to the materialised rows.
    """
    if len(stream) != grid.spec.n_cols:
        raise GridError("stream and grid disagree on cascade count")
    l_bar = average_cascade_size(stream)
    if horizon_intervals is None:
        horizon_intervals = default_breakout_horizon(stream, grid.spec.d)
    truth = [c.size > 2.0 * l_bar for c in stream.cascades]
    thread_ids = [c.thread_id for c in stream.cascades]
    points = []
    for s in start_durations:
        s_int = duration_intervals(s, grid.spec.d)
        remaining = max(0, horizon_intervals - s_int)
        prefixes = (
            build_breakout_state(
                grid, j, min(int(grid.arrival_rows[j]) + s_int, grid.spec.n_rows), context_cols
            )
            for j in range(grid.spec.n_cols)
        )
        verdicts = []
        for group in lockstep_groups(prefixes):
            verdicts += _breakout_verdicts(
                [state for state, _ in group], [col for _, col in group],
                reply_model if remaining > 0 else None, l_bar, remaining,
                thread_ids[len(verdicts) : len(verdicts) + len(group)], s,
            )
        correct = sum(int(v.is_breakout == t) for v, t in zip(verdicts, truth))
        points.append(
            BreakoutCurvePoint(
                start_duration=s, correct_rate=correct / len(stream), n=len(stream)
            )
        )
    return points
