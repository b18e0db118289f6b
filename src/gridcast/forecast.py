"""Closed-loop simulation: alternating thread-gap and reply-count rolls.

The forecaster owns a growing copy of the grid. One iteration predicts
the gap to the next thread from the newest cascade's anchor window,
appends a column whose arrival row advances by the rounded gap (the
wall-clock time chains unrounded, so timing error telescopes cleanly),
then rolls the reply model forward a fixed number of rows across every
column. Appended cells obey the same discipline as real grids:
pre-arrival cells stay structural zeros, and an arrival cell carries at
least the thread post itself. The window a model reads is rebuilt from
the counts and arrival rows for every prediction, never cached; the gap
prediction, once per simulated thread, cuts it from the whole state's
features (ForecastState.features, models.gap_estimates).

Every reply roll is a Lockstep roll: independent grids, each held as
its last h rows, advance one row each with one window_features call and
one batched prediction. roll_reply_rows wraps ForecastStates; the
closed loop (adaptive_forecasts) rolls the interval rows of all its
states that way, one state being adaptive_forecast; a breakout curve
and the d-sweep cut their Locksteps straight from the grid, at most
LOCKSTEP_CELLS window cells each, so no roll holds a full-length prefix.

Model protocol (duck-typed so ground-truth stand-ins drop in):
  - gap predictors expose .window, .channels and
    predict_gap(features, col_index) -> float >= 0, where col_index is
    the index of the column being created;
  - row predictors expose .window, .channels and
    predict_next_rows(features (N, C, h, w), row_indices (N,)) -> (N, w)
    floats >= 0, where row_indices[k] is the absolute grid row that
    window k's prediction fills; a window's columns past its state's
    width are zero padding, and their predictions are dropped unchecked.
    It must not rely on side effects in the caller's process: on Linux
    with several CPUs, breakout_curve makes part of its calls in forked
    children (_run_jobs), where whatever the call changes is lost.
Trained models ignore the index arguments.

Breakout verdicts accumulate the raw (unrounded) per-interval
predictions for the target column on top of the observed prefix and
compare against twice the average cascade size, strictly.
"""
from __future__ import annotations

import math
import os
import pickle
import signal
import sys
from dataclasses import dataclass
from functools import partial

import numpy as np

from .grid import (
    Channel,
    EventStream,
    Grid,
    GridError,
    GridSpec,
    assemble_features,
    window_features,
)
from .models import arrival_time, gap_estimates


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
        window they read (Lockstep.roll)."""
        return assemble_features(self.to_grid(), channels).data


# A Lockstep holds at most this many window cells (N * h * w), or one
# window that alone holds more: a serving forward's working set (each
# layer's activations; it keeps no layer input or cache) grows with its
# batch. On the benchmark's breakout curve (16 x 16 windows, seed 17;
# 2 vCPUs; fastest of 12 alternating runs in one process) it took 0.20,
# 0.15, 0.13, 0.12 and 0.13 s at 2048, 4096, 8192, 16384 and 32768 cells
# and 0.14 s in one batch per step. When eval forwards still kept their
# inputs it took 0.19 s at 8192 cells, 0.17 s at 16384 and 0.23 s in one
# batch.
LOCKSTEP_CELLS = 16384


def lockstep_size(h: int, w: int) -> int:
    """How many h x w windows one Lockstep holds."""
    return max(1, LOCKSTEP_CELLS // (h * w))


@dataclass
class Lockstep:
    """N independent grids rolled together, each held as its last h rows,
    h the reply model's window height: all that its window reads. The
    arrays are those of grid.window_features, arrival rows zero right of
    each width.
    """

    counts: np.ndarray
    n_rows: np.ndarray
    arrival_rows: np.ndarray
    widths: np.ndarray

    @classmethod
    def of(cls, grids_counts, arrivals, h: int) -> "Lockstep":
        """Stack grids given by their counts (n_rows, width), of which only
        the last h rows are copied, and their columns' arrival rows."""
        widths = np.array([len(arrival) for arrival in arrivals], dtype=np.int64)
        counts = np.zeros((len(arrivals), h, widths.max()), dtype=np.int64)
        arrival_rows = np.zeros((len(arrivals), widths.max()), dtype=np.int64)
        for k, (grid_counts, arrival) in enumerate(zip(grids_counts, arrivals)):
            tail = grid_counts[-h:]
            counts[k, h - len(tail) :, : len(arrival)] = tail
            arrival_rows[k, : len(arrival)] = arrival
        n_rows = np.array([len(grid_counts) for grid_counts in grids_counts], dtype=np.int64)
        return cls(counts, n_rows, arrival_rows, widths)

    def roll(self, reply_model) -> np.ndarray:
        """Append one predicted row across all columns of each grid, from
        one batched prediction, and drop each tail's top row. Windows are
        zero-padded on the right, which convolutions causal in columns
        never read (padding on the left would be read). Returns the raw
        estimates (N, w), zero right of each width; the grids store them
        rounded, with the mask discipline. Every real column is checked
        before any grid grows, so a bad one leaves all of them unchanged.
        """
        n, _, w = self.counts.shape
        windows = window_features(self.counts, self.n_rows, self.arrival_rows, self.widths,
                                  reply_model.channels)
        pred = np.asarray(reply_model.predict_next_rows(windows, self.n_rows), dtype=np.float64)
        if pred.shape != (n, w):
            raise GridError(f"row prediction shape {pred.shape} != ({n}, {w})")
        # one range check over the real columns: NaN fails it too, and int64
        # holds every value inside
        real = np.arange(w) < self.widths[:, None]
        if not np.all((pred >= 0) & (pred < 2.0**63) | ~real):
            raise GridError("reply-count prediction negative, non-finite or >= 2**63")
        raw = np.where(real, pred, 0.0)
        vals = np.round(raw).astype(np.int64)
        new_row = self.n_rows[:, None]
        vals[self.arrival_rows > new_row] = 0  # still pre-arrival
        at_arrival = self.arrival_rows == new_row
        vals[at_arrival] = np.maximum(vals[at_arrival], 1)  # thread post itself
        self.counts = np.concatenate([self.counts[:, 1:], vals[:, None]], axis=1)
        self.n_rows = self.n_rows + 1
        return raw


def roll_reply_rows(states: list[ForecastState], reply_model) -> list[np.ndarray]:
    """Append one predicted row across all columns of each state: one
    Lockstep roll of their last h rows. Returns each state's raw
    per-column estimates (Lockstep.roll); a bad prediction leaves every
    state unchanged."""
    h, _ = reply_model.window
    lockstep = Lockstep.of([state.counts for state in states],
                           [state.arrival_rows for state in states], h)
    raw = lockstep.roll(reply_model)
    for state, row, width in zip(states, lockstep.counts[:, -1], lockstep.widths):
        state.counts = np.vstack([state.counts, row[None, :width]])
    return [r[:width] for r, width in zip(raw, lockstep.widths)]


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


def adaptive_forecasts(states: list[ForecastState], thread_model, reply_model, n_threads: int,
                       n_intervals: int) -> list[ForecastState]:
    """Alternate gap prediction and reply rolls, mutating the states.

    On each thread step every state materialises its newest column's
    anchor row (rolling extra rows, within roll_until's bound, if a long
    gap outran the grid), predicts its gap (gap_estimates) and appends
    the column; then the states roll their n_intervals rows together
    (roll_reply_rows). Catch-ups and gaps stay one state at a time. The
    states are independent: each ends as if it had been driven alone,
    but the first failure, in any state, raises.
    """
    if n_threads < 0 or n_intervals < 0:
        raise GridError("n_threads and n_intervals must be >= 0")
    for _ in range(n_threads):
        for state in states:
            roll_until(state, reply_model, int(state.arrival_rows[-1]) + 1)
            append_thread_column(state, *gap_estimates(
                thread_model, state.features(thread_model.channels), state.arrival_rows,
                [state.n_cols - 1]))
        for _ in range(n_intervals):
            roll_reply_rows(states, reply_model)
    return states


def adaptive_forecast(state: ForecastState, thread_model, reply_model, n_threads: int,
                      n_intervals: int) -> ForecastState:
    """adaptive_forecasts for one state."""
    return adaptive_forecasts([state], thread_model, reply_model, n_threads, n_intervals)[0]


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
    """Verdict for one cascade from its observed prefix state, which is
    left unchanged.

    predicted_total = observed prefix + raw rolled-out estimates over
    horizon_intervals rows; breakout iff strictly above 2 * l_bar.
    With horizon 0 (or no model) the verdict uses the prefix alone.
    Holding the model's outputs fixed, the verdict is monotone in the
    prefix: more observed events never flip breakout to non-breakout.
    """
    if l_bar <= 0:
        raise GridError("average cascade size must be positive")
    if horizon_intervals < 0:
        raise GridError("horizon must be >= 0")
    if not 0 <= column < state.n_cols:
        raise GridError(f"column {column} outside state")
    total = _breakout_totals([state.counts], [state.arrival_rows], [column], reply_model,
                             horizon_intervals)[0]
    threshold = 2.0 * l_bar
    return BreakoutVerdict(cascade_id, start_duration, float(state.counts[:, column].sum()),
                           float(total), threshold, bool(total > threshold))


def _breakout_totals(grids_counts: list[np.ndarray], arrivals: list[np.ndarray],
                     columns: list[int], reply_model, horizon_intervals: int) -> np.ndarray:
    """breakout_classify's predicted total for each prefix grid, given by
    its counts and its columns' arrival rows and left unchanged, and its
    target column; the grids roll in one Lockstep."""
    totals = np.array([float(counts[:, column].sum())
                       for counts, column in zip(grids_counts, columns)])
    if horizon_intervals > 0 and reply_model is not None:
        lockstep = Lockstep.of(grids_counts, arrivals, reply_model.window[0])
        for _ in range(horizon_intervals):
            totals += lockstep.roll(reply_model)[np.arange(len(columns)), columns]
    return totals


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


def _breakout_calls(
    grid: Grid,
    cols: range,
    s_int: int,
    context_cols: int,
    reply_model,
    l_bar: float,
    horizon_intervals: int,
) -> list[bool]:
    """One Lockstep group of breakout_curve: the breakout call of each
    column in cols after s_int observed intervals."""
    n_rows = grid.counts.shape[0]
    ends = [min(int(grid.arrival_rows[j]) + s_int, n_rows) for j in cols]
    firsts = [max(0, j - context_cols + 1) for j in cols]
    totals = _breakout_totals(
        [grid.counts[:r, c0 : j + 1] for j, r, c0 in zip(cols, ends, firsts)],
        [grid.arrival_rows[c0 : j + 1] for j, c0 in zip(cols, firsts)],
        [j - c0 for j, c0 in zip(cols, firsts)], reply_model, horizon_intervals,
    )
    return (totals > 2.0 * l_bar).tolist()


def _run_share(jobs: list, share: list[int]) -> tuple[dict, tuple | None]:
    """Run the jobs of share in index order up to the first that raises.
    Returns their results by index and (index, exception) of that one."""
    results = {}
    for i in share:
        try:
            results[i] = jobs[i]()
        except Exception as exc:
            return results, (i, exc)
    return results, None


def _deal(costs: list[int], n_workers: int) -> list[list[int]]:
    """Job indices per worker: largest cost first, each to the least
    loaded worker (the lowest on ties); each share in index order."""
    shares, loads = [[] for _ in range(n_workers)], [0] * n_workers
    for i in sorted(range(len(costs)), key=lambda i: -costs[i]):
        k = loads.index(min(loads))
        shares[k].append(i)
        loads[k] += costs[i]
    return [sorted(share) for share in shares]


def _fork_share(jobs: list, share: list[int]):
    """Fork a child that runs share and sends _run_share's outcome back
    pickled; returns (pid, the pipe's reading end), or None if the fork
    fails."""
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        return None
    if pid == 0:  # the child never returns
        status = 1
        try:
            os.close(read_fd)
            with os.fdopen(write_fd, "wb") as out:
                pickle.dump(_run_share(jobs, share), out, pickle.HIGHEST_PROTOCOL)
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    return pid, os.fdopen(read_fd, "rb")


def _run_jobs(jobs: list, costs: list[int]) -> list:
    """Run independent zero-argument jobs; returns their results in job
    order, or raises the exception of the lowest-index job that fails, as
    a loop over them would.

    On Linux with more than one CPU in this process's affinity mask, one
    child is forked per extra CPU, but no more than there are jobs of
    positive cost to share (_deal; the parent takes the first share).
    The parent runs its own share meanwhile, then reads and reaps every
    child before it returns or raises. Anywhere else every job runs here,
    as does a share whose fork fails: macOS numpy may use Accelerate,
    which is not fork-safe, and Windows has no fork. OpenBLAS re-creates
    its thread pool in a child. On Python 3.12 and later os.fork warns
    when the process has other threads, as OpenBLAS's pool is.
    """
    n_cpus = len(os.sched_getaffinity(0)) if sys.platform.startswith("linux") else 1
    own, *others = _deal(costs, max(1, min(n_cpus, sum(cost > 0 for cost in costs))))
    children, outcomes = [], []
    try:
        for share in others:
            child = _fork_share(jobs, share)
            if child is None:
                own = sorted(own + share)
            else:
                children.append(child)
        outcomes.append(_run_share(jobs, own))
        while children:
            pid, pipe = children[0]
            with pipe:
                payload = pipe.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            children.pop(0)
            if code != 0:
                raise RuntimeError(f"breakout worker {pid} ended with exit code {code}")
            outcomes.append(pickle.loads(payload))
    finally:
        for pid, pipe in children:  # left only when the parent raises early
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    failures = [failure for _, failure in outcomes if failure is not None]
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    results = {i: result for done, _ in outcomes for i, result in done.items()}
    return [results[i] for i in range(len(jobs))]


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
    all checked before any prefix rolls. Each cascade's prefix is
    build_breakout_state's, and a duration's prefixes roll in
    consecutive Locksteps (lockstep_size). Ground truth: final cascade
    size strictly above twice the stream's average. The roll-out horizon
    shrinks with the duration (observed intervals replace predicted
    ones) and never goes negative. For cascades arriving near the grid
    bottom the observed prefix is clamped to the materialised rows.

    Each (duration, Lockstep) pair is one independent job, costed as
    rows rolled x cascades, and the jobs run through _run_jobs: on a
    Linux host with several CPUs, forked children roll part of them, so
    the reply model's predict_next_rows must not rely on side effects
    in this process. The curve is the same on any number of CPUs.
    """
    if len(stream) != grid.spec.n_cols:
        raise GridError("stream and grid disagree on cascade count")
    if context_cols < 1:
        raise GridError("context_cols must be >= 1")
    l_bar = average_cascade_size(stream)
    if horizon_intervals is None:
        horizon_intervals = default_breakout_horizon(stream, grid.spec.d)
    s_ints = [duration_intervals(s, grid.spec.d) for s in start_durations]
    n_cols = grid.spec.n_cols
    step = n_cols if reply_model is None else lockstep_size(reply_model.window[0],
                                                            min(context_cols, n_cols))
    groups = [range(lo, min(lo + step, n_cols)) for lo in range(0, n_cols, step)]
    jobs, costs = [], []
    for s_int in s_ints:
        horizon = max(0, horizon_intervals - s_int)
        for cols in groups:
            jobs.append(partial(_breakout_calls, grid, cols, s_int, context_cols, reply_model,
                                l_bar, horizon))
            costs.append(len(cols) * horizon * (reply_model is not None))
    calls = _run_jobs(jobs, costs)
    truth = [c.size > 2.0 * l_bar for c in stream.cascades]
    points = []
    for k, s in enumerate(start_durations):
        judged = [call for group in calls[k * len(groups) : (k + 1) * len(groups)]
                  for call in group]
        correct = sum(int(call == t) for call, t in zip(judged, truth))
        points.append(
            BreakoutCurvePoint(
                start_duration=s, correct_rate=correct / len(stream), n=len(stream)
            )
        )
    return points
