"""Evaluation protocols; they take no run settings (the d-sweep is in experiments).

Three measurement protocols, all deterministic given (seed, config):

* thread arrival: for each test thread j, convert the predicted gap to
  a wall-clock time from the true previous arrival and compare against
  the true next arrival, in hours;
* reply counts: one-step-ahead row predictions compared cell-wise to
  true counts on post-arrival cells;
* adaptive: seeded start points, simulated together in one closed loop
  (forecast.adaptive_forecasts) for the next n_threads cascades,
  per-step arrival error (hours) and per-cascade reply totals at
  checkpoints 2d..10d (counts), each cascade's window taken relative to
  its own (predicted vs true) arrival row.

Thread errors are aggregated in seconds and converted to hours once,
so integer-lattice fixtures telescope without float drift.

Baselines are wrapped as predictor objects satisfying the same duck
protocol as trained models, so model and baseline pass through the
identical measurement path.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .forecast import ForecastState, adaptive_forecasts, lockstep_size, roll_until
from .grid import Channel, Grid, assemble_features, window_at
from .models import arrival_time, gap_estimates

SECONDS_PER_HOUR = 3600.0


class EvalTask(Enum):
    THREAD_ARRIVAL = "thread_arrival"
    REPLY_COUNT = "reply_count"
    ADAPTIVE_THREAD = "adaptive_thread"
    ADAPTIVE_REPLY = "adaptive_reply"


@dataclass(frozen=True)
class EvalReport:
    task: EvalTask
    mae: float
    rmse: float
    unit: str
    n: int
    stddev: float
    label: str

    def __post_init__(self):
        if self.mae < 0 or self.n < 1:
            raise ValueError("report needs mae >= 0 and n >= 1")
        if self.rmse < self.mae - 1e-12:
            raise ValueError(f"rmse {self.rmse} < mae {self.mae}")


def config_digest(payload) -> str:
    blob = json.dumps(payload, sort_keys=True, default=str).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:16]


def _report(task, abs_errors, unit, label="", stddev=None) -> EvalReport:
    """Aggregate absolute errors into a report. "hours" reports take
    their errors in seconds and convert after aggregating."""
    e = np.asarray(abs_errors, dtype=np.float64)
    per_unit = SECONDS_PER_HOUR if unit == "hours" else 1.0
    sd = float(e.std()) if stddev is None else float(stddev)
    return EvalReport(
        task=task,
        mae=float(e.mean()) / per_unit,
        rmse=float(np.sqrt((e**2).mean())) / per_unit,
        unit=unit,
        n=int(e.size),
        stddev=sd / per_unit,
        label=label,
    )


# ---------------------------------------------------------------------------
# baseline adapters: same duck protocol as the trained models


class _Baseline:
    """The window and channels of every baseline: one cell of counts."""

    window = (1, 1)
    channels = (Channel.COUNTS,)


@dataclass
class MeanGapBaseline(_Baseline):
    """HISTORICAL_MEAN for the thread task: constant mean training gap,
    expressed in interval units."""

    gap_intervals: float

    def predict_gap(self, features, col_index) -> float:
        return float(self.gap_intervals)


@dataclass
class PersistenceGapBaseline(_Baseline):
    """Repeats the previous observed gap; needs the true arrival record."""

    thread_times: np.ndarray
    d: float

    def predict_gap(self, features, col_index) -> float:
        j = col_index - 1
        if j < 1:
            return 0.0
        return float((self.thread_times[j] - self.thread_times[j - 1]) / self.d)


@dataclass
class MeanRowBaseline(_Baseline):
    """HISTORICAL_MEAN for the reply task: global training-cell mean."""

    mean_count: float

    def predict_next_rows(self, features, row_indices) -> np.ndarray:
        return np.full((len(features), features.shape[-1]), self.mean_count, dtype=np.float64)


@dataclass
class PersistenceRowBaseline(_Baseline):
    """Repeats each column's newest observed count, read from the grid's
    counts rather than from the feature window."""

    counts: np.ndarray

    def predict_next_rows(self, features, row_indices) -> np.ndarray:
        rows = np.asarray(row_indices) - 1
        return self.counts[rows, : features.shape[-1]].astype(np.float64)


def train_mean_gap_intervals(thread_times, n_train_cols: int, d: float) -> float:
    tt = np.asarray(thread_times, dtype=np.float64)[:n_train_cols]
    if tt.size < 2:
        raise ValueError("need at least two training threads for a mean gap")
    return float(np.diff(tt).mean() / d)


def train_mean_cell_count(grid: Grid, row_lo: int, row_hi: int) -> float:
    """Mean count over post-arrival training cells."""
    sel = grid.mask[row_lo:row_hi] == 0
    if not sel.any():
        raise ValueError("no post-arrival cells in the training rows")
    return float(grid.counts[row_lo:row_hi][sel].mean())


# ---------------------------------------------------------------------------
# non-adaptive protocols


def evaluate_thread_arrival(
    model,
    grid: Grid,
    thread_times,
    indices,
    mode: str = "measure",
) -> EvalReport:
    """Per-thread next-arrival error in hours.

    Each test index j anchors a window at thread j and predicts thread
    j+1's time from thread j's true time. `mode` picks real-valued
    ("measure", the default) or lattice-quantised ("simulate") times.
    """
    tt = np.asarray(thread_times, dtype=np.float64)
    if tt.shape != (grid.spec.n_cols,):
        raise ValueError("need one true thread time per grid column")
    indices = list(indices)
    if not indices:
        raise ValueError("no evaluable thread indices")
    for j in indices:
        if not 0 <= j <= grid.spec.n_cols - 2:
            raise IndexError(f"thread index {j} out of range")
        if grid.arrival_rows[j] >= grid.spec.n_rows:
            raise IndexError(f"thread {j} arrives beyond the grid rows")
    gaps = gap_estimates(model, assemble_features(grid, model.channels).data, grid.arrival_rows,
                         indices)
    errors_s = [abs(arrival_time(tt[j], o_hat, grid.spec.d, mode=mode) - tt[j + 1])
                for j, o_hat in zip(indices, gaps)]
    return _report(EvalTask.THREAD_ARRIVAL, errors_s, "hours")


def evaluate_reply_counts(
    model,
    grid: Grid,
    n_intervals: int,
    start_row: int,
) -> EvalReport:
    """One-step-ahead per-cell errors over n_intervals consecutive rows.

    Each row r in [start_row, start_row + n_intervals) is predicted from
    true history up to r-1; scored on post-arrival cells only.
    """
    n_rows, n_cols = grid.spec.n_rows, grid.spec.n_cols
    if n_intervals < 1:
        raise ValueError("n_intervals must be >= 1")
    if start_row < 1 or start_row + n_intervals > n_rows:
        raise ValueError(
            f"rows [{start_row}, {start_row + n_intervals}) fall outside the grid"
        )
    h, _ = model.window
    data = assemble_features(grid, model.channels).data
    mask = grid.mask
    errors = []
    for r in range(start_row, start_row + n_intervals):
        win = window_at(data, r - 1, n_cols - 1, h, n_cols)
        pred = np.asarray(model.predict_next_rows(win[None], np.array([r])), dtype=np.float64)[0]
        live = mask[r] == 0
        errors.extend(np.abs(pred[live] - grid.counts[r, live]))
    if not errors:
        raise ValueError("no post-arrival cells to score")
    return _report(EvalTask.REPLY_COUNT, errors, "count")


# ---------------------------------------------------------------------------
# adaptive protocol


def evaluate_adaptive(
    thread_model,
    reply_model,
    grid: Grid,
    thread_times,
    n_threads: int,
    n_start_points: int,
    seed: int,
    checkpoints: tuple[int, ...] = (2, 4, 6, 8, 10),
    n_intervals: int | None = None,
) -> tuple[list[EvalReport], list[EvalReport]]:
    """Closed-loop evaluation from seeded start points.

    Returns per-step thread reports (hours, one per step 1..n_threads)
    and per-checkpoint reply reports (counts, windows of 2d..10d from
    each cascade's own arrival row). Standard deviations are over start
    points (reply checkpoints first average within a start point).
    The starts' states end at most n_cols wide, so they run through
    adaptive_forecasts in slices of lockstep_size(h, n_cols), each within
    LOCKSTEP_CELLS; whichever start of a slice fails first in the loop raises.
    """
    tt = np.asarray(thread_times, dtype=np.float64)
    if tt.shape != (grid.spec.n_cols,):
        raise ValueError("need one true thread time per grid column")
    if n_threads < 1:
        raise ValueError("n_threads must be >= 1")
    max_cp = max(checkpoints)
    n_rows, n_cols = grid.spec.n_rows, grid.spec.n_cols
    valid = [
        j0
        for j0 in range(1, n_cols - n_threads)
        if grid.arrival_rows[j0 + n_threads] + max_cp <= n_rows
        and grid.arrival_rows[j0] < n_rows
    ]
    if not valid:
        raise ValueError(
            "insufficient test data for the requested horizons"
        )
    rng = np.random.default_rng(seed)
    take = min(n_start_points, len(valid))
    starts = sorted(rng.choice(np.array(valid), size=take, replace=False).tolist())
    roll = n_intervals if n_intervals is not None else max_cp

    step_err_s = np.zeros((take, n_threads))
    cp_err = {cp: np.zeros((take, n_threads)) for cp in checkpoints}
    size = lockstep_size(reply_model.window[0], n_cols)
    for lo in range(0, take, size):
        states = [ForecastState.from_grid(grid.crop(int(grid.arrival_rows[j0]) + 1,
                                                    slice(0, j0 + 1)), tt[: j0 + 1].tolist())
                  for j0 in starts[lo : lo + size]]
        adaptive_forecasts(states, thread_model, reply_model, n_threads, roll)
        for si, (j0, state) in enumerate(zip(starts[lo : lo + size], states), lo):
            roll_until(state, reply_model, int(state.arrival_rows[-1]) + max_cp)
            for k in range(1, n_threads + 1):
                col = j0 + k
                step_err_s[si, k - 1] = abs(state.thread_times[col] - tt[col])
                r_hat = int(state.arrival_rows[col])
                r_true = int(grid.arrival_rows[col])
                for cp in checkpoints:
                    pred = int(state.counts[r_hat : r_hat + cp, col].sum())
                    true = int(grid.counts[r_true : r_true + cp, col].sum())
                    cp_err[cp][si, k - 1] = abs(pred - true)

    thread_reports = [
        _report(
            EvalTask.ADAPTIVE_THREAD,
            step_err_s[:, k - 1],
            "hours",
            label=f"step {k}",
        )
        for k in range(1, n_threads + 1)
    ]
    reply_reports = []
    for cp in checkpoints:
        errs = cp_err[cp]
        reply_reports.append(
            _report(
                EvalTask.ADAPTIVE_REPLY,
                errs.reshape(-1),
                "count",
                label=f"{cp}d",
                stddev=float(errs.mean(axis=1).std()),
            )
        )
    return thread_reports, reply_reports
