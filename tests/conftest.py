"""Shared fixtures: tiny streams, grids, stub predictors, strategies,
and, kept as oracles, the earlier np.where / scatter-form kernels, the
padded-copy conv, the column-max relative time, the per-cascade roll
and breakout curve, the per-start adaptive evaluation and the
scalar-draw reply sampler."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import strategies as st

from gridcast import nn
from gridcast.container import write_container
from gridcast.dataio import GRID_FILE
from gridcast.evaluate import EvalTask, _report
from gridcast.forecast import (
    BreakoutCurvePoint,
    ForecastState,
    append_thread_column,
    average_cascade_size,
    build_breakout_state,
    default_breakout_horizon,
    duration_intervals,
    roll_reply_row,
    roll_until,
)
from gridcast.grid import (
    EventStream,
    Grid,
    GridError,
    ThreadCascade,
    assemble_features,
    build_grid,
    window_at,
)
from gridcast.models import ModelConfig, build_model
from gridcast.synth import _RESIDUAL, SynthParams


# ---------------------------------------------------------------------------
# hand-built streams


def cascade(tid: str, t: float, *replies: float) -> ThreadCascade:
    return ThreadCascade(thread_id=tid, thread_time=t, reply_times=tuple(sorted(replies)))


@pytest.fixture
def small_stream() -> EventStream:
    """Three cascades on a 60 s lattice; 9 events total."""
    return EventStream.from_cascades(
        [
            cascade("a", 0.0, 10.0, 70.0, 130.0),
            cascade("b", 65.0, 66.0, 200.0),
            cascade("c", 240.0, 250.0),
        ]
    )


@pytest.fixture
def small_grid(small_stream) -> Grid:
    return build_grid(small_stream, d=60.0, t0=0.0, n_rows=5)


def write_zero_column_grid(path) -> None:
    """A well-formed grid file, CRC included, whose grid has no columns."""
    header = {"d": 60.0, "t0": 0.0, "dropped_events": 0}
    arrays = [("counts", np.zeros((3, 0), dtype="<i8")), ("arrival_rows", np.zeros(0, dtype="<i8"))]
    write_container(GRID_FILE, path, header, arrays)


def lattice_stream(gaps_intervals, d: float = 300.0, replies_per=0) -> EventStream:
    """Threads exactly on the d-lattice with the given integer gaps."""
    t = 0.0
    cascades = []
    times = [0.0]
    for g in gaps_intervals:
        times.append(times[-1] + g * d)
    for i, t in enumerate(times):
        reps = tuple(t + 1.0 + k for k in range(replies_per))
        cascades.append(ThreadCascade(f"t{i:03d}", t, reps))
    return EventStream(tuple(cascades))


# ---------------------------------------------------------------------------
# stub predictors (duck-typed like trained models)


class ConstGapStub:
    """Always predicts the same gap, in interval units."""

    def __init__(self, gap: float, window=(4, 3), channels=None):
        from gridcast.grid import CHANNEL_ORDER

        self.gap = gap
        self.window = window
        self.channels = channels or CHANNEL_ORDER
        self.kind = "thread"

    def predict_gap(self, features, col_index=None) -> float:
        return float(self.gap)


class TrueGapStub:
    """Replays the true gap (in intervals) to the column being created,
    plus a constant offset."""

    def __init__(self, thread_times, d: float, offset: float = 0.0, window=(4, 3)):
        from gridcast.grid import CHANNEL_ORDER

        self.tt = np.asarray(thread_times, dtype=np.float64)
        self.d = float(d)
        self.offset = float(offset)
        self.window = window
        self.channels = CHANNEL_ORDER
        self.kind = "thread"

    def predict_gap(self, features, col_index=None) -> float:
        j = int(col_index)
        return float((self.tt[j] - self.tt[j - 1]) / self.d + self.offset)


class ConstRowStub:
    """Always predicts the same value for every column of the next row."""

    def __init__(self, value: float, window=(4, 3)):
        from gridcast.grid import CHANNEL_ORDER

        self.value = float(value)
        self.window = window
        self.channels = CHANNEL_ORDER
        self.kind = "reply"

    def predict_next_rows(self, features, row_indices) -> np.ndarray:
        return np.full((len(features), features.shape[-1]), self.value, dtype=np.float64)


class TrueRowStub:
    """Replays the true grid row (plus offset) for the row being predicted.

    Columns beyond the reference grid, and rows below it, read zero.
    Assumes state columns align one-to-one with reference columns.
    """

    def __init__(self, grid: Grid, offset: float = 0.0, window=(4, 3)):
        from gridcast.grid import CHANNEL_ORDER

        self.grid = grid
        self.offset = float(offset)
        self.window = window
        self.channels = CHANNEL_ORDER
        self.kind = "reply"

    def predict_next_rows(self, features, row_indices) -> np.ndarray:
        return np.stack([self._row(features.shape[-1], int(r)) for r in row_indices])

    def _row(self, n: int, r: int) -> np.ndarray:
        out = np.zeros(n, dtype=np.float64)
        if r < self.grid.spec.n_rows:
            m = min(n, self.grid.spec.n_cols)
            out[:m] = self.grid.counts[r, :m]
        live = np.ones(n, dtype=bool)
        m = min(n, self.grid.spec.n_cols)
        live[:m] = self.grid.arrival_rows[:m] <= r
        out[live] += self.offset
        return np.maximum(out, 0.0)


# ---------------------------------------------------------------------------
# model builders


def tiny_config(kind: str, **kw) -> ModelConfig:
    base = dict(window=(6, 4), n_filters=4, k_h=2, k_w=2, n_blocks=1)
    base.update(kw)
    return ModelConfig(kind=kind, **base)


def tiny_model(kind: str, seed: int = 0, dtype=np.float32, **kw):
    return build_model(tiny_config(kind, **kw), seed=seed, dtype=dtype)


def predict_plane(model, features: np.ndarray) -> np.ndarray:
    """A reply model's whole (h, w) eval-mode output for one (C, h, w)
    window; predict_next_row returns its last row."""
    return model.forward(features.astype(model.dtype)[None], False, {})[0]


def zero_weights(model) -> None:
    for p in model.params():
        p.value[...] = 0


# ---------------------------------------------------------------------------
# oracle kernels: the forms nn replaced with faster ones of the same bits


def where_prelu(x, slope):
    return np.where(x > 0, x, slope.reshape((1, -1) + (1,) * (x.ndim - 2)) * x)


def where_prelu_backward(x, slope, upstream):
    grad_x = np.where(x > 0, upstream, slope.reshape((1, -1) + (1,) * (x.ndim - 2)) * upstream)
    neg = np.where(x > 0, 0.0, x)
    return grad_x, (upstream * neg).sum(axis=(0, *range(2, x.ndim)))


def padded_taps(x, k_h, k_w, tau, rows=()):
    """x zero-padded by np.pad on top and left, and per filter tap (a, b)
    the slice of that copy it reads for the output rows, an evenly spaced
    range held by x as nn.rows_read gives it, or for the whole plane."""
    out = nn.row_range(rows) if rows else range(x.shape[2])
    held = nn.rows_read(out, k_h, tau) if rows else out
    top = (held.start - out.start + (k_h - 1) * tau) // held.step
    step, pw = out.step // held.step or 1, (k_w - 1) * tau
    xp = np.pad(x, ((0, 0), (0, 0), (top, 0), (pw, 0)))
    taps = []
    for a in range(k_h):
        i = (k_h - 1 - a) * tau // held.step  # the padded row tap a reads for out[0]
        taps += [((a, b), np.s_[..., i : i + len(out) * step : step,
                                pw - b * tau : pw - b * tau + x.shape[3]]) for b in range(k_w)]
    return xp, taps


def padded_conv2d(x, filters, bias, tau, *rows):
    """The causal conv as one GEMM per sample and tap over a contiguous
    copy of every tap's slice of a zero-padded copy of x, taps that read
    only padding included."""
    dtype = np.result_type(x.dtype, filters.dtype)
    n, c_in, hgt, wid = x.shape
    c_out, _, k_h, k_w = filters.shape
    xp, taps = padded_taps(x.astype(dtype), k_h, k_w, tau, rows)
    m = len(rows) or hgt
    out = np.zeros((n, c_out, m * wid), dtype=dtype)
    for (a, b), sl in taps:
        window = np.ascontiguousarray(xp[sl]).reshape(n, c_in, m * wid)
        out += np.ascontiguousarray(filters[:, :, a, b]) @ window
    out = out.reshape(n, c_out, m, wid)
    if bias is not None:
        out += bias[None, :, None, None].astype(dtype)
    return out


def scatter_conv2d_backward(x, filters, tau, upstream):
    """Each tap's input gradient added into a strided window of a padded
    channel-major buffer; each filter gradient over a contiguous copy of
    the tap's slice of a zero-padded copy of x."""
    dtype = np.result_type(x.dtype, filters.dtype, upstream.dtype)
    n, c_in, hgt, wid = x.shape
    c_out, _, k_h, k_w = filters.shape
    xp, taps = padded_taps(x.astype(dtype), k_h, k_w, tau)
    u = upstream.transpose(1, 0, 2, 3).reshape(c_out, -1)
    xc = xp.transpose(1, 0, 2, 3)
    grad_f = np.empty(filters.shape, dtype=dtype)
    grad_xc = np.zeros(xc.shape, dtype=dtype)
    for (a, b), sl in taps:
        grad_f[:, :, a, b] = u @ np.ascontiguousarray(xc[sl]).reshape(c_in, -1).T
        grad_xc[sl] += (filters[:, :, a, b].T @ u).reshape(c_in, n, hgt, wid)
    grad_x = grad_xc[taps[0][1]].transpose(1, 0, 2, 3)
    return grad_x, grad_f, upstream.sum(axis=(0, 2, 3))


def two_pass_batch_norm(x, gamma, beta, train, running):
    """batch_norm with the variance from x.var, which takes its own mean."""
    axes = (0, 2, 3)
    if train:
        mu = x.mean(axis=axes)
        var = x.var(axis=axes)
        running.mean = nn.BN_MOMENTUM * running.mean + (1.0 - nn.BN_MOMENTUM) * mu.astype(np.float64)
        running.var = nn.BN_MOMENTUM * running.var + (1.0 - nn.BN_MOMENTUM) * var.astype(np.float64)
    else:
        mu = running.mean.astype(x.dtype)
        var = running.var.astype(x.dtype)
    inv_std = 1.0 / np.sqrt(var + nn.BN_EPS)
    xhat = (x - mu[None, :, None, None]) * inv_std[None, :, None, None]
    out = gamma[None, :, None, None] * xhat + beta[None, :, None, None]
    return out, (xhat, inv_std, gamma, train)


ORACLE_KERNELS = {
    "prelu": where_prelu,
    "prelu_backward": where_prelu_backward,
    "conv2d_backward": scatter_conv2d_backward,
    "batch_norm": two_pass_batch_norm,
}


def column_max_relative_time(grid: Grid) -> np.ndarray:
    """The RELTIME channel as a reduction: intervals since arrival,
    zeroed in columns that arrive past the last row, over each column's
    maximum (1 where that is 0)."""
    rows = np.arange(grid.spec.n_rows, dtype=np.int64)[:, None]
    raw = np.maximum(rows - grid.arrival_rows[None, :], 0).astype(np.float64)
    raw[:, grid.arrival_rows >= grid.spec.n_rows] = 0.0
    colmax = raw.max(axis=0)
    return raw / np.where(colmax > 0, colmax, 1.0)[None, :]


# ---------------------------------------------------------------------------
# oracle rolls: one state at a time, from the features of the whole state


def per_state_roll(state, reply_model) -> np.ndarray:
    """roll_reply_row before the lockstep roll: every feature of the state
    assembled, the window cut with window_at and predicted alone."""
    h, _ = reply_model.window
    data = assemble_features(state.to_grid(), reply_model.channels).data
    window = window_at(data, state.n_rows - 1, state.n_cols - 1, h, state.n_cols)
    new_row = state.n_rows
    raw = np.asarray(reply_model.predict_next_rows(window[None], np.array([new_row])),
                     dtype=np.float64)[0]
    if not np.all((raw >= 0) & (raw < 2.0**63)):
        raise GridError("reply-count prediction negative, non-finite or >= 2**63")
    vals = np.round(raw).astype(np.int64)
    vals[state.arrival_rows > new_row] = 0
    at_arrival = state.arrival_rows == new_row
    vals[at_arrival] = np.maximum(vals[at_arrival], 1)
    state.counts = np.vstack([state.counts, vals[None, :]])
    return raw


def per_cascade_breakout_curve(stream, grid, reply_model, start_durations, horizon_intervals,
                               context_cols) -> list[BreakoutCurvePoint]:
    """breakout_curve before the lockstep roll: each cascade's prefix state
    built, rolled with per_state_roll and judged alone."""
    l_bar = average_cascade_size(stream)
    if horizon_intervals is None:
        horizon_intervals = default_breakout_horizon(stream, grid.spec.d)
    points = []
    for s in start_durations:
        s_int = duration_intervals(s, grid.spec.d)
        correct = 0
        for j, casc in enumerate(stream.cascades):
            class_row = min(int(grid.arrival_rows[j]) + s_int, grid.spec.n_rows)
            state, col = build_breakout_state(grid, j, class_row, context_cols)
            total = float(state.counts[:, col].sum())
            if reply_model is not None:
                for _ in range(max(0, horizon_intervals - s_int)):
                    total += float(per_state_roll(state, reply_model)[col])
            correct += int((total > 2.0 * l_bar) == (casc.size > 2.0 * l_bar))
        points.append(BreakoutCurvePoint(s, correct / len(stream), len(stream)))
    return points


def per_start_adaptive_evaluation(thread_model, reply_model, grid, thread_times, n_threads,
                                  n_start_points, seed, checkpoints=(2, 4, 6, 8, 10),
                                  n_intervals=None):
    """evaluate_adaptive before the closed loop rolled its starts together:
    each start point's state driven alone, one row at a time, and scored."""
    tt = np.asarray(thread_times, dtype=np.float64)
    max_cp = max(checkpoints)
    n_rows, n_cols = grid.spec.n_rows, grid.spec.n_cols
    valid = [j0 for j0 in range(1, n_cols - n_threads)
             if grid.arrival_rows[j0 + n_threads] + max_cp <= n_rows
             and grid.arrival_rows[j0] < n_rows]
    rng = np.random.default_rng(seed)
    take = min(n_start_points, len(valid))
    starts = sorted(rng.choice(np.array(valid), size=take, replace=False).tolist())
    roll = n_intervals if n_intervals is not None else max_cp
    step_err_s = np.zeros((take, n_threads))
    cp_err = {cp: np.zeros((take, n_threads)) for cp in checkpoints}
    for si, j0 in enumerate(starts):
        sub = grid.crop(int(grid.arrival_rows[j0]) + 1, slice(0, j0 + 1))
        state = ForecastState.from_grid(sub, thread_times=tt[: j0 + 1].tolist())
        for _ in range(n_threads):  # adaptive_forecast before the driver: one state alone
            roll_until(state, reply_model, int(state.arrival_rows[-1]) + 1)
            window = window_at(state.features(thread_model.channels),
                               int(state.arrival_rows[-1]), state.n_cols - 1,
                               *thread_model.window)
            append_thread_column(state, float(thread_model.predict_gap(window, state.n_cols)))
            for _ in range(roll):
                roll_reply_row(state, reply_model)
        roll_until(state, reply_model, int(state.arrival_rows[-1]) + max_cp)
        for k in range(1, n_threads + 1):
            col = j0 + k
            step_err_s[si, k - 1] = abs(state.thread_times[col] - tt[col])
            r_hat, r_true = int(state.arrival_rows[col]), int(grid.arrival_rows[col])
            for cp in checkpoints:
                pred = int(state.counts[r_hat : r_hat + cp, col].sum())
                true = int(grid.counts[r_true : r_true + cp, col].sum())
                cp_err[cp][si, k - 1] = abs(pred - true)
    thread_reports = [_report(EvalTask.ADAPTIVE_THREAD, step_err_s[:, k - 1], "hours",
                              label=f"step {k}") for k in range(1, n_threads + 1)]
    reply_reports = [_report(EvalTask.ADAPTIVE_REPLY, cp_err[cp].reshape(-1), "count",
                             label=f"{cp}d", stddev=float(cp_err[cp].mean(axis=1).std()))
                     for cp in checkpoints]
    return thread_reports, reply_reports


def scalar_draw_replies(rng, t_thread, mu, theta):
    """synth._replies before its draws were rebound: rng.exponential(1 / bound)
    and rng.uniform() for every thinning proposal."""
    out = []
    if mu <= 0:
        return out
    s = 0.0
    bound = mu
    cutoff = theta * np.log(mu * theta / _RESIDUAL) if mu * theta > _RESIDUAL else 0.0
    while s < cutoff:
        s += rng.exponential(1.0 / bound)
        actual = mu * np.exp(-s / theta)
        if rng.uniform() <= actual / bound:
            out.append(t_thread + s)
        bound = actual
    return out


def scalar_draw_synth(params: SynthParams) -> EventStream:
    """synth_generate over scalar_draw_replies, its thread gaps drawn with
    rng.exponential and its boosts with rng.uniform."""
    rng = np.random.default_rng(params.seed)
    thread_times = []
    t = 0.0
    while True:
        t += rng.exponential(1.0 / params.lambda_thread)
        if t >= params.horizon:
            break
        thread_times.append(t)
    width = max(6, len(str(len(thread_times))))
    cascades = []
    for idx, t_thread in enumerate(thread_times):
        boosted = rng.uniform() < params.breakout_fraction
        mu = params.mu_reply * (params.breakout_boost if boosted else 1.0)
        replies = scalar_draw_replies(rng, t_thread, mu, params.theta)
        cascades.append(ThreadCascade(f"t{idx:0{width}d}", t_thread, tuple(replies)))
    return EventStream(tuple(cascades))


# ---------------------------------------------------------------------------
# hypothesis strategies


@st.composite
def stream_strategy(draw, max_cascades: int = 5, max_replies: int = 6):
    """Small streams with half-integer timestamps (exact in float64)."""
    n = draw(st.integers(1, max_cascades))
    used = set()
    cascades = []
    for i in range(n):
        t2 = draw(st.integers(0, 2000).filter(lambda v: v not in used))
        used.add(t2)
        t = t2 / 2.0
        n_rep = draw(st.integers(0, max_replies))
        reps = sorted(t + draw(st.integers(0, 4000)) / 2.0 for _ in range(n_rep))
        cascades.append(ThreadCascade(f"c{i:02d}", t, tuple(reps)))
    return EventStream.from_cascades(cascades)


def brute_force_counts(stream: EventStream, d: float, t0: float, n_rows: int):
    """Independent double-loop counting oracle over half-open intervals."""
    n_cols = len(stream)
    counts = np.zeros((n_rows, n_cols), dtype=np.int64)
    dropped = 0
    for j, casc in enumerate(stream.cascades):
        for t in (casc.thread_time,) + casc.reply_times:
            placed = False
            for i in range(n_rows):
                if t0 + i * d <= t < t0 + (i + 1) * d:
                    counts[i, j] += 1
                    placed = True
                    break
            if not placed:
                dropped += 1
    return counts, dropped
