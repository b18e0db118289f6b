"""The paper's three experiments, one function and one recipe each.

- synth_benchmark: both models against the historical-mean and
  persistence baselines on the held-out part of a synthetic corpus;
- breakout_experiment: the correct-verdict rate after each observed
  prefix, with the reply model's roll-out and with the prefix alone, on
  a corpus where a quarter of the cascades reply four times as fast;
- interval_sweep: forecast error against the interval length d, once
  per seed, each a sweep_interval_length over that seed's corpus.

A recipe is a RunSettings value. `gridcast experiment` starts from it
and lets --config and the setting flags override it; the acceptance
criteria run it as it stands.

The d-sweep retrains both models per candidate interval length and
scores them in d-comparable units: thread MAE in hours with the gap
quantised to the grid lattice (simulate mode, the representation-facing
cost), and reply MAE as absolute error of self-fed rolled-out totals
over a fixed future span in seconds. Fine grids pay compounding
roll-out and rounding error; coarse grids pay quantisation and lose
within-cascade detail; the combined normalised score bottoms out at an
interior d.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .config import ConfigError, RunSettings
from .evaluate import (
    EvalReport,
    MeanGapBaseline,
    MeanRowBaseline,
    PersistenceGapBaseline,
    PersistenceRowBaseline,
    evaluate_reply_counts,
    evaluate_thread_arrival,
    train_mean_cell_count,
    train_mean_gap_intervals,
)
from .forecast import (
    BreakoutCurvePoint,
    Lockstep,
    breakout_curve,
    lockstep_size,
)
from .grid import EventStream, Grid, GridError, build_grid, gap_columns, rows_covering, time_split
from .models import ModelConfig, build_model, grid_search, train, training_segments
from .synth import synth_generate

SYNTH_BENCHMARK_SETTINGS = RunSettings(horizon=120_000.0)
BREAKOUT_SETTINGS = replace(SYNTH_BENCHMARK_SETTINGS, breakout_fraction=0.25, breakout_boost=4.0)
# small models, so that each candidate d retrains quickly
INTERVAL_SWEEP_SETTINGS = RunSettings(
    window_h=12, window_w=8, n_filters=8, n_blocks=2, loss_mode="full",
    epochs=8, batch_size=64, horizon=30_000.0,
)
SWEEP_D_VALUES = (60.0, 150.0, 300.0, 600.0, 1200.0)


def synth_corpus(settings: RunSettings) -> EventStream:
    """The synthetic corpus that the settings' generator fields describe."""
    stream = synth_generate(settings.synth_params())
    if not stream.cascades:
        raise ConfigError(f"the generator drew no thread before horizon {settings.horizon}")
    return stream


def grid_for(stream: EventStream, settings: RunSettings) -> Grid:
    """The stream's grid: settings.rows rows, or every event's row when 0."""
    rows = settings.rows or rows_covering(stream, settings.d, settings.t0)
    return build_grid(stream, settings.d, settings.t0, rows)


def thread_config(settings: RunSettings) -> ModelConfig:
    """The settings' model as a thread net of 8 filters and 1 block. The thread
    task has little signal to learn (Poisson arrivals), so its net is narrower
    and shallower."""
    return replace(settings, n_filters=8, n_blocks=1).model_config("thread")


# the two nets of the synthetic benchmark
REPLY_MODEL = SYNTH_BENCHMARK_SETTINGS.model_config("reply")
THREAD_MODEL = thread_config(SYNTH_BENCHMARK_SETTINGS)


def breakout_durations(d: float) -> list[float]:
    """Observed prefixes of 1..10 intervals, in seconds."""
    return [k * d for k in range(1, 11)]


def settings_breakout_curve(
    stream: EventStream, grid: Grid, reply_model, durations, settings: RunSettings
) -> list[BreakoutCurvePoint]:
    """breakout_curve with the settings' roll-out horizon and context."""
    horizon = settings.horizon_intervals if settings.horizon_intervals >= 0 else None
    return breakout_curve(
        stream, grid, reply_model, durations,
        horizon_intervals=horizon, context_cols=settings.context_cols,
    )


def _training_side(grid: Grid, config: ModelConfig, settings: RunSettings):
    segs = training_segments(grid, config, settings.train_frac)
    if not segs:
        raise ConfigError("training split produced no segments")
    return segs


def train_on_split(grid: Grid, config: ModelConfig, settings: RunSettings, seed):
    """(model, per-epoch losses, segment count) for a config model built
    from seed and trained with the settings on the training side of their split."""
    segs = _training_side(grid, config, settings)
    model = build_model(config, seed=seed)
    return model, train(model, segs, settings.train_config()), len(segs)


def search_on_split(grid: Grid, kind: str, settings: RunSettings):
    """(config, validation loss) for each of the settings' search_configs(kind), each
    trained with the settings on the training side, its last fifth of segments held out."""
    candidates = settings.search_configs(kind)
    segs = _training_side(grid, candidates[0], settings)
    if len(segs) < 2:
        raise ConfigError(f"grid search needs at least 2 training segments, got {len(segs)}")
    n_val = max(1, len(segs) // 5)
    losses = grid_search(candidates, segs[:-n_val], segs[-n_val:], settings.train_config(),
                         settings.seed)
    return list(zip(candidates, losses))


def held_out_report(
    task: str, predictor, grid: Grid, thread_times, train_frac: float
) -> EvalReport:
    """The predictor's EvalReport on the test side of time_split(grid,
    train_frac): rows r_split..n_rows for the reply task, and for the
    thread task the gap columns of the threads arriving in them."""
    r_split, col_split = time_split(grid, train_frac)
    if task == "reply":
        return evaluate_reply_counts(predictor, grid, grid.spec.n_rows - r_split,
                                     start_row=r_split)
    return evaluate_thread_arrival(predictor, grid, thread_times, gap_columns(grid, col_split))


def synth_benchmark(settings: RunSettings) -> list[tuple[str, str, EvalReport]]:
    """(task, predictor, report) for the model, historical-mean and
    persistence predictors on the held-out rows (reply) and held-out
    columns (thread), both models trained on the first train_frac of rows."""
    stream = synth_corpus(settings)
    grid = grid_for(stream, settings)
    r_split, col_split = time_split(grid, settings.train_frac)
    tt = stream.thread_times

    reply_model = train_on_split(grid, settings.model_config("reply"), settings, settings.seed)[0]
    rows = [
        ("reply", name, held_out_report("reply", m, grid, tt, settings.train_frac))
        for name, m in [
            ("model", reply_model),
            ("historical-mean", MeanRowBaseline(train_mean_cell_count(grid, 0, r_split))),
            ("persistence", PersistenceRowBaseline(grid.counts)),
        ]
    ]

    thread_model = train_on_split(grid, thread_config(settings), settings, settings.seed)[0]
    mean_gap = train_mean_gap_intervals(tt, col_split, settings.d)
    rows += [
        ("thread", name, held_out_report("thread", m, grid, tt, settings.train_frac))
        for name, m in [
            ("model", thread_model),
            ("historical-mean", MeanGapBaseline(mean_gap)),
            ("persistence", PersistenceGapBaseline(tt, settings.d)),
        ]
    ]
    return rows


def breakout_experiment(
    settings: RunSettings, durations
) -> tuple[list[BreakoutCurvePoint], list[BreakoutCurvePoint]]:
    """(model curve, prefix-only curve) over the start durations, the
    reply model trained on the first train_frac of rows."""
    stream = synth_corpus(settings)
    grid = grid_for(stream, settings)
    model = train_on_split(grid, settings.model_config("reply"), settings, settings.seed)[0]
    return (
        settings_breakout_curve(stream, grid, model, durations, settings),
        settings_breakout_curve(stream, grid, None, durations, settings),
    )


@dataclass(frozen=True)
class SweepRow:
    d: float
    thread_mae_hours: float
    reply_mae_counts: float
    n_thread: int
    n_reply: int


@dataclass(frozen=True)
class SweepResult:
    rows: tuple[SweepRow, ...]
    best_d: float
    scores: tuple[float, ...]


def _self_fed_span_mae(model, grid: Grid, r_split: int, span_int: int) -> tuple[float, int]:
    """Roll the reply model over its own outputs for span_int rows from
    each aligned start in the test region, the starts in consecutive
    Locksteps of the last h rows before them (lockstep_size); absolute
    error of per-column totals against truth. Thread arrival rows are
    taken as known.

    Only recently-arrived columns are scored: threads whose arrival
    falls within one span before or inside the rolled window. Columns
    that went quiet long before the start would reward a degenerate
    always-zero forecast equally at every d and drown out the signal
    the sweep is after."""
    n_rows = grid.spec.n_rows
    starts = list(range(r_split, n_rows - span_int + 1, span_int))
    if not starts:
        raise GridError("test region shorter than the evaluation span")
    errors = []
    arr = grid.arrival_rows
    h = model.window[0]
    step = lockstep_size(h, grid.spec.n_cols)
    for lo in range(0, len(starts), step):
        group = starts[lo : lo + step]
        lockstep = Lockstep.of([grid.counts[:r0] for r0 in group], [arr] * len(group), h)
        pred = np.zeros((len(group), grid.spec.n_cols), dtype=np.int64)
        for _ in range(span_int):
            lockstep.roll(model)
            pred += lockstep.counts[:, -1]
        for r0, totals in zip(group, pred):
            cols = np.where((arr >= r0 - span_int) & (arr < r0 + span_int))[0]
            true = grid.counts[r0 : r0 + span_int]
            for c in cols:
                errors.append(abs(int(totals[c]) - int(true[:, c].sum())))
    if not errors:
        raise GridError("no recently-arrived columns in the sweep test region")
    return float(np.mean(errors)), len(errors)


def sweep_interval_length(
    stream: EventStream, d_values, settings: RunSettings
) -> SweepResult:
    """Rebuild, retrain, and score both tasks for every candidate d.

    Scores are d-comparable: thread MAE in hours with lattice-quantised
    predictions, reply MAE in counts over a fixed span of
    settings.span_seconds. The selected d minimises the sum of per-task
    MAEs normalised by their column minima; ties go to the smaller d.
    """
    ds = sorted(float(d) for d in d_values)
    if not ds:
        raise GridError("empty candidate set")
    rows = []
    for d in ds:
        grid = grid_for(stream, replace(settings, d=d, rows=0))
        if grid.spec.n_rows < 2:
            raise GridError(f"d={d} too large: fewer than 2 rows materialise")
        r_split, col_split = time_split(grid, settings.train_frac)

        # one thread training segment per gap column before the split
        test_idx = gap_columns(grid, col_split)
        if len(gap_columns(grid, 0, col_split)) < 2 or not test_idx:
            raise GridError(f"d={d}: not enough threads on either side of the split")
        th_seed = np.random.default_rng([settings.seed, 1])
        th_model = train_on_split(grid, settings.model_config("thread"), settings, th_seed)[0]
        th_report = evaluate_thread_arrival(
            th_model, grid, stream.thread_times, test_idx, mode="simulate"
        )

        rp_seed = np.random.default_rng([settings.seed, 2])
        rp_model = train_on_split(grid, settings.model_config("reply"), settings, rp_seed)[0]
        span_int = max(1, round(settings.span_seconds / d))
        reply_mae, n_reply = _self_fed_span_mae(rp_model, grid, r_split, span_int)

        rows.append(
            SweepRow(
                d=d,
                thread_mae_hours=th_report.mae,
                reply_mae_counts=reply_mae,
                n_thread=th_report.n,
                n_reply=n_reply,
            )
        )
    t = np.array([r.thread_mae_hours for r in rows])
    rmae = np.array([r.reply_mae_counts for r in rows])
    tiny = 1e-12
    scores = t / max(t.min(), tiny) + rmae / max(rmae.min(), tiny)
    best = int(np.argmin(scores))
    return SweepResult(rows=tuple(rows), best_d=rows[best].d, scores=tuple(scores))


def interval_sweep(settings: RunSettings, d_values, seeds) -> list[SweepResult]:
    """One d-sweep per seed, each on its own corpus drawn with that seed."""
    seeded = [replace(settings, seed=seed) for seed in seeds]
    return [sweep_interval_length(synth_corpus(s), d_values, s) for s in seeded]
