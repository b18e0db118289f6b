"""The paper's three experiments, one function and one recipe each.

- synth_benchmark: both models against the historical-mean and
  persistence baselines on the held-out part of a synthetic corpus;
- breakout_experiment: the correct-verdict rate after each observed
  prefix, with the reply model's roll-out and with the prefix alone, on
  a corpus where a quarter of the cascades reply four times as fast;
- interval_sweep: forecast error against the interval length d, once
  per seed.

A recipe is a RunSettings value. `gridcast experiment` starts from it
and lets --config and the setting flags override it; the acceptance
criteria run it as it stands.
"""
from __future__ import annotations

from dataclasses import replace

from .config import ConfigError, RunSettings
from .evaluate import (
    EvalReport,
    MeanGapBaseline,
    MeanRowBaseline,
    PersistenceGapBaseline,
    PersistenceRowBaseline,
    SweepResult,
    evaluate_reply_counts,
    evaluate_thread_arrival,
    sweep_interval_length,
    train_mean_cell_count,
    train_mean_gap_intervals,
)
from .forecast import BreakoutCurvePoint, breakout_curve
from .grid import EventStream, Grid, build_grid, gap_columns, rows_covering, time_split
from .models import ModelConfig, build_model, train, training_segments
from .synth import SynthParams, synth_generate

# The two nets of the synthetic benchmark. The thread task has little
# signal to learn (Poisson arrivals), so its net is narrower and shallower.
REPLY_MODEL = ModelConfig(kind="reply")
THREAD_MODEL = replace(REPLY_MODEL, kind="thread", n_filters=8, n_blocks=1)

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
    try:
        params = SynthParams(
            lambda_thread=settings.lambda_thread, mu_reply=settings.mu_reply,
            theta=settings.theta, horizon=settings.horizon,
            breakout_fraction=settings.breakout_fraction,
            breakout_boost=settings.breakout_boost, seed=settings.seed,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return synth_generate(params)


def grid_for(stream: EventStream, settings: RunSettings) -> Grid:
    """The stream's grid: settings.rows rows, or every event's row when 0."""
    rows = settings.rows or rows_covering(stream, settings.d, settings.t0)
    return build_grid(stream, settings.d, settings.t0, rows)


def thread_config(settings: RunSettings) -> ModelConfig:
    """The settings' model as a thread net of THREAD_MODEL's width and depth."""
    return replace(
        settings.model_config("thread"),
        n_filters=THREAD_MODEL.n_filters,
        n_blocks=THREAD_MODEL.n_blocks,
    )


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


def _trained(grid: Grid, config: ModelConfig, settings: RunSettings):
    model = build_model(config, seed=settings.seed)
    train(model, training_segments(grid, config, settings.train_frac), settings.train_config())
    return model


def synth_benchmark(settings: RunSettings) -> list[tuple[str, str, EvalReport]]:
    """(task, predictor, report) for the model, historical-mean and
    persistence predictors on the held-out rows (reply) and held-out
    columns (thread), both models trained on the first train_frac of rows."""
    stream = synth_corpus(settings)
    grid = grid_for(stream, settings)
    r_split, col_split = time_split(grid, settings.train_frac)
    tt = stream.thread_times

    reply_model = _trained(grid, settings.model_config("reply"), settings)
    n_test_rows = grid.spec.n_rows - r_split
    rows = [
        ("reply", name, evaluate_reply_counts(m, grid, n_test_rows, start_row=r_split))
        for name, m in [
            ("model", reply_model),
            ("historical-mean", MeanRowBaseline(train_mean_cell_count(grid, 0, r_split))),
            ("persistence", PersistenceRowBaseline()),
        ]
    ]

    thread_model = _trained(grid, thread_config(settings), settings)
    mean_gap = train_mean_gap_intervals(tt, col_split, settings.d)
    test_idx = gap_columns(grid, col_split)
    rows += [
        ("thread", name, evaluate_thread_arrival(m, grid, tt, test_idx))
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
    model = _trained(grid, settings.model_config("reply"), settings)
    return (
        settings_breakout_curve(stream, grid, model, durations, settings),
        settings_breakout_curve(stream, grid, None, durations, settings),
    )


def interval_sweep(settings: RunSettings, d_values, seeds) -> list[SweepResult]:
    """One d-sweep per seed, each on its own corpus drawn with that seed."""
    seeded = [replace(settings, seed=seed) for seed in seeds]
    return [sweep_interval_length(synth_corpus(s), d_values, s) for s in seeded]
