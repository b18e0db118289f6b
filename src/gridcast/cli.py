"""Command-line surface.

Subcommands: ingest, synth, grid, train-thread, train-reply,
grid-search, predict, adaptive, breakout, evaluate, sweep-d, and
experiment {synth-benchmark,breakout,sweep}, which runs one of the
paper's experiments from its recipe in gridcast.experiments. Every
command takes one flag for each setting it reads (see `gridcast <cmd>
--help`) and, if it reads any, an optional --config JSON file, which
may hold any setting; flags override file values, and an
experiment's recipe takes the place of the defaults. Abbreviated flags
are not accepted. Success prints a one-line JSON summary on
stdout and exits 0; failures print a one-line JSON error on stderr and
exit nonzero (2 for usage/config problems, 1 for runtime errors).
"""
from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
from pathlib import Path

from .checkpoint import load_checkpoint, save_checkpoint
from .config import GENERATOR, GRIDDING, MODEL, SEARCH, SEARCHED, TRAINING
from .config import ConfigError, RunSettings, load_settings, parse_float_list
from .dataio import (
    load_grid,
    parse_events_with_stats,
    save_grid,
    serialize_events,
    write_csv,
)
from .evaluate import config_digest, evaluate_adaptive
from .experiments import (
    BREAKOUT_SETTINGS,
    INTERVAL_SWEEP_SETTINGS,
    SWEEP_D_VALUES,
    SYNTH_BENCHMARK_SETTINGS,
    breakout_durations,
    breakout_experiment,
    grid_for,
    held_out_report,
    interval_sweep,
    search_on_split,
    settings_breakout_curve,
    sweep_interval_length,
    synth_benchmark,
    synth_corpus,
    train_on_split,
)
from .forecast import ForecastState, Lockstep, adaptive_forecast, duration_intervals
from .grid import GridError, assemble_features
from .models import arrival_time, gap_estimates


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):  # no prefix match may stand in for a flag
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):  # argparse would sys.exit(2) without a parsable line
        raise ConfigError(message)


def _say(payload: dict) -> None:
    print(json.dumps(payload, sort_keys=True))


def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _settings(args, base: RunSettings = RunSettings()) -> RunSettings:
    overrides = {f.name: getattr(args, f.name, None) for f in dataclasses.fields(RunSettings)}
    return load_settings(getattr(args, "config", None), overrides, base)


def _stream(args):
    stream, _ = parse_events_with_stats(args.inp)
    if len(stream) == 0:
        raise ConfigError(f"{args.inp}: no cascades")
    return stream


def _durations(args, s: RunSettings) -> list[float]:
    """--durations, each checked to be a whole number of intervals, or 1..10 x d."""
    if args.durations is None:
        return breakout_durations(s.d)
    durations = parse_float_list(args.durations)
    try:
        for duration in durations:
            duration_intervals(duration, s.d)
    except GridError as exc:
        raise ConfigError(str(exc)) from exc
    return durations


def _refuse_decay(args, command: str) -> None:
    """A thread model's training never decays (see models.train), so a
    command that trains one does not read --weight-decay."""
    if args.task == "thread" and args.weight_decay is not None:
        raise ConfigError(f"{command} does not read --weight-decay")


def _model(path: str, kind: str):
    """The model of the checkpoint at path, which must hold a kind model."""
    model, _ = load_checkpoint(path)
    if model.kind != kind:
        raise ConfigError(f"{path} holds a {model.kind} model, not the {kind} model needed")
    return model


# ---------------------------------------------------------------------------
# commands


def cmd_ingest(args) -> None:
    stream, stats = parse_events_with_stats(args.inp)
    if args.out:
        serialize_events(stream, args.out)
    _say(
        {
            "threads": stats.threads,
            "replies": stats.replies,
            "duplicates": stats.duplicates,
            "out": args.out or "",
        }
    )


def cmd_synth(args) -> None:
    s = _settings(args)
    stream = synth_corpus(s)
    serialize_events(stream, args.out)
    _say(
        {
            "threads": len(stream),
            "events": int(sum(c.size for c in stream.cascades)),
            "out": args.out,
        }
    )


def cmd_grid(args) -> None:
    s = _settings(args)
    stream = _stream(args)
    grid = grid_for(stream, s)
    save_grid(grid, args.out)
    _say(
        {
            "rows": grid.spec.n_rows,
            "cols": grid.spec.n_cols,
            "dropped": grid.dropped_events,
            "sha256": _sha256(args.out),
        }
    )


def cmd_train(args) -> None:
    _refuse_decay(args, "train-thread")
    s = _settings(args)
    stream = _stream(args)
    grid = grid_for(stream, s)
    model, history, n_segments = train_on_split(grid, s.model_config(args.task), s, s.seed)
    meta = {
        "epochs": s.epochs,
        "final_loss": history[-1],
        "seed": s.seed,
        "segments": n_segments,
    }
    save_checkpoint(model, args.out, meta)
    _say({"final_loss": history[-1], "segments": n_segments, "out": args.out})


def cmd_grid_search(args) -> None:
    _refuse_decay(args, "--task thread")
    s = _settings(args)
    stream = _stream(args)
    grid = grid_for(stream, s)
    results = search_on_split(grid, args.task, s)
    if args.out:
        write_csv(
            args.out,
            ["n_filters", "kernel", "n_blocks", "val_loss"],
            [(c.n_filters, c.k_h, c.n_blocks, loss) for c, loss in results],
        )
    best, _ = min(results, key=lambda entry: entry[1])  # the first of equal losses
    _say(
        {
            "best_n_filters": best.n_filters,
            "best_kernel": best.k_h,
            "best_n_blocks": best.n_blocks,
            "candidates": len(results),
            "out": args.out or "",
        }
    )


def cmd_predict(args) -> None:
    if args.grid:  # the grid file fixes the gridding
        for name in ("config", *GRIDDING):
            if getattr(args, name) is not None:
                raise ConfigError(f"predict --grid does not read --{name}")
        grid = load_grid(args.grid)
    else:
        s = _settings(args)
        grid = grid_for(_stream(args), s)
    model, _ = load_checkpoint(args.checkpoint)
    if model.kind == "thread":
        header = ["col", "o_hat", "t_next"]
        cols = [j for j in range(grid.spec.n_cols) if grid.arrival_rows[j] < grid.spec.n_rows]
        gaps = gap_estimates(model, assemble_features(grid, model.channels).data,
                             grid.arrival_rows, cols)
        rows = []
        for j, o_hat in zip(cols, gaps):
            t_prev = grid.spec.t0 + int(grid.arrival_rows[j]) * grid.spec.d
            rows.append((j, o_hat, arrival_time(t_prev, o_hat, grid.spec.d, "simulate")))
    else:
        header = ["col", "next_count"]
        # the roll the curve and the closed loop make, from the last h rows only
        pred = Lockstep.of([grid.counts], [grid.arrival_rows], model.window[0]).roll(model)[0]
        rows = [(j, float(pred[j])) for j in range(grid.spec.n_cols)]
    write_csv(args.out, header, rows)
    _say({"rows": len(rows), "kind": model.kind, "out": args.out})


def cmd_adaptive(args) -> None:
    s = _settings(args)
    thread_model = _model(args.thread_checkpoint, "thread")
    reply_model = _model(args.reply_checkpoint, "reply")
    stream = _stream(args)
    grid = grid_for(stream, s)
    state = ForecastState.from_grid(grid, thread_times=stream.thread_times.tolist())
    adaptive_forecast(state, thread_model, reply_model, s.n_threads, s.n_intervals)
    rows = [
        (k + 1, int(state.arrival_rows[grid.spec.n_cols + k]), t)
        for k, t in enumerate(state.simulated_thread_times)
    ]
    write_csv(args.out, ["step", "arrival_row", "time_seconds"], rows)
    if args.out_grid:
        save_grid(state.to_grid(), args.out_grid)
    _say(
        {
            "simulated_threads": len(rows),
            "rows_total": state.n_rows,
            "out": args.out,
            "out_grid": args.out_grid or "",
        }
    )


def cmd_breakout(args) -> None:
    s = _settings(args)
    durations = _durations(args, s)
    reply_model = _model(args.checkpoint, "reply")
    stream = _stream(args)
    grid = grid_for(stream, s)
    points = settings_breakout_curve(stream, grid, reply_model, durations, s)
    write_csv(
        args.out,
        ["start_duration_s", "correct_rate", "n"],
        [(p.start_duration, p.correct_rate, p.n) for p in points],
    )
    _say(
        {
            "points": len(points),
            "first_rate": points[0].correct_rate,
            "last_rate": points[-1].correct_rate,
            "out": args.out,
        }
    )


def cmd_evaluate(args) -> None:
    adaptive = args.task == "adaptive"
    needs = ("thread_checkpoint", "reply_checkpoint") if adaptive else ("checkpoint",)
    unread = (("checkpoint", "train_frac") if adaptive
              else ("thread_checkpoint", "reply_checkpoint", "n_threads", "n_start_points"))
    for name in needs + unread:
        if (name in needs) != (getattr(args, name) is not None):
            verb = "needs" if name in needs else "does not read"
            raise ConfigError(f"--task {args.task} {verb} --{name.replace('_', '-')}")
    s = _settings(args)
    stream = _stream(args)
    grid = grid_for(stream, s)
    tt = stream.thread_times
    digest = config_digest({"task": args.task, "seed": s.seed, "d": s.d})
    if adaptive:
        thread_model = _model(args.thread_checkpoint, "thread")
        reply_model = _model(args.reply_checkpoint, "reply")
        th, rp = evaluate_adaptive(
            thread_model, reply_model, grid, tt,
            n_threads=s.n_threads, n_start_points=s.n_start_points, seed=s.seed,
        )
        reports = th + rp
    else:
        model = _model(args.checkpoint, args.task)
        reports = [held_out_report(args.task, model, grid, tt, s.train_frac)]
    write_csv(
        args.out,
        ["task", "label", "unit", "n", "mae", "rmse", "stddev", "config_digest"],
        [
            (r.task.value, r.label, r.unit, r.n, r.mae, r.rmse, r.stddev, digest)
            for r in reports
        ],
    )
    _say({"reports": len(reports), "mae_first": reports[0].mae, "out": args.out})


def cmd_sweep_d(args) -> None:
    s = _settings(args)
    stream = _stream(args)
    result = sweep_interval_length(stream, parse_float_list(args.d_values), s)
    write_csv(
        args.out,
        ["d", "thread_mae_hours", "reply_mae_counts", "n_thread", "n_reply", "score"],
        [
            (r.d, r.thread_mae_hours, r.reply_mae_counts, r.n_thread, r.n_reply, sc)
            for r, sc in zip(result.rows, result.scores)
        ],
    )
    _say({"best_d": result.best_d, "candidates": len(result.rows), "out": args.out})


def cmd_experiment_synth_benchmark(args) -> None:
    rows = synth_benchmark(_settings(args, SYNTH_BENCHMARK_SETTINGS))
    write_csv(
        args.out,
        ["task", "predictor", "mae", "rmse", "n", "unit"],
        [(task, name, f"{r.mae:.6f}", f"{r.rmse:.6f}", r.n, r.unit) for task, name, r in rows],
    )
    mae = {(task, name): r.mae for task, name, r in rows}
    ratio = {t: mae[t, "model"] / mae[t, "historical-mean"] for t in ("reply", "thread")}
    _say({"reply_mae_ratio": ratio["reply"], "thread_mae_ratio": ratio["thread"],
          "rows": len(rows), "out": args.out})


def cmd_experiment_breakout(args) -> None:
    s = _settings(args, BREAKOUT_SETTINGS)
    curve, prefix = breakout_experiment(s, _durations(args, s))
    write_csv(
        args.out,
        ["start_duration_s", "model_rate", "prefix_rate", "n"],
        [
            (f"{pm.start_duration:.0f}", f"{pm.correct_rate:.4f}", f"{pp.correct_rate:.4f}", pm.n)
            for pm, pp in zip(curve, prefix)
        ],
    )
    _say({"points": len(curve), "first_rate": curve[0].correct_rate,
          "first_prefix_rate": prefix[0].correct_rate, "last_rate": curve[-1].correct_rate,
          "out": args.out})


def cmd_experiment_sweep(args) -> None:
    s = _settings(args, INTERVAL_SWEEP_SETTINGS)
    if args.seeds < 1:
        raise ConfigError(f"--seeds must be >= 1, got {args.seeds}")
    d_values = parse_float_list(args.d_values)
    seeds = range(s.seed, s.seed + args.seeds)
    results = interval_sweep(s, d_values, seeds)
    write_csv(
        args.out,
        ["seed", "d", "thread_mae_hours", "reply_mae_counts", "n_thread", "n_reply", "score"],
        [
            (seed, f"{r.d:.0f}", f"{r.thread_mae_hours:.6f}", f"{r.reply_mae_counts:.6f}",
             r.n_thread, r.n_reply, f"{score:.6f}")
            for seed, result in zip(seeds, results)
            for r, score in zip(result.rows, result.scores)
        ],
    )
    picks = [result.best_d for result in results]
    interior = sum(1 for p in picks if min(d_values) < p < max(d_values))
    _say({"interior": interior, "picks": picks, "out": args.out})


# ---------------------------------------------------------------------------
# parser assembly


def build_parser() -> _Parser:
    parser = _Parser(prog="gridcast", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    def sub(name, func, reads, parent=subs, **kwargs):
        """A subcommand with a flag for each RunSettings field in reads,
        and --config if it reads any."""
        p = parent.add_parser(name, **kwargs)
        if reads:
            p.add_argument("--config", default=None, help="JSON settings file")
        for f in dataclasses.fields(RunSettings):
            if f.name in reads:
                flag = "--" + f.name.replace("_", "-")
                p.add_argument(flag, dest=f.name, type=type(f.default), default=None)
        p.set_defaults(func=func)
        return p

    # the settings each command reads, by RunSettings' groups
    trains = GRIDDING + MODEL + TRAINING
    sweeps = MODEL + TRAINING + ("t0", "span_seconds")
    breakouts = ("context_cols", "horizon_intervals")

    p = sub("ingest", cmd_ingest, (), help="validate and canonicalise an event log")
    p.add_argument("--in", dest="inp", required=True)
    p.add_argument("--out", default=None)

    p = sub("synth", cmd_synth, GENERATOR, help="generate a synthetic event log")
    p.add_argument("--out", required=True)

    p = sub("grid", cmd_grid, GRIDDING, help="bucket an event log into a grid file")
    p.add_argument("--in", dest="inp", required=True)
    p.add_argument("--out", required=True)

    for task, model in (("thread", "thread-gap"), ("reply", "reply-count")):
        p = sub(f"train-{task}", cmd_train, trains, help=f"train the {model} model")
        p.add_argument("--in", dest="inp", required=True)
        p.add_argument("--out", required=True)
        p.set_defaults(task=task)

    searches = tuple(name for name in trains if name not in SEARCHED) + SEARCH
    p = sub("grid-search", cmd_grid_search, searches, help="hyperparameter sweep")
    p.add_argument("--in", dest="inp", required=True)
    p.add_argument("--task", choices=["thread", "reply"], required=True)
    p.add_argument("--out", default=None)

    p = sub("predict", cmd_predict, GRIDDING, help="write model predictions as CSV")
    p.add_argument("--checkpoint", required=True)
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--grid")
    source.add_argument("--in", dest="inp")
    p.add_argument("--out", required=True)

    p = sub("adaptive", cmd_adaptive, GRIDDING + ("n_threads", "n_intervals"),
            help="closed-loop cascade simulation")
    p.add_argument("--in", dest="inp", required=True)
    p.add_argument("--thread-checkpoint", required=True)
    p.add_argument("--reply-checkpoint", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--out-grid", default=None)

    p = sub("breakout", cmd_breakout, GRIDDING + breakouts, help="breakout classification curve")
    p.add_argument("--in", dest="inp", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--durations", default=None, help="comma list of seconds")
    p.add_argument("--out", required=True)

    p = sub("evaluate", cmd_evaluate,
            GRIDDING + ("train_frac", "seed", "n_threads", "n_start_points"),
            help="run an evaluation protocol")
    p.add_argument("--in", dest="inp", required=True)
    p.add_argument("--task", choices=["thread", "reply", "adaptive"], required=True)
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--thread-checkpoint", default=None)
    p.add_argument("--reply-checkpoint", default=None)
    p.add_argument("--out", required=True)

    p = sub("sweep-d", cmd_sweep_d, sweeps, help="interval-length sensitivity sweep")
    p.add_argument("--in", dest="inp", required=True)
    p.add_argument("--d-values", required=True, help="comma list of seconds")
    p.add_argument("--out", required=True)

    experiments = subs.add_parser(
        "experiment", help="run one of the paper's experiments from its recipe"
    ).add_subparsers(dest="experiment", required=True)

    p = sub("synth-benchmark", cmd_experiment_synth_benchmark, GENERATOR + trains, experiments,
            help="both models vs the historical-mean and persistence baselines")
    p.add_argument("--out", required=True)

    p = sub("breakout", cmd_experiment_breakout, GENERATOR + trains + breakouts, experiments,
            help="verdict rate vs observed prefix, model roll-out and prefix only")
    p.add_argument("--durations", default=None, help="comma list of seconds; default 1..10 x d")
    p.add_argument("--out", required=True)

    p = sub("sweep", cmd_experiment_sweep, GENERATOR + sweeps, experiments,
            help="forecast error vs interval length d, per seed")
    p.add_argument("--d-values", default=",".join(f"{d:g}" for d in SWEEP_D_VALUES),
                   help="comma list of seconds")
    p.add_argument("--seeds", type=int, default=3, help="number of seeds, from --seed on")
    p.add_argument("--out", required=True)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        args.func(args)
        return 0
    except ConfigError as exc:
        print(json.dumps({"error": "config", "message": str(exc)}), file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - the CLI boundary reports, not raises
        print(
            json.dumps({"error": type(exc).__name__, "message": str(exc)}),
            file=sys.stderr,
        )
        return 1


if __name__ == "__main__":
    sys.exit(main())
