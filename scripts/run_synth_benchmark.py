#!/usr/bin/env python3
"""Synthetic forecasting benchmark: trained models vs naive baselines.

Generates a synthetic event stream, trains the thread-gap and
reply-count models on the first 70% of grid rows, and reports held-out
MAE/RMSE against the historical-mean and persistence baselines for
both tasks. Defaults reproduce the benchmark run in the acceptance
suite; every knob is a flag.

    python3 scripts/run_synth_benchmark.py --out /tmp/bench.csv
"""
from __future__ import annotations

import argparse
import csv
import sys
import time

from gridcast.evaluate import (
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
from gridcast.grid import CHANNEL_ORDER, build_grid, gap_columns, rows_covering, time_split
from gridcast.models import ModelConfig, TrainConfig, build_model, train, training_segments
from gridcast.synth import SynthParams, synth_generate


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--lambda-thread", type=float, default=1.0 / 600.0)
    ap.add_argument("--mu-reply", type=float, default=0.05)
    ap.add_argument("--theta", type=float, default=300.0)
    ap.add_argument("--horizon", type=float, default=120_000.0)
    ap.add_argument("--d", type=float, default=300.0)
    ap.add_argument("--train-frac", type=float, default=0.7)
    ap.add_argument("--epochs", type=int, default=50)
    ap.add_argument("--thread-filters", type=int, default=8)
    ap.add_argument("--thread-blocks", type=int, default=1)
    ap.add_argument("--reply-filters", type=int, default=16)
    ap.add_argument("--reply-blocks", type=int, default=3)
    ap.add_argument("--window", type=int, nargs=2, default=(16, 12),
                    metavar=("H", "W"))
    ap.add_argument("--out", help="write the report table as CSV")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    t_start = time.perf_counter()

    params = SynthParams(
        lambda_thread=args.lambda_thread, mu_reply=args.mu_reply,
        theta=args.theta, horizon=args.horizon, seed=args.seed,
    )
    stream = synth_generate(params)
    grid = build_grid(stream, args.d, 0.0, rows_covering(stream, args.d, 0.0))
    print(f"stream: {len(stream)} cascades, grid {grid.spec.n_rows}x{grid.spec.n_cols}")

    r_split, col_split = time_split(grid, args.train_frac)
    tt = stream.thread_times
    h, w = args.window
    tc = TrainConfig(epochs=args.epochs, seed=args.seed)

    rows: list[tuple[str, str, EvalReport]] = []

    # reply task: one-step-ahead per-cell counts on the held-out rows
    reply_cfg = ModelConfig(kind="reply", channels=CHANNEL_ORDER, window=(h, w),
                            n_filters=args.reply_filters, n_blocks=args.reply_blocks)
    reply_model = build_model(reply_cfg, seed=args.seed)
    hist = train(reply_model, training_segments(grid, reply_cfg, args.train_frac), tc)
    print(f"reply model: loss {hist[0]:.4f} -> {hist[-1]:.4f}")
    n_test_rows = grid.spec.n_rows - r_split
    for name, m in [
        ("model", reply_model),
        ("historical-mean", MeanRowBaseline(train_mean_cell_count(grid, 0, r_split))),
        ("persistence", PersistenceRowBaseline()),
    ]:
        rows.append(("reply", name,
                     evaluate_reply_counts(m, grid, n_test_rows, start_row=r_split)))

    # thread task: next-arrival gap on the held-out columns
    thread_cfg = ModelConfig(kind="thread", channels=CHANNEL_ORDER, window=(h, w),
                             n_filters=args.thread_filters, n_blocks=args.thread_blocks)
    thread_model = build_model(thread_cfg, seed=args.seed)
    hist = train(thread_model, training_segments(grid, thread_cfg, args.train_frac), tc)
    print(f"thread model: loss {hist[0]:.4f} -> {hist[-1]:.4f}")
    test_idx = gap_columns(grid, col_split)
    for name, m in [
        ("model", thread_model),
        ("historical-mean",
         MeanGapBaseline(train_mean_gap_intervals(tt, col_split, args.d))),
        ("persistence", PersistenceGapBaseline(tt, args.d)),
    ]:
        rows.append(("thread", name,
                     evaluate_thread_arrival(m, grid, tt, test_idx)))

    print(f"\n{'task':<8}{'predictor':<18}{'mae':>10}{'rmse':>10}{'n':>6}  unit")
    for task, name, rep in rows:
        print(f"{task:<8}{name:<18}{rep.mae:>10.4f}{rep.rmse:>10.4f}"
              f"{rep.n:>6}  {rep.unit}")
    print(f"\ntotal {time.perf_counter() - t_start:.1f}s")

    if args.out:
        with open(args.out, "w", newline="") as fh:
            wr = csv.writer(fh)
            wr.writerow(["task", "predictor", "mae", "rmse", "n", "unit"])
            for task, name, rep in rows:
                wr.writerow([task, name, f"{rep.mae:.6f}", f"{rep.rmse:.6f}",
                             rep.n, rep.unit])
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
