#!/usr/bin/env python3
"""Breakout identification curve on a bimodal synthetic corpus.

Generates a stream where a fraction of cascades get a reply-rate boost,
trains the reply-count model, then classifies every cascade as breakout
(final size strictly above twice the stream average) after observing
only its first k intervals, rolling the model over its own predictions
for the remaining horizon. Prints the correct-verdict rate per start
duration, next to a prefix-only classifier that never rolls forward.

    python3 scripts/run_breakout_experiment.py --out /tmp/breakout.csv
"""
from __future__ import annotations

import argparse
import csv
import sys
import time

from gridcast.forecast import breakout_curve, default_breakout_horizon
from gridcast.grid import CHANNEL_ORDER, build_grid, rows_covering
from gridcast.models import ModelConfig, TrainConfig, build_model, train, training_segments
from gridcast.synth import SynthParams, synth_generate


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--lambda-thread", type=float, default=1.0 / 600.0)
    ap.add_argument("--mu-reply", type=float, default=0.05)
    ap.add_argument("--theta", type=float, default=300.0)
    ap.add_argument("--horizon", type=float, default=120_000.0)
    ap.add_argument("--breakout-fraction", type=float, default=0.25)
    ap.add_argument("--breakout-boost", type=float, default=4.0)
    ap.add_argument("--d", type=float, default=300.0)
    ap.add_argument("--epochs", type=int, default=50)
    ap.add_argument("--max-duration-intervals", type=int, default=10)
    ap.add_argument("--horizon-intervals", type=int, default=None,
                    help="roll-out horizon; default: 95th pct lifetime")
    ap.add_argument("--out", help="write the curve as CSV")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    t_start = time.perf_counter()

    params = SynthParams(
        lambda_thread=args.lambda_thread, mu_reply=args.mu_reply,
        theta=args.theta, horizon=args.horizon, seed=args.seed,
        breakout_fraction=args.breakout_fraction,
        breakout_boost=args.breakout_boost,
    )
    stream = synth_generate(params)
    sizes = [c.size for c in stream.cascades]
    l_bar = sum(sizes) / len(sizes)
    n_break = sum(1 for s in sizes if s > 2 * l_bar)
    print(f"stream: {len(stream)} cascades, mean size {l_bar:.1f}, "
          f"{n_break} breakouts ({n_break / len(sizes):.0%})")

    grid = build_grid(stream, args.d, 0.0, rows_covering(stream, args.d, 0.0))
    cfg = ModelConfig(kind="reply", channels=CHANNEL_ORDER, window=(16, 12),
                      n_filters=16, n_blocks=3)
    model = build_model(cfg, seed=args.seed)
    hist = train(model, training_segments(grid, cfg, 0.7),
                 TrainConfig(epochs=args.epochs, seed=args.seed))
    print(f"reply model: loss {hist[0]:.4f} -> {hist[-1]:.4f}, "
          f"default horizon {default_breakout_horizon(stream, args.d)} intervals")

    durations = [k * args.d for k in range(1, args.max_duration_intervals + 1)]
    curve = breakout_curve(stream, grid, model, durations,
                           horizon_intervals=args.horizon_intervals)
    prefix = breakout_curve(stream, grid, None, durations,
                            horizon_intervals=args.horizon_intervals)

    print(f"\n{'observed':>10}{'model':>9}{'prefix-only':>13}{'n':>6}")
    for pm, pp in zip(curve, prefix):
        print(f"{pm.start_duration:>9.0f}s{pm.correct_rate:>9.3f}"
              f"{pp.correct_rate:>13.3f}{pm.n:>6}")
    print(f"\ntotal {time.perf_counter() - t_start:.1f}s")

    if args.out:
        with open(args.out, "w", newline="") as fh:
            wr = csv.writer(fh)
            wr.writerow(["start_duration_s", "model_rate", "prefix_rate", "n"])
            for pm, pp in zip(curve, prefix):
                wr.writerow([f"{pm.start_duration:.0f}",
                             f"{pm.correct_rate:.4f}",
                             f"{pp.correct_rate:.4f}", pm.n])
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
