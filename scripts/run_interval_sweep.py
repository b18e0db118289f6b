#!/usr/bin/env python3
"""Interval-length sensitivity: how forecast error moves with d.

For each candidate interval length the sweep rebuilds the grid,
retrains small models, and scores thread-arrival error (hours, on the
quantised lattice) plus reply roll-out error over a fixed wall-clock
span. Too-small d pays compounding roll-out error; too-large d pays
quantisation; the best d should land in the interior when the reply
decay time sits between the extremes. Repeats over seeds to show how
stable the pick is.

    python3 scripts/run_interval_sweep.py --seeds 3 --out /tmp/sweep.csv
"""
from __future__ import annotations

import argparse
import csv
import sys
import time
from dataclasses import replace

from gridcast.evaluate import SWEEP_SETTINGS, sweep_interval_length
from gridcast.synth import SynthParams, synth_generate


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--d-values", type=float, nargs="+",
                    default=[60.0, 150.0, 300.0, 600.0, 1200.0])
    ap.add_argument("--seeds", type=int, default=3, help="number of seeds, 0..n-1")
    ap.add_argument("--lambda-thread", type=float, default=1.0 / 600.0)
    ap.add_argument("--mu-reply", type=float, default=0.05)
    ap.add_argument("--theta", type=float, default=300.0)
    ap.add_argument("--horizon", type=float, default=30_000.0)
    ap.add_argument("--out", help="write per-seed per-d rows as CSV")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    t_start = time.perf_counter()
    all_rows = []
    picks = []
    for seed in range(args.seeds):
        params = SynthParams(
            lambda_thread=args.lambda_thread, mu_reply=args.mu_reply,
            theta=args.theta, horizon=args.horizon, seed=seed,
        )
        stream = synth_generate(params)
        result = sweep_interval_length(stream, args.d_values,
                                       replace(SWEEP_SETTINGS, seed=seed))
        picks.append(result.best_d)
        print(f"seed {seed}: {len(stream)} cascades, best d = {result.best_d:.0f}s")
        print(f"  {'d':>6}{'thread mae (h)':>16}{'reply mae':>11}{'score':>8}")
        for row, score in zip(result.rows, result.scores):
            marker = " <-- best" if row.d == result.best_d else ""
            print(f"  {row.d:>6.0f}{row.thread_mae_hours:>16.4f}"
                  f"{row.reply_mae_counts:>11.4f}{score:>8.3f}{marker}")
            all_rows.append((seed, row, score))

    lo, hi = min(args.d_values), max(args.d_values)
    interior = sum(1 for p in picks if p not in (lo, hi))
    print(f"\ninterior optimum in {interior}/{len(picks)} seeds; "
          f"picks {[int(p) for p in picks]}; "
          f"total {time.perf_counter() - t_start:.1f}s")

    if args.out:
        with open(args.out, "w", newline="") as fh:
            wr = csv.writer(fh)
            wr.writerow(["seed", "d", "thread_mae_hours", "reply_mae_counts",
                         "n_thread", "n_reply", "score"])
            for seed, row, score in all_rows:
                wr.writerow([seed, f"{row.d:.0f}", f"{row.thread_mae_hours:.6f}",
                             f"{row.reply_mae_counts:.6f}", row.n_thread,
                             row.n_reply, f"{score:.6f}"])
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
