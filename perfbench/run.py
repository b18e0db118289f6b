#!/usr/bin/env python3
"""gridcast benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload train --seed 1 --seconds 50 --trace 0

Run from the root of a gridcast checkout; the program is imported from
its src/ directory. With --trace 0 the run measures the end-to-end
metrics; with --trace 1 it wraps gridcast's public functions in spans
and reports per-layer metrics instead (see perfbench/README.md). The
last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Exit status: 0 when every operation and output check passed, 1 when one
failed, 2 when the program cannot be found or the arguments are bad.
"""
from __future__ import annotations

import argparse
import json
import math
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
import uuid
from pathlib import Path

import machine

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# The keys of workloads.WORKLOADS, listed here because importing that
# module loads numpy, which must wait until the BLAS pool is sized.
WORKLOAD_NAMES = ("train", "rollout_wide", "breakout")
# Set-up repeats: at least 3, more while they add up to under a second.
SETUP_REPEATS = (3, 15)
SETUP_MIN_S = 1.0
WORK_DIR = ROOT / ".perfbench_work"  # scratch files, removed at exit
SPANS_DIR = ROOT / ".perfbench_out"  # span files of traced runs, one per workload
# Units of the generic end-to-end metrics each workload fills in.
RESULT_UNITS = {"primary_per_s": "1/s"}

clock = time.perf_counter


def parse_args(argv):
    ap = argparse.ArgumentParser(description="gridcast benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="measure passes until this many seconds have elapsed")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def tail_percentile(n: int) -> int | None:
    """Highest whole percentile with at least ten samples beyond it."""
    if n < 20:
        return None
    return int(math.floor(100.0 * (1.0 - 10.0 / n)))


def percentile(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_passes(w, ctx, seconds: float, tally, span=None):
    """Repeat the workload's pass until `seconds` have elapsed (at least
    once). Returns the pass results, their wall times, and the peak RSS
    after the first pass: later passes only add allocator fragmentation,
    which would tie the peak to how many passes fit in the run."""
    results, walls, rss = [], [], 0.0
    t_start = clock()
    while True:
        t0 = clock()
        if span is None:
            results.append(w.run_pass(ctx, tally))
        else:
            with span("bench.pass"):
                results.append(w.run_pass(ctx, tally))
        walls.append(clock() - t0)
        rss = rss or peak_rss_mb()
        if clock() - t_start >= seconds:
            return results, walls, rss


def figure(rep, samples) -> tuple[float, int]:
    """(value, sample count) of one reported figure."""
    vals = samples[rep.samples]
    return percentile(vals, rep.percentile), len(vals)


def merge(results) -> dict[str, list[float]]:
    merged: dict[str, list[float]] = {}
    for r in results:
        for key, vals in r.samples.items():
            merged.setdefault(key, []).extend(vals)
    return merged


def measure(w, args, work: Path, tally, lines: list[str]) -> dict:
    setup_s = []
    least, most = SETUP_REPEATS
    while len(setup_s) < least or (sum(setup_s) < SETUP_MIN_S and len(setup_s) < most):
        t0 = clock()
        ctx = w.setup(args.seed, work, tally)
        setup_s.append(clock() - t0)
    results, walls, rss = run_passes(w, ctx, args.seconds, tally)
    w.final_checks(ctx, results[-1], tally)
    digests = {r.digest for r in results}
    samples = merge(results)

    metrics = {
        "setup_s": (statistics.median(setup_s), "s"),
        "peak_rss_mb": (rss, "MB"),
    }
    lines.append(f"setup_s                 {metrics['setup_s'][0]:.4f} s  "
                 f"(median of {len(setup_s)} set-ups)")
    lines.append(f"peak_rss_mb             {rss:.1f} MB  (set-up and first pass)")
    lines.append(f"ops_failed_ratio        {tally.failed} / {tally.attempted} failed / attempted")
    lines.append(f"passes                  {len(results)} in {sum(walls):.2f} s; "
                 f"{len(digests)} distinct output digest(s)")
    for generic, rep in w.end_to_end.items():
        value, n = figure(rep, samples)
        metrics[generic] = (value, RESULT_UNITS[generic])
        lines.append(f"{rep.name:<27} {value:.4f} {rep.unit}  (n={n})  [{generic}]")
    for rep in w.extra:
        value, n = figure(rep, samples)
        lines.append(f"{rep.name:<27} {value:.4f} {rep.unit}  (n={n})")
    for key in sorted({rep.samples for rep in (*w.end_to_end.values(), *w.extra)
                       if rep.unit == "ms"}):
        vals = samples[key]
        q = tail_percentile(len(vals))
        if q is not None:
            lines.append(f"{f'{key}.p{q}':<27} {percentile(vals, q):.4f} ms  "
                         f"(n={len(vals)}; highest percentile with >= 10 samples beyond)")
    return metrics


def trace(w, args, work: Path, tally, lines: list[str]) -> dict:
    import layers
    import tracing

    rec = tracing.Recorder(run_id=f"{args.workload}-{args.seed}-{uuid.uuid4().hex[:8]}")
    meters = layers.LayerMeters()
    tracer = tracing.Tracer(rec, meters=meters.table())
    before = tracing.snapshot()
    with tracer:
        with rec.span("bench.setup"):
            ctx = w.setup(args.seed, work, tally)
        traced, walls, _ = run_passes(w, ctx, args.seconds, tally, span=rec.span)
        with rec.span("bench.check"):
            w.final_checks(ctx, traced[-1], tally)
    changed = tracing.changed_attributes(before, tracing.snapshot())
    tally.check(not changed, f"tracing left attributes replaced: {changed[:5]}")

    t0 = clock()
    untraced = w.run_pass(ctx, tally)
    untraced_wall = clock() - t0
    tally.check(untraced.digest == traced[0].digest,
                "workload outputs differ between traced and untraced passes")
    overhead_pct = 100.0 * (statistics.median(walls) / untraced_wall - 1.0)

    summary = rec.summary()
    metrics = layers.per_layer_metrics(summary, rec.counters, meters, overhead_pct)
    spans_path = SPANS_DIR / f"spans-{args.workload}.jsonl.gz"
    rec.write_jsonl(str(spans_path))
    lines.append(f"traced passes           {len(traced)}; median wall "
                 f"{statistics.median(walls):.3f} s vs untraced {untraced_wall:.3f} s "
                 f"(overhead {overhead_pct:.1f} %)")
    lines.append(f"spans                   {len(rec)} written to "
                 f"{spans_path.relative_to(ROOT)}")
    lines.append("queue wait              none: the program is single-threaded apart from BLAS")
    lines.append("top self time:")
    for name, row in sorted(summary.items(), key=lambda kv: -kv[1]["self_s"])[:12]:
        lines.append(f"  {name:<43} {row['self_s']:.4f} s self in {row['calls']} calls")
    for name, (value, unit) in metrics.items():
        lines.append(f"{name:<45} {value:.6g} {unit}")
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "gridcast" / "__init__.py").is_file():
        print(f"perfbench: no gridcast sources under {src}", file=sys.stderr)
        return 2
    threads = machine.pin_blas_threads()
    sys.path.insert(0, str(src))
    import workloads as wl

    w = wl.WORKLOADS[args.workload]
    facts = machine.facts(args.seed, threads)
    lines = [f"perfbench workload={args.workload} seed={args.seed} "
             f"seconds={args.seconds:g} trace={args.trace}",
             "machine " + json.dumps(facts, sort_keys=True)]
    tally = wl.Tally()
    WORK_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_DIR))
    metrics: dict = {}
    try:
        metrics = (trace if args.trace else measure)(w, args, work, tally, lines)
    except Exception as exc:  # a crash is a failed operation, reported like any other
        traceback.print_exc(file=sys.stderr)
        tally.fail(f"{type(exc).__name__}: {exc}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass  # another run is using it
    for what in tally.failures:
        lines.append(f"FAILED: {what}")
    print("\n".join(lines))
    correct = tally.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": max(tally.attempted, 1),
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
