"""The workloads end to end: traced runs of the real command.

Each traced run checks internally that tracing left no attribute
replaced and that an untraced pass reproduces the traced pass's output
digest; both are failed operations otherwise. These tests take about a
minute.
"""
import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent


def run_bench(*args, cwd=ROOT, timeout=300):
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=timeout)
    return proc


def declared():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module", params=["train", "rollout_wide", "breakout"])
def traced(request):
    proc = run_bench("--workload", request.param, "--seed", "7", "--seconds", "0",
                     "--trace", "1")
    return request.param, proc


def test_traced_run_is_correct_and_reproduces_untraced_outputs(traced):
    name, proc = traced
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert "FAILED" not in proc.stdout


def test_every_layer_metric_is_reported_and_every_layer_runs(traced):
    name, proc = traced
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    assert set(metrics) == {m["name"] for m in declared()["per_layer"]}
    for metric, entry in metrics.items():
        if metric.startswith("trace."):
            continue  # the tracer's own figures; the overhead can read negative
        if metric.endswith(".errors"):
            assert entry["value"] == 0, metric
            continue
        if metric.endswith(".f64_calls"):
            continue  # zero once the backward pass stays in float32
        # every layer runs in every workload (set-up, passes or the final
        # serving check), so a zero here is a binding the tracer missed
        assert entry["value"] > 0, f"{name}: {metric} is zero"


def test_untraced_result_carries_every_end_to_end_metric():
    proc = run_bench("--workload", "train", "--seed", "3", "--seconds", "0", "--trace", "0")
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == {m["name"] for m in declared()["end_to_end"]}
    for metric in declared()["end_to_end"]:
        entry = result["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"] and entry["value"] > 0
    machine = json.loads(next(l for l in lines if l.startswith("machine "))[len("machine "):])
    assert machine["seed"] == 3 and machine["nproc"] >= 1
    assert machine["blas_threads_requested"] >= 1


def test_refuses_to_run_without_the_program(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in BENCH.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_text(path.read_text())
    proc = subprocess.run([sys.executable, str(tmp_path / "perfbench" / "run.py"),
                           "--workload", "train", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_declared_per_layer_metrics_match_the_table():
    import layers

    assert declared()["per_layer"] == layers.per_layer_declarations()
