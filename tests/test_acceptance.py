"""Acceptance gate: nine behavioural criteria, one test per criterion.

Every test is a self-contained protocol with fixed seeds and its own
oracle; `pytest -v tests/test_acceptance.py` emits one pass/fail line
per criterion. Where a criterion carries a wall-clock budget the test
asserts it. Criteria 5, 7 and 9 run the paper's experiments through
gridcast.experiments, the code and recipes `gridcast experiment` runs.
Numbered so the report reads in order.
"""
import struct
import time

import numpy as np
import pytest

from conftest import TrueGapStub, TrueRowStub, brute_force_counts, lattice_stream, predict_plane
from gridcast.checkpoint import (
    CheckpointError,
    load_checkpoint,
    save_checkpoint,
)
from gridcast.evaluate import evaluate_adaptive, evaluate_reply_counts
from gridcast.experiments import (
    BREAKOUT_SETTINGS,
    INTERVAL_SWEEP_SETTINGS,
    SWEEP_D_VALUES,
    SYNTH_BENCHMARK_SETTINGS,
    breakout_durations,
    breakout_experiment,
    interval_sweep,
    synth_benchmark,
    synth_corpus,
)
from gridcast.grid import (
    CHANNEL_ORDER,
    EventStream,
    ThreadCascade,
    assemble_features,
    build_grid,
    frontier_segments,
    rows_covering,
)
from gridcast.models import ModelConfig, TrainConfig, build_model, train
from gridcast.nn import (
    BatchNormLayer,
    ConvLayer,
    DenseLayer,
    Parameter,
    PReLULayer,
    adam_step,
    grad_check,
    mse_loss,
)
from gridcast.synth import SynthParams, synth_generate
from gridcast.tcn import TCNStack, causality_probe, receptive_field

HOUR = 3600.0


# ---------------------------------------------------------------------------
# 1. grid construction against an independent counting oracle


def test_criterion_1_grid_matches_counting_oracle():
    t_start = time.perf_counter()
    rng = np.random.default_rng(101)
    for _ in range(1000):
        d = float(rng.choice([7.5, 30.0, 60.0, 300.0, 600.0]))
        t0 = float(rng.choice([0.0, -25.0, 13.25]))
        n_casc = int(rng.integers(1, 7))
        cascades = []
        t = t0 + float(rng.uniform(0.0, 2.0 * d))
        for c in range(n_casc):
            n_rep = int(rng.integers(0, 9))
            replies = np.sort(t + rng.uniform(0.0, 30.0 * d, size=n_rep))
            cascades.append(
                ThreadCascade(f"c{c:02d}", t, tuple(float(x) for x in replies))
            )
            t += float(rng.uniform(d / 10.0, 5.0 * d))
        stream = EventStream(tuple(cascades))
        n_rows = int(rng.integers(4, 40))  # sometimes too short: events drop
        grid = build_grid(stream, d, t0, n_rows)
        want_counts, want_dropped = brute_force_counts(stream, d, t0, n_rows)
        assert np.array_equal(grid.counts, want_counts)
        assert grid.dropped_events == want_dropped
        grid.validate()
    elapsed = time.perf_counter() - t_start
    assert elapsed < 30.0
    print(
        f"criterion 1: 1000 randomized grids equal the double-loop oracle "
        f"exactly in {elapsed:.1f}s"
    )


# ---------------------------------------------------------------------------
# 2. causality and receptive field of the dilated stacks


def test_criterion_2_causality_and_receptive_field():
    t_start = time.perf_counter()
    rng = np.random.default_rng(202)
    n_perturbations = 0
    for k in (2, 3, 5):
        for blocks in (1, 2, 3):
            dilations = [2**level for level in range(blocks)]
            extent, area = receptive_field(k, dilations)
            size = extent + 3
            probe = (extent, extent)

            # arbitrary weights: nothing below/right of the probe matters
            stack = TCNStack(
                np.random.default_rng([202, k, blocks]), 3, 4, k, k, blocks,
                dtype=np.float64,
            )
            x = rng.normal(size=(1, 3, size, size))
            base = stack.forward(x, False, {})[0, :, probe[0], probe[1]].copy()
            for _ in range(200):
                if rng.random() < 0.5:
                    r = int(rng.integers(probe[0] + 1, size))
                    c = int(rng.integers(0, size))
                else:
                    r = int(rng.integers(0, size))
                    c = int(rng.integers(probe[1] + 1, size))
                bumped = x.copy()
                bumped[0, :, r, c] += rng.normal()
                out = stack.forward(bumped, False, {})[0, :, probe[0], probe[1]]
                assert np.array_equal(out, base)  # exactly zero change
                n_perturbations += 1

            # strictly positive filters: influence fills the causal box
            for p in stack.params():
                if p.value.ndim >= 2:
                    p.value[...] = np.abs(p.value) + 0.01
            influence = causality_probe(stack, probe, height=size, width=size)
            box = {
                (r, c)
                for r in range(probe[0] - extent + 1, probe[0] + 1)
                for c in range(probe[1] - extent + 1, probe[1] + 1)
            }
            assert influence == box
            assert len(influence) == area
            if (k, blocks) == (3, 1):
                assert (extent, area) == (3, 9)  # single level, k=3 base case
    elapsed = time.perf_counter() - t_start
    assert elapsed < 120.0
    print(
        f"criterion 2: {n_perturbations} future-cell perturbations changed "
        f"probed outputs by exactly 0; empirical receptive fields match "
        f"r_l = r_(l-1) + (k-1)*tau_l for k in (2,3,5) x blocks in (1,2,3) "
        f"in {elapsed:.1f}s"
    )


# ---------------------------------------------------------------------------
# 3. finite-difference gradient checks, every layer plus composed models


def test_criterion_3_gradient_checks():
    t_start = time.perf_counter()
    rng = np.random.default_rng(303)
    TOL = 1e-4
    worst: dict[str, float] = {}

    def weighted_sum_check(tag, layer, x, forward, backward):
        """forward(x) gives (out, what backward reads), backward(that, upstream)."""
        out, tape = forward(x)
        w = rng.normal(size=out.shape)
        for p in layer.params():
            p.zero_grad()
        backward(tape, w.astype(out.dtype))
        err = grad_check(lambda: float((forward(x)[0] * w).sum()), layer.params())
        worst[tag] = err
        assert err < TOL, f"{tag}: relative error {err:.2e}"

    conv = ConvLayer(rng, 2, 3, 2, 3, tau=2, dtype=np.float64, name="conv")
    x = rng.normal(size=(2, 2, 6, 5))
    weighted_sum_check("conv2d", conv, x, lambda a: (conv.forward(a), a),
                       lambda a, up: conv.backward(a, up, True))

    bn = BatchNormLayer(3, dtype=np.float64, name="norm")
    xb = rng.normal(size=(3, 3, 4, 4))
    weighted_sum_check("batch-norm train", bn, xb, lambda a: bn.forward(a, train=True),
                       bn.backward)
    bn_eval = BatchNormLayer(3, dtype=np.float64, name="norm")
    bn_eval.running.mean[...] = rng.normal(size=3)
    bn_eval.running.var[...] = rng.uniform(0.5, 2.0, size=3)
    weighted_sum_check(
        "batch-norm eval", bn_eval, xb, lambda a: bn_eval.forward(a, train=False),
        bn_eval.backward,
    )

    act = PReLULayer(3, dtype=np.float64, name="act")
    weighted_sum_check("prelu", act, xb, lambda a: (act.forward(a), a), act.backward)

    dense = DenseLayer(rng, 5, 4, dtype=np.float64, name="dense")
    xd = rng.normal(size=(6, 5))
    weighted_sum_check("dense", dense, xd, lambda a: (dense.forward(a), a), dense.backward)

    # composed models, trained-mode forward through stack + head
    for kind in ("thread", "reply"):
        cfg = ModelConfig(
            kind=kind, channels=CHANNEL_ORDER, window=(6, 4),
            n_filters=4, k_h=2, k_w=2, n_blocks=2,
        )
        model = build_model(cfg, seed=33, dtype=np.float64)
        xm = np.abs(rng.normal(size=(3, 3, 6, 4)))
        y = (
            rng.uniform(1.0, 3.0, size=3)
            if kind == "thread"
            else rng.uniform(0.0, 3.0, size=(3, 6, 4))
        )

        def loss_fn():
            return mse_loss(model.forward(xm, True, {}), y)[0]

        model.zero_grads()
        tape: dict = {}
        _, g = mse_loss(model.forward(xm, True, tape), y)
        model.backward(tape, g)
        err = grad_check(loss_fn, model.params())
        worst[f"{kind} model"] = err
        assert err < TOL, f"{kind} model: relative error {err:.2e}"

    elapsed = time.perf_counter() - t_start
    assert elapsed < 120.0
    digest = ", ".join(f"{k} {v:.1e}" for k, v in worst.items())
    print(f"criterion 3: central-difference checks in {elapsed:.1f}s — {digest}")


# ---------------------------------------------------------------------------
# 4. Adam against the textbook bias-corrected recurrence


def test_criterion_4_adam_matches_reference_recurrence():
    rng = np.random.default_rng(404)
    n = 12
    start = rng.normal(size=n)
    p = Parameter.of(start.copy(), name="w", decay=True)
    ref = start.copy()
    m = np.zeros(n)
    v = np.zeros(n)
    lr, b1, b2, eps, wd = 1e-3, 0.9, 0.999, 1e-8, 1e-2
    worst = 0.0
    for t in range(1, 1001):
        g = rng.normal(size=n)
        p.grad[...] = g
        adam_step(p, lr=lr, weight_decay=wd)
        gr = g + wd * ref  # additive L2 coupling
        m = b1 * m + (1.0 - b1) * gr
        v = b2 * v + (1.0 - b2) * gr * gr
        ref = ref - lr * (m / (1.0 - b1**t)) / (np.sqrt(v / (1.0 - b2**t)) + eps)
        worst = max(worst, float(np.max(np.abs(ref - p.value))))
    assert worst < 1e-9
    print(
        f"criterion 4: 1000 random steps with decay 1e-2 track the reference "
        f"recurrence within {worst:.1e}"
    )


# ---------------------------------------------------------------------------
# 5. end-to-end synthetic benchmark vs the historical-mean baseline


def test_criterion_5_synthetic_benchmark_beats_historical_mean():
    t_start = time.perf_counter()
    # 200 cascades in expectation
    stream = synth_corpus(SYNTH_BENCHMARK_SETTINGS)
    assert 120 <= len(stream) <= 280
    # both tasks; the thread net is small (small head-room, no decay applies)
    reports = {(task, name): rep for task, name, rep in synth_benchmark(SYNTH_BENCHMARK_SETTINGS)}
    reply_rep, reply_base = reports["reply", "model"], reports["reply", "historical-mean"]
    thread_rep, thread_base = reports["thread", "model"], reports["thread", "historical-mean"]

    elapsed = time.perf_counter() - t_start
    assert elapsed < 600.0
    print(
        f"criterion 5: reply mae {reply_rep.mae:.4f} vs baseline "
        f"{reply_base.mae:.4f} (ratio {reply_rep.mae / reply_base.mae:.2f}); "
        f"thread mae {thread_rep.mae:.4f}h vs baseline {thread_base.mae:.4f}h "
        f"(ratio {thread_rep.mae / thread_base.mae:.2f}); {elapsed:.0f}s"
    )
    assert reply_rep.mae <= 0.9 * reply_base.mae
    # Known-red sub-gate: the generator's thread arrivals are a homogeneous
    # Poisson process, so inter-arrival gaps are i.i.d. exponential and carry
    # no learnable signal. Oracle bounds measured on this protocol (seeds
    # 0-4): even perfect knowledge of the arrival offset inside its interval
    # plus the optimal constant gap lands only 2-9% below the mean-gap
    # baseline, never the required 10%.
    assert thread_rep.mae <= 0.9 * thread_base.mae, (
        f"thread task: model {thread_rep.mae:.4f}h vs baseline "
        f"{thread_base.mae:.4f}h — a 10% margin exceeds the information "
        f"ceiling of memoryless arrival gaps"
    )


# ---------------------------------------------------------------------------
# 6. adaptive error accumulation with stub models


def test_criterion_6_adaptive_error_accumulation():
    d = 300.0
    stream = lattice_stream([1] * 12, d=d, replies_per=2)
    grid = build_grid(stream, d, 0.0, 15)
    tt = stream.thread_times

    # +1-gap stub: the offset telescopes, step k is exactly k*d hours off
    th, _ = evaluate_adaptive(
        TrueGapStub(tt, d, offset=1.0), TrueRowStub(grid), grid, tt,
        n_threads=3, checkpoints=(2, 4), n_start_points=2, seed=1, n_intervals=1,
    )
    for k, rep in enumerate(th, start=1):
        assert rep.mae == k * d / HOUR
        assert rep.stddev == 0.0

    # perfect stubs: every adaptive error is exactly zero
    th0, rp0 = evaluate_adaptive(
        TrueGapStub(tt, d, offset=0.0), TrueRowStub(grid), grid, tt,
        n_threads=3, checkpoints=(2, 4), n_start_points=2, seed=1, n_intervals=1,
    )
    for rep in th0 + rp0:
        assert rep.mae == 0.0
        assert rep.rmse == 0.0
    print(
        "criterion 6: +1-gap stub gives step-k MAE exactly k*d/3600; "
        "perfect stubs give exactly 0 through every report"
    )


# ---------------------------------------------------------------------------
# 7. breakout classification-rate curve on a bimodal corpus


def test_criterion_7_breakout_protocol():
    t_start = time.perf_counter()
    curve, prefix = breakout_experiment(
        BREAKOUT_SETTINGS, breakout_durations(BREAKOUT_SETTINGS.d)
    )
    rates = [p.correct_rate for p in curve]
    prefix_1d = prefix[0].correct_rate

    for earlier, later in zip(rates, rates[1:]):
        assert later >= earlier - 0.05  # non-decreasing within the band
    assert rates[-1] >= 0.95  # full-information limit
    assert rates[0] > prefix_1d  # roll-out beats prefix-only at 1d, strictly
    elapsed = time.perf_counter() - t_start
    print(
        f"criterion 7: curve {' '.join(f'{r:.3f}' for r in rates)}; "
        f"prefix-only at 1d {prefix_1d:.3f}; {elapsed:.0f}s"
    )


# ---------------------------------------------------------------------------
# 8. determinism and checkpoint persistence


def test_criterion_8_determinism_and_persistence(tmp_path):
    params = SynthParams(
        lambda_thread=1.0 / 300.0, mu_reply=0.05, theta=120.0,
        horizon=9_000.0, breakout_fraction=0.0, breakout_boost=1.0, seed=11,
    )
    assert synth_generate(params) == synth_generate(params)  # identical datasets

    stream = synth_generate(params)
    d = 300.0
    grid = build_grid(stream, d, 0.0, rows_covering(stream, d, 0.0))
    tensor = assemble_features(grid, CHANNEL_ORDER)
    r_split = grid.spec.n_rows - 4
    segs = frontier_segments(tensor, grid, 6, 4, row_range=(0, r_split))
    cfg = ModelConfig(
        kind="reply", channels=CHANNEL_ORDER, window=(6, 4),
        n_filters=4, k_h=2, k_w=2, n_blocks=1,
    )
    tc = TrainConfig(lr=1e-3, weight_decay=1e-2, epochs=3, batch_size=16, seed=5)

    model_a = build_model(cfg, seed=5)
    model_b = build_model(cfg, seed=5)
    hist_a = train(model_a, segs, tc)
    hist_b = train(model_b, segs, tc)
    assert hist_a == hist_b  # bit-identical loss curves
    for pa, pb in zip(model_a.params(), model_b.params()):
        assert pa.value.tobytes() == pb.value.tobytes(), pa.name

    rep_a = evaluate_reply_counts(model_a, grid, 4, start_row=r_split)
    rep_b = evaluate_reply_counts(model_b, grid, 4, start_row=r_split)
    assert rep_a == rep_b  # identical reports

    # roundtrip preserves predictions bit-exactly
    path = tmp_path / "model.ckpt"
    save_checkpoint(model_a, path, {"note": "gate"})
    clone, meta = load_checkpoint(path)
    assert meta == {"note": "gate"}
    probe = np.abs(np.random.default_rng(7).normal(size=(3, 6, 9))).astype(np.float64)
    assert np.array_equal(predict_plane(model_a, probe), predict_plane(clone, probe))

    # corruption and version mismatch are rejected with diagnostics
    raw = bytearray(path.read_bytes())
    flipped = bytearray(raw)
    flipped[-1] ^= 0xFF
    bad_crc = tmp_path / "crc.ckpt"
    bad_crc.write_bytes(bytes(flipped))
    with pytest.raises(CheckpointError, match="CRC"):
        load_checkpoint(bad_crc)

    future = bytearray(raw)
    struct.pack_into("<I", future, 8, 99)
    bad_version = tmp_path / "version.ckpt"
    bad_version.write_bytes(bytes(future))
    with pytest.raises(CheckpointError, match="version"):
        load_checkpoint(bad_version)

    print(
        "criterion 8: same-seed runs bit-identical; checkpoint roundtrip "
        "bit-exact; CRC and version corruption rejected"
    )


# ---------------------------------------------------------------------------
# 9. interval-length sensitivity sweep picks an interior optimum


def test_criterion_9_interval_length_sweep_interior_optimum():
    t_start = time.perf_counter()
    d_values = SWEEP_D_VALUES
    picks = [r.best_d for r in interval_sweep(INTERVAL_SWEEP_SETTINGS, d_values, range(10))]
    interior = sum(1 for p in picks if p not in (d_values[0], d_values[-1]))
    elapsed = time.perf_counter() - t_start
    print(
        f"criterion 9: interior optimum in {interior}/10 seeds, picks "
        f"{[int(p) for p in picks]}; {elapsed:.0f}s"
    )
    assert interior >= 8
