"""Model wiring, training loop, hyperparameter search, gap-to-time."""
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from conftest import ORACLE_KERNELS, predict_plane, tiny_config, tiny_model, zero_weights

from gridcast import experiments, nn
from gridcast.config import RunSettings
from gridcast.grid import (
    CHANNEL_ORDER,
    Channel,
    Segments,
    TargetKind,
    assemble_features,
    build_grid,
    frontier_segments,
    rows_covering,
    slice_segments,
    time_split,
    window_at,
)
from gridcast.models import (
    ModelConfig,
    ReplyCountModel,
    ThreadArrivalModel,
    TrainConfig,
    TrainingDiverged,
    arrival_time,
    build_model,
    dataset_loss,
    gap_estimates,
    grid_search,
    train,
    training_segments,
)
from gridcast.synth import SynthParams, synth_generate
from gridcast.tcn import TCNStack, load_state, state_arrays

LN2 = float(np.log(2.0))


def make_segs(rng, cfg, targets, corner_weights=1.0) -> Segments:
    """One random window per target: thread gaps for a thread config, and
    for a reply config planes whose only supervised cell is the corner."""
    h, w = cfg.window
    n = len(targets)
    feats = rng.uniform(0, 3, size=(n, len(cfg.channels), h, w))
    anchors = np.tile([h - 1, w - 1], (n, 1))
    if cfg.kind == "thread":
        return Segments(feats, anchors, np.array(targets, dtype=float), None)
    target = np.zeros((n, h, w))
    weight = np.zeros((n, h, w))
    target[:, -1, -1] = targets
    weight[:, -1, -1] = corner_weights
    return Segments(feats, anchors, target, weight)


# ---------------------------------------------------------------------------
# configuration


def test_config_validation():
    with pytest.raises(ValueError):
        tiny_config("ticker")
    with pytest.raises(ValueError):
        tiny_config("reply", loss_mode="edges")
    with pytest.raises(ValueError):
        tiny_config("thread", window=(0, 4))
    with pytest.raises(ValueError):
        tiny_config("thread", n_blocks=0)


def test_config_json_roundtrip():
    cfg = ModelConfig(kind="reply", channels=(Channel.COUNTS, Channel.MASK),
                      window=(8, 6), n_filters=7, k_h=5, k_w=1, n_blocks=2,
                      loss_mode="full")
    assert ModelConfig.from_json_dict(cfg.to_json_dict()) == cfg


def test_build_model_dispatch_and_kind_guard():
    assert isinstance(build_model(tiny_config("thread")), ThreadArrivalModel)
    assert isinstance(build_model(tiny_config("reply")), ReplyCountModel)
    with pytest.raises(ValueError):
        ThreadArrivalModel(tiny_config("reply"), 0, np.float32)
    with pytest.raises(ValueError):
        ReplyCountModel(tiny_config("thread"), 0, np.float32)


# ---------------------------------------------------------------------------
# forward semantics


def test_zero_weight_thread_model_predicts_log_two():
    model = tiny_model("thread")
    zero_weights(model)
    rng = np.random.default_rng(0)
    feats = rng.uniform(0, 4, size=(3, 6, 4))
    assert abs(model.predict_gap(feats) - LN2) < 1e-6


def test_zero_weight_reply_model_predicts_log_two_everywhere():
    model = tiny_model("reply")
    zero_weights(model)
    rng = np.random.default_rng(1)
    grid = predict_plane(model, rng.uniform(0, 4, size=(3, 6, 4)))
    assert grid.shape == (6, 4)
    assert np.allclose(grid, LN2, atol=1e-6)
    assert len(np.unique(grid)) == 1  # literally the same value per cell


def test_predictions_are_non_negative():
    rng = np.random.default_rng(2)
    feats = rng.normal(size=(3, 6, 4))
    assert tiny_model("thread", seed=5).predict_gap(feats) >= 0.0
    assert (predict_plane(tiny_model("reply", seed=5), feats) >= 0.0).all()


def test_predict_next_row_is_last_grid_row():
    rng = np.random.default_rng(3)
    model = tiny_model("reply", seed=9)
    feats = rng.uniform(0, 2, size=(3, 6, 4))
    assert np.array_equal(model.predict_next_row(feats),
                          predict_plane(model, feats)[-1, :])


BENCH_REPLY = ModelConfig(kind="reply", window=(16, 12), n_filters=16, k_h=3, k_w=3, n_blocks=3)


@pytest.mark.parametrize("cfg", [tiny_config("reply"), BENCH_REPLY], ids=["tiny", "bench"])
def test_predict_next_rows_has_the_bits_of_the_full_forward(cfg):
    """The receptive-field cone against the whole-plane forward: float32
    bit for bit at widths 1 to 20, window heights at, under and far under
    the receptive field (15 rows for the bench ladder), and batches of
    one window and on both sides of 96 cells; the float64 clone within
    perfbench's clone tolerance, since float64 products round by their
    width."""
    rng = np.random.default_rng(21)
    model = build_model(cfg, seed=2)
    train(model, make_segs(rng, cfg, [2.0] * 8), TrainConfig(lr=1e-2, epochs=2, batch_size=4))
    assert all(b.norm.running.mean.any() for b in model.stack.blocks)  # the stats moved
    clone = model.astype(np.float64)
    for h in (cfg.window[0], 4, 1):
        for w in range(1, 21):
            step = max(1, 96 // (h * w))
            for n in sorted({1, step, step + 1}):
                x = rng.uniform(0, 3, size=(n, len(cfg.channels), h, w))
                rows = np.arange(n)
                want = model.forward(x.astype(np.float32), False, {})[:, -1, :]
                assert model.predict_next_rows(x, rows).tobytes() == want.tobytes(), (h, w, n)
                p64 = clone.predict_next_rows(x, rows)
                q64 = clone.forward(x, False, {})[:, -1, :]
                assert np.all(np.abs(p64 - q64) <= 1e-4 + 1e-3 * np.abs(q64))


def test_memoised_constants_follow_every_change_of_the_parameters():
    """The tap tables, PReLU slope checks and eval batch-norm constants are
    memoised by value, so none goes stale: after an in-place load_state, a
    negative slope, an Adam step and a train-mode forward, predict_next_rows
    has the bits of a freshly built model holding the same state, computed
    with every memo emptied."""
    cfg = tiny_config("reply", k_h=3, k_w=3, n_blocks=3)
    rng = np.random.default_rng(31)
    x = rng.uniform(0, 3, size=(5, len(cfg.channels), *cfg.window))
    rows = np.arange(5)
    model, donor = build_model(cfg, seed=1), build_model(cfg, seed=2)
    train(donor, make_segs(rng, cfg, [2.0] * 8), TrainConfig(lr=1e-2, epochs=1, batch_size=4))

    def fresh():
        for memo in (nn._tap_table, nn._unit_slopes, nn._eval_moments):
            memo.cache_clear()
        twin = build_model(cfg, seed=3)
        load_state(twin, state_arrays(model))
        return twin.predict_next_rows(x, rows)

    def changed(before):
        after = model.predict_next_rows(x, rows)
        assert after.tobytes() == fresh().tobytes()
        assert after.tobytes() != before.tobytes()  # the change reached the output
        return after

    p = model.predict_next_rows(x, rows)  # fills the memos
    load_state(model, state_arrays(donor))
    p = changed(p)
    model.stack.blocks[1].act1.slope.value[:] = -0.5  # off the branch-free gain
    p = changed(p)
    train(model, make_segs(rng, cfg, [1.0] * 4), TrainConfig(lr=1e-2, epochs=1, batch_size=4))
    p = changed(p)  # one Adam step, after one train-mode forward
    model.forward(x.astype(np.float32), True, {})  # moves only the running stats
    changed(p)


@pytest.mark.parametrize("kind", ["thread", "reply"])
def test_eval_calls_between_a_forward_and_its_backward_leave_the_gradients(kind):
    """The caller owns the tape: a same-size eval forward, a serving call
    (predict_gap, predict_next_rows) or a dataset_loss between a training
    forward and its backward leaves every parameter gradient bit-identical."""
    cfg = replace(RunSettings().model_config("reply"), kind=kind)
    rng = np.random.default_rng(5)
    segs = make_segs(rng, cfg, [2.0] * 6)
    x = segs.features[:4].astype(np.float32)

    def grads(between) -> list[bytes]:
        model = build_model(cfg, seed=2)
        tape: dict = {}
        pred = model.forward(x, True, tape)
        between(model)
        model.backward(tape, nn.mse_loss(pred, np.ones(pred.shape))[1])
        return [p.grad.tobytes() for p in model.params()]

    serve = ((lambda m: m.predict_gap(x[0])) if kind == "thread"
             else (lambda m: m.predict_next_rows(x, np.arange(4))))
    want = grads(lambda m: None)
    for between in (lambda m: m.forward(x, False, {}), serve, lambda m: dataset_loss(m, segs)):
        assert grads(between) == want


@pytest.mark.parametrize("cfg", [experiments.REPLY_MODEL, experiments.THREAD_MODEL],
                         ids=["reply", "thread"])
def test_an_eval_forward_leaves_nothing_behind(cfg):
    """Once a 256-window eval forward returns and its tape is dropped,
    under 0.1 MB is still allocated: nothing of it stays on the model."""
    model = build_model(cfg, seed=1)
    x = np.random.default_rng(3).uniform(0, 3, size=(256, len(cfg.channels), *cfg.window))
    x = x.astype(np.float32)
    model.forward(x, False, {})  # fills the memos of this geometry
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        model.forward(x, False, {})
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held < 100_000, f"{held / 1e6:.2f} MB held"


def test_a_reply_training_epoch_peaks_under_8_7_mb():
    """An epoch of models.train on the 16-filter, three-block reply model,
    two 32-window batches of 16 x 12 windows, peaks under 8.7 MB traced.
    The peak falls in a conv backward, on top of 6.2 MB of tapes; conv
    taps read slices of the input and the upstream, so no padded copy of
    either joins them (7.70 MB, against 9.70 MB with the two copies)."""
    cfg = experiments.REPLY_MODEL
    rng = np.random.default_rng(7)
    segs = make_segs(rng, cfg, rng.uniform(0.0, 4.0, 64))
    model = build_model(cfg, seed=1)
    train(model, segs, TrainConfig(epochs=1))  # fills the memos of this geometry
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        train(model, segs, TrainConfig(epochs=1))
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert cfg.window == (16, 12) and (cfg.n_filters, cfg.n_blocks) == (16, 3)
    assert peak < 8.7e6, f"{peak / 1e6:.2f} MB peak"


def test_a_serving_call_keeps_nothing_and_hands_each_block_only_its_rows(monkeypatch):
    """predict_next_rows writes no tape (the models hold parameters only, a
    rule in test_layering.py). Each block's conv is handed only the rows
    it reads, 15, 7 and 3 of the default 16-row window, and computes 7, 3
    and 1; the projection reads block 0's 7 rows, the head the whole plane.
    A one-column window's blocks compute ranges of 14, 10 and 2 rows."""
    cfg = RunSettings().model_config("reply")
    x = np.random.default_rng(5).uniform(0, 3, size=(4, len(cfg.channels), *cfg.window))
    model = build_model(cfg, seed=2)
    seen = []
    real = nn.conv2d_causal_dilated

    def recording(x, filters, bias, tau, *rows):
        seen.append((x.shape[2], len(rows)))
        return real(x, filters, bias, tau, *rows)

    monkeypatch.setattr(nn, "conv2d_causal_dilated", recording)
    model.predict_next_rows(x, np.arange(4))
    assert seen == [(15, 7), (7, 0), (7, 3), (3, 1), (16, 0)]
    # a one-column window serves its last two rows; block 2 reads 6 of them,
    # held by the evenly spaced hull of rows 6-15, which block 1 computes
    seen.clear()
    model.predict_next_rows(x[..., :1], np.arange(4))
    assert seen == [(16, 14), (14, 0), (14, 10), (10, 2), (16, 0)]


def test_reply_prediction_ignores_future_rows():
    model = tiny_model("reply", seed=4, n_blocks=2)
    rng = np.random.default_rng(4)
    feats = rng.uniform(0, 2, size=(3, 6, 4)).astype(np.float32)
    base = predict_plane(model, feats)
    feats2 = feats.copy()
    feats2[:, 4:, :] += 1.0  # rows below probe cell (3, 2)
    feats2[:, :, 3] += 2.0  # column right of it
    out = predict_plane(model, feats2)
    assert out[3, 2] == base[3, 2]


# ---------------------------------------------------------------------------
# training


def test_build_determinism_bit_exact():
    a = tiny_model("reply", seed=7)
    b = tiny_model("reply", seed=7)
    for pa, pb in zip(a.params(), b.params()):
        assert pa.value.tobytes() == pb.value.tobytes()
    c = tiny_model("reply", seed=8)
    assert any(pa.value.tobytes() != pc.value.tobytes()
               for pa, pc in zip(a.params(), c.params()))


@pytest.mark.parametrize("kind", ["thread", "reply"])
def test_astype_float64_clone_matches_and_leaves_the_original(kind):
    rng = np.random.default_rng(12)
    cfg = tiny_config(kind)
    segs = make_segs(rng, cfg, [2.0] * 8)
    model = build_model(cfg, seed=4)
    train(model, segs, TrainConfig(lr=1e-2, epochs=2, batch_size=4))  # moves the running stats
    params = [(p.name, p.value.copy()) for p in model.params()]
    buffers = [(name, b.copy()) for name, b in model.named_buffers()]
    clone = model.astype(np.float64)
    assert clone.config == model.config and clone.dtype == np.float64
    for (name, value), q in zip(params, clone.params()):
        assert q.name == name and q.value.dtype == np.float64
        assert np.array_equal(q.value, value.astype(np.float64))
    for (name, value), (q_name, q) in zip(buffers, clone.named_buffers()):
        assert q_name == name and np.array_equal(q, value)
    for feats in segs.features:
        if kind == "thread":
            p, q = model.predict_gap(feats), clone.predict_gap(feats)
        else:
            p, q = model.predict_next_row(feats), clone.predict_next_row(feats)
        # the tolerance perfbench's float64 check allows
        assert np.all(np.abs(np.float64(p) - q) <= 1e-4 + 1e-3 * np.abs(q))
    for (name, value), p in zip(params, model.params()):
        assert p.value.dtype == np.float32 and np.array_equal(p.value, value)
    for (name, value), (_, b) in zip(buffers, model.named_buffers()):
        assert b.dtype == value.dtype and np.array_equal(b, value)


@pytest.mark.parametrize("field", ["epochs", "batch_size"])
def test_train_config_rejects_non_positive(field):
    with pytest.raises(ValueError, match="must be >= 1"):
        TrainConfig(**{field: 0})


def test_training_determinism_bit_exact():
    rng = np.random.default_rng(5)
    cfg = tiny_config("thread")
    segs = make_segs(rng, cfg, [1.0, 2.0, 3.0, 4.0])
    tc = TrainConfig(epochs=3, batch_size=2, seed=11)
    runs = []
    for _ in range(2):
        model = build_model(cfg, seed=7)
        runs.append((train(model, segs, tc),
                     [p.value.tobytes() for p in model.params()]))
    assert runs[0][0] == runs[1][0]
    assert runs[0][1] == runs[1][1]


def test_zero_lr_zero_decay_leaves_weights_untouched():
    rng = np.random.default_rng(6)
    cfg = tiny_config("reply")
    segs = make_segs(rng, cfg, [2.0] * 4)
    model = build_model(cfg, seed=3)
    before = [p.value.copy() for p in model.params()]
    history = train(model, segs, TrainConfig(lr=0.0, weight_decay=0.0, epochs=2))
    assert len(history) == 2
    for p, b in zip(model.params(), before):
        assert np.array_equal(p.value, b)


def test_thread_training_reduces_loss():
    rng = np.random.default_rng(7)
    cfg = tiny_config("thread")
    segs = make_segs(rng, cfg, [3.0] * 32)
    model = build_model(cfg, seed=1)
    history = train(model, segs, TrainConfig(lr=1e-2, epochs=30, batch_size=8))
    assert history[-1] < 0.5 * history[0]


def test_reply_training_reduces_loss_both_loss_modes():
    rng = np.random.default_rng(8)
    for mode in ("corner", "full"):
        cfg = tiny_config("reply", loss_mode=mode)
        segs = make_segs(rng, cfg, [4.0] * 32)
        model = build_model(cfg, seed=2)
        history = train(model, segs, TrainConfig(lr=1e-2, epochs=30, batch_size=8))
        assert history[-1] < 0.5 * history[0], mode


def test_trained_beats_untrained_on_training_set():
    rng = np.random.default_rng(9)
    cfg = tiny_config("thread")
    segs = make_segs(rng, cfg, [5.0] * 16)
    frozen = build_model(cfg, seed=6)
    train(frozen, segs, TrainConfig(lr=0.0, weight_decay=0.0, epochs=5))
    tuned = build_model(cfg, seed=6)
    train(tuned, segs, TrainConfig(lr=1e-2, epochs=20, batch_size=8))
    assert dataset_loss(tuned, segs) < dataset_loss(frozen, segs)


def test_training_diverged_on_absurd_target():
    rng = np.random.default_rng(10)
    cfg = tiny_config("thread")
    segs = make_segs(rng, cfg, [1e200])
    with np.errstate(over="ignore"), pytest.raises(TrainingDiverged):
        train(build_model(cfg, seed=0), segs, TrainConfig(epochs=1, batch_size=1))


def test_training_diverged_on_non_finite_gradient(monkeypatch):
    rng = np.random.default_rng(12)
    cfg = tiny_config("thread")
    segs = make_segs(rng, cfg, [1.0] * 4)
    model = build_model(cfg, seed=0)
    before = [p.value.copy() for p in model.params()]
    last = model.params()[-1]
    backward = model.backward

    def poisoned_backward(tape, g):
        backward(tape, g)
        last.grad.flat[0] = np.nan

    monkeypatch.setattr(model, "backward", poisoned_backward)
    message = re.escape(f"gradient of {last.name} became non-finite at epoch 0")
    with pytest.raises(TrainingDiverged, match=message):
        train(model, segs, TrainConfig(epochs=1, batch_size=4))
    assert all(np.array_equal(p.value, b) for p, b in zip(model.params(), before))


def test_train_rejects_empty_or_mismatched_segments():
    rng = np.random.default_rng(11)
    tc = TrainConfig(epochs=1)
    gap_segs = make_segs(rng, tiny_config("thread"), [1.0])
    with pytest.raises(ValueError, match="no segments"):
        train(tiny_model("thread"), gap_segs[:0], tc)
    with pytest.raises(ValueError, match="NEXT_ROW"):
        train(tiny_model("reply"), gap_segs, tc)
    row_segs = make_segs(rng, tiny_config("reply"), [1.0])
    with pytest.raises(ValueError, match="THREAD_GAP"):
        train(tiny_model("thread"), row_segs, tc)


def test_train_rejects_fully_masked_supervision():
    rng = np.random.default_rng(12)
    tc = TrainConfig(epochs=1)
    masked = make_segs(rng, tiny_config("reply"), [1.0], corner_weights=0.0)
    with pytest.raises(ValueError, match="corner cell is masked"):
        train(tiny_model("reply"), masked, tc)
    with pytest.raises(ValueError, match="fully masked"):
        train(tiny_model("reply", loss_mode="full"), masked, tc)


def test_corner_mode_skips_masked_segments_but_keeps_live_ones():
    rng = np.random.default_rng(13)
    cfg = tiny_config("reply")
    segs = make_segs(rng, cfg, [2.0, 9.0], corner_weights=[1.0, 0.0])
    model = build_model(cfg, seed=0)
    zero_weights(model)
    # only the live segment contributes: (ln2 - 2)^2
    assert abs(dataset_loss(model, segs) - (LN2 - 2.0) ** 2) < 1e-5


def test_dataset_loss_corner_oracle():
    rng = np.random.default_rng(14)
    cfg = tiny_config("reply")
    targets = [0.0, 1.0, 2.0]
    segs = make_segs(rng, cfg, targets)
    model = build_model(cfg, seed=0)
    zero_weights(model)
    want = np.mean([(LN2 - t) ** 2 for t in targets])
    assert abs(dataset_loss(model, segs) - want) < 1e-5


def test_weight_decay_applies_only_to_reply_conv_filters():
    rng = np.random.default_rng(15)
    cfg = tiny_config("reply")
    segs = make_segs(rng, cfg, [2.0] * 4)
    model = build_model(cfg, seed=0)
    zero_weights(model)
    train(model, segs, TrainConfig(lr=0.0, weight_decay=0.5, epochs=1))
    # zero weights + zero grad + zero lr: decay alone cannot move anything
    assert all(not p.value.any() for p in model.params())

    thread = tiny_model("thread", seed=0)
    gap_segs = make_segs(rng, tiny_config("thread"), [2.0] * 4)
    before = [p.value.copy() for p in thread.params()]
    train(thread, gap_segs, TrainConfig(lr=0.0, weight_decay=0.5, epochs=1))
    for p, b in zip(thread.params(), before):  # decay disabled for thread kind
        assert np.array_equal(p.value, b)


@pytest.mark.parametrize(
    "kind, loss_mode", [("reply", "corner"), ("reply", "full"), ("thread", "corner")]
)
def test_float32_training_runs_conv_backward_in_float32(monkeypatch, kind, loss_mode):
    """Every conv backward of a float32 model's training epoch gets a
    float32 upstream: nothing between the loss and the convs widens it.
    Block 0's conv and projection compute no input gradient."""
    seen = []
    real = nn._conv_grads

    def recording(x, filters, tau, upstream, input_grad):
        seen.append((upstream.dtype, input_grad))
        return real(x, filters, tau, upstream, input_grad)

    monkeypatch.setattr(nn, "_conv_grads", recording)
    rng = np.random.default_rng(19)
    model = tiny_model(kind, n_blocks=2, loss_mode=loss_mode)
    segs = make_segs(rng, model.config, [2.0] * 8)
    train(model, segs, TrainConfig(epochs=1, batch_size=4))
    # per batch: two block convs and block 0's projection, plus the reply head
    assert len(seen) == 2 * (4 if kind == "reply" else 3)
    assert {dtype for dtype, _ in seen} == {np.dtype(np.float32)}
    assert sum(not input_grad for _, input_grad in seen) == 2 * 2


@pytest.mark.parametrize("kind", ["reply", "thread"])
def test_training_without_block_0s_input_gradient_is_bit_identical(monkeypatch, kind):
    """Skipping the input gradient that both models drop changes no loss,
    parameter, running statistic or last-batch gradient."""
    rng = np.random.default_rng(29)
    cfg = tiny_config(kind, k_h=3, k_w=3, n_blocks=3)
    segs = make_segs(rng, cfg, rng.uniform(0.0, 4.0, 12))
    skipping = TCNStack.backward
    runs = []
    for full in (False, True):
        with monkeypatch.context() as patch:
            if full:
                patch.setattr(TCNStack, "backward",
                              lambda self, tape, up, _: skipping(self, tape, up, True))
            model = build_model(cfg, seed=4)
            history = train(model, segs, TrainConfig(epochs=2, batch_size=4, seed=9))
        runs.append((history, [(name, a.tobytes()) for name, a in state_arrays(model)],
                     [p.grad.tobytes() for p in model.params()]))
    assert runs[0] == runs[1]


@pytest.mark.parametrize(
    "kind, loss_mode, channels",
    [
        ("reply", "corner", CHANNEL_ORDER),
        ("reply", "full", CHANNEL_ORDER),
        ("thread", "corner", CHANNEL_ORDER),
        ("thread", "corner", (Channel.COUNTS,)),  # a one-channel input
    ],
)
def test_training_is_bit_identical_with_the_oracle_kernels(monkeypatch, kind, loss_mode, channels):
    """Two seeded epochs with nn's kernels and with the np.where PReLU, the
    scatter-form conv backward pass and the two-pass batch-norm variance
    give the same losses, parameters, running statistics and last-batch
    gradients, bit for bit."""
    rng = np.random.default_rng(23)
    cfg = tiny_config(kind, k_h=3, k_w=3, n_blocks=3, loss_mode=loss_mode, channels=channels)
    segs = make_segs(rng, cfg, rng.uniform(0.0, 4.0, 12))
    runs = []
    for oracle in (False, True):
        with monkeypatch.context() as patch:
            if oracle:
                for name, kernel in ORACLE_KERNELS.items():
                    patch.setattr(nn, name, kernel)
            model = build_model(cfg, seed=4)
            history = train(model, segs, TrainConfig(epochs=2, batch_size=4, seed=9))
        runs.append((history, [(name, a.tobytes()) for name, a in state_arrays(model)],
                     [p.grad.tobytes() for p in model.params()]))
    assert runs[0] == runs[1]


# ---------------------------------------------------------------------------
# hyperparameter search


def test_search_configs_default_has_eighty_candidates():
    configs = RunSettings().search_configs("reply")
    triples = [(c.n_filters, c.k_h, c.n_blocks) for c in configs]
    assert len(triples) == 80
    assert triples[0] == (16, 3, 3)
    assert triples[-1] == (128, 9, 7)
    assert len(set(triples)) == 80
    assert all(c.k_w == c.k_h for c in configs)


def test_grid_search_singleton_space():
    rng = np.random.default_rng(16)
    cfg = tiny_config("thread")
    segs = make_segs(rng, cfg, [2.0] * 6)
    losses = grid_search([cfg], segs[:4], segs[4:], TrainConfig(epochs=2), seed=0)
    assert len(losses) == 1
    model = build_model(cfg, seed=np.random.default_rng([0, 0]))
    train(model, segs[:4], TrainConfig(epochs=2))
    assert losses[0] == dataset_loss(model, segs[4:])


def test_grid_search_rejects_an_empty_candidate_list():
    cfg = tiny_config("thread")
    segs = make_segs(np.random.default_rng(16), cfg, [2.0] * 2)
    with pytest.raises(ValueError, match="no candidates"):
        grid_search([], segs[:1], segs[1:], TrainConfig(epochs=1), seed=0)


@pytest.mark.parametrize("name", ["search_filters", "search_kernels", "search_blocks"],
                         ids=["n_filters", "kernel_sizes", "n_blocks"])
def test_grid_search_rejects_an_empty_space(name):
    """The search space is the product of the three search lists; an empty
    list is refused when the settings are built, before any candidate."""
    with pytest.raises(ValueError, match=f"{name}: expected comma-separated integers"):
        RunSettings(**{name: ""})


def test_grid_search_best_is_argmin_of_entries():
    """One finite loss per candidate, in candidate order: each is the loss of
    the candidate trained alone from seed [seed, its index]."""
    rng = np.random.default_rng(17)
    cfg = tiny_config("thread")
    segs = make_segs(rng, cfg, [float(i % 3) for i in range(8)])
    candidates = [replace(cfg, n_filters=f, n_blocks=b) for f in (2, 4) for b in (1, 2)]
    losses = grid_search(candidates, segs[:6], segs[6:], TrainConfig(epochs=2), seed=3)
    assert len(losses) == 4
    assert all(np.isfinite(losses))
    assert grid_search(candidates[2:3], segs[:6], segs[6:], TrainConfig(epochs=2), seed=3) != \
        losses[2:3]  # the seed follows the index
    best = int(np.argmin(losses))
    model = build_model(candidates[best], seed=np.random.default_rng([3, best]))
    train(model, segs[:6], TrainConfig(epochs=2))
    assert dataset_loss(model, segs[6:]) == min(losses)


def test_grid_search_preserves_base_fields():
    settings = RunSettings(loss_mode="full", window_h=6, window_w=4, search_filters="4",
                           search_kernels="3", search_blocks="1,2")
    configs = settings.search_configs("reply")
    assert [(c.n_filters, c.k_h, c.k_w, c.n_blocks) for c in configs] == [
        (4, 3, 3, 1), (4, 3, 3, 2)
    ]
    assert all(c.kind == "reply" and c.loss_mode == "full" and c.window == (6, 4)
               for c in configs)
    segs = make_segs(np.random.default_rng(18), configs[0], [1.0] * 4)
    assert len(grid_search(configs, segs[:3], segs[3:], TrainConfig(epochs=1), seed=0)) == 2


# ---------------------------------------------------------------------------
# the gap step and gap -> wall-clock


class RecordingGapModel:
    """A thread model's stand-in that records each window and column index
    it is handed and predicts the column index."""

    window = (6, 4)
    channels = CHANNEL_ORDER

    def __init__(self):
        self.calls = []

    def predict_gap(self, features, col_index):
        self.calls.append((features, col_index))
        return col_index


def test_gap_estimates_predict_each_anchor_window_alone():
    """The windows of columns 0 and 2 overhang the left edge and the top,
    and the last one neither: each is window_at's, zero-padded, predicted
    for the next column, and a model's gaps are its predict_gap's."""
    stream = synth_generate(SynthParams(
        lambda_thread=1 / 300.0, mu_reply=0.05, theta=300.0, horizon=9000.0,
        breakout_fraction=0.0, breakout_boost=1.0, seed=5,
    ))
    grid = build_grid(stream, 300.0, 0.0, rows_covering(stream, 300.0, 0.0))
    data = assemble_features(grid, CHANNEL_ORDER).data
    cols = [0, 2, grid.spec.n_cols - 2]
    assert int(grid.arrival_rows[2]) < 5 < int(grid.arrival_rows[cols[-1]])
    recorder = RecordingGapModel()
    assert gap_estimates(recorder, data, grid.arrival_rows, cols) == [1.0, 3.0, cols[-1] + 1.0]
    for (features, col_index), j in zip(recorder.calls, cols):
        assert col_index == j + 1
        assert np.array_equal(features, window_at(data, int(grid.arrival_rows[j]), j, 6, 4))
    assert not recorder.calls[0][0][:, :, :3].any()
    model = tiny_model("thread", seed=3)
    want = [model.predict_gap(window_at(data, int(grid.arrival_rows[j]), j, 6, 4), j + 1)
            for j in cols]
    assert gap_estimates(model, data, grid.arrival_rows, cols) == want


def test_arrival_time_simulate_quantises_to_lattice():
    assert arrival_time(1000.0, 2.4, 300.0, "simulate") == 1000.0 + 2 * 300.0
    assert arrival_time(1000.0, 2.5, 300.0, "simulate") == 1000.0 + 2 * 300.0  # half-even
    assert arrival_time(1000.0, 3.5, 300.0, "simulate") == 1000.0 + 4 * 300.0
    assert arrival_time(0.0, 0.4, 60.0, "simulate") == 0.0


def test_arrival_time_measure_keeps_fraction():
    assert arrival_time(1000.0, 2.4, 300.0, mode="measure") == 1000.0 + 720.0


def test_arrival_time_errors():
    with pytest.raises(ValueError):
        arrival_time(0.0, -0.1, 300.0, "simulate")
    with pytest.raises(ValueError):
        arrival_time(0.0, 1.0, 0.0, "simulate")
    with pytest.raises(ValueError):
        arrival_time(0.0, 1.0, 300.0, mode="banana")


@pytest.mark.parametrize("kind", ["thread", "reply"])
def test_training_segments_match_the_explicit_split(kind):
    stream = synth_generate(SynthParams(
        lambda_thread=1 / 300.0, mu_reply=0.05, theta=300.0, horizon=9000.0,
        breakout_fraction=0.0, breakout_boost=1.0, seed=5,
    ))
    grid = build_grid(stream, 300.0, 0.0, rows_covering(stream, 300.0, 0.0))
    cfg = tiny_config(kind, channels=(Channel.COUNTS, Channel.MASK))
    tensor = assemble_features(grid, cfg.channels)
    r_split, col_split = time_split(grid, 0.6)
    if kind == "thread":
        want = slice_segments(tensor, grid, 6, 4, TargetKind.THREAD_GAP,
                              col_range=(0, col_split))
    else:
        want = frontier_segments(tensor, grid, 6, 4, row_range=(0, r_split))
    got = training_segments(grid, cfg, 0.6)
    assert len(got) == len(want) > 0
    assert got.kind is want.kind
    assert got.features.shape[1:] == (2, 6, 4)
    for name in ("anchors", "features", "target", "target_weight"):
        g, w = getattr(got, name), getattr(want, name)
        assert (g is None and w is None) or np.array_equal(g, w), name
