"""Span bookkeeping, self-time arithmetic, and wrapping/restoring gridcast."""
import numpy as np
import pytest

import gridcast
# every traced module is imported, so a snapshot taken here sees them all
from gridcast import checkpoint, dataio, evaluate, forecast, grid, models, nn

import tracing


def fake_clock(times):
    it = iter(times)
    return lambda: next(it)


def test_self_time_on_a_synthetic_tree():
    # root [0, 10] holds a [1, 4] (which holds c [2, 3]) and b [5, 9]
    rec = tracing.Recorder("t", clock=fake_clock([0, 1, 2, 3, 4, 5, 9, 10]))
    with rec.span("root"):
        with rec.span("a"):
            with rec.span("c"):
                pass
        with rec.span("b"):
            pass
    assert rec.names == ["root", "a", "c", "b"]
    assert rec.parents == [-1, 0, 1, 0]
    s = rec.summary()
    assert s["root"]["self_s"] == 10 - (3 + 4)
    assert s["a"]["self_s"] == 3 - 1
    assert s["c"]["self_s"] == 1
    assert s["b"]["self_s"] == 4
    assert s["root"]["total_s"] == 10
    assert sum(row["self_s"] for row in s.values()) == s["root"]["total_s"]


def test_self_time_sums_over_calls_of_one_name():
    rec = tracing.Recorder("t", clock=fake_clock([0, 1, 2, 4, 6, 7, 8, 9]))
    with rec.span("outer"):
        for _ in range(3):
            with rec.span("inner"):
                pass
    s = rec.summary()
    assert s["inner"]["calls"] == 3
    assert s["inner"]["total_s"] == (2 - 1) + (6 - 4) + (8 - 7)
    assert s["outer"]["self_s"] == 9 - 4


def test_spans_must_close_in_order():
    rec = tracing.Recorder("t")
    a = rec.open("a")
    rec.open("b")
    with pytest.raises(RuntimeError):
        rec.close(a)


def test_exception_marks_span_and_unwinds():
    rec = tracing.Recorder("t")
    with pytest.raises(ValueError):
        with rec.span("outer"):
            raise ValueError("boom")
    assert rec.errors == [True]
    assert rec.summary()["outer"]["errors"] == 1
    rec.open("next")
    assert rec.parents[-1] == -1  # the stack was unwound


def test_every_binding_is_wrapped_and_restored():
    before = tracing.snapshot()
    rec = tracing.Recorder("t")
    with tracing.Tracer(rec):
        assert tracing.changed_attributes(before, tracing.snapshot())
        # imported by name elsewhere: one wrapper at every binding
        assert forecast.assemble_features is grid.assemble_features
        assert evaluate.assemble_features is grid.assemble_features
        assert gridcast.assemble_features is grid.assemble_features
        assert evaluate.window_at is grid.window_at
        assert models.adam_step is nn.adam_step
        assert grid.assemble_features.__wrapped__ is before[("gridcast.grid", "assemble_features")]
        assert "grid.interval_index" in tracing.UNTRACED
        assert grid.interval_index is before[("gridcast.grid", "interval_index")]
    assert tracing.changed_attributes(before, tracing.snapshot()) == []


def test_calls_through_other_bindings_and_layer_classes_are_seen():
    g = grid.build_grid(
        grid.EventStream.from_cascades([grid.ThreadCascade("a", 0.0, (10.0, 400.0)),
                                        grid.ThreadCascade("b", 350.0, (360.0,))]),
        300.0, 0.0, 3)
    state = forecast.ForecastState.from_grid(g)
    layer = nn.ConvLayer(np.random.default_rng(0), 3, 2, 2, 2)
    rec = tracing.Recorder("t")
    with tracing.Tracer(rec):
        state.features(grid.CHANNEL_ORDER)  # forecast's own binding of assemble_features
        layer.forward(np.ones((1, 3, 4, 4), dtype=np.float32))  # kernel called from a class
    by_name = {n: i for i, n in enumerate(rec.names)}
    feats, assemble = by_name["forecast.ForecastState.features"], by_name["grid.assemble_features"]
    assert rec.parents[assemble] == feats
    assert rec.parents[by_name["nn.conv2d_causal_dilated"]] == by_name["nn.ConvLayer.forward"]


def test_classmethods_keep_their_binding():
    rec = tracing.Recorder("t")
    g = grid.build_grid(grid.EventStream.from_cascades([grid.ThreadCascade("a", 0.0)]),
                        300.0, 0.0, 2)
    with tracing.Tracer(rec):
        state = forecast.ForecastState.from_grid(g)
    assert isinstance(state, forecast.ForecastState)
    assert "forecast.ForecastState.from_grid" in rec.names


def test_meter_counts_conv_flop_and_dtype():
    import layers

    meters = layers.LayerMeters()
    rec = tracing.Recorder("t")
    x = np.ones((2, 3, 5, 4), dtype=np.float32)
    f = np.ones((6, 3, 2, 2), dtype=np.float32)
    with tracing.Tracer(rec, meters=meters.table()):
        nn.conv2d_causal_dilated(x, f)
        nn.conv2d_backward(x, f, 1, np.ones((2, 6, 5, 4), dtype=np.float64))
    flop = 2 * 2 * 6 * 3 * 2 * 2 * 5 * 4
    assert rec.counters[("nn.conv2d_causal_dilated", "gflop")] == pytest.approx(flop / 1e9)
    assert rec.counters[("nn.conv2d_backward", "gflop")] == pytest.approx(2 * flop / 1e9)
    assert rec.counters[("nn.conv2d_backward", "f64_calls")] == 1


def test_assembled_cells_read_counts_the_union_of_windows():
    import layers

    meters = layers.LayerMeters()
    rec = tracing.Recorder("t")
    g = grid.build_grid(grid.EventStream.from_cascades(
        [grid.ThreadCascade(f"t{i}", 300.0 * i) for i in range(5)]), 300.0, 0.0, 6)
    with tracing.Tracer(rec, meters=meters.table()):
        data = grid.assemble_features(g).data
        grid.window_at(data, 2, 2, 2, 2)  # rows 1-2, cols 1-2
        grid.window_at(data, 2, 3, 2, 2)  # rows 1-2, cols 2-3: overlaps one column
        grid.window_at(np.zeros((3, 6, 5)), 5, 4, 6, 5)  # not an assembled tensor
    assert meters.assembled_cells_read() == 2 * 3
    assert rec.counters[("grid.assemble_features", "cells")] == 6 * 5
