"""Per-layer metrics: counters taken at span boundaries, and the table
that turns a traced run's spans and counters into named metrics.

Every count here is computed from array shapes, file sizes and return
values, not read from hardware counters: flop counts assume the direct
convolution (2 flop per multiply-add), bytes are file sizes on disk.
"""
from __future__ import annotations

import os
import weakref

import numpy as np

from tracing import TRACED_LAYERS


def _arg(args, kwargs, pos: int, name: str, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _conv_flop(x: np.ndarray, filters: np.ndarray) -> float:
    n = x.shape[0] if x.ndim == 4 else 1
    h, w = x.shape[-2:]
    c_out, c_in, k_h, k_w = filters.shape
    return 2.0 * n * c_out * c_in * k_h * k_w * h * w


class LayerMeters:
    """Counters recorded by the tracer after each metered call.

    Also tracks which cells of each assembled feature tensor were read
    by window_at, to give assemble_features' useful ratio.
    """

    def __init__(self):
        self._tensors: dict[int, tuple[weakref.ref, int]] = {}  # id(data) -> (ref, index)
        self._shapes: list[tuple[int, int]] = []
        self._rects: list[list[tuple[int, int, int, int]]] = []

    def table(self) -> dict:
        return {
            "nn.conv2d_causal_dilated": self._conv_forward,
            "nn.conv2d_backward": self._conv_backward,
            "models.ReplyCountModel.predict_next_row": self._predict_next_row,
            "grid.assemble_features": self._assemble,
            "grid.window_at": self._window,
            "forecast.breakout_classify": self._classify,
            "dataio.parse_events_with_stats": self._parse,
            "dataio.save_grid": self._file_bytes(1, "path"),
            "dataio.load_grid": self._file_bytes(0, "path"),
            "checkpoint.save_checkpoint": self._file_bytes(1, "path"),
            "checkpoint.load_checkpoint": self._file_bytes(0, "path"),
        }

    @staticmethod
    def _conv_forward(rec, name, args, kwargs, out):
        x, filters = _arg(args, kwargs, 0, "x"), _arg(args, kwargs, 1, "filters")
        rec.count(name, "gflop", _conv_flop(x, filters) / 1e9)

    @staticmethod
    def _conv_backward(rec, name, args, kwargs, out):
        x, filters = _arg(args, kwargs, 0, "x"), _arg(args, kwargs, 1, "filters")
        upstream = _arg(args, kwargs, 3, "upstream")
        # filter gradient and input gradient each cost one forward's flop
        rec.count(name, "gflop", 2.0 * _conv_flop(x, filters) / 1e9)
        rec.count(name, "f64_calls", float(upstream.dtype == np.float64))

    @staticmethod
    def _predict_next_row(rec, name, args, kwargs, out):
        features = _arg(args, kwargs, 1, "features")
        h, w = features.shape[-2:]
        rec.count(name, "used_cells", w)
        rec.count(name, "computed_cells", h * w)

    @staticmethod
    def _classify(rec, name, args, kwargs, out):
        state = _arg(args, kwargs, 0, "state")
        rec.count(name, "used_cols", 1)
        rec.count(name, "computed_cols", state.n_cols)

    @staticmethod
    def _parse(rec, name, args, kwargs, out):
        _, stats = out
        rec.count(name, "events", stats.threads + stats.replies)

    @staticmethod
    def _file_bytes(pos: int, key: str):
        def meter(rec, name, args, kwargs, out):
            rec.count(name, "bytes", os.path.getsize(_arg(args, kwargs, pos, key)))
        return meter

    def _assemble(self, rec, name, args, kwargs, out):
        n_rows, n_cols = out.data.shape[-2:]
        rec.count(name, "cells", n_rows * n_cols)
        self._tensors[id(out.data)] = (weakref.ref(out.data), len(self._shapes))
        self._shapes.append((n_rows, n_cols))
        self._rects.append([])

    def _window(self, rec, name, args, kwargs, out):
        data = _arg(args, kwargs, 0, "data")
        entry = self._tensors.get(id(data))
        if entry is None or entry[0]() is not data:
            return  # not an assembled feature tensor
        row, col = _arg(args, kwargs, 1, "row"), _arg(args, kwargs, 2, "col")
        h, w = _arg(args, kwargs, 3, "h"), _arg(args, kwargs, 4, "w")
        self._rects[entry[1]].append((max(row - h + 1, 0), row + 1, max(col - w + 1, 0), col + 1))

    def assembled_cells_read(self) -> int:
        """Cells of assembled tensors that at least one window read."""
        total = 0
        for (n_rows, n_cols), rects in zip(self._shapes, self._rects):
            if len(rects) == 1:
                r0, r1, c0, c1 = rects[0]
                total += max(0, min(r1, n_rows) - r0) * max(0, min(c1, n_cols) - c0)
            elif rects:
                seen = np.zeros((n_rows, n_cols), dtype=bool)
                for r0, r1, c0, c1 in rects:
                    seen[r0:r1, c0:c1] = True
                total += int(seen.sum())
        return total


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# (metric, unit, better, span name, statistic). A statistic is a span
# summary field (calls, self_s, total_s) or a counter key.
PER_LAYER = [
    ("nn.conv2d_causal_dilated.self_s", "s", "lower", "nn.conv2d_causal_dilated", "self_s"),
    ("nn.conv2d_causal_dilated.calls", "count", "lower", "nn.conv2d_causal_dilated", "calls"),
    ("nn.conv2d_causal_dilated.gflop", "Gflop", "lower", "nn.conv2d_causal_dilated", "gflop"),
    ("nn.conv2d_causal_dilated.gflops", "Gflop/s", "higher", "nn.conv2d_causal_dilated", "gflops"),
    ("nn.conv2d_backward.self_s", "s", "lower", "nn.conv2d_backward", "self_s"),
    ("nn.conv2d_backward.calls", "count", "lower", "nn.conv2d_backward", "calls"),
    ("nn.conv2d_backward.gflop", "Gflop", "lower", "nn.conv2d_backward", "gflop"),
    ("nn.conv2d_backward.gflops", "Gflop/s", "higher", "nn.conv2d_backward", "gflops"),
    ("nn.conv2d_backward.f64_calls", "count", "lower", "nn.conv2d_backward", "f64_calls"),
    ("nn.batch_norm.self_s", "s", "lower", "nn.batch_norm", "self_s"),
    ("nn.batch_norm_backward.self_s", "s", "lower", "nn.batch_norm_backward", "self_s"),
    ("nn.prelu.self_s", "s", "lower", "nn.prelu", "self_s"),
    ("nn.prelu_backward.self_s", "s", "lower", "nn.prelu_backward", "self_s"),
    ("nn.dense.self_s", "s", "lower", "nn.dense", "self_s"),
    ("nn.mse_loss.self_s", "s", "lower", "nn.mse_loss", "self_s"),
    ("nn.adam_step.self_s", "s", "lower", "nn.adam_step", "self_s"),
    ("nn.adam_step.calls", "count", "lower", "nn.adam_step", "calls"),
    ("tcn.TCNStack.forward.self_s", "s", "lower", "tcn.TCNStack.forward", "self_s"),
    ("tcn.TCNStack.backward.self_s", "s", "lower", "tcn.TCNStack.backward", "self_s"),
    ("models.train.s", "s", "lower", "models.train", "total_s"),
    ("models.predict_next_row.calls", "count", "lower",
     "models.ReplyCountModel.predict_next_row", "calls"),
    ("models.predict_next_row.self_s", "s", "lower",
     "models.ReplyCountModel.predict_next_row", "self_s"),
    ("models.predict_next_row.useful_ratio", "ratio", "higher",
     "models.ReplyCountModel.predict_next_row", "useful_ratio"),
    ("models.predict_gap.calls", "count", "lower", "models.ThreadArrivalModel.predict_gap",
     "calls"),
    ("grid.assemble_features.calls", "count", "lower", "grid.assemble_features", "calls"),
    ("grid.assemble_features.self_s", "s", "lower", "grid.assemble_features", "self_s"),
    ("grid.assemble_features.cells", "count", "lower", "grid.assemble_features", "cells"),
    ("grid.assemble_features.useful_ratio", "ratio", "higher", "grid.assemble_features",
     "useful_ratio"),
    ("grid.window_at.self_s", "s", "lower", "grid.window_at", "self_s"),
    ("grid.frontier_segments.self_s", "s", "lower", "grid.frontier_segments", "self_s"),
    ("grid.build_grid.self_s", "s", "lower", "grid.build_grid", "self_s"),
    ("forecast.roll_reply_row.calls", "count", "lower", "forecast.roll_reply_row", "calls"),
    ("forecast.roll_reply_row.self_s", "s", "lower", "forecast.roll_reply_row", "self_s"),
    ("forecast.ForecastState.features.self_s", "s", "lower", "forecast.ForecastState.features",
     "self_s"),
    ("forecast.breakout_classify.calls", "count", "lower", "forecast.breakout_classify", "calls"),
    ("forecast.breakout_classify.self_s", "s", "lower", "forecast.breakout_classify", "self_s"),
    ("forecast.breakout_classify.useful_ratio", "ratio", "higher", "forecast.breakout_classify",
     "useful_ratio"),
    ("forecast.build_breakout_state.self_s", "s", "lower", "forecast.build_breakout_state",
     "self_s"),
    ("forecast.append_thread_column.self_s", "s", "lower", "forecast.append_thread_column",
     "self_s"),
    ("dataio.parse_events_with_stats.self_s", "s", "lower", "dataio.parse_events_with_stats",
     "self_s"),
    ("dataio.parse_events_with_stats.events", "count", "higher", "dataio.parse_events_with_stats",
     "events"),
    ("dataio.save_grid.self_s", "s", "lower", "dataio.save_grid", "self_s"),
    ("dataio.save_grid.bytes", "B", "lower", "dataio.save_grid", "bytes"),
    ("dataio.load_grid.self_s", "s", "lower", "dataio.load_grid", "self_s"),
    ("dataio.load_grid.bytes", "B", "lower", "dataio.load_grid", "bytes"),
    ("evaluate.evaluate_reply_counts.self_s", "s", "lower", "evaluate.evaluate_reply_counts",
     "self_s"),
    ("evaluate.evaluate_adaptive.self_s", "s", "lower", "evaluate.evaluate_adaptive", "self_s"),
    ("checkpoint.save_checkpoint.self_s", "s", "lower", "checkpoint.save_checkpoint", "self_s"),
    ("checkpoint.save_checkpoint.bytes", "B", "lower", "checkpoint.save_checkpoint", "bytes"),
    ("checkpoint.load_checkpoint.self_s", "s", "lower", "checkpoint.load_checkpoint", "self_s"),
    ("checkpoint.load_checkpoint.bytes", "B", "lower", "checkpoint.load_checkpoint", "bytes"),
]

TRACE_METRICS = [
    ("trace.overhead_pct", "%", "lower"),
    ("trace.spans", "count", "lower"),
]


def per_layer_metrics(summary: dict, counters: dict, meters: LayerMeters,
                      overhead_pct: float) -> dict[str, tuple[float, str]]:
    """Named per-layer metrics of one traced run, as {name: (value, unit)}."""

    def stat(span: str, key: str) -> float:
        row = summary.get(span, {})
        if key in ("calls", "self_s", "total_s"):
            return float(row.get(key, 0))
        if key == "gflops":
            return _ratio(counters.get((span, "gflop"), 0.0), row.get("self_s", 0.0))
        if key == "useful_ratio":
            if span == "grid.assemble_features":
                return _ratio(meters.assembled_cells_read(), counters.get((span, "cells"), 0.0))
            used, computed = {
                "models.ReplyCountModel.predict_next_row": ("used_cells", "computed_cells"),
                "forecast.breakout_classify": ("used_cols", "computed_cols"),
            }[span]
            return _ratio(counters.get((span, used), 0.0), counters.get((span, computed), 0.0))
        return float(counters.get((span, key), 0.0))

    out = {name: (stat(span, key), unit) for name, unit, _, span, key in PER_LAYER}
    for layer in TRACED_LAYERS:
        errors = sum(row["errors"] for span, row in summary.items()
                     if span.startswith(layer + "."))
        out[f"{layer}.errors"] = (float(errors), "count")
    out["trace.overhead_pct"] = (overhead_pct, "%")
    out["trace.spans"] = (float(sum(row["calls"] for row in summary.values())), "count")
    return out


def per_layer_declarations() -> list[dict]:
    """The per_layer entries of BENCHMARK.json, in report order."""
    rows = [{"name": n, "unit": u, "better": b} for n, u, b, _, _ in PER_LAYER]
    rows += [{"name": f"{layer}.errors", "unit": "count", "better": "lower"}
             for layer in TRACED_LAYERS]
    rows += [{"name": n, "unit": u, "better": b} for n, u, b in TRACE_METRICS]
    return rows
