"""Thread-gap and reply-count models over a shared TCN stack.

ThreadArrivalModel reads the stack's channel vector at the window's
bottom-right (anchor) cell and maps it through two dense layers with a
PReLU in between; a softplus keeps the predicted gap non-negative. The
prediction estimates the next thread's arrival offset in interval units.

ReplyCountModel keeps the stack fully convolutional and maps channels
to one plane with a 1x1 conv plus softplus. Output cell (i, j)
estimates the count one row below, counts[i+1, j], i.e. targets are
shifted up one row so a cell only ever predicts its own future.
Supervision is either the bottom-right corner cell only (default) or
every cell whose shifted target exists and is past arrival. Serving
(predict_next_rows) reads only a window's last output row, so the stack
computes just that row's receptive-field cone: on a 16-row window the
default three-block k = 3 ladder computes 7, 3 and 1 of the 16 rows in
its blocks, from 15, 7 and 3 input rows. In float32 the row keeps the
bits of the whole-plane forward. The models hold parameters only:
forward writes what backward reads into the tape its caller hands it,
the stack's blocks at their indices and the head at "head".

Training is plain minibatch MSE with Adam over one grid.Segments
batch: thread models read its gaps, corner-mode reply models the corner
cell of each target plane, full-mode reply models the weighted planes.
Fixed seeds give identical loss histories and parameter trajectories;
nothing here depends on wall-clock or iteration order ambiguity.
"""
from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .grid import (
    CHANNEL_ORDER,
    Channel,
    Grid,
    Segments,
    TargetKind,
    assemble_features,
    frontier_segments,
    slice_segments,
    time_split,
    window_at,
)
from .nn import (
    ConvLayer,
    DenseLayer,
    Parameter,
    PReLULayer,
    adam_step,
    mse_loss,
    sigmoid,
    softplus,
)
from .tcn import TCNStack, load_state, state_arrays


class TrainingDiverged(RuntimeError):
    pass


LOSS_MODES = ("corner", "full")
MODEL_KINDS = ("thread", "reply")


@dataclass(frozen=True)
class ModelConfig:
    kind: str
    window: tuple[int, int]
    n_filters: int
    k_h: int
    k_w: int
    n_blocks: int
    channels: tuple[Channel, ...] = CHANNEL_ORDER
    loss_mode: str = "corner"

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise ValueError(f"unknown model kind {self.kind!r}")
        if self.loss_mode not in LOSS_MODES:
            raise ValueError(f"unknown loss mode {self.loss_mode!r}, not one of {LOSS_MODES}")
        if min(self.window) < 1:
            raise ValueError(f"window must be >= 1 in both dims, got {self.window}")
        for name in ("n_filters", "k_h", "k_w", "n_blocks"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")

    def to_json_dict(self) -> dict:
        """Every field, with channels by name and the window as a list."""
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        return {**out, "window": list(self.window), "channels": [c.name for c in self.channels]}

    @classmethod
    def from_json_dict(cls, d: dict) -> "ModelConfig":
        """The inverse of to_json_dict; a missing field raises KeyError."""
        values = {f.name: d[f.name] for f in fields(cls)}
        return cls(**{**values, "window": tuple(values["window"]),
                      "channels": tuple(Channel[name] for name in values["channels"])})


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 1e-3
    weight_decay: float = 1e-2
    epochs: int = 50
    batch_size: int = 32
    seed: int = 0

    def __post_init__(self):
        for name in ("epochs", "batch_size"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")


class _ModelBase:
    def __init__(self, config: ModelConfig, kind: str, rng: np.random.Generator, dtype):
        """Check config.kind and build the shared stack; the head draws from rng next."""
        if config.kind != kind:
            raise ValueError(f"config.kind must be {kind!r}")
        self.config = config
        self.dtype = dtype
        self.stack = TCNStack(
            rng, len(config.channels), config.n_filters, config.k_h, config.k_w,
            config.n_blocks, dtype,
        )

    @property
    def kind(self) -> str:
        return self.config.kind

    @property
    def channels(self) -> tuple[Channel, ...]:
        return self.config.channels

    @property
    def window(self) -> tuple[int, int]:
        return self.config.window

    def params(self) -> list[Parameter]:
        raise NotImplementedError

    def zero_grads(self) -> None:
        for p in self.params():
            p.zero_grad()

    def named_buffers(self) -> list[tuple[str, np.ndarray]]:
        """Non-trainable state the model needs at eval time."""
        return self.stack.named_buffers()

    def astype(self, dtype):
        """Copy at another precision: the same config built fresh, then
        loaded with this model's parameters and running stats."""
        clone = build_model(self.config, dtype=dtype)
        load_state(clone, state_arrays(self))
        return clone


class ThreadArrivalModel(_ModelBase):
    """Predicts the row gap to the next thread from the anchor cell."""

    def __init__(self, config: ModelConfig, seed, dtype):
        rng = np.random.default_rng(seed)
        super().__init__(config, "thread", rng, dtype)
        f = config.n_filters
        self.fc1 = DenseLayer(rng, f, f, dtype=dtype, name="head.fc1")
        self.act = PReLULayer(f, dtype=dtype, name="head.act")
        self.fc2 = DenseLayer(rng, f, 1, dtype=dtype, name="head.fc2")

    def forward(self, x: np.ndarray, train: bool, tape: dict) -> np.ndarray:
        """x: (N, C, h, w) -> predicted gaps (N,), all >= 0."""
        u = self.stack.forward(x, train, tape)
        anchor = u[:, :, -1, -1]
        h1 = self.fc1.forward(anchor)
        a1 = self.act.forward(h1)
        z = self.fc2.forward(a1)[:, 0]
        tape["head"] = (u.shape, anchor, h1, a1, z)
        return softplus(z)

    def backward(self, tape: dict, grad_pred: np.ndarray) -> None:
        u_shape, anchor, h1, a1, z = tape["head"]
        gz = (grad_pred * sigmoid(z))[:, None]
        g_anchor = self.fc1.backward(anchor, self.act.backward(h1, self.fc2.backward(a1, gz)))
        gu = np.zeros(u_shape, dtype=g_anchor.dtype)
        gu[:, :, -1, -1] = g_anchor
        self.stack.backward(tape, gu, False)

    def params(self) -> list[Parameter]:
        return self.stack.params() + self.fc1.params() + self.act.params() + self.fc2.params()

    def predict_gap(self, features: np.ndarray, col_index: int | None = None) -> float:
        """Single-window eval-mode prediction; col_index is unused here
        (ground-truth stand-ins key off it)."""
        x = features.astype(self.dtype)[None]
        return float(self.forward(x, False, {})[0])


class ReplyCountModel(_ModelBase):
    """Per-cell next-row count estimates, fully convolutional."""

    def __init__(self, config: ModelConfig, seed, dtype):
        rng = np.random.default_rng(seed)
        super().__init__(config, "reply", rng, dtype)
        self.head = ConvLayer(rng, config.n_filters, 1, 1, 1, tau=1, dtype=dtype, name="head.conv")

    def forward(self, x: np.ndarray, train: bool, tape: dict) -> np.ndarray:
        """x: (N, C, h, w) -> (N, h, w); cell (i, j) estimates counts[i+1, j]."""
        u = self.stack.forward(x, train, tape)
        z = self.head.forward(u)[:, 0]
        tape["head"] = (u, z)
        return softplus(z)

    def backward(self, tape: dict, grad_pred: np.ndarray) -> None:
        u, z = tape["head"]
        gz = (grad_pred * sigmoid(z))[:, None]
        self.stack.backward(tape, self.head.backward(u, gz, True), False)

    def params(self) -> list[Parameter]:
        return self.stack.params() + self.head.params()

    def predict_next_rows(self, features: np.ndarray, row_indices: np.ndarray) -> np.ndarray:
        """Predicted counts for the row just below each of N windows
        (N, C, h, w): (N, w), the last row of one eval-mode forward,
        which writes no tape. The stack computes only that
        row's receptive-field cone (TCNStack.forward at one row), and the
        head runs over the whole plane, as in forward, because its
        one-filter products are matrix-vector ones that round by the
        plane's size. One-column windows serve their last two rows, so no
        product is one column wide where the full forward's are not
        (nn.conv2d_causal_dilated); on 16 rows the blocks compute ranges
        of 14, 10 and 2 rows, holding the cone's 14, 6 and 2. So in
        float32, with two or more filters, the result has the bits of
        forward(features, train=False)[:, -1, :]. row_indices is for
        ground-truth stand-ins."""
        _, _, h, w = features.shape
        rows = range(max(0, h - 2) if w == 1 else h - 1, h)
        u = self.stack.forward(features.astype(self.dtype), False, {}, *rows)
        return softplus(self.head.forward(u)[:, 0, -1])

    def predict_next_row(
        self, features: np.ndarray, row_index: int | None = None
    ) -> np.ndarray:
        """predict_next_rows for one window (C, h, w): one value per
        window column."""
        return self.predict_next_rows(features[None], np.array([row_index]))[0]


def build_model(config: ModelConfig, seed=0, dtype=np.float32):
    if config.kind == "thread":
        return ThreadArrivalModel(config, seed, dtype)
    return ReplyCountModel(config, seed, dtype)


def gap_estimates(model, features: np.ndarray, arrival_rows, cols) -> list[float]:
    """The gap step: for each column j in cols, the gap predicted from the
    window anchored at j's arrival row, for the column j + 1 it creates.
    features is a grid's (C, n_rows, n_cols) channel stack; each window is
    predicted alone (predict_gap)."""
    h, w = model.window
    return [float(model.predict_gap(window_at(features, int(arrival_rows[j]), j, h, w), j + 1))
            for j in cols]


# ---------------------------------------------------------------------------
# training


def training_segments(grid: Grid, config: ModelConfig, train_frac: float) -> Segments:
    """The training side of time_split(grid, train_frac), cut for config.

    A reply model gets next-row windows anchored in the rows before
    r_split; a thread model gets the gap windows of the col_split
    threads that arrive in them.
    """
    tensor = assemble_features(grid, config.channels)
    r_split, col_split = time_split(grid, train_frac)
    h, w = config.window
    if config.kind == "thread":
        return slice_segments(
            tensor, grid, h, w, TargetKind.THREAD_GAP, col_range=(0, col_split)
        )
    # windows track the arrived frontier so the supervised corner is
    # always a live cell; see frontier_segments
    return frontier_segments(tensor, grid, h, w, row_range=(0, r_split))


def _prepare(model, segments: Segments):
    """(rows, y, weight) for the segments the model's loss supervises: their
    indices into the batch, and the targets the loss reads. y is the gap of
    a thread segment, the corner cell of a reply target in corner mode and
    the whole plane in full mode; weight is None except in full mode."""
    if not len(segments):
        raise ValueError("no segments to train on")
    want = TargetKind.THREAD_GAP if model.kind == "thread" else TargetKind.NEXT_ROW
    if segments.kind is not want:
        raise ValueError(f"{model.kind} model wants {want.name} segments")
    if model.kind == "thread":
        return np.arange(len(segments)), segments.target, None
    corner = model.config.loss_mode == "corner"
    weight = segments.target_weight
    rows = np.flatnonzero(weight[:, -1, -1] > 0 if corner else weight.sum(axis=(1, 2)) > 0)
    if not len(rows):
        raise ValueError(
            "every segment's corner cell is masked" if corner else "every segment is fully masked"
        )
    if corner:
        return rows, segments.target[rows, -1, -1], None
    return rows, segments.target[rows], weight[rows]


def _batch_loss(model, segments: Segments, batch, sel: np.ndarray, train: bool, tape: dict):
    """Returns (loss, grad wrt raw model output, weight mass), the forward's
    tape in tape. Only the selected windows are cast to the model's dtype."""
    rows, y, weight = batch
    pred = model.forward(segments.features[rows[sel]].astype(model.dtype), train, tape)
    if weight is not None:
        w = weight[sel]
        loss, g = mse_loss(pred, y[sel], w)
        return loss, g, float(w.sum())
    if model.kind == "thread":
        loss, g = mse_loss(pred, y[sel])
        return loss, g, float(len(sel))
    loss, gc = mse_loss(pred[:, -1, -1], y[sel])
    g = np.zeros_like(pred)
    g[:, -1, -1] = gc
    return loss, g, float(len(sel))


def train(model, segments: Segments, cfg: TrainConfig) -> list[float]:
    """Minibatch Adam on MSE; returns per-epoch mean training loss.

    Weight decay applies only to the reply model's convolution filters
    (Parameter.decay flags them); everything about the run is a pure
    function of (initial weights, segments, cfg.seed).
    """
    batch = _prepare(model, segments)
    rng = np.random.default_rng(cfg.seed)
    decay = cfg.weight_decay if model.kind == "reply" else 0.0
    params = model.params()
    tape: dict = {}  # each forward replaces the last batch's entries as it goes
    history: list[float] = []
    n = len(batch[0])
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        num, mass = 0.0, 0.0
        for start in range(0, n, cfg.batch_size):
            sel = order[start : start + cfg.batch_size]
            model.zero_grads()
            loss, g, m = _batch_loss(model, segments, batch, sel, True, tape)
            if not np.isfinite(loss):
                raise TrainingDiverged(f"loss became {loss} at epoch {len(history)}")
            model.backward(tape, g)
            for p in params:
                if not np.isfinite(p.grad).all():
                    raise TrainingDiverged(
                        f"gradient of {p.name} became non-finite at epoch {len(history)}"
                    )
            for p in params:
                adam_step(p, lr=cfg.lr, weight_decay=decay if p.decay else 0.0)
            num += loss * m
            mass += m
        history.append(num / mass)
    return history


def dataset_loss(model, segments: Segments) -> float:
    """Eval-mode mean loss over a segment batch (same support as training),
    in batches of 256 windows."""
    batch = _prepare(model, segments)
    n = len(batch[0])
    num, mass, batch_size = 0.0, 0.0, 256
    for start in range(0, n, batch_size):
        sel = np.arange(start, min(start + batch_size, n))
        loss, _, m = _batch_loss(model, segments, batch, sel, False, {})
        num += loss * m
        mass += m
    return num / mass


# ---------------------------------------------------------------------------
# hyperparameter grid search


def grid_search(
    candidates: list[ModelConfig],
    train_segments: Segments,
    val_segments: Segments,
    train_cfg: TrainConfig,
    seed: int,
) -> list[float]:
    """The validation loss of each candidate, built from seed [seed, index]
    and trained with train_cfg. Candidates are independent, so the loop
    could run in parallel; no loss depends on the order they run in."""
    if not candidates:
        raise ValueError("no candidates to search")
    losses = []
    for idx, cfg in enumerate(candidates):
        model = build_model(cfg, seed=np.random.default_rng([seed, idx]))
        train(model, train_segments, train_cfg)
        losses.append(dataset_loss(model, val_segments))
    return losses


# ---------------------------------------------------------------------------
# gap -> wall-clock time


def arrival_time(t_prev: float, o_hat: float, d: float, mode: str) -> float:
    """Next thread time from a predicted gap in interval units.

    simulate: quantise the gap to whole intervals (round half to even)
    so the result lands on the grid lattice. measure: keep the real
    value for error measurement against true timestamps.
    """
    if o_hat < 0:
        raise ValueError(f"negative gap prediction {o_hat}")
    if d <= 0:
        raise ValueError(f"interval length must be positive, got {d}")
    if mode == "simulate":
        return t_prev + round(o_hat) * d
    if mode == "measure":
        return t_prev + o_hat * d
    raise ValueError(f"unknown arrival_time mode {mode!r}")
