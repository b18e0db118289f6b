"""Dense-loop numeric kernels with hand-derived gradients.

Everything the temporal-convolution models need lives here: a causal
dilated 2-D convolution, batch normalisation, PReLU, dense layers,
masked mean-squared error, softplus, Adam at Kingma & Ba's constants
(ADAM_BETA1, ADAM_BETA2, ADAM_EPS), and a central-difference gradient
checker. Arrays are plain numpy; a Parameter bundles a value with its
gradient accumulator and Adam moments. No autodiff graph, no transform
tricks: each backward pass is the derivative written out.

Convolutions anchor the receptive field at the output cell itself and
extend up/left only, via implicit top-left zero padding of (K-1)*tau.
Strict one-step-ahead causality is the caller's job (shifted targets).
A conv computes its whole plane or an evenly spaced range of its rows.

Arrays have one layout: the conv and batch-norm kernels take
(N, C, H, W) and dense takes (N, F), so the channel axis is always
axis 1 and a single window is a batch of one. Any other rank raises
ShapeError.

Every kernel computes at the dtype of its operands. Models hold
float32 parameters, and mse_loss returns its gradient at the
prediction's dtype, so a float32 model runs both the forward and the
backward pass in float32. Float64 stays where it is asked for: the
loss value, Adam's moments, running batch-norm statistics, float64
model clones, and grad_check, which wants float64 throughout.
Nothing here is thread-safe under concurrent mutation of the same
Parameter; keep one writer per model.

Layers hold parameters only: each has one forward, and its backward
takes what that forward read or returned (its input, or batch norm's
cache), so the caller keeps what backward needs. Work that depends
only on the layer is done once, not on every call: the conv's tap table
once per geometry (_tap_table), the PReLU slope check once per value of
the slopes (_unit_slopes), and eval batch norm's cast mean and inverse
deviation once per value of the running stats (_eval_moments). The
last two are keyed by the bytes of those values, so an in-place write
(load_state, an Adam step) or a train-mode forward never meets a stale
entry.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np


class ShapeError(ValueError):
    """Operand shapes do not line up."""


@dataclass
class Parameter:
    """Trainable array plus grad and Adam state."""

    value: np.ndarray
    grad: np.ndarray
    m: np.ndarray
    v: np.ndarray
    name: str
    decay: bool  # eligible for L2 weight decay
    step_count: int = 0

    @classmethod
    def of(cls, value: np.ndarray, name: str, decay: bool = False) -> "Parameter":
        value = np.asarray(value)
        return cls(
            value=value,
            grad=np.zeros_like(value),
            m=np.zeros_like(value, dtype=np.float64),
            v=np.zeros_like(value, dtype=np.float64),
            name=name,
            decay=decay,
        )

    def zero_grad(self) -> None:
        self.grad[...] = 0


def he_normal(rng: np.random.Generator, shape: tuple[int, ...], fan_in: int, dtype):
    """Zero-mean normal with variance 2/fan_in."""
    if fan_in < 1:
        raise ShapeError("fan_in must be >= 1")
    std = np.sqrt(2.0 / fan_in)
    return rng.normal(0.0, std, size=shape).astype(dtype)


# ---------------------------------------------------------------------------
# causal dilated 2-D convolution


def row_range(rows: tuple[int, ...]) -> range:
    """rows as a range: ascending, evenly spaced and none negative, else ShapeError."""
    out = range(rows[0], rows[-1] + 1, max(rows[1] - rows[0], 1) if len(rows) > 1 else 1)
    if rows[0] < 0 or tuple(out) != rows:
        raise ShapeError(f"output rows {rows} are not an evenly spaced range inside the input")
    return out


def rows_read(rows: range, k_h: int, tau: int) -> range:
    """The shortest range holding the rows r - a*tau that output rows r read
    through filter rows a, on which each tap's reads are evenly spaced: step
    gcd(rows.step, tau), or tau for one output row, rows.step for one filter
    row. Reads above the top row land in zero padding and are left out."""
    step = math.gcd(rows.step if len(rows) > 1 else 0, tau if k_h > 1 else 0) or 1
    low = min(r - a * tau for a in range(k_h) for r in rows if r >= a * tau)
    return range(low, rows[-1] + 1, step)


@functools.lru_cache(maxsize=256)
def _tap_table(k_h: int, k_w: int, tau: int, hgt: int, wid: int, rows: tuple[int, ...]):
    """The zero rows and columns padded on top and left of a conv's input
    and, per filter tap (a, b) in row-major order, the slice of the padded
    input it reads for the given output rows (row_range) or the whole
    plane, range(hgt). One table per geometry, built on first use."""
    out = row_range(rows) if rows else range(hgt)
    held = rows_read(out, k_h, tau) if rows else out
    if hgt != len(held):
        raise ShapeError(f"input holds {hgt} rows, but output rows {rows} read {len(held)}")
    top = (held.start - out.start + (k_h - 1) * tau) // held.step
    step, m, pw = out.step // held.step or 1, len(out), (k_w - 1) * tau
    taps = []
    for a in range(k_h):
        i = (k_h - 1 - a) * tau // held.step  # the padded row that tap a reads for out[0]
        taps += [((a, b), np.s_[:, :, i : i + m * step : step, pw - b * tau : pw - b * tau + wid])
                 for b in range(k_w)]
    return top, pw, tuple(taps)


def _taps(x: np.ndarray, filters: np.ndarray, tau: int, dtype, *rows: int):
    """Check a conv's operands; return x zero-padded at dtype (x itself for a
    1x1 conv over the whole plane, which needs no padding) and the tap
    table's slices of it (_tap_table)."""
    if tau < 1:
        raise ShapeError(f"dilation must be >= 1, got {tau}")
    if x.ndim != 4:
        raise ShapeError(f"expected (N, C, H, W) input, got shape {x.shape}")
    if filters.ndim != 4:
        raise ShapeError(f"filters must be 4-D, got shape {filters.shape}")
    n, c_in, hgt, wid = x.shape
    _, c_in_f, k_h, k_w = filters.shape
    if c_in_f != c_in:
        raise ShapeError(f"filter expects {c_in_f} input channels, input has {c_in}")
    top, pw, taps = _tap_table(k_h, k_w, tau, hgt, wid, rows)
    if not (top or pw):  # a 1x1 conv over the whole plane reads x as it is
        return x.astype(dtype, copy=False), taps
    xp = np.zeros((n, c_in, hgt + top, wid + pw), dtype=dtype)
    xp[:, :, top:, pw:] = x
    return xp, taps


def conv2d_causal_dilated(
    x: np.ndarray, filters: np.ndarray, bias: np.ndarray | None = None, tau: int = 1, *rows: int
) -> np.ndarray:
    """out[n,o,i,j] = b[o] + sum_{c,a,b} f[o,c,a,b] * x[n,c,i-a*tau,j-b*tau].

    Taps a, b run over [0, K-1]; indices off the top or left read zero,
    so the output keeps the input's spatial shape and cell (i, j) sees
    only cells at rows <= i and columns <= j. Given output rows, an
    ascending, evenly spaced range (row_range), only those are computed,
    from an x that holds just the range of input rows they read
    (rows_read): (N, c_out, len(rows), W). In float32 each such cell has
    the bits of the full output's cell while the per-tap products stay
    matrix-matrix: numpy sends a product with one filter, or one column
    wide (one row of a one-column input), down its matrix-vector path,
    which rounds by the product's width. Float64 products round by their
    width too, in the last bits. Each tap multiplies a contiguous copy of
    its filter slice.
    """
    dtype = np.result_type(x.dtype, filters.dtype)
    xp, taps = _taps(x, filters, tau, dtype, *rows)
    c_out = filters.shape[0]
    if bias is not None and bias.shape != (c_out,):
        raise ShapeError(f"bias shape {bias.shape} != ({c_out},)")
    n, c_in, hgt, wid = x.shape
    m = len(rows) or hgt
    per_tap = np.ascontiguousarray(filters.transpose(2, 3, 0, 1))
    # one (c_out, c_in) @ (c_in, m*w) GEMM per sample and tap
    out = np.zeros((n, c_out, m * wid), dtype=dtype)
    for (a, b), sl in taps:
        out += per_tap[a, b] @ xp[sl].reshape(n, c_in, m * wid)
    out = out.reshape(n, c_out, m, wid)
    if bias is not None:
        out += bias[None, :, None, None].astype(dtype)
    return out


def conv2d_backward(
    x: np.ndarray, filters: np.ndarray, tau: int, upstream: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients of the causal conv w.r.t. input, filters, and bias.

    d/df[o,c,a,b] = sum over cells of upstream[n,o,i,j] * x[n,c,i-a*tau,j-b*tau];
    d/dx[n,c,i,j] = sum over o, a, b of f[o,c,a,b] * upstream[n,o,i+a*tau,j+b*tau],
    gathered from the upstream zero-padded at the bottom-right, where the
    reads past the last row or column land.
    """
    return _conv_grads(x, filters, tau, upstream, True)


def _conv_grads(x: np.ndarray, filters: np.ndarray, tau: int, upstream: np.ndarray,
                input_grad: bool):
    """conv2d_backward, with None for the input gradient unless input_grad."""
    dtype = np.result_type(x.dtype, filters.dtype, upstream.dtype)
    xp, taps = _taps(x, filters, tau, dtype)
    n, c_in, hgt, wid = x.shape
    c_out = filters.shape[0]
    if upstream.shape != (n, c_out, hgt, wid):
        raise ShapeError(f"upstream shape {upstream.shape} != {(n, c_out, hgt, wid)}")
    # channel-major (C, N, H, W) layouts turn each tap into two 2-D GEMMs
    # over all n*h*w cells: (c_out, cells) @ (cells, c_in) for the filter
    # gradient and (c_in, c_out) @ (c_out, cells) for the input gradient;
    # a tap's index slices only the two spatial axes, so it applies as is
    u = upstream.transpose(1, 0, 2, 3).reshape(c_out, -1)
    xc = xp.transpose(1, 0, 2, 3)
    grad_f = np.empty(filters.shape, dtype=dtype)
    grad_x = None
    if input_grad:
        # the last tap reads the unshifted top-left corner, so storing the
        # upstream there pads it at the bottom-right, and the mirror tap
        # (K-1-a, K-1-b) reads it shifted up a*tau rows and left b*tau columns
        up = np.zeros((c_out,) + xc.shape[1:], dtype=dtype)
        up[taps[-1][1]] = upstream.transpose(1, 0, 2, 3)
        grad_xc = np.zeros((c_in, n * hgt * wid), dtype=dtype)
    for ((a, b), sl), (_, mirror) in zip(taps, reversed(taps)):
        grad_f[:, :, a, b] = u @ xc[sl].reshape(c_in, -1).T
        if input_grad:
            grad_xc += filters[:, :, a, b].T @ up[mirror].reshape(c_out, -1)
    if input_grad:
        grad_x = grad_xc.reshape(c_in, n, hgt, wid).transpose(1, 0, 2, 3)
    return grad_x, grad_f, upstream.sum(axis=(0, 2, 3))


# ---------------------------------------------------------------------------
# batch normalisation

BN_MOMENTUM = 0.9  # running = BN_MOMENTUM * running + (1 - BN_MOMENTUM) * batch
BN_EPS = 1e-5  # added to the variance before the square root


@dataclass
class RunningStats:
    """EMA of per-channel batch statistics, used at eval time."""

    mean: np.ndarray
    var: np.ndarray

    @classmethod
    def fresh(cls, channels: int) -> "RunningStats":
        return cls(
            mean=np.zeros(channels, dtype=np.float64),
            var=np.ones(channels, dtype=np.float64),
        )


def batch_norm(
    x: np.ndarray,
    gamma: np.ndarray,
    beta: np.ndarray,
    train: bool,
    running: RunningStats,
) -> tuple[np.ndarray, tuple]:
    """Per-channel normalisation over (batch, height, width).

    Training normalises by the batch moments and folds them into the
    running stats (new = BN_MOMENTUM * old + (1 - BN_MOMENTUM) * batch).
    Eval normalises by the running stats, making the op a fixed
    per-channel affine map, whose constants are computed once per value
    of the stats; it allocates two arrays of x's size, the normalised
    input and the output. Returns (out, cache) for the backward pass.
    """
    if x.ndim != 4:
        raise ShapeError(f"expected (N, C, H, W) input, got shape {x.shape}")
    if x.size == 0:
        raise ShapeError("batch_norm on an empty batch")
    c = x.shape[1]
    if gamma.shape != (c,) or beta.shape != (c,):
        raise ShapeError("gamma/beta must be per-channel vectors")
    axes = (0, 2, 3)
    if train:
        mu = x.mean(axis=axes)
        xhat = x - mu[None, :, None, None]
        var = (xhat * xhat).mean(axis=axes)  # what x.var computes, without its second mean
        running.mean = BN_MOMENTUM * running.mean + (1.0 - BN_MOMENTUM) * mu.astype(np.float64)
        running.var = BN_MOMENTUM * running.var + (1.0 - BN_MOMENTUM) * var.astype(np.float64)
        inv_std = 1.0 / np.sqrt(var + BN_EPS)
    else:
        mean, inv_std = _eval_moments(running.mean.tobytes(), running.var.tobytes(),
                                      running.mean.dtype.str, x.dtype.str)
        xhat = x - mean
    xhat *= inv_std[None, :, None, None]
    out = gamma[None, :, None, None] * xhat
    out += beta[None, :, None, None]
    return out, (xhat, inv_std, gamma, train)


@functools.lru_cache(maxsize=64)
def _eval_moments(mean: bytes, var: bytes, stats_dtype: str, dtype: str):
    """Eval batch norm's constants for running stats with these bytes, at
    dtype: the mean shaped (1, C, 1, 1) and 1 / sqrt(var + BN_EPS), both
    read-only."""
    mu = np.frombuffer(mean, dtype=stats_dtype).astype(dtype)[None, :, None, None]
    inv_std = 1.0 / np.sqrt(np.frombuffer(var, dtype=stats_dtype).astype(dtype) + BN_EPS)
    mu.flags.writeable = inv_std.flags.writeable = False
    return mu, inv_std


def batch_norm_backward(
    cache: tuple, upstream: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Backward through batch_norm.

    Training differentiates through the batch moments:
      dx = gamma * inv_std / M * (M * du - sum(du) - xhat * sum(du * xhat))
    with M the per-channel cell count. Eval treats the running moments
    as constants, so dx = du * gamma * inv_std.
    """
    xhat, inv_std, gamma, train = cache
    if upstream.shape != xhat.shape:
        raise ShapeError(f"upstream shape {upstream.shape} != {xhat.shape}")
    axes = (0, 2, 3)
    grad_beta = upstream.sum(axis=axes)
    grad_gamma = (upstream * xhat).sum(axis=axes)
    g = gamma[None, :, None, None] * inv_std[None, :, None, None]
    if train:
        m = upstream.shape[0] * upstream.shape[2] * upstream.shape[3]
        term = (
            m * upstream
            - grad_beta[None, :, None, None]
            - xhat * grad_gamma[None, :, None, None]
        )
        grad_x = g * term / m
    else:
        grad_x = g * upstream
    return grad_x, grad_gamma, grad_beta


# ---------------------------------------------------------------------------
# activations


def _channel_shape(x: np.ndarray, slope: np.ndarray) -> np.ndarray:
    """slope reshaped to broadcast along x's channel axis, axis 1."""
    return slope.reshape((1, -1) + (1,) * (x.ndim - 2))


def _prelu_gain(x: np.ndarray, slope: np.ndarray) -> np.ndarray:
    """d prelu / dx: 1 where x > 0, else the channel's slope.

    For slopes in [0, 1] with the sign bit clear that is max(x > 0, slope),
    which has no data-dependent branch; any other slope takes np.where.
    The slope check runs once per value of the slopes.
    """
    s = _channel_shape(x, slope)
    if _unit_slopes(slope.tobytes(), slope.dtype.str):
        return np.maximum(x > 0, s)
    return np.where(x > 0, 1, s)


@functools.lru_cache(maxsize=64)
def _unit_slopes(slope: bytes, dtype: str) -> bool:
    """Whether every slope with these bytes lies in [0, 1], sign bit clear."""
    s = np.frombuffer(slope, dtype=dtype)
    return not np.signbit(s).any() and bool((s <= 1).all())


def _times_gain(a: np.ndarray, x: np.ndarray, slope: np.ndarray) -> np.ndarray:
    """a times prelu's gain at x, written over the gain when the dtypes allow."""
    gain = _prelu_gain(x, slope)
    if gain.shape == a.shape and gain.dtype == a.dtype:
        return np.multiply(a, gain, out=gain)
    return a * gain


def prelu(x: np.ndarray, slope: np.ndarray) -> np.ndarray:
    """max(x, 0) + slope * min(x, 0), one slope per channel: x times its
    gain, which for any slope but NaN gives the bits of
    np.where(x > 0, x, slope * x), signed zeros included."""
    return _times_gain(x, x, slope)


def prelu_backward(
    x: np.ndarray, slope: np.ndarray, upstream: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    grad_x = _times_gain(upstream, x, slope)
    grad_slope = (upstream * np.minimum(x, 0)).sum(axis=(0, *range(2, x.ndim)))
    return grad_x, grad_slope


def softplus(x: np.ndarray) -> np.ndarray:
    """log(1 + exp(x)), overflow-safe."""
    return np.logaddexp(0.0, x)


def sigmoid(x: np.ndarray) -> np.ndarray:
    # exp(x - softplus(x)) stays bounded for both signs
    return np.exp(x - np.logaddexp(0.0, x))


# ---------------------------------------------------------------------------
# dense layer


def dense(x: np.ndarray, weight: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """y = x @ weight.T + bias for (N, in) inputs."""
    if x.ndim != 2:
        raise ShapeError(f"dense expects (N, F) input, got shape {x.shape}")
    if x.shape[1] != weight.shape[1]:
        raise ShapeError(f"input width {x.shape[1]} != weight fan-in {weight.shape[1]}")
    return x @ weight.T + bias


def dense_backward(
    x: np.ndarray, weight: np.ndarray, upstream: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    if x.ndim != 2 or upstream.ndim != 2:
        raise ShapeError(f"dense expects (N, F) input, got shapes {x.shape}, {upstream.shape}")
    return upstream @ weight, upstream.T @ x, upstream.sum(axis=0)


# ---------------------------------------------------------------------------
# loss


def mse_loss(
    pred: np.ndarray, target: np.ndarray, weight: np.ndarray | None = None
) -> tuple[float, np.ndarray]:
    """Mean squared error over unmasked entries; returns (loss, dL/dpred).

    With a weight array the mean runs over weight mass, so fully masked
    entries contribute nothing to either the loss or the gradient. Both
    are computed in float64; the loss is returned as a float and the
    gradient at pred's floating dtype (float64 for integer pred), so a
    float32 model's backward pass stays float32.
    """
    pred = np.asarray(pred)
    grad_dtype = pred.dtype if pred.dtype.kind == "f" else np.float64
    pred = pred.astype(np.float64, copy=False)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape:
        raise ShapeError(f"pred {pred.shape} vs target {target.shape}")
    diff = pred - target
    if weight is None:
        n = pred.size
        if n == 0:
            raise ShapeError("mse over zero elements")
        return float((diff**2).mean()), (2.0 * diff / n).astype(grad_dtype)
    weight = np.asarray(weight, dtype=np.float64)
    if weight.shape != pred.shape:
        raise ShapeError(f"weight {weight.shape} vs pred {pred.shape}")
    wsum = weight.sum()
    if wsum <= 0:
        raise ShapeError("all cells masked in weighted mse")
    loss = float((weight * diff**2).sum() / wsum)
    return loss, (2.0 * weight * diff / wsum).astype(grad_dtype)


# ---------------------------------------------------------------------------
# optimiser


ADAM_BETA1 = 0.9  # first-moment decay
ADAM_BETA2 = 0.999  # second-moment decay
ADAM_EPS = 1e-8  # added to sqrt(vhat) in the step's denominator


def adam_step(param: Parameter, lr: float, weight_decay: float) -> Parameter:
    """One Adam update with bias correction, in place, at ADAM_BETA1,
    ADAM_BETA2 and ADAM_EPS.

    Coupled L2 decay: the decay term joins the gradient before the
    moment updates (not the decoupled variant). The epsilon sits outside
    the square root: step = lr * mhat / (sqrt(vhat) + ADAM_EPS).
    """
    g = param.grad.astype(np.float64)
    if weight_decay:
        g = g + weight_decay * param.value.astype(np.float64)
    param.step_count += 1
    t = param.step_count
    param.m = ADAM_BETA1 * param.m + (1.0 - ADAM_BETA1) * g
    param.v = ADAM_BETA2 * param.v + (1.0 - ADAM_BETA2) * g * g
    mhat = param.m / (1.0 - ADAM_BETA1**t)
    vhat = param.v / (1.0 - ADAM_BETA2**t)
    step = lr * mhat / (np.sqrt(vhat) + ADAM_EPS)
    param.value -= step.astype(param.value.dtype)
    return param


# ---------------------------------------------------------------------------
# gradient checking


def grad_check(loss_fn, params: list[Parameter]) -> float:
    """Worst relative error between stored grads and central differences
    with step 1e-5.

    loss_fn() recomputes the scalar loss from the params' current
    values. Relative error uses a unit floor so near-zero gradients do
    not blow the ratio up: |a - n| / max(1, |a|, |n|). Call with
    float64 parameters; float32 noise sits right at the tolerance.
    """
    eps, worst = 1e-5, 0.0
    for p in params:
        flat_v = p.value.reshape(-1)
        flat_g = p.grad.reshape(-1)
        for idx in range(flat_v.size):
            orig = flat_v[idx]
            flat_v[idx] = orig + eps
            f_plus = loss_fn()
            flat_v[idx] = orig - eps
            f_minus = loss_fn()
            flat_v[idx] = orig
            numeric = (f_plus - f_minus) / (2.0 * eps)
            analytic = float(flat_g[idx])
            if not (np.isfinite(numeric) and np.isfinite(analytic)):
                raise FloatingPointError(f"non-finite gradient for {p.name}[{idx}]")
            err = abs(analytic - numeric) / max(1.0, abs(analytic), abs(numeric))
            worst = max(worst, err)
    return worst


# ---------------------------------------------------------------------------
# layer objects: the kernels above with their parameters


class ConvLayer:
    """Causal dilated conv with He-initialised filters."""

    def __init__(
        self,
        rng: np.random.Generator,
        c_in: int,
        c_out: int,
        k_h: int,
        k_w: int,
        tau: int = 1,
        dtype=np.float32,
        name: str = "conv",
    ):
        fan_in = c_in * k_h * k_w
        self.weight = Parameter.of(
            he_normal(rng, (c_out, c_in, k_h, k_w), fan_in, dtype),
            name=f"{name}.weight",
            decay=True,
        )
        self.bias = Parameter.of(
            np.zeros(c_out, dtype=dtype), name=f"{name}.bias"
        )
        self.tau = tau

    def forward(self, x: np.ndarray, *rows: int) -> np.ndarray:
        """The conv at the given output rows, from an x that holds just the
        rows they read, or over the whole plane when none are given."""
        return conv2d_causal_dilated(x, self.weight.value, self.bias.value, self.tau, *rows)

    def backward(self, x: np.ndarray, upstream: np.ndarray, input_grad: bool) -> np.ndarray | None:
        """The gradient at the whole-plane forward's input x, or None without
        input_grad, which spares computing it; the filter and bias
        gradients accumulate."""
        f = self.weight.value
        grad_x, grad_f, grad_b = (conv2d_backward(x, f, self.tau, upstream) if input_grad
                                  else _conv_grads(x, f, self.tau, upstream, False))
        self.weight.grad += grad_f.astype(self.weight.grad.dtype)
        self.bias.grad += grad_b.astype(self.bias.grad.dtype)
        return grad_x

    def params(self) -> list[Parameter]:
        return [self.weight, self.bias]


class BatchNormLayer:
    def __init__(self, channels: int, dtype, name: str):
        self.gamma = Parameter.of(np.ones(channels, dtype=dtype), name=f"{name}.gamma")
        self.beta = Parameter.of(np.zeros(channels, dtype=dtype), name=f"{name}.beta")
        self.running = RunningStats.fresh(channels)

    def forward(self, x: np.ndarray, train: bool) -> tuple[np.ndarray, tuple]:
        """(out, cache), as batch_norm returns them."""
        return batch_norm(x, self.gamma.value, self.beta.value, train, self.running)

    def backward(self, cache: tuple, upstream: np.ndarray) -> np.ndarray:
        grad_x, grad_gamma, grad_beta = batch_norm_backward(cache, upstream)
        self.gamma.grad += grad_gamma.astype(self.gamma.grad.dtype)
        self.beta.grad += grad_beta.astype(self.beta.grad.dtype)
        return grad_x

    def params(self) -> list[Parameter]:
        return [self.gamma, self.beta]


class PReLULayer:
    """Per-channel learnable slope, initialised to 0.25."""

    def __init__(self, channels: int, dtype, name: str):
        self.slope = Parameter.of(
            np.full(channels, 0.25, dtype=dtype), name=f"{name}.slope"
        )

    def forward(self, x: np.ndarray) -> np.ndarray:
        return prelu(x, self.slope.value)

    def backward(self, x: np.ndarray, upstream: np.ndarray) -> np.ndarray:
        grad_x, grad_s = prelu_backward(x, self.slope.value, upstream)
        self.slope.grad += grad_s.astype(self.slope.grad.dtype)
        return grad_x

    def params(self) -> list[Parameter]:
        return [self.slope]


class DenseLayer:
    def __init__(self, rng: np.random.Generator, n_in: int, n_out: int, dtype, name: str):
        self.weight = Parameter.of(
            he_normal(rng, (n_out, n_in), n_in, dtype), name=f"{name}.weight"
        )
        self.bias = Parameter.of(np.zeros(n_out, dtype=dtype), name=f"{name}.bias")

    def forward(self, x: np.ndarray) -> np.ndarray:
        return dense(x, self.weight.value, self.bias.value)

    def backward(self, x: np.ndarray, upstream: np.ndarray) -> np.ndarray:
        grad_x, grad_w, grad_b = dense_backward(x, self.weight.value, upstream)
        self.weight.grad += grad_w.astype(self.weight.grad.dtype)
        self.bias.grad += grad_b.astype(self.bias.grad.dtype)
        return grad_x

    def params(self) -> list[Parameter]:
        return [self.weight, self.bias]
