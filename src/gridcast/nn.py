"""Dense-loop numeric kernels with hand-derived gradients.

Everything the temporal-convolution models need lives here: a causal
dilated 2-D convolution, batch normalisation, PReLU, dense layers,
masked mean-squared error, softplus, Adam, and a central-difference
gradient checker. Arrays are plain numpy; a Parameter bundles a value
with its gradient accumulator and Adam moments. No autodiff graph, no
transform tricks: each backward pass is the derivative written out.

Convolutions anchor the receptive field at the output cell itself and
extend up/left only, via implicit top-left zero padding of (K-1)*tau.
Strict one-step-ahead causality is the caller's job (shifted targets).

Training runs in float32; gradient checks want float64 throughout.
Nothing here is thread-safe under concurrent mutation of the same
Parameter; keep one writer per model.
"""
from __future__ import annotations

from dataclasses import dataclass, field

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
    step_count: int = 0
    name: str = ""
    decay: bool = False  # eligible for L2 weight decay

    @classmethod
    def of(cls, value: np.ndarray, name: str = "", decay: bool = False) -> "Parameter":
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


def _as_batched(x: np.ndarray) -> tuple[np.ndarray, bool]:
    if x.ndim == 3:
        return x[None], True
    if x.ndim == 4:
        return x, False
    raise ShapeError(f"expected 3-D or 4-D input, got shape {x.shape}")


def conv2d_causal_dilated(
    x: np.ndarray, filters: np.ndarray, bias: np.ndarray | None = None, tau: int = 1
) -> np.ndarray:
    """out[n,o,i,j] = b[o] + sum_{c,a,b} f[o,c,a,b] * x[n,c,i-a*tau,j-b*tau].

    Taps a, b run over [0, K-1]; indices off the top or left read zero,
    so the output keeps the input's spatial shape and cell (i, j) sees
    only cells at rows <= i and columns <= j.
    """
    if tau < 1:
        raise ShapeError(f"dilation must be >= 1, got {tau}")
    xb, single = _as_batched(x)
    n, c_in, hgt, wid = xb.shape
    if filters.ndim != 4:
        raise ShapeError(f"filters must be 4-D, got shape {filters.shape}")
    c_out, c_in_f, k_h, k_w = filters.shape
    if c_in_f != c_in:
        raise ShapeError(f"filter expects {c_in_f} input channels, input has {c_in}")
    if bias is not None and bias.shape != (c_out,):
        raise ShapeError(f"bias shape {bias.shape} != ({c_out},)")

    dtype = np.result_type(xb.dtype, filters.dtype)
    ph, pw = (k_h - 1) * tau, (k_w - 1) * tau
    xp = np.zeros((n, c_in, hgt + ph, wid + pw), dtype=dtype)
    xp[:, :, ph:, pw:] = xb
    out = np.zeros((n, c_out, hgt, wid), dtype=dtype)
    for a in range(k_h):
        for b in range(k_w):
            sl = xp[:, :, ph - a * tau : ph - a * tau + hgt, pw - b * tau : pw - b * tau + wid]
            out += np.einsum("oc,nchw->nohw", filters[:, :, a, b], sl, optimize=True)
    if bias is not None:
        out += bias[None, :, None, None].astype(dtype)
    return out[0] if single else out


def conv2d_backward(
    x: np.ndarray, filters: np.ndarray, tau: int, upstream: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients of the causal conv w.r.t. input, filters, and bias.

    d/df[o,c,a,b] = sum over cells of upstream[n,o,i,j] * x[n,c,i-a*tau,j-b*tau];
    d/dx scatters each tap's contribution back up-left. Zero-padded reads
    contribute nothing, which the padded-buffer bookkeeping reproduces.
    """
    if tau < 1:
        raise ShapeError(f"dilation must be >= 1, got {tau}")
    xb, single = _as_batched(x)
    ub, _ = _as_batched(upstream)
    n, c_in, hgt, wid = xb.shape
    c_out, c_in_f, k_h, k_w = filters.shape
    if c_in_f != c_in:
        raise ShapeError("filters do not match input channels")
    if ub.shape != (n, c_out, hgt, wid):
        raise ShapeError(f"upstream shape {ub.shape} != {(n, c_out, hgt, wid)}")

    dtype = np.result_type(xb.dtype, filters.dtype, ub.dtype)
    ph, pw = (k_h - 1) * tau, (k_w - 1) * tau
    xp = np.zeros((n, c_in, hgt + ph, wid + pw), dtype=dtype)
    xp[:, :, ph:, pw:] = xb
    grad_f = np.zeros_like(filters, dtype=dtype)
    grad_xp = np.zeros_like(xp)
    for a in range(k_h):
        for b in range(k_w):
            rs, cs = ph - a * tau, pw - b * tau
            sl = xp[:, :, rs : rs + hgt, cs : cs + wid]
            grad_f[:, :, a, b] = np.einsum("nohw,nchw->oc", ub, sl, optimize=True)
            grad_xp[:, :, rs : rs + hgt, cs : cs + wid] += np.einsum(
                "oc,nohw->nchw", filters[:, :, a, b], ub, optimize=True
            )
    grad_x = grad_xp[:, :, ph:, pw:]
    grad_b = ub.sum(axis=(0, 2, 3))
    if single:
        grad_x = grad_x[0]
    return grad_x, grad_f, grad_b


# ---------------------------------------------------------------------------
# batch normalisation


@dataclass
class RunningStats:
    """EMA of per-channel batch statistics, used at eval time."""

    mean: np.ndarray
    var: np.ndarray
    momentum: float = 0.9

    @classmethod
    def fresh(cls, channels: int, momentum: float = 0.9) -> "RunningStats":
        return cls(
            mean=np.zeros(channels, dtype=np.float64),
            var=np.ones(channels, dtype=np.float64),
            momentum=momentum,
        )


def batch_norm(
    x: np.ndarray,
    gamma: np.ndarray,
    beta: np.ndarray,
    mode: str = "train",
    running: RunningStats | None = None,
    eps: float = 1e-5,
) -> tuple[np.ndarray, tuple]:
    """Per-channel normalisation over (batch, height, width).

    TRAIN normalises by the batch moments and folds them into the
    running stats (new = momentum * old + (1 - momentum) * batch).
    EVAL normalises by the running stats, making the op a fixed
    per-channel affine map. Returns (out, cache) for the backward pass.
    """
    xb, single = _as_batched(x)
    if xb.size == 0:
        raise ShapeError("batch_norm on an empty batch")
    c = xb.shape[1]
    if gamma.shape != (c,) or beta.shape != (c,):
        raise ShapeError("gamma/beta must be per-channel vectors")
    axes = (0, 2, 3)
    if mode == "train":
        mu = xb.mean(axis=axes)
        var = xb.var(axis=axes)
        if running is not None:
            mom = running.momentum
            running.mean = mom * running.mean + (1.0 - mom) * mu.astype(np.float64)
            running.var = mom * running.var + (1.0 - mom) * var.astype(np.float64)
    elif mode == "eval":
        if running is None:
            raise ShapeError("eval mode needs running stats")
        mu = running.mean.astype(xb.dtype)
        var = running.var.astype(xb.dtype)
    else:
        raise ShapeError(f"unknown batch_norm mode {mode!r}")
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = (xb - mu[None, :, None, None]) * inv_std[None, :, None, None]
    out = gamma[None, :, None, None] * xhat + beta[None, :, None, None]
    cache = (xhat, inv_std, gamma, mode, single)
    return (out[0] if single else out), cache


def batch_norm_backward(
    cache: tuple, upstream: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Backward through batch_norm.

    TRAIN mode differentiates through the batch moments:
      dx = gamma * inv_std / M * (M * du - sum(du) - xhat * sum(du * xhat))
    with M the per-channel cell count. EVAL mode treats the running
    moments as constants, so dx = du * gamma * inv_std.
    """
    xhat, inv_std, gamma, mode, single = cache
    ub, _ = _as_batched(upstream)
    axes = (0, 2, 3)
    grad_beta = ub.sum(axis=axes)
    grad_gamma = (ub * xhat).sum(axis=axes)
    g = gamma[None, :, None, None] * inv_std[None, :, None, None]
    if mode == "train":
        m = ub.shape[0] * ub.shape[2] * ub.shape[3]
        term = (
            m * ub
            - grad_beta[None, :, None, None]
            - xhat * grad_gamma[None, :, None, None]
        )
        grad_x = g * term / m
    else:
        grad_x = g * ub
    return (grad_x[0] if single else grad_x), grad_gamma, grad_beta


# ---------------------------------------------------------------------------
# activations


def _slope_shape(x: np.ndarray, slope: np.ndarray, axis: int) -> np.ndarray:
    shape = [1] * x.ndim
    shape[axis] = slope.shape[0]
    return slope.reshape(shape)


def prelu(x: np.ndarray, slope: np.ndarray, axis: int = -3) -> np.ndarray:
    """max(x, 0) + slope * min(x, 0), slope broadcast along `axis`."""
    s = _slope_shape(x, slope, axis)
    return np.where(x > 0, x, s * x)


def prelu_backward(
    x: np.ndarray, slope: np.ndarray, upstream: np.ndarray, axis: int = -3
) -> tuple[np.ndarray, np.ndarray]:
    s = _slope_shape(x, slope, axis)
    grad_x = np.where(x > 0, upstream, s * upstream)
    neg = np.where(x > 0, 0.0, x)
    sum_axes = tuple(i for i in range(x.ndim) if i != (axis % x.ndim))
    grad_slope = (upstream * neg).sum(axis=sum_axes)
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
    """y = x @ weight.T + bias for (N, in) or bare (in,) inputs."""
    if x.ndim == 1:
        x = x[None]
        return (x @ weight.T + bias)[0]
    if x.ndim != 2:
        raise ShapeError(f"dense expects 1-D or 2-D input, got {x.shape}")
    if x.shape[1] != weight.shape[1]:
        raise ShapeError(f"input width {x.shape[1]} != weight fan-in {weight.shape[1]}")
    return x @ weight.T + bias


def dense_backward(
    x: np.ndarray, weight: np.ndarray, upstream: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    xb = x[None] if x.ndim == 1 else x
    ub = upstream[None] if upstream.ndim == 1 else upstream
    grad_w = ub.T @ xb
    grad_b = ub.sum(axis=0)
    grad_x = ub @ weight
    return (grad_x[0] if x.ndim == 1 else grad_x), grad_w, grad_b


# ---------------------------------------------------------------------------
# loss


def mse_loss(
    pred: np.ndarray, target: np.ndarray, weight: np.ndarray | None = None
) -> tuple[float, np.ndarray]:
    """Mean squared error over unmasked entries; returns (loss, dL/dpred).

    With a weight array the mean runs over weight mass, so fully masked
    entries contribute nothing to either the loss or the gradient.
    """
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape:
        raise ShapeError(f"pred {pred.shape} vs target {target.shape}")
    diff = pred - target
    if weight is None:
        n = pred.size
        if n == 0:
            raise ShapeError("mse over zero elements")
        return float((diff**2).mean()), 2.0 * diff / n
    weight = np.asarray(weight, dtype=np.float64)
    if weight.shape != pred.shape:
        raise ShapeError(f"weight {weight.shape} vs pred {pred.shape}")
    wsum = weight.sum()
    if wsum <= 0:
        raise ShapeError("all cells masked in weighted mse")
    loss = float((weight * diff**2).sum() / wsum)
    return loss, 2.0 * weight * diff / wsum


# ---------------------------------------------------------------------------
# optimiser


def adam_step(
    param: Parameter,
    lr: float = 1e-3,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
    weight_decay: float = 0.0,
) -> Parameter:
    """One Adam update with bias correction, in place.

    Coupled L2 decay: the decay term joins the gradient before the
    moment updates (not the decoupled variant). The epsilon sits outside
    the square root: step = lr * mhat / (sqrt(vhat) + eps).
    """
    g = param.grad.astype(np.float64)
    if weight_decay:
        g = g + weight_decay * param.value.astype(np.float64)
    param.step_count += 1
    t = param.step_count
    param.m = beta1 * param.m + (1.0 - beta1) * g
    param.v = beta2 * param.v + (1.0 - beta2) * g * g
    mhat = param.m / (1.0 - beta1**t)
    vhat = param.v / (1.0 - beta2**t)
    step = lr * mhat / (np.sqrt(vhat) + eps)
    param.value -= step.astype(param.value.dtype)
    return param


# ---------------------------------------------------------------------------
# gradient checking


def grad_check(loss_fn, params: list[Parameter], eps: float = 1e-5) -> float:
    """Worst relative error between stored grads and central differences.

    loss_fn() recomputes the scalar loss from the params' current
    values. Relative error uses a unit floor so near-zero gradients do
    not blow the ratio up: |a - n| / max(1, |a|, |n|). Call with
    float64 parameters; float32 noise sits right at the tolerance.
    """
    worst = 0.0
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
                raise FloatingPointError(
                    f"non-finite gradient for {p.name or 'param'}[{idx}]"
                )
            err = abs(analytic - numeric) / max(1.0, abs(analytic), abs(numeric))
            worst = max(worst, err)
    return worst


# ---------------------------------------------------------------------------
# layer objects (thin stateful wrappers over the kernels above)


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
        self._x: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._x = x
        return conv2d_causal_dilated(x, self.weight.value, self.bias.value, self.tau)

    def backward(self, upstream: np.ndarray) -> np.ndarray:
        grad_x, grad_f, grad_b = conv2d_backward(
            self._x, self.weight.value, self.tau, upstream
        )
        self.weight.grad += grad_f.astype(self.weight.grad.dtype)
        self.bias.grad += grad_b.astype(self.bias.grad.dtype)
        return grad_x

    def params(self) -> list[Parameter]:
        return [self.weight, self.bias]


class BatchNormLayer:
    def __init__(self, channels: int, momentum: float = 0.9, eps: float = 1e-5,
                 dtype=np.float32, name: str = "norm"):
        self.gamma = Parameter.of(np.ones(channels, dtype=dtype), name=f"{name}.gamma")
        self.beta = Parameter.of(np.zeros(channels, dtype=dtype), name=f"{name}.beta")
        self.running = RunningStats.fresh(channels, momentum)
        self.eps = eps
        self._cache: tuple | None = None

    def forward(self, x: np.ndarray, train: bool) -> np.ndarray:
        out, cache = batch_norm(
            x,
            self.gamma.value,
            self.beta.value,
            mode="train" if train else "eval",
            running=self.running,
            eps=self.eps,
        )
        self._cache = cache
        return out

    def backward(self, upstream: np.ndarray) -> np.ndarray:
        grad_x, grad_gamma, grad_beta = batch_norm_backward(self._cache, upstream)
        self.gamma.grad += grad_gamma.astype(self.gamma.grad.dtype)
        self.beta.grad += grad_beta.astype(self.beta.grad.dtype)
        return grad_x

    def params(self) -> list[Parameter]:
        return [self.gamma, self.beta]


class PReLULayer:
    """Per-channel learnable slope, initialised to 0.25."""

    def __init__(self, channels: int, axis: int = -3, dtype=np.float32, name: str = "act"):
        self.slope = Parameter.of(
            np.full(channels, 0.25, dtype=dtype), name=f"{name}.slope"
        )
        self.axis = axis
        self._x: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._x = x
        return prelu(x, self.slope.value, self.axis)

    def backward(self, upstream: np.ndarray) -> np.ndarray:
        grad_x, grad_s = prelu_backward(self._x, self.slope.value, upstream, self.axis)
        self.slope.grad += grad_s.astype(self.slope.grad.dtype)
        return grad_x

    def params(self) -> list[Parameter]:
        return [self.slope]


class DenseLayer:
    def __init__(self, rng: np.random.Generator, n_in: int, n_out: int,
                 dtype=np.float32, name: str = "dense"):
        self.weight = Parameter.of(
            he_normal(rng, (n_out, n_in), n_in, dtype), name=f"{name}.weight"
        )
        self.bias = Parameter.of(np.zeros(n_out, dtype=dtype), name=f"{name}.bias")
        self._x: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._x = x
        return dense(x, self.weight.value, self.bias.value)

    def backward(self, upstream: np.ndarray) -> np.ndarray:
        grad_x, grad_w, grad_b = dense_backward(self._x, self.weight.value, upstream)
        self.weight.grad += grad_w.astype(self.weight.grad.dtype)
        self.bias.grad += grad_b.astype(self.bias.grad.dtype)
        return grad_x

    def params(self) -> list[Parameter]:
        return [self.weight, self.bias]
