"""Synthetic forum streams with known ground truth.

Threads arrive as a homogeneous Poisson process on [0, horizon). Each
cascade's replies follow an inhomogeneous Poisson process with
exponentially decaying intensity mu * exp(-(t - T_j) / theta), sampled
by thinning against the (monotone decreasing) current intensity, and
run to completion rather than being cut at the horizon, so a cascade's
expected reply count is exactly mu * theta. A seeded fraction of
cascades draw their replies at boost-times the base intensity.

Everything is a deterministic function of the seed.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import EventStream, ThreadCascade

# Reply sampling stops once the remaining expected count drops below this.
_RESIDUAL = 1e-9


@dataclass(frozen=True)
class SynthParams:
    lambda_thread: float
    mu_reply: float
    theta: float
    horizon: float
    breakout_fraction: float
    breakout_boost: float
    seed: int

    def __post_init__(self):
        for name, value in vars(self).items():
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.lambda_thread <= 0:
            raise ValueError("lambda_thread must be positive")
        if self.mu_reply < 0:
            raise ValueError("mu_reply must be non-negative")
        if self.theta <= 0:
            raise ValueError("theta must be positive")
        if self.horizon <= 0:
            raise ValueError("horizon must be positive")
        if not 0.0 <= self.breakout_fraction <= 1.0:
            raise ValueError("breakout_fraction must lie in [0, 1]")
        if self.breakout_boost < 1.0:
            raise ValueError("breakout_boost must be >= 1")


def _replies(rng: np.random.Generator, t_thread: float, mu: float, theta: float):
    """Thinning with the current intensity as the dominating rate; valid
    because the intensity only decays. standard_exponential() * scale and
    random() draw what exponential(scale) and uniform() do from the same
    bits, for less; math.exp would change the last bit of some values."""
    out = []
    if mu <= 0:
        return out
    exponential, uniform, exp = rng.standard_exponential, rng.random, np.exp
    s, bound = 0.0, mu
    cutoff = theta * np.log(mu * theta / _RESIDUAL) if mu * theta > _RESIDUAL else 0.0
    while s < cutoff:
        s += exponential() * (1.0 / bound)
        actual = mu * float(exp(-s / theta))  # float: the times stay Python floats
        if uniform() <= actual / bound:
            out.append(t_thread + s)
        bound = actual
    return out


def synth_generate(params: SynthParams) -> EventStream:
    rng = np.random.default_rng(params.seed)
    thread_times = []
    t, gap = 0.0, 1.0 / params.lambda_thread
    while True:
        t += rng.standard_exponential() * gap
        if t >= params.horizon:
            break
        thread_times.append(t)
    width = max(6, len(str(len(thread_times))))
    cascades = []
    for idx, t_thread in enumerate(thread_times):
        boosted = rng.random() < params.breakout_fraction
        mu = params.mu_reply * (params.breakout_boost if boosted else 1.0)
        replies = _replies(rng, t_thread, mu, params.theta)
        cascades.append(ThreadCascade(f"t{idx:0{width}d}", t_thread, tuple(replies)))
    return EventStream(tuple(cascades))
