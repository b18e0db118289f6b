"""Stacked 2-D causal temporal-convolution blocks.

A block is conv -> batch norm -> PReLU -> residual add -> PReLU, with a
1x1 projection on the skip path only when the channel count changes.
Block l uses dilation 2^(l-1), so per-axis receptive field grows as
r_l = r_{l-1} + (k - 1) * tau_l from r_0 = 1.

Causality caveat: in TRAIN mode batch norm couples every cell through
the batch moments, so bit-exact causality statements hold in EVAL mode,
where normalisation is a fixed per-channel affine map. The probe and
all prediction paths run EVAL.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .nn import BatchNormLayer, ConvLayer, Parameter, PReLULayer


@dataclass(frozen=True)
class BlockConfig:
    c_in: int
    c_out: int
    k_h: int
    k_w: int
    tau: int

    def __post_init__(self):
        if min(self.c_in, self.c_out, self.k_h, self.k_w, self.tau) < 1:
            raise ValueError(f"non-positive block dimension in {self}")


class TemporalBlock:
    def __init__(self, rng: np.random.Generator, cfg: BlockConfig,
                 dtype=np.float32, name: str = "block"):
        self.cfg = cfg
        self.name = name
        self.conv = ConvLayer(rng, cfg.c_in, cfg.c_out, cfg.k_h, cfg.k_w,
                              tau=cfg.tau, dtype=dtype, name=f"{name}.conv")
        self.norm = BatchNormLayer(cfg.c_out, dtype=dtype, name=f"{name}.norm")
        self.act1 = PReLULayer(cfg.c_out, dtype=dtype, name=f"{name}.act1")
        self.proj = None
        if cfg.c_in != cfg.c_out:
            self.proj = ConvLayer(rng, cfg.c_in, cfg.c_out, 1, 1, tau=1,
                                  dtype=dtype, name=f"{name}.proj")
        self.act2 = PReLULayer(cfg.c_out, dtype=dtype, name=f"{name}.act2")

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        y = self.act1.forward(self.norm.forward(self.conv.forward(x), train))
        skip = x if self.proj is None else self.proj.forward(x)
        return self.act2.forward(y + skip)

    def backward(self, upstream: np.ndarray) -> np.ndarray:
        g = self.act2.backward(upstream)  # grad at (main + skip)
        g_main = self.conv.backward(self.norm.backward(self.act1.backward(g)))
        g_skip = g if self.proj is None else self.proj.backward(g)
        return g_main + g_skip

    def layers(self):
        out = [self.conv, self.norm, self.act1, self.act2]
        if self.proj is not None:
            out.insert(3, self.proj)
        return out

    def params(self) -> list[Parameter]:
        return [p for layer in self.layers() for p in layer.params()]


class TCNStack:
    """Sequential blocks; dilation schedule is the caller's to choose."""

    def __init__(self, blocks: list[TemporalBlock]):
        if not blocks:
            raise ValueError("stack needs at least one block")
        for a, b in zip(blocks, blocks[1:]):
            if a.cfg.c_out != b.cfg.c_in:
                raise ValueError(
                    f"channel mismatch between blocks: {a.cfg.c_out} -> {b.cfg.c_in}"
                )
        self.blocks = blocks

    @classmethod
    def build(
        cls,
        rng: np.random.Generator,
        c_in: int,
        n_filters: int,
        k_h: int,
        k_w: int,
        n_blocks: int,
        dtype=np.float32,
    ) -> "TCNStack":
        """Standard ladder: c_in -> n_filters -> ... with tau = 2^(l-1)."""
        blocks = []
        for l in range(n_blocks):
            cfg = BlockConfig(
                c_in=c_in if l == 0 else n_filters,
                c_out=n_filters,
                k_h=k_h,
                k_w=k_w,
                tau=2**l,
            )
            blocks.append(TemporalBlock(rng, cfg, dtype=dtype, name=f"stack.block{l}"))
        return cls(blocks)

    @property
    def c_in(self) -> int:
        return self.blocks[0].cfg.c_in

    @property
    def c_out(self) -> int:
        return self.blocks[-1].cfg.c_out

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        for block in self.blocks:
            x = block.forward(x, train)
        return x

    def backward(self, upstream: np.ndarray) -> np.ndarray:
        for block in reversed(self.blocks):
            upstream = block.backward(upstream)
        return upstream

    def params(self) -> list[Parameter]:
        return [p for block in self.blocks for p in block.params()]

    def named_params(self) -> list[tuple[str, Parameter]]:
        return [(p.name, p) for p in self.params()]

    def named_buffers(self) -> list[tuple[str, np.ndarray]]:
        """Non-trainable state eval mode needs: batch-norm running stats."""
        out = []
        for block in self.blocks:
            out.append((f"{block.name}.norm.running_mean", block.norm.running.mean))
            out.append((f"{block.name}.norm.running_var", block.norm.running.var))
        return out

    def astype(self, dtype) -> "TCNStack":
        """Copy at another precision: the same blocks built fresh, then
        loaded with this stack's parameters and running stats."""
        rng = np.random.default_rng(0)  # initial weights are overwritten
        clone = TCNStack(
            [TemporalBlock(rng, b.cfg, dtype=dtype, name=b.name) for b in self.blocks]
        )
        load_state(clone, state_arrays(self))
        return clone


def state_arrays(owner) -> list[tuple[str, np.ndarray]]:
    """Named parameter values, then named buffers, of a stack or model."""
    return [(name, p.value) for name, p in owner.named_params()] + owner.named_buffers()


def load_state(owner, arrays) -> None:
    """Copy (name, array) pairs into owner's parameters and buffers in
    place, each cast to the dtype of the array it overwrites.

    Raises ValueError naming the array on an unknown or repeated name or
    a shape mismatch, and when some parameter or buffer received no array.
    """
    slots = dict(state_arrays(owner))
    for name, arr in arrays:
        if name not in slots:
            raise ValueError(f"unknown or repeated array {name!r}")
        if arr.shape != slots[name].shape:
            raise ValueError(f"array {name!r} has shape {arr.shape}, expected {slots[name].shape}")
        slots.pop(name)[...] = arr
    if slots:
        raise ValueError(f"arrays missing: {sorted(slots)}")


def receptive_field(k: int, dilations: list[int]) -> tuple[int, int]:
    """Per-axis extent and cell area of a stack's receptive field.

    r_0 = 1 and r_l = r_{l-1} + (k - 1) * tau_l; square kernels make the
    two axes identical, so the area is the square of the extent.
    """
    if k < 1:
        raise ValueError("kernel size must be >= 1")
    r = 1
    for tau in dilations:
        if tau < 1:
            raise ValueError("dilations must be >= 1")
        r += (k - 1) * tau
    return r, r * r


def causality_probe(
    stack: TCNStack, cell: tuple[int, int], height: int | None = None,
    width: int | None = None
) -> set[tuple[int, int]]:
    """Input cells with nonzero influence on the summed output at `cell`.

    Influence is the input gradient of sum_c out[c, i, j], computed at
    64-bit on an all-ones input with the stack's own weights, in EVAL
    mode. Cells strictly below or right of `cell` can never appear;
    whether up-left cells do depends on the weights (zero filters see
    nothing).
    """
    i, j = cell
    h = height if height is not None else i + 1
    w = width if width is not None else j + 1
    if not (0 <= i < h and 0 <= j < w):
        raise ValueError(f"probe cell {cell} outside a {h}x{w} input")
    probe = stack.astype(np.float64)
    out = probe.forward(np.ones((1, probe.c_in, h, w)), train=False)
    up = np.zeros_like(out)
    up[0, :, i, j] = 1.0
    influence = np.abs(probe.backward(up)[0]).sum(axis=0)
    rows, cols = np.nonzero(influence > 0)
    return {(int(r), int(c)) for r, c in zip(rows, cols)}
