"""Stacked 2-D causal temporal-convolution blocks.

A block is conv -> batch norm -> PReLU -> residual add -> PReLU, with a
1x1 projection on the skip path only when the channel count changes.
A stack is one fixed ladder: block l (from 0) uses dilation 2^l, as in
the generic TCN, so the per-axis receptive field grows as
r_l = r_{l-1} + (k - 1) * tau_l from r_0 = 1. Asked for some output
rows only, an evenly spaced set, a stack serves them: each block
computes the shortest evenly spaced range holding its share of their
receptive field and is handed only the rows it reads. Blocks and
stacks hold parameters only: a whole-plane forward writes what backward
reads into a tape, a dict the caller hands it and hands backward.

Causality caveat: in TRAIN mode batch norm couples every cell through
the batch moments, so bit-exact causality statements hold in EVAL mode,
where normalisation is a fixed per-channel affine map. The probe and
all prediction paths run EVAL.
"""
from __future__ import annotations

import functools

import numpy as np

from .nn import BatchNormLayer, ConvLayer, Parameter, PReLULayer, ShapeError, row_range, rows_read


class TemporalBlock:
    def __init__(self, rng: np.random.Generator, c_in: int, c_out: int, k_h: int, k_w: int,
                 tau: int, dtype, name: str):
        self.name = name
        self.conv = ConvLayer(rng, c_in, c_out, k_h, k_w, tau=tau, dtype=dtype,
                              name=f"{name}.conv")
        self.norm = BatchNormLayer(c_out, dtype=dtype, name=f"{name}.norm")
        self.act1 = PReLULayer(c_out, dtype=dtype, name=f"{name}.act1")
        self.proj = None
        if c_in != c_out:
            self.proj = ConvLayer(rng, c_in, c_out, 1, 1, tau=1, dtype=dtype,
                                  name=f"{name}.proj")
        self.act2 = PReLULayer(c_out, dtype=dtype, name=f"{name}.act2")

    def forward(self, x: np.ndarray, train: bool, skip: slice, *rows: int):
        """(output, tape). Given output rows (nn.row_range), x holds just the
        rows the conv reads for them (nn.rows_read), skip slices the rows
        out of x, and the tape is None; else skip is the whole plane and the
        tape (x, batch norm's cache, act1's input, act2's input) is what
        backward reads."""
        z, cache = self.norm.forward(self.conv.forward(x, *rows), train)
        tape = None if rows else (x, cache, z)
        y = self.act1.forward(z)
        del z, cache  # a forward at given rows holds neither while the block runs on
        x = x[:, :, skip]
        y += x if self.proj is None else self.proj.forward(x)
        return self.act2.forward(y), None if tape is None else (*tape, y)

    def backward(self, tape: tuple, upstream: np.ndarray,
                 input_grad: bool) -> np.ndarray | None:
        """The gradient at the input of the whole-plane forward that gave the
        tape, or None without input_grad, which spares the conv's and the
        projection's input gradients."""
        x, cache, z, y = tape
        g = self.act2.backward(y, upstream)  # grad at (main + skip)
        g_main = self.conv.backward(x, self.norm.backward(cache, self.act1.backward(z, g)),
                                    input_grad)
        g_skip = g if self.proj is None else self.proj.backward(x, g, input_grad)
        return g_main + g_skip if input_grad else None

    def params(self) -> list[Parameter]:
        skip = [] if self.proj is None else [self.proj]
        layers = [self.conv, self.norm, self.act1, *skip, self.act2]
        return [p for layer in layers for p in layer.params()]


class TCNStack:
    """The ladder c_in -> n_filters -> ... -> n_filters of n_blocks
    blocks, block l dilated by tau = 2^l."""

    def __init__(self, rng: np.random.Generator, c_in: int, n_filters: int, k_h: int,
                 k_w: int, n_blocks: int, dtype):
        if min(c_in, n_filters, k_h, k_w, n_blocks) < 1:
            raise ValueError("stack dimensions must be >= 1")
        self.blocks = [
            TemporalBlock(rng, c_in if l == 0 else n_filters, n_filters, k_h, k_w, 2**l,
                          dtype, f"stack.block{l}")
            for l in range(n_blocks)
        ]

    def forward(self, x: np.ndarray, train: bool, tape: dict, *rows: int) -> np.ndarray:
        """x: (N, C, H, W) -> (N, F, H, W); block l's tape, what backward
        reads, goes to tape[l] as the block returns, replacing the one there.

        Given output rows, an evenly spaced set, the forward is a serving
        call: eval mode only, every tape[l] is None, and every other
        output row is zero. Each block computes just its share of the rows'
        receptive-field cone (_cone), from only the rows it reads, so every
        computed cell sums the same values as in the full forward
        (nn.conv2d_causal_dilated says when its bits match too).
        """
        hgt = x.shape[2]
        if rows and train:
            raise ValueError("a forward at given rows runs in eval mode")
        if not all(0 <= r < hgt for r in rows):
            raise ShapeError(f"output rows {rows} outside an input of {hgt} rows")
        ladder = tuple((b.conv.weight.value.shape[2], b.conv.tau) for b in self.blocks)
        first, plan, out = _cone(ladder, tuple(sorted(set(rows))))
        x = x[:, :, first]
        # a block's last tape goes as its new one comes: emptying the entry
        # before the block runs, or during backward, made training slower (ROADMAP)
        for l, (block, (block_rows, skip)) in enumerate(zip(self.blocks, plan)):
            x, tape[l] = block.forward(x, train, skip, *block_rows)
        if not rows:
            return x
        full = np.zeros(x.shape[:2] + (hgt,) + x.shape[3:], dtype=x.dtype)
        full[:, :, out] = x
        return full

    def backward(self, tape: dict, upstream: np.ndarray, input_grad: bool) -> np.ndarray | None:
        """The gradient at the input of the whole-plane forward that wrote
        tape, or None without input_grad: then block 0 computes only its
        parameters' gradients."""
        for l in range(len(self.blocks) - 1, 0, -1):
            upstream = self.blocks[l].backward(tape[l], upstream, True)
        return self.blocks[0].backward(tape[0], upstream, input_grad)

    def params(self) -> list[Parameter]:
        return [p for block in self.blocks for p in block.params()]

    def named_buffers(self) -> list[tuple[str, np.ndarray]]:
        """Non-trainable state eval mode needs: batch-norm running stats."""
        out = []
        for block in self.blocks:
            out.append((f"{block.name}.norm.running_mean", block.norm.running.mean))
            out.append((f"{block.name}.norm.running_var", block.norm.running.var))
        return out


@functools.lru_cache(maxsize=256)
def _cone(ladder: tuple[tuple[int, int], ...], rows: tuple[int, ...]):
    """The forward plan of a stack whose blocks' convs have ladder's (k_h, tau),
    for the given ascending output rows (none: the whole plane), every row set
    an evenly spaced range cut by a slice: block 0's rows of the stack input,
    per block the rows it computes (what the next block reads, nn.rows_read)
    and their slice of the rows it is handed, which end with them, and the output rows."""
    whole = np.s_[:]
    if not rows:
        return whole, (((), whole),) * len(ladder), whole
    plan, wanted = [], row_range(rows)
    out = slice(wanted.start, wanted.stop, wanted.step)
    for k_h, tau in reversed(ladder):
        held = rows_read(wanted, k_h, tau)
        skip = np.s_[held.index(wanted[0]) :: wanted.step // held.step or 1]
        plan.insert(0, (wanted, skip))
        wanted = held
    return slice(wanted.start, wanted.stop, wanted.step), tuple(plan), out


def state_arrays(owner) -> list[tuple[str, np.ndarray]]:
    """Named parameter values, then named buffers, of a stack or model."""
    return [(p.name, p.value) for p in owner.params()] + owner.named_buffers()


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
    stack: TCNStack, cell: tuple[int, int], height: int, width: int
) -> set[tuple[int, int]]:
    """Input cells with nonzero influence on the summed output at `cell`.

    Influence is the input gradient of sum_c out[c, i, j], computed at
    64-bit on an all-ones height x width input with the stack's own weights, in EVAL
    mode. Cells strictly below or right of `cell` can never appear;
    whether up-left cells do depends on the weights (zero filters see
    nothing).
    """
    i, j = cell
    if not (0 <= i < height and 0 <= j < width):
        raise ValueError(f"probe cell {cell} outside a {height}x{width} input")
    n_filters, c_in, k_h, k_w = stack.blocks[0].conv.weight.value.shape
    rng = np.random.default_rng(0)  # initial weights are overwritten
    probe = TCNStack(rng, c_in, n_filters, k_h, k_w, len(stack.blocks), np.float64)
    load_state(probe, state_arrays(stack))
    tape: dict = {}
    out = probe.forward(np.ones((1, c_in, height, width)), False, tape)
    up = np.zeros_like(out)
    up[0, :, i, j] = 1.0
    influence = np.abs(probe.backward(tape, up, True)[0]).sum(axis=0)
    rows, cols = np.nonzero(influence > 0)
    return {(int(r), int(c)) for r, c in zip(rows, cols)}
