"""Temporal blocks: hand traces, receptive-field arithmetic, causality."""
import numpy as np
import pytest

from gridcast.nn import BN_EPS, ShapeError, grad_check
from gridcast.tcn import TCNStack, TemporalBlock, causality_probe, receptive_field

WHOLE = np.s_[:]  # a block forward's skip slice over the whole plane


def _zero_block(block):
    block.conv.weight.value[...] = 0.0
    block.conv.bias.value[...] = 0.0
    if block.proj is not None:
        block.proj.weight.value[...] = 0.0
        block.proj.bias.value[...] = 0.0


def _positive_weights(stack):
    """Make every path carry strictly positive signal on positive input."""
    for block in stack.blocks:
        for layer in (block.conv, block.proj):
            if layer is not None:
                layer.weight.value[...] = np.abs(layer.weight.value) + 0.01
                layer.bias.value[...] = 0.1


# ---------------------------------------------------------------------------
# block structure


def test_projection_only_when_channels_change():
    rng = np.random.default_rng(0)
    same = TemporalBlock(rng, 3, 3, 2, 2, 1, np.float32, "block")
    grew = TemporalBlock(rng, 2, 3, 2, 2, 1, np.float32, "block")
    assert same.proj is None and len(same.params()) == 6
    assert grew.proj is not None and len(grew.params()) == 8
    assert [p.name for p in grew.params()] == [
        "block.conv.weight", "block.conv.bias", "block.norm.gamma", "block.norm.beta",
        "block.act1.slope", "block.proj.weight", "block.proj.bias", "block.act2.slope",
    ]


def test_stack_validation():
    """Every dimension of the ladder, the block count included, is >= 1."""
    rng = np.random.default_rng(1)
    for dims in [(0, 4, 2, 2, 1), (2, 0, 2, 2, 1), (2, 4, 0, 2, 1), (2, 4, 2, 0, 1),
                 (2, 4, 2, 2, 0)]:
        with pytest.raises(ValueError, match="stack dimensions"):
            TCNStack(rng, *dims, np.float32)


def test_build_ladder_dilations_double():
    stack = TCNStack(np.random.default_rng(2), c_in=2, n_filters=5,
                     k_h=3, k_w=3, n_blocks=4, dtype=np.float32)
    assert [b.conv.tau for b in stack.blocks] == [1, 2, 4, 8]
    assert [b.conv.weight.value.shape for b in stack.blocks] == [
        (5, 2, 3, 3), (5, 5, 3, 3), (5, 5, 3, 3), (5, 5, 3, 3)
    ]
    assert stack.blocks[0].proj is not None
    assert all(b.proj is None for b in stack.blocks[1:])


# ---------------------------------------------------------------------------
# forward semantics


def test_zero_weight_block_is_identity_on_nonnegative_input():
    rng = np.random.default_rng(3)
    block = TemporalBlock(rng, 2, 2, 3, 3, 1, np.float64, "block")
    _zero_block(block)
    x = rng.uniform(0.0, 5.0, size=(1, 2, 4, 4))
    for train in (False, True):
        out, _ = block.forward(x, train, WHOLE)
        assert (out == x).all(), f"train={train}"


def test_zero_weight_two_block_stack_is_identity():
    rng = np.random.default_rng(4)
    stack = TCNStack(rng, c_in=3, n_filters=3, k_h=2, k_w=2,
                     n_blocks=2, dtype=np.float64)
    for block in stack.blocks:
        _zero_block(block)
    x = rng.uniform(0.0, 2.0, size=(1, 3, 5, 4))
    assert (stack.forward(x, False, {}) == x).all()


def test_block_hand_trace_eval_mode():
    rng = np.random.default_rng(5)
    block = TemporalBlock(rng, 1, 1, 1, 1, 1, np.float64, "block")
    block.conv.weight.value[...] = 2.0
    block.conv.bias.value[...] = 1.0
    block.norm.gamma.value[...] = 2.0
    block.norm.beta.value[...] = 0.5
    block.norm.running.mean[...] = 1.0
    block.norm.running.var[...] = 1.0 - BN_EPS  # var + eps == 1
    x = np.array([[[[-1.0, 2.0]]]])
    # conv: [-1, 5]; norm: (u-1)*2+0.5 -> [-3.5, 8.5]; prelu(0.25): [-0.875, 8.5]
    # + skip x: [-1.875, 10.5]; prelu(0.25): [-0.46875, 10.5]
    out, tape = block.forward(x, False, WHOLE)
    assert np.allclose(out, [[[[-0.46875, 10.5]]]], atol=1e-6)
    assert tape[0] is x and np.allclose(tape[2], [[[[-3.5, 8.5]]]])  # act1 reads the norm
    served, tape = block.forward(x, False, WHOLE, 0)  # at given rows: the same, and no tape
    assert served.tobytes() == out.tobytes() and tape is None


def test_stack_forward_is_block_composition():
    rng = np.random.default_rng(6)
    stack = TCNStack(rng, 2, 4, 3, 3, 2, np.float64)
    x = rng.normal(size=(1, 2, 6, 5))
    manual, _ = stack.blocks[1].forward(stack.blocks[0].forward(x, False, WHOLE)[0], False, WHOLE)
    assert np.allclose(stack.forward(x, False, {}), manual)


def test_batched_forward_matches_per_sample_eval():
    rng = np.random.default_rng(7)
    stack = TCNStack(rng, 2, 3, 2, 2, 2, np.float64)
    x = rng.normal(size=(3, 2, 4, 4))
    batched = stack.forward(x, False, {})
    for n in range(3):
        assert np.allclose(batched[n], stack.forward(x[n : n + 1], False, {})[0])


# ---------------------------------------------------------------------------
# backward


def test_a_forward_at_given_rows_is_eval_only_and_inside_the_input():
    stack = TCNStack(np.random.default_rng(3), 2, 3, 2, 2, 2, np.float32)
    x = np.ones((1, 2, 6, 4), dtype=np.float32)
    full = stack.forward(x, False, {})
    assert stack.forward(x, False, {}, 5, 2).tobytes() == np.where(
        np.isin(np.arange(6), [2, 5])[:, None], full, 0).tobytes()
    with pytest.raises(ValueError, match="eval"):
        stack.forward(x, True, {}, 5)
    with pytest.raises(ShapeError, match="outside"):
        stack.forward(x, False, {}, 6)
    with pytest.raises(ShapeError, match="evenly spaced"):
        stack.forward(x, False, {}, 1, 2, 4)


def test_block_gradients_match_fd_eval_and_train():
    rng = np.random.default_rng(8)
    block = TemporalBlock(rng, 2, 3, 2, 2, 1, np.float64, "block")
    x = rng.normal(size=(2, 2, 3, 3))
    up = rng.normal(size=(2, 3, 3, 3))
    for train in (False, True):
        def loss():
            return float((block.forward(x, train, WHOLE)[0] * up).sum())

        for p in block.params():
            p.zero_grad()
        _, tape = block.forward(x, train, WHOLE)
        block.backward(tape, up, True)
        assert grad_check(loss, block.params()) < 1e-6, f"train={train}"


def test_block_backward_without_input_gradient_keeps_the_parameter_gradients():
    rng = np.random.default_rng(8)
    x = rng.normal(size=(2, 2, 5, 4)).astype(np.float32)
    up = rng.normal(size=(2, 3, 5, 4)).astype(np.float32)
    grads = []
    for input_grad in (True, False):
        block = TemporalBlock(np.random.default_rng(1), 2, 3, 3, 3, 2, np.float32, "block")
        _, tape = block.forward(x, True, WHOLE)
        gx = block.backward(tape, up, input_grad)
        assert (gx is None) == (not input_grad)
        grads.append([p.grad.tobytes() for p in block.params()])
    assert grads[0] == grads[1]


def test_stack_input_gradient_matches_fd():
    rng = np.random.default_rng(9)
    stack = TCNStack(rng, 1, 2, 2, 2, 2, np.float64)
    x = rng.normal(size=(1, 1, 4, 4))
    up = rng.normal(size=(1, 2, 4, 4))
    tape: dict = {}
    stack.forward(x, False, tape)
    gx = stack.backward(tape, up, True)
    assert gx.shape == x.shape
    eps = 1e-6
    fd = np.zeros_like(x)
    for idx in np.ndindex(x.shape):
        x[idx] += eps
        fp = float((stack.forward(x, False, {}) * up).sum())
        x[idx] -= 2 * eps
        fm = float((stack.forward(x, False, {}) * up).sum())
        x[idx] += eps
        fd[idx] = (fp - fm) / (2 * eps)
    assert np.allclose(gx, fd, atol=1e-6)


# ---------------------------------------------------------------------------
# receptive field


def test_receptive_field_values():
    assert receptive_field(3, [1]) == (3, 9)
    assert receptive_field(3, [1, 2, 4]) == (15, 225)
    assert receptive_field(2, [1, 2]) == (4, 16)
    assert receptive_field(5, [1]) == (5, 25)
    assert receptive_field(1, [1, 2, 3]) == (1, 1)


def test_receptive_field_errors():
    with pytest.raises(ValueError):
        receptive_field(0, [1])
    with pytest.raises(ValueError):
        receptive_field(3, [1, 0])


# ---------------------------------------------------------------------------
# causality


def _causal_box(cell, extent):
    i, j = cell
    return {
        (r, c)
        for r in range(max(0, i - extent + 1), i + 1)
        for c in range(max(0, j - extent + 1), j + 1)
    }


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("n_blocks", [1, 2])
def test_probe_influence_within_causal_box(k, n_blocks):
    rng = np.random.default_rng(100 + 10 * k + n_blocks)
    stack = TCNStack(rng, 2, 3, k, k, n_blocks, np.float32)
    extent, _ = receptive_field(k, [2**l for l in range(n_blocks)])
    cell = (extent + 1, extent)
    got = causality_probe(stack, cell, height=extent + 4, width=extent + 3)
    assert got <= _causal_box(cell, extent)


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("n_blocks", [1, 2])
def test_probe_fills_causal_box_with_positive_weights(k, n_blocks):
    rng = np.random.default_rng(200 + 10 * k + n_blocks)
    stack = TCNStack(rng, 2, 3, k, k, n_blocks, np.float32)
    _positive_weights(stack)
    extent, area = receptive_field(k, [2**l for l in range(n_blocks)])
    cell = (extent, extent + 2)
    got = causality_probe(stack, cell, height=extent + 3, width=extent + 4)
    assert got == _causal_box(cell, extent)
    assert len(got) == area  # interior cell: nothing clipped


def test_probe_at_origin_sees_only_itself():
    rng = np.random.default_rng(11)
    stack = TCNStack(rng, 1, 2, 3, 3, 2, np.float32)
    _positive_weights(stack)
    assert causality_probe(stack, (0, 0), height=4, width=4) == {(0, 0)}


def test_probe_rejects_cell_outside_input():
    stack = TCNStack(np.random.default_rng(12), 1, 2, 2, 2, 1, np.float32)
    with pytest.raises(ValueError):
        causality_probe(stack, (5, 0), height=3, width=3)


def test_future_perturbations_leave_output_cell_bit_exact():
    rng = np.random.default_rng(13)
    stack = TCNStack(rng, 2, 4, 3, 3, 2, np.float64)
    i, j = 5, 4
    x = rng.normal(size=(1, 2, 8, 7))
    base = stack.forward(x, False, {})[0, :, i, j].copy()
    for trial in range(20):
        x2 = x.copy()
        # pick a cell strictly below or strictly right of (i, j)
        if trial % 2 == 0:
            r, c = rng.integers(i + 1, 8), rng.integers(0, 7)
        else:
            r, c = rng.integers(0, 8), rng.integers(j + 1, 7)
        x2[0, :, r, c] += rng.normal()
        out = stack.forward(x2, False, {})[0, :, i, j]
        assert (out == base).all()
