"""Numeric kernels: forwards against naive oracles, backwards against
central finite differences, Adam against an independent recurrence,
and the faster kernels against the forms they replaced, bit for bit."""
from unittest import mock

import numpy as np
import pytest
from conftest import (
    padded_conv2d,
    scatter_conv2d_backward,
    two_pass_batch_norm,
    where_prelu,
    where_prelu_backward,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from gridcast import nn, tcn
from gridcast.nn import (
    BN_EPS,
    BatchNormLayer,
    ConvLayer,
    DenseLayer,
    Parameter,
    PReLULayer,
    RunningStats,
    ShapeError,
    adam_step,
    batch_norm,
    batch_norm_backward,
    conv2d_backward,
    conv2d_causal_dilated,
    dense,
    dense_backward,
    grad_check,
    he_normal,
    mse_loss,
    prelu,
    prelu_backward,
    rows_read,
    sigmoid,
    softplus,
)


def naive_causal_conv(x, filters, bias, tau):
    """Quadruple-loop reference for one (C, H, W) sample: out-of-range
    reads are zero."""
    c_out, c_in, k_h, k_w = filters.shape
    _, hgt, wid = x.shape
    out = np.zeros((c_out, hgt, wid), dtype=np.float64)
    for o in range(c_out):
        for i in range(hgt):
            for j in range(wid):
                acc = 0.0 if bias is None else float(bias[o])
                for c in range(c_in):
                    for a in range(k_h):
                        for b in range(k_w):
                            ii, jj = i - a * tau, j - b * tau
                            if ii >= 0 and jj >= 0:
                                acc += filters[o, c, a, b] * x[c, ii, jj]
                out[o, i, j] = acc
    return out


# ---------------------------------------------------------------------------
# convolution forward


def test_conv_hand_case_ones_filter():
    x = np.array([[[[1.0, 2.0], [3.0, 4.0]]]])
    f = np.ones((1, 1, 2, 2))
    out = conv2d_causal_dilated(x, f, None, tau=1)
    assert out.tolist() == [[[[1.0, 3.0], [4.0, 10.0]]]]


def test_conv_matches_naive_oracle():
    """float64 within 1e-12; float32 within the rounding bound of a sum of
    K = c_in*k_h*k_w + 1 terms, K * eps32 * (|b| + sum |f| |x|), against
    the float64 oracle on the same float32 operands."""
    rng = np.random.default_rng(1)
    for dtype in (np.float64, np.float32):
        for tau in (1, 2, 3):
            for k_h, k_w in ((1, 1), (2, 3), (3, 1)):
                x = rng.normal(size=(2, 5, 6)).astype(dtype)
                f = rng.normal(size=(3, 2, k_h, k_w)).astype(dtype)
                b = rng.normal(size=3).astype(dtype)
                got = conv2d_causal_dilated(x[None], f, b, tau)[0]
                want = naive_causal_conv(x, f, b, tau)
                assert got.dtype == dtype
                if dtype == np.float64:
                    assert np.allclose(got, want, atol=1e-12)
                else:
                    terms = x.shape[0] * k_h * k_w + 1
                    scale = naive_causal_conv(np.abs(x), np.abs(f), np.abs(b), tau)
                    bound = terms * np.finfo(np.float32).eps * scale
                    assert (np.abs(got - want) <= bound).all(), (tau, k_h, k_w)


def test_conv_batched_equals_per_sample():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(4, 2, 3, 3))
    f = rng.normal(size=(2, 2, 2, 2))
    b = rng.normal(size=2)
    batched = conv2d_causal_dilated(x, f, b, 1)
    for n in range(4):
        assert np.allclose(batched[n], conv2d_causal_dilated(x[n : n + 1], f, b, 1)[0])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_conv_at_given_rows_is_those_rows_of_the_full_output(dtype):
    """Bit for bit in float32 while the products stay matrix-matrix (two or
    more filters, two or more rows or columns); float64 within rounding.
    The input holds just the range of rows the given ones read."""
    rng = np.random.default_rng(4)
    for c_in, c_out, k, tau, hgt, wid in [(3, 16, 3, 1, 16, 16), (16, 16, 3, 2, 13, 5),
                                          (3, 4, 2, 1, 6, 2), (4, 2, 3, 4, 9, 1)]:
        x = rng.normal(size=(3, c_in, hgt, wid)).astype(dtype)
        f = rng.normal(size=(c_out, c_in, k, k)).astype(dtype)
        b = rng.normal(size=c_out).astype(dtype)
        full = conv2d_causal_dilated(x, f, b, tau)
        for rows in [range(0, hgt, hgt - 1), range(1, 6, 2), range(hgt)]:
            got = conv2d_causal_dilated(x[:, :, rows_read(rows, k, tau)], f, b, tau, *rows)
            assert got.shape == (3, c_out, len(rows), wid)
            if dtype == np.float32:
                assert got.tobytes() == full[:, :, rows].tobytes()
            else:
                assert np.allclose(got, full[:, :, rows], rtol=1e-12, atol=1e-12)
    assert conv2d_causal_dilated(x[:, :, :0], f, b, tau).shape == (3, c_out, 0, wid)
    with pytest.raises(ShapeError, match="evenly spaced range"):
        conv2d_causal_dilated(x, f, b, tau, -1)
    # the whole input is not the rows that one row reads
    with pytest.raises(ShapeError, match="read 3"):
        conv2d_causal_dilated(x, f, b, tau, hgt - 1)


def test_rows_read_are_each_rows_taps_inside_the_input():
    assert rows_read(range(15, 16), 3, 4) == range(7, 16, 4)
    assert rows_read(range(7, 16, 4), 3, 2) == range(3, 16, 2)
    assert rows_read(range(1, 4, 2), 3, 2) == range(1, 4, 2)
    assert rows_read(range(0, 1), 5, 1) == range(0, 1)
    # a one-column window's last two rows read 6 rows, held by a hull of 10
    assert rows_read(range(14, 16), 3, 4) == range(6, 16)
    assert rows_read(range(0, 9, 2), 1, 3) == range(0, 9, 2)  # one filter row reads its rows


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_a_conv_at_any_row_range_reads_slices_and_gives_those_rows(data):
    """Any row range inside the input, for k_h and k_w in 1-3, tau in 1-4
    and heights up to 12: rows_read holds every read inside the input and
    starts at the lowest, every tap reads a slice and lands on one, the
    taps that read only padding are left out, the rows equal the full
    output's, float32 bit for bit while the products stay matrix-matrix
    and float64 within rounding, and descending, uneven or negative rows
    raise ShapeError."""
    k_h, k_w = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
    tau = data.draw(st.integers(1, 4))
    hgt, wid = data.draw(st.integers(1, 12)), data.draw(st.integers(1, 4))
    start = data.draw(st.integers(0, hgt - 1))
    rows = range(start, data.draw(st.integers(start + 1, hgt)), data.draw(st.integers(1, hgt)))
    n, c_in = data.draw(st.integers(1, 2)), data.draw(st.integers(1, 3))
    c_out = data.draw(st.integers(1, 3))

    held = rows_read(rows, k_h, tau)
    reads = {r - a * tau for r in rows for a in range(k_h) if r >= a * tau}
    assert reads <= set(held) and held[0] == min(reads)
    taps = nn._tap_table((c_in, len(held), wid), (c_in, k_h, k_w), tau, tuple(rows))
    assert all(isinstance(i, slice) for _, src, dst in taps for sl in (src, dst or ()) for i in sl)
    inside = {(a, b) for a in range(k_h) for b in range(k_w)
              if b * tau < wid and any(r >= a * tau for r in rows)}
    assert [tap for tap, _, _ in taps] == sorted(inside)  # taps that read only padding are left out

    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    for dtype in (np.float32, np.float64):
        x = rng.normal(size=(n, c_in, hgt, wid)).astype(dtype)
        f = rng.normal(size=(c_out, c_in, k_h, k_w)).astype(dtype)
        b = rng.normal(size=c_out).astype(dtype)
        got = conv2d_causal_dilated(x[:, :, held], f, b, tau, *rows)
        want = conv2d_causal_dilated(x, f, b, tau)[:, :, rows]
        if dtype == np.float64:
            assert np.allclose(got, want, rtol=1e-12, atol=1e-12)
        elif c_out > 1 and len(rows) * wid > 1:
            assert got.tobytes() == want.tobytes()
        else:  # a matrix-vector product rounds by its width
            assert np.allclose(got, want, rtol=1e-5, atol=1e-5)
    bad = [tuple(r - rows[-1] - 1 for r in rows), (start, start + 1, start + 3)]
    if len(rows) > 1:
        bad.append(tuple(reversed(rows)))
    for rows in bad:
        with pytest.raises(ShapeError, match="evenly spaced range"):
            conv2d_causal_dilated(x, f, b, tau, *rows)


def test_conv_output_ignores_future_cells():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(1, 1, 4, 4))
    f = rng.normal(size=(1, 1, 3, 3))
    base = conv2d_causal_dilated(x, f, None, 1)
    x2 = x.copy()
    x2[0, 0, 3, 3] += 5.0  # strictly below/right of probe (1, 1)
    x2[0, 0, 2, 3] -= 2.0
    out2 = conv2d_causal_dilated(x2, f, None, 1)
    assert out2[0, 0, 1, 1] == base[0, 0, 1, 1]


def test_conv_shape_errors():
    f = np.ones((1, 1, 2, 2))
    with pytest.raises(ShapeError):
        conv2d_causal_dilated(np.ones((1, 2, 3, 3)), f, None, 1)
    with pytest.raises(ShapeError):
        conv2d_causal_dilated(np.ones((1, 1, 3, 3)), f, None, 0)
    with pytest.raises(ShapeError):
        conv2d_causal_dilated(np.ones((1, 1, 3, 3)), f, np.zeros(2), 1)


@pytest.mark.parametrize("shape", [(3, 3), (1, 3, 3), (1, 1, 1, 3, 3)])
def test_conv_rejects_non_4d_input(shape):
    f, up = np.ones((1, 1, 2, 2)), np.ones((1, 1, 3, 3))
    with pytest.raises(ShapeError):
        conv2d_causal_dilated(np.ones(shape), f, None, 1)
    with pytest.raises(ShapeError):
        conv2d_backward(np.ones(shape), f, 1, up)


def test_conv_backward_rejects_3d_filters():
    with pytest.raises(ShapeError):
        conv2d_backward(np.ones((1, 1, 3, 3)), np.ones((1, 2, 2)), 1, np.ones((1, 1, 3, 3)))


# ---------------------------------------------------------------------------
# convolution backward


def _fd(loss_fn, arr, eps=1e-6):
    g = np.zeros_like(arr, dtype=np.float64)
    flat, gflat = arr.reshape(-1), g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        fp = loss_fn()
        flat[i] = orig - eps
        fm = loss_fn()
        flat[i] = orig
        gflat[i] = (fp - fm) / (2 * eps)
    return g


def test_conv_backward_matches_fd():
    rng = np.random.default_rng(4)
    for c_in in (1, 3):
        for tau in (1, 2, 3):
            for k_h, k_w in ((1, 1), (2, 3), (3, 1)):
                x = rng.normal(size=(2, c_in, 4, 3))
                f = rng.normal(size=(2, c_in, k_h, k_w))
                up = rng.normal(size=(2, 2, 4, 3))
                bias = rng.normal(size=2)

                def loss():
                    return float((conv2d_causal_dilated(x, f, bias, tau) * up).sum())

                gx, gf, gb = conv2d_backward(x, f, tau, up)
                case = (c_in, tau, k_h, k_w)
                assert np.allclose(gx, _fd(loss, x), atol=1e-7), case
                assert np.allclose(gf, _fd(loss, f), atol=1e-7), case
                assert np.allclose(gb, _fd(loss, bias), atol=1e-7), case


@pytest.mark.parametrize(
    "c_in, c_out, k, tau",
    [
        (3, 16, 3, 1),  # block 0 of the reply model
        (16, 16, 3, 1),
        (16, 16, 3, 2),  # block 1
        (16, 16, 3, 4),  # block 2
        (3, 16, 1, 1),  # block 0's skip projection
        (16, 1, 1, 1),  # the reply head
    ],
)
def test_conv_backward_float32_agrees_with_float64(c_in, c_out, k, tau):
    """At the reply model's training shapes (batch 32, 16x12 windows) the
    float32 gradients stay within 1e-5 of the float64 ones, relative to
    each gradient's largest entry."""
    rng = np.random.default_rng(5)
    x = rng.normal(size=(32, c_in, 16, 12)).astype(np.float32)
    f = rng.normal(size=(c_out, c_in, k, k)).astype(np.float32)
    up = rng.normal(size=(32, c_out, 16, 12)).astype(np.float32)
    got = conv2d_backward(x, f, tau, up)
    want = conv2d_backward(x.astype(np.float64), f.astype(np.float64), tau, up.astype(np.float64))
    for g32, g64 in zip(got, want):
        assert g32.dtype == np.float32 and g64.dtype == np.float64
        assert np.abs(g32 - g64).max() <= 1e-5 * np.abs(g64).max()


@settings(max_examples=80, deadline=None)
# one-cell windows in a batch, where a gather per sample would turn each
# tap into matrix-vector products that round differently
@example(n=32, hgt=1, wid=1, c_in=2, c_out=4, k=3, tau=1, dtype=np.float32, seed=0)
@example(n=2, hgt=1, wid=1, c_in=3, c_out=2, k=1, tau=1, dtype=np.float64, seed=0)
@given(
    n=st.sampled_from([1, 2, 32]),
    hgt=st.integers(1, 16),
    wid=st.integers(1, 16),
    c_in=st.integers(1, 4),
    c_out=st.integers(1, 4),
    k=st.sampled_from([1, 3]),
    tau=st.sampled_from([1, 2, 4]),
    dtype=st.sampled_from([np.float32, np.float64]),
    seed=st.integers(0, 2**32 - 1),
)
def test_conv_backward_matches_the_scatter_form(n, hgt, wid, c_in, c_out, k, tau, dtype, seed):
    """The adjoint-form input gradient and the filter and bias gradients
    equal the scatter form's bit for bit. The one exception is the input
    gradient of a one-channel input with several output channels: its
    per-tap product is a (1, c_out) @ (c_out, cells) vector-matrix product,
    whose BLAS rounding depends on the column a cell sits in, and the two
    forms put a cell in different columns. Training never reads that
    gradient: only the stack's input has one channel when the filters are
    more than one, and its gradient is dropped."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, c_in, hgt, wid)).astype(dtype)
    f = rng.normal(size=(c_out, c_in, k, k)).astype(dtype)
    up = rng.normal(size=(n, c_out, hgt, wid)).astype(dtype)
    got = conv2d_backward(x, f, tau, up)
    want = scatter_conv2d_backward(x, f, tau, up)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.shape == w.shape
    if c_in == 1 and c_out > 1:
        np.testing.assert_allclose(got[0], want[0], rtol=1e-5 if dtype == np.float32 else 1e-12,
                                   atol=1e-6 if dtype == np.float32 else 1e-13)
    else:
        assert np.array_equal(got[0], want[0])
    assert np.array_equal(got[1], want[1])
    assert np.array_equal(got[2], want[2])


@settings(max_examples=60, deadline=None)
# taps that read only padding (columns at tau = 4, one-row planes and
# cones), and one sample whose shifted taps' input gradients are one cell
@example(n=1, hgt=1, wid=1, channels=(16, 1), k_h=3, k_w=3, tau=4, zeros="all", seed=0)
@example(n=5, hgt=7, wid=8, channels=(3, 16), k_h=3, k_w=3, tau=4, zeros="some", seed=1)
@example(n=64, hgt=20, wid=40, channels=(16, 16), k_h=3, k_w=3, tau=2, zeros="some", seed=2)
@example(n=1, hgt=1, wid=2, channels=(16, 16), k_h=2, k_w=2, tau=1, zeros="some", seed=3)
@given(
    n=st.integers(1, 64),
    hgt=st.integers(1, 20),
    wid=st.integers(1, 40),
    channels=st.sampled_from([(3, 16), (16, 16), (16, 1), (8, 8)]),
    k_h=st.integers(1, 3),
    k_w=st.integers(1, 3),
    tau=st.sampled_from([1, 2, 4]),
    zeros=st.sampled_from(["none", "some", "all"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_conv_taps_read_the_input_with_the_bits_of_a_padded_copy(
        n, hgt, wid, channels, k_h, k_w, tau, zeros, seed):
    """In float32 the forward over the whole plane, the forward at every
    row set tcn._cone gives a three-block ladder (tau 1, 2, 4) for each
    single row, pair of rows and every third row, and conv2d_backward
    equal the padded-copy oracles bit for bit, which multiply every tap,
    those that read only padding too. Inputs may hold -0.0, or be all
    -0.0, where a left-out zero product must not flip a zero's sign."""
    rng = np.random.default_rng(seed)
    c_in, c_out = channels

    def draw(*shape):
        a = rng.normal(size=shape).astype(np.float32)
        if zeros != "none":
            a[rng.random(shape) < (1.0 if zeros == "all" else 0.3)] = -0.0
        return a

    x, up = draw(n, c_in, hgt, wid), draw(n, c_out, hgt, wid)
    f, b = draw(c_out, c_in, k_h, k_w), draw(c_out)
    assert conv2d_causal_dilated(x, f, b, tau).tobytes() == padded_conv2d(x, f, b, tau).tobytes()
    for got, want in zip(conv2d_backward(x, f, tau, up), scatter_conv2d_backward(x, f, tau, up)):
        assert got.tobytes() == want.tobytes()
    ladder = ((k_h, 1), (k_h, 2), (k_h, 4))
    row_sets = {rows for r in range(hgt)
                for rows in [(r,), (r - 1, r), tuple(range(r, hgt, 3))] if rows[0] >= 0}
    cones = {(rows, t) for rows_out in row_sets
             for (rows, _), (_, t) in zip(tcn._cone(ladder, rows_out)[1], ladder)}
    for rows, t in cones:
        held = x[:, :, rows_read(rows, k_h, t)]
        assert (conv2d_causal_dilated(held, f, b, t, *rows).tobytes()
                == padded_conv2d(held, f, b, t, *rows).tobytes())


def test_conv_backward_zero_upstream():
    x = np.ones((1, 1, 3, 3))
    f = np.ones((2, 1, 2, 2))
    gx, gf, gb = conv2d_backward(x, f, 1, np.zeros((1, 2, 3, 3)))
    assert not gx.any() and not gf.any() and not gb.any()


# ---------------------------------------------------------------------------
# batch norm


def test_batch_norm_train_standardises():
    x = np.array([[[[1.0, 2.0], [3.0, 4.0]]]])  # one channel
    out, _ = batch_norm(x, np.ones(1), np.zeros(1), True, RunningStats.fresh(1))
    assert abs(out.mean()) < 1e-12
    assert abs(out.var() - 1.0) < 1e-4  # eps shrinks the variance slightly


@settings(max_examples=60, deadline=None)
@given(
    shape=hnp.array_shapes(min_dims=4, max_dims=4, max_side=9),
    dtype=st.sampled_from([np.float32, np.float64]),
    train=st.booleans(),
    scale=st.sampled_from([1e-3, 1.0, 1e4]),
    seed=st.integers(0, 2**32 - 1),
)
def test_batch_norm_matches_the_two_pass_variance(shape, dtype, train, scale, seed):
    """Centring once gives the output, the cache and the running moments
    that x.mean followed by x.var gives, bit for bit."""
    rng = np.random.default_rng(seed)
    c = shape[1]
    x = (scale * (rng.normal(size=shape) + 3.0 * rng.normal())).astype(dtype)
    gamma = rng.normal(size=c).astype(dtype)
    beta = rng.normal(size=c).astype(dtype)
    start = RunningStats(mean=rng.normal(size=c), var=rng.uniform(0.5, 2.0, c))
    runs = []
    for kernel in (batch_norm, two_pass_batch_norm):
        running = RunningStats(mean=start.mean.copy(), var=start.var.copy())
        out, (xhat, inv_std, _, _) = kernel(x, gamma, beta, train, running)
        runs.append((out, xhat, inv_std, running.mean, running.var))
    for got, want in zip(*runs):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))


def test_batch_norm_running_update_rule():
    rs = RunningStats.fresh(1)
    x = np.full((1, 1, 2, 2), 3.0)
    batch_norm(x, np.ones(1), np.zeros(1), True, rs)
    # new = 0.9 * old + 0.1 * batch; batch mean 3, batch var 0
    assert np.allclose(rs.mean, [0.9 * 0.0 + 0.1 * 3.0])
    assert np.allclose(rs.var, [0.9 * 1.0 + 0.1 * 0.0])


def test_batch_norm_eval_is_fixed_affine():
    rs = RunningStats(mean=np.array([1.0]), var=np.array([4.0]))
    x = np.array([[[[3.0]]]])
    out, _ = batch_norm(x, np.array([2.0]), np.array([0.5]), False, rs)
    assert np.allclose(out, [(3 - 1) / np.sqrt(4 + BN_EPS) * 2 + 0.5])


def test_batch_norm_eval_requires_running():
    with pytest.raises(TypeError):
        batch_norm(np.ones((1, 1, 1, 1)), np.ones(1), np.zeros(1), False)


@pytest.mark.parametrize("shape", [(2,), (2, 1), (1, 2, 2), (1, 1, 1, 2, 2)])
def test_batch_norm_rejects_non_4d_input(shape):
    with pytest.raises(ShapeError):
        batch_norm(np.ones(shape), np.ones(1), np.zeros(1), True, RunningStats.fresh(1))


def test_batch_norm_train_backward_matches_fd():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(3, 2, 2, 2))
    gamma = rng.normal(size=2)
    beta = rng.normal(size=2)
    up = rng.normal(size=x.shape)

    rs = RunningStats.fresh(2)

    def loss():
        out, _ = batch_norm(x, gamma, beta, True, rs)
        return float((out * up).sum())

    _, cache = batch_norm(x, gamma, beta, True, rs)
    gx, gg, gb = batch_norm_backward(cache, up)
    assert np.allclose(gx, _fd(loss, x), atol=1e-6)
    assert np.allclose(gg, _fd(loss, gamma), atol=1e-6)
    assert np.allclose(gb, _fd(loss, beta), atol=1e-6)


def test_batch_norm_eval_backward_matches_fd():
    rng = np.random.default_rng(6)
    rs = RunningStats(mean=rng.normal(size=2), var=rng.uniform(0.5, 2.0, 2))
    x = rng.normal(size=(2, 2, 3, 2))
    gamma = rng.normal(size=2)
    beta = rng.normal(size=2)
    up = rng.normal(size=x.shape)

    def loss():
        out, _ = batch_norm(x, gamma, beta, False, rs)
        return float((out * up).sum())

    _, cache = batch_norm(x, gamma, beta, False, rs)
    gx, gg, gb = batch_norm_backward(cache, up)
    assert np.allclose(gx, _fd(loss, x), atol=1e-7)
    assert np.allclose(gg, _fd(loss, gamma), atol=1e-7)
    assert np.allclose(gb, _fd(loss, beta), atol=1e-7)


# ---------------------------------------------------------------------------
# activations


def test_prelu_piecewise():
    x = np.array([[-2.0], [3.0]])
    out = prelu(x, np.array([0.25]))
    assert out.tolist() == [[-0.5], [3.0]]


def test_prelu_backward_matches_fd():
    rng = np.random.default_rng(7)
    for shape in ((2, 3, 4, 4), (5, 3)):
        x = rng.normal(size=shape)
        slope = rng.uniform(0.1, 0.5, shape[1])
        up = rng.normal(size=shape)

        def loss():
            return float((prelu(x, slope) * up).sum())

        gx, gs = prelu_backward(x, slope, up)
        assert np.allclose(gx, _fd(loss, x), atol=1e-7)
        assert np.allclose(gs, _fd(loss, slope), atol=1e-7)


def _special_floats(dtype):
    fi = np.finfo(dtype)
    return [0.0, -0.0, np.inf, -np.inf, np.nan, fi.smallest_subnormal,
            -fi.smallest_subnormal, fi.tiny, -fi.tiny, fi.max, -fi.max]


@st.composite
def _prelu_case(draw, slopes):
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    shape = draw(st.sampled_from([(3, 4), (2, 3, 4, 5)]))
    width = 32 if dtype == np.float32 else 64
    elements = st.one_of(st.sampled_from(_special_floats(dtype)), st.floats(width=width))
    x, up = (draw(hnp.arrays(dtype, shape, elements=elements)) for _ in range(2))
    if len(shape) == 4:
        # channel-major views, the layout of conv2d_backward's input gradient
        x, up = (np.ascontiguousarray(a.transpose(1, 0, 2, 3)).transpose(1, 0, 2, 3)
                 if draw(st.booleans()) else a for a in (x, up))
    slope = np.array(draw(st.lists(slopes, min_size=shape[1], max_size=shape[1])), dtype=dtype)
    return x, slope, up


def _same_bits(got, want):
    return (got.dtype == want.dtype
            and np.array_equal(got, want, equal_nan=True)
            and np.array_equal(np.signbit(got), np.signbit(want)))


def _check_prelu_against_where(x, slope, up):
    with np.errstate(all="ignore"):
        out = prelu(x, slope)
        gx, gs = prelu_backward(x, slope, up)
        want_gx, want_gs = where_prelu_backward(x, slope, up)
        assert _same_bits(out, where_prelu(x, slope))
    assert _same_bits(gx, want_gx)
    assert gs.dtype == want_gs.dtype and np.array_equal(gs, want_gs, equal_nan=True)


@settings(max_examples=150, deadline=None)
@given(_prelu_case(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))))
def test_prelu_branch_free_matches_where(case):
    """Slopes in [0, 1] run without np.where and give its bits, signed
    zeros, subnormals, infinities and NaNs included."""
    with mock.patch.object(np, "where", side_effect=AssertionError("np.where on the fast path")):
        with np.errstate(all="ignore"):
            prelu(*case[:2])
            prelu_backward(*case)
    _check_prelu_against_where(*case)


@pytest.mark.parametrize("slope", [0.25, 1.5])
def test_prelu_matches_where_at_the_reply_training_shape(slope):
    """Batch 32 of 16-channel 16x12 windows: sums long enough that any
    change in the slope gradient's summation order shows."""
    rng = np.random.default_rng(11)
    x, up = rng.normal(size=(2, 32, 16, 16, 12)).astype(np.float32)
    _check_prelu_against_where(x, np.full(16, slope, np.float32), up)


@settings(max_examples=60, deadline=None)
@given(_prelu_case(st.sampled_from([-0.5, 1.5, 0.25])), st.sampled_from([-0.5, 1.5]))
def test_prelu_slope_outside_zero_one_takes_where(case, outside):
    x, slope, up = case
    slope[0] = outside
    with mock.patch.object(np, "where", wraps=np.where) as where:
        with np.errstate(all="ignore"):
            prelu(x, slope)
        assert where.called
    _check_prelu_against_where(x, slope, up)


def test_softplus_and_sigmoid_identities():
    assert softplus(np.array(0.0)) == np.log(2.0)
    assert np.isfinite(softplus(np.array(1000.0)))
    assert np.isfinite(softplus(np.array(-1000.0)))
    x = np.linspace(-20, 20, 41)
    assert np.allclose(sigmoid(x) + sigmoid(-x), 1.0, atol=1e-12)
    # d softplus / dx = sigmoid
    eps = 1e-6
    fd = (softplus(x + eps) - softplus(x - eps)) / (2 * eps)
    assert np.allclose(fd, sigmoid(x), atol=1e-6)


# ---------------------------------------------------------------------------
# dense


def test_dense_forward_and_backward():
    rng = np.random.default_rng(8)
    x = rng.normal(size=(4, 3))
    w = rng.normal(size=(2, 3))
    b = rng.normal(size=2)
    assert np.allclose(dense(x, w, b), x @ w.T + b)
    up = rng.normal(size=(4, 2))

    def loss():
        return float((dense(x, w, b) * up).sum())

    gx, gw, gb = dense_backward(x, w, up)
    assert np.allclose(gx, _fd(loss, x), atol=1e-7)
    assert np.allclose(gw, _fd(loss, w), atol=1e-7)
    assert np.allclose(gb, _fd(loss, b), atol=1e-7)


def test_dense_single_vector():
    w = np.array([[1.0, 2.0]])
    with pytest.raises(ShapeError):
        dense(np.array([3.0, 4.0]), w, np.array([0.5]))
    with pytest.raises(ShapeError):
        dense_backward(np.array([3.0, 4.0]), w, np.array([1.0]))
    assert dense(np.array([[3.0, 4.0]]), w, np.array([0.5])).tolist() == [[11.5]]


def test_dense_shape_error():
    with pytest.raises(ShapeError):
        dense(np.ones((2, 3)), np.ones((2, 4)), np.zeros(2))


# ---------------------------------------------------------------------------
# loss


def test_mse_hand_value_and_gradient():
    loss, g = mse_loss(np.array([1.0, 2.0]), np.array([2.0, 4.0]))
    assert loss == (1 + 4) / 2
    assert np.allclose(g, [2 * (-1) / 2, 2 * (-2) / 2])


def test_mse_weighted_masks_gradient_exactly():
    pred = np.array([1.0, 5.0, 3.0])
    target = np.array([0.0, 0.0, 0.0])
    w = np.array([1.0, 0.0, 1.0])
    loss, g = mse_loss(pred, target, w)
    assert loss == (1.0 + 9.0) / 2.0
    assert g[1] == 0.0
    assert np.allclose(g, [2 * 1 / 2, 0.0, 2 * 3 / 2])


@pytest.mark.parametrize("weighted", [False, True])
def test_mse_gradient_takes_the_prediction_dtype(weighted):
    rng = np.random.default_rng(6)
    pred = rng.normal(size=(4, 3)).astype(np.float32)
    target = rng.normal(size=(4, 3))
    w = rng.uniform(0, 1, size=(4, 3)) if weighted else None
    loss32, g32 = mse_loss(pred, target, w)
    loss64, g64 = mse_loss(pred.astype(np.float64), target, w)
    assert g32.dtype == np.float32 and g64.dtype == np.float64
    assert type(loss32) is float and loss32 == loss64
    assert np.array_equal(g32, g64.astype(np.float32))


def test_mse_errors():
    with pytest.raises(ShapeError):
        mse_loss(np.zeros(2), np.zeros(3))
    with pytest.raises(ShapeError):
        mse_loss(np.zeros(0), np.zeros(0))
    with pytest.raises(ShapeError):
        mse_loss(np.zeros(2), np.zeros(2), np.zeros(2))


# ---------------------------------------------------------------------------
# Adam


def reference_adam(values, grads, lr, b1, b2, eps, wd):
    """Independent recurrence, one parameter trajectory."""
    theta = values[0].astype(np.float64).copy()
    m = np.zeros_like(theta)
    v = np.zeros_like(theta)
    out = []
    for t, g in enumerate(grads, start=1):
        g = g + wd * theta
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        mh = m / (1 - b1**t)
        vh = v / (1 - b2**t)
        theta = theta - lr * mh / (np.sqrt(vh) + eps)
        out.append(theta.copy())
    return out


def test_adam_matches_reference_recurrence():
    rng = np.random.default_rng(9)
    theta0 = rng.normal(size=7)
    grads = [rng.normal(size=7) for _ in range(250)]
    p = Parameter.of(theta0.copy(), name="w")
    want = reference_adam([theta0], grads, 1e-3, 0.9, 0.999, 1e-8, 0.01)
    for g, w in zip(grads, want):
        p.grad[...] = g
        adam_step(p, lr=1e-3, weight_decay=0.01)
        assert np.allclose(p.value, w, atol=1e-12)


def test_adam_decay_moves_weight_with_zero_grad():
    p = Parameter.of(np.array([1.0]), name="w")
    p.grad[...] = 0.0
    adam_step(p, lr=1e-3, weight_decay=0.01)
    assert p.value[0] < 1.0


def test_adam_first_step_size(monkeypatch):
    # with constant gradient g, the bias-corrected first step is lr * sign(g)
    monkeypatch.setattr(nn, "ADAM_EPS", 0.0)
    p = Parameter.of(np.array([0.0]), name="w")
    p.grad[...] = 0.37
    adam_step(p, lr=1e-3, weight_decay=0.0)
    assert np.allclose(p.value, [-1e-3])


# ---------------------------------------------------------------------------
# grad_check and init


def test_grad_check_passes_on_true_gradient():
    rng = np.random.default_rng(10)
    p = Parameter.of(rng.normal(size=4), name="w")
    target = rng.normal(size=4)

    def loss():
        return float(((p.value - target) ** 2).sum())

    p.grad[...] = 2 * (p.value - target)
    assert grad_check(loss, [p]) < 1e-9


def test_grad_check_catches_wrong_gradient():
    p = Parameter.of(np.array([1.0, 2.0]), name="w")

    def loss():
        return float((p.value**2).sum())

    p.grad[...] = p.value  # should be 2x
    assert grad_check(loss, [p]) > 0.4


def test_he_normal_statistics():
    rng = np.random.default_rng(11)
    w = he_normal(rng, (40000,), fan_in=50, dtype=np.float64)
    assert abs(w.var() - 2.0 / 50.0) < 0.002
    with pytest.raises(ShapeError):
        he_normal(rng, (1,), 0, np.float64)


# ---------------------------------------------------------------------------
# layer objects accumulate into Parameter.grad


def test_layers_accumulate_and_zero():
    rng = np.random.default_rng(12)
    layer = ConvLayer(rng, 1, 2, 2, 2, tau=1, dtype=np.float64)
    x = rng.normal(size=(1, 1, 3, 3))
    up = np.ones((1, 2, 3, 3))
    layer.backward(x, up, True)
    g1 = layer.weight.grad.copy()
    layer.backward(x, up, True)
    assert np.allclose(layer.weight.grad, 2 * g1)
    layer.weight.zero_grad()
    assert not layer.weight.grad.any()


def test_dense_layer_grad_check():
    rng = np.random.default_rng(13)
    layer = DenseLayer(rng, 3, 2, dtype=np.float64, name="dense")
    x = rng.normal(size=(4, 3))
    target = rng.normal(size=(4, 2))

    def loss():
        return float(((layer.forward(x) - target) ** 2).sum())

    for p in layer.params():
        p.zero_grad()
    out = layer.forward(x)
    layer.backward(x, 2 * (out - target))
    assert grad_check(loss, layer.params()) < 1e-8


def test_prelu_bn_layer_wrappers():
    rng = np.random.default_rng(14)
    act = PReLULayer(2, dtype=np.float64, name="act")
    assert np.allclose(act.slope.value, 0.25)
    bn = BatchNormLayer(2, dtype=np.float64, name="norm")
    x = rng.normal(size=(3, 2, 2, 2))
    out, cache = bn.forward(x, train=True)
    assert out.shape == x.shape
    g = bn.backward(cache, np.ones_like(out))
    assert g.shape == x.shape
