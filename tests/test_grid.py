"""Grid construction, channels, padding, and segment slicing."""
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gridcast.grid import (
    CHANNEL_ORDER,
    CHANNEL_SETS,
    Channel,
    EventStream,
    Grid,
    GridError,
    GridSpec,
    TargetKind,
    ThreadCascade,
    assemble_features,
    build_grid,
    canonical_channels,
    frontier_segments,
    gap_columns,
    interval_index,
    rows_covering,
    slice_segments,
    time_split,
    window_at,
    window_features,
)

from conftest import brute_force_counts, cascade, column_max_relative_time, stream_strategy


# ---------------------------------------------------------------------------
# cascade / stream validation


def test_cascade_rejects_unsorted_replies():
    with pytest.raises(GridError, match="not sorted"):
        ThreadCascade("x", 0.0, (5.0, 3.0))


def test_cascade_rejects_reply_before_thread():
    with pytest.raises(GridError, match="precedes"):
        ThreadCascade("x", 10.0, (5.0,))


def test_cascade_size_counts_thread_itself():
    assert cascade("x", 0.0, 1.0, 2.0).size == 3
    assert cascade("x", 0.0).size == 1


def test_stream_orders_by_time_then_id():
    s = EventStream.from_cascades(
        [cascade("b", 5.0), cascade("a", 5.0), cascade("z", 1.0)]
    )
    assert [c.thread_id for c in s.cascades] == ["z", "a", "b"]


def test_stream_rejects_out_of_order():
    with pytest.raises(GridError, match="out of order"):
        EventStream((cascade("b", 5.0), cascade("a", 1.0)))


def _loop_order_error(times) -> bool:
    """ThreadCascade's reply-order rule written as a pairwise loop."""
    return any(b < a for a, b in zip(times, times[1:]))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(st.floats(), st.integers(-3, 3)), max_size=6))
@example([math.nan, 0.0])
@example([1.0, math.nan, 0.5])
@example([2, 1.0])
@example([1.0, 1.0, 2])
def test_cascade_reply_order_rule_matches_the_pairwise_loop(times):
    """NaN compares false either way, so a NaN between two replies passes."""
    if _loop_order_error(times):
        with pytest.raises(GridError, match=r"^replies of 'x' not sorted$"):
            ThreadCascade("x", -math.inf, tuple(times))
    else:
        ThreadCascade("x", -math.inf, tuple(times))


@pytest.mark.parametrize("ids, times, near", [
    ("abcd", (1.0, 2.0, 0.0, -1.0), "c"),  # the first cascade not after its predecessor
    ("abcd", (1.0, 1.0, 1.0, 1.0), None),  # ties in time, ascending ids
    ("aa", (1.0, 1.0), "a"),  # a repeated key
])
def test_stream_order_error_names_the_first_cascade_out_of_order(ids, times, near):
    cascades = tuple(cascade(tid, t) for tid, t in zip(ids, times))
    if near is None:
        assert len(EventStream(cascades)) == len(ids)
    else:
        with pytest.raises(GridError, match=rf"^cascades out of order near '{near}'$"):
            EventStream(cascades)


# ---------------------------------------------------------------------------
# build_grid


def test_single_thread_single_cell():
    s = EventStream((cascade("a", 100.0),))
    g = build_grid(s, d=300.0, t0=100.0, n_rows=1)
    assert g.counts.tolist() == [[1]]
    assert g.mask.tolist() == [[0]]


def test_interval_holding_twelve_events():
    t = 1000.0
    replies = tuple(t + 600.0 + k for k in range(11))  # interval 2 of d=300
    s = EventStream((ThreadCascade("a", t, replies),))
    g = build_grid(s, d=300.0, t0=1000.0, n_rows=4)
    assert g.counts[2, 0] == 11
    # pack one more into the same interval to reach 12
    s2 = EventStream((ThreadCascade("a", t, replies + (t + 899.0,)),))
    g2 = build_grid(s2, d=300.0, t0=1000.0, n_rows=4)
    assert g2.counts[2, 0] == 12


def test_counts_match_brute_force_oracle_randomized():
    rng = np.random.default_rng(7)
    for _ in range(60):
        n = int(rng.integers(1, 6))
        t0 = float(rng.integers(0, 50))
        cascades = []
        for i in range(n):
            t = t0 + float(np.round(rng.uniform(0, 400), 3))
            reps = np.round(rng.uniform(0, 500, size=rng.integers(0, 20)), 3)
            cascades.append(ThreadCascade(f"c{i}", t, tuple(sorted(t + reps))))
        stream = EventStream.from_cascades(cascades)
        d = float(rng.choice([7.0, 37.5, 60.0, 301.0]))
        n_rows = int(rng.integers(1, 20))
        g = build_grid(stream, d, t0, n_rows)
        want, want_drop = brute_force_counts(stream, d, t0, n_rows)
        assert np.array_equal(g.counts, want)
        assert g.dropped_events == want_drop


def test_boundary_event_lands_in_later_interval():
    s = EventStream((cascade("a", 0.0, 60.0, 119.999, 120.0),))
    g = build_grid(s, d=60.0, t0=0.0, n_rows=3)
    assert g.counts[:, 0].tolist() == [1, 2, 1]


def test_column_sums_equal_one_plus_replies(small_stream, small_grid):
    for j, casc in enumerate(small_stream.cascades):
        in_window = sum(
            1 for t in casc.reply_times if 0.0 <= t < 5 * 60.0
        )
        assert small_grid.counts[:, j].sum() == 1 + in_window


def test_mask_zero_counts_consistency(small_grid):
    m = small_grid.mask.astype(bool)
    assert not small_grid.counts[m].any()
    small_grid.validate()


def test_build_grid_errors():
    s = EventStream((cascade("a", 10.0),))
    with pytest.raises(GridError, match="positive"):
        build_grid(s, d=0.0, t0=0.0, n_rows=1)
    with pytest.raises(GridError, match="empty"):
        build_grid(EventStream(()), d=1.0, t0=0.0, n_rows=1)
    with pytest.raises(GridError, match="before t0"):
        build_grid(s, d=1.0, t0=20.0, n_rows=1)


def test_events_beyond_rows_dropped_and_tallied():
    s = EventStream((cascade("a", 0.0, 10.0, 500.0, 600.0),))
    g = build_grid(s, d=60.0, t0=0.0, n_rows=3)
    assert g.dropped_events == 2
    assert g.counts[:, 0].sum() == 2


@pytest.mark.parametrize("d", [0.0, -5.0])
def test_rows_covering_rejects_non_positive_d(small_stream, d):
    with pytest.raises(GridError, match="positive"):
        rows_covering(small_stream, d, 0.0)


NON_FINITE = [float("nan"), float("inf"), float("-inf")]


@pytest.mark.parametrize("value", NON_FINITE)
def test_non_finite_lattice_is_rejected(small_stream, value):
    for d, t0 in [(value, 0.0), (60.0, value)]:
        with pytest.raises(GridError, match="must be finite"):
            rows_covering(small_stream, d, t0)
        with pytest.raises(GridError, match="must be finite"):
            build_grid(small_stream, d, t0, 10)
        with pytest.raises(GridError, match="must be finite"):
            GridSpec(d=d, t0=t0, n_rows=10, n_cols=2)


def test_rows_covering_rejects_an_empty_stream():
    with pytest.raises(GridError, match="empty stream"):
        rows_covering(EventStream.from_cascades([]), 60.0, 0.0)


@pytest.mark.parametrize("t0", [30.0, 1000.0])  # some events before t0, then all
def test_rows_covering_rejects_events_before_t0(small_stream, t0):
    with pytest.raises(GridError, match=f"event before t0 in cascade 'a': 0.0 < {t0}"):
        rows_covering(small_stream, 60.0, t0)


def test_rows_covering_is_tight(small_stream):
    n = rows_covering(small_stream, 60.0, 0.0)
    g = build_grid(small_stream, 60.0, 0.0, n)
    assert g.dropped_events == 0
    g2 = build_grid(small_stream, 60.0, 0.0, n - 1)
    assert g2.dropped_events > 0


def test_crop_copies_the_observed_prefix(small_grid):
    sub = small_grid.crop(3, slice(1, 3))
    assert sub.spec == GridSpec(d=60.0, t0=0.0, n_rows=3, n_cols=2)
    assert np.array_equal(sub.counts, small_grid.counts[:3, 1:3])
    assert sub.arrival_rows.tolist() == [1, 4]
    sub.counts[...] = 0
    assert small_grid.counts[:3, 1:3].any()  # a copy, not a view


def test_time_split_keeps_a_row_on_each_side(small_grid):
    assert small_grid.arrival_rows.tolist() == [0, 1, 4]
    assert time_split(small_grid, 0.7) == (3, 2)  # rows 0-2 and columns 0-1 train
    assert time_split(small_grid, 0.0) == (1, 1)
    assert time_split(small_grid, 1.0) == (4, 2)


def test_gap_columns_need_a_successor_and_an_arrival_in_the_rows():
    s = EventStream.from_cascades([
        cascade("a", 0.0), cascade("b", 70.0), cascade("c", 200.0), cascade("d", 230.0),
    ])
    g = build_grid(s, d=60.0, t0=0.0, n_rows=3)
    assert g.arrival_rows.tolist() == [0, 1, 3, 3]
    # c arrives beyond the last row; d, the last column, has no successor
    assert gap_columns(g, 0) == [0, 1]
    assert gap_columns(g, 1) == [1]
    assert gap_columns(g, 0, 1) == [0]
    assert gap_columns(g, -2, 10) == [0, 1]
    assert slice_segments(_tensor(g), g, 2, 2, TargetKind.THREAD_GAP,
                          (0, g.spec.n_cols)).anchors[:, 1].tolist() == [0, 1]


@given(stream_strategy(), st.sampled_from([30.0, 60.0, 150.0]), st.integers(1, 30))
@settings(max_examples=60, deadline=None)
def test_grid_matches_oracle_property(stream, d, n_rows):
    g = build_grid(stream, d, 0.0, n_rows)
    want, want_drop = brute_force_counts(stream, d, 0.0, n_rows)
    assert np.array_equal(g.counts, want)
    assert g.dropped_events == want_drop
    g.validate()


def test_interval_index_boundaries():
    assert interval_index(0.0, 0.0, 60.0) == 0
    assert interval_index(59.999, 0.0, 60.0) == 0
    assert interval_index(60.0, 0.0, 60.0) == 1
    # awkward floats: 0.1*3 != 0.3 exactly
    i = interval_index(0.1 * 3, 0.0, 0.3)
    assert 0.0 + i * 0.3 <= 0.1 * 3 < 0.0 + (i + 1) * 0.3


@pytest.mark.parametrize(
    "t, t0, d, want",
    [
        (621112.0999999999, 0.7, 0.7, 887302),  # floor lands one low
        (7543641.845126337, 0.0, 226.6242630794706, 33286),  # floor lands one high
    ],
)
def test_interval_index_nudges_a_floor_that_lands_one_off(t, t0, d, want):
    assert math.floor((t - t0) / d) != want
    i = interval_index(t, t0, d)
    assert i == want
    assert t0 + i * d <= t < t0 + (i + 1) * d


def _valid_grid():
    counts = np.array([[1, 0], [0, 1], [2, 0]])
    return Grid(spec=GridSpec(60.0, 0.0, 3, 2), counts=counts, arrival_rows=np.array([0, 1]))


def _break_count(cell, value):
    def edit(g):
        g.counts[cell] = value
    return edit


def _swap_arrivals(g):
    g.counts[...] = [[0, 1], [1, 0], [0, 0]]
    g.arrival_rows[...] = [1, 0]


@pytest.mark.parametrize(
    "edit, message",
    [
        (_break_count((2, 0), -1), "negative cell count"),
        (_break_count((0, 1), 1), "nonzero count on a pre-arrival cell"),
        (_break_count((1, 1), 0), "arrival cell missing its thread event"),
        (_swap_arrivals, "arrival rows not non-decreasing"),
    ],
    ids=["negative", "pre-arrival", "arrival", "order"],
)
def test_validate_names_each_broken_invariant(edit, message):
    g = _valid_grid()
    g.validate()
    edit(g)
    with pytest.raises(GridError, match=message):
        g.validate()


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 6).flatmap(lambda h: st.integers(1, 5).flatmap(lambda w: st.tuples(
    st.lists(st.lists(st.integers(0, 2), min_size=w, max_size=w), min_size=h, max_size=h),
    st.lists(st.integers(0, h + 2), min_size=w, max_size=w),
))))
def test_validate_pre_arrival_rule_matches_the_mask(grid_and_arrivals):
    """Arrival rows in any order, some beyond the window."""
    counts, arrival_rows = (np.array(a, dtype=np.int64) for a in grid_and_arrivals)
    g = Grid(GridSpec(60.0, 0.0, *counts.shape), counts, arrival_rows)
    if counts[g.mask.astype(bool)].any():
        with pytest.raises(GridError, match="nonzero count on a pre-arrival cell"):
            g.validate()
    else:
        try:
            g.validate()
        except GridError as exc:
            assert "pre-arrival" not in str(exc)


def test_validate_reads_the_last_block_of_rows():
    """So wide a grid that each block is one row: the bad cell is in the last."""
    n_cols = (1 << 19) + 1
    counts = np.zeros((3, n_cols), dtype=np.int64)
    counts[0, : n_cols - 1] = 1
    g = Grid(GridSpec(60.0, 0.0, 3, n_cols), counts, np.zeros(n_cols, np.int64))
    g.arrival_rows[-1] = 3  # beyond the window: every cell of the column is pre-arrival
    g.validate()
    counts[2, -1] = 1
    with pytest.raises(GridError, match="nonzero count on a pre-arrival cell"):
        g.validate()


# ---------------------------------------------------------------------------
# relative-time channel


def reltime(g: Grid) -> np.ndarray:
    return assemble_features(g, (Channel.COUNTS, Channel.RELTIME)).data[1]


def test_reltime_arrival_row_two_of_six():
    spec = GridSpec(d=1.0, t0=0.0, n_rows=6, n_cols=1)
    counts = np.zeros((6, 1), dtype=np.int64)
    counts[2, 0] = 1
    g = Grid(spec=spec, counts=counts, arrival_rows=np.array([2]))
    r = reltime(g)[:, 0]
    assert np.allclose(r, [0, 0, 0, 1 / 3, 2 / 3, 1], atol=0)


def test_reltime_all_masked_column_stays_zero():
    spec = GridSpec(d=1.0, t0=0.0, n_rows=4, n_cols=1)
    g = Grid(
        spec=spec,
        counts=np.zeros((4, 1), dtype=np.int64),
        arrival_rows=np.array([9]),
    )
    assert not reltime(g).any()


def test_reltime_arrival_in_last_row_stays_zero():
    spec = GridSpec(d=1.0, t0=0.0, n_rows=4, n_cols=1)
    counts = np.zeros((4, 1), dtype=np.int64)
    counts[3, 0] = 1
    g = Grid(spec=spec, counts=counts, arrival_rows=np.array([3]))
    assert not reltime(g).any()


@given(stream_strategy(), st.integers(2, 25))
@settings(max_examples=40, deadline=None)
def test_reltime_bounded_monotone_zero_on_mask(stream, n_rows):
    g = build_grid(stream, 60.0, 0.0, n_rows)
    r = reltime(g)
    assert r.min() >= 0.0 and r.max() <= 1.0
    assert not r[g.mask.astype(bool)].any()
    assert np.all(np.diff(r, axis=0) >= -1e-15)


@given(st.integers(1, 60), st.lists(st.integers(0, 70), min_size=1, max_size=20))
@settings(max_examples=200, deadline=None)
def test_reltime_closed_form_equals_the_column_max_oracle(n_rows, arrivals):
    """The assembled channel, bit for bit, columns arriving past the last
    row included."""
    n_cols = len(arrivals)
    g = Grid(GridSpec(1.0, 0.0, n_rows, n_cols), np.zeros((n_rows, n_cols), dtype=np.int64),
             np.array(arrivals, dtype=np.int64))
    got, want = reltime(g), column_max_relative_time(g)
    assert got.dtype == want.dtype == np.float64
    assert got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# feature assembly


def test_assemble_counts_only_identity(small_grid):
    t = assemble_features(small_grid, (Channel.COUNTS,))
    assert t.data.shape == (1, 5, 3)
    assert np.array_equal(t.data[0], small_grid.counts.astype(float))


def test_assemble_full_mask_passthrough(small_grid):
    t = assemble_features(small_grid, CHANNEL_ORDER)
    assert np.array_equal(t.data[2], small_grid.mask.astype(float))


def test_assemble_reltime_matches_recompute(small_grid):
    t = assemble_features(small_grid, (Channel.COUNTS, Channel.RELTIME))
    assert np.array_equal(t.data[1], column_max_relative_time(small_grid))


def test_assemble_requires_counts(small_grid):
    with pytest.raises(GridError, match="COUNTS"):
        assemble_features(small_grid, (Channel.MASK,))
    with pytest.raises(GridError, match="empty"):
        canonical_channels(())


def test_channel_order_canonicalised(small_grid):
    t = assemble_features(small_grid, (Channel.MASK, Channel.COUNTS))
    assert t.channels == (Channel.COUNTS, Channel.MASK)


# ---------------------------------------------------------------------------
# padding and windows


# window_at pads only where the window overhangs the top or left edge


def test_pad_noop():
    m = np.arange(6.0).reshape(2, 3)
    out = window_at(m, 1, 2, 2, 3)
    assert np.array_equal(out, m) and out is not m


def test_pad_single_cell():
    assert window_at(np.array([[1.0]]), 0, 0, 2, 2).tolist() == [[0, 0], [0, 1]]


def test_pad_positional_oracle():
    rng = np.random.default_rng(0)
    m = rng.normal(size=(4, 5))
    out = window_at(m, 3, 4, 6, 8)
    assert out.shape == (6, 8)
    assert np.array_equal(out[2:, 3:], m)
    assert np.count_nonzero(out) == np.count_nonzero(m)


@given(
    st.integers(0, 3), st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)
)
@settings(max_examples=30, deadline=None)
def test_pad_composes(a, b, c, e):
    """A window of a padded window is the window padded once by the sum."""
    m = np.arange(12.0).reshape(3, 4)
    once = window_at(m, 2, 3, 3 + a + c, 4 + b + e)
    inner = window_at(m, 2, 3, 3 + a, 4 + b)
    twice = window_at(inner, 2 + a, 3 + b, 3 + a + c, 4 + b + e)
    assert np.array_equal(once, twice)


def test_window_at_interior_and_overhang():
    data = np.arange(24.0).reshape(1, 4, 6)
    win = window_at(data, 3, 5, 2, 3)
    assert np.array_equal(win[0], data[0, 2:4, 3:6])
    over = window_at(data, 0, 0, 3, 2)
    assert over.shape == (1, 3, 2)
    assert over[0, :2, :].sum() == 0 and over[0, 2, 0] == 0
    assert over[0, 2, 1] == data[0, 0, 0]


@st.composite
def grid_tails(draw):
    """(n_rows, sorted arrival rows, counts seed) of one grid: widths 1 to
    8, and arrivals past the last row."""
    arrivals = draw(st.lists(st.integers(0, 24), min_size=1, max_size=8))
    return draw(st.integers(1, 20)), sorted(arrivals), draw(st.integers(0, 2**16))


@given(
    grids=st.lists(grid_tails(), min_size=1, max_size=4),
    h=st.integers(1, 20),
    chans=st.sampled_from(sorted(CHANNEL_SETS)),
)
@example(grids=[(3, [0], 0)], h=16, chans="full")
@example(grids=[(4, [0, 2, 9], 1), (2, [1], 3), (20, [0, 5, 19, 30], 4)], h=3, chans="M")
@example(grids=[(9, [1, 4, 6], 2), (1, [0, 0], 5)], h=4, chans="S")
@settings(max_examples=150, deadline=None)
def test_window_features_are_each_grids_assembled_window(grids, h, chans):
    """A batch of N grids of mixed widths (1 included) and row counts (under
    and over h), columns arriving past the last row and pre-arrival
    cells, for each channel set, to the bit: each grid's window, zero
    right of its width, against its assembled tensor, and against planes
    built without the shared channel code (counts, Grid.mask and the
    column-max relative time)."""
    w = max(len(arrivals) for _, arrivals, _ in grids)
    batch_counts = np.zeros((len(grids), h, w), dtype=np.int64)
    batch_arrivals = np.zeros((len(grids), w), dtype=np.int64)
    singles = []
    for k, (n_rows, arrivals, seed) in enumerate(grids):
        arrival_rows = np.array(arrivals, dtype=np.int64)
        counts = np.random.default_rng(seed).integers(0, 9, (n_rows, len(arrivals)))
        grid = Grid(GridSpec(60.0, 0.0, n_rows, len(arrivals)), counts, arrival_rows)
        counts[grid.mask.astype(bool)] = 0
        tail = counts[-h:]
        batch_counts[k, h - len(tail) :, : len(arrivals)] = tail
        batch_arrivals[k, : len(arrivals)] = arrival_rows
        singles.append(grid)
    n_rows = np.array([g.spec.n_rows for g in singles])
    widths = np.array([g.spec.n_cols for g in singles])
    got = window_features(batch_counts, n_rows, batch_arrivals, widths, CHANNEL_SETS[chans])
    assert got.dtype == np.float64
    assert got.shape == (len(grids), len(CHANNEL_SETS[chans]), h, w)
    for window, grid in zip(got, singles):
        width = grid.spec.n_cols
        assert not window[..., width:].any()  # zero-padded on the right
        window = window[..., :width].copy()
        corner = (grid.spec.n_rows - 1, width - 1, h, width)
        assembled = window_at(assemble_features(grid, CHANNEL_SETS[chans]).data, *corner)
        planes = {Channel.COUNTS: grid.counts.astype(np.float64),
                  Channel.RELTIME: column_max_relative_time(grid),
                  Channel.MASK: grid.mask.astype(np.float64)}
        data = np.stack([planes[ch] for ch in canonical_channels(CHANNEL_SETS[chans])])
        for want in (assembled, window_at(data, *corner)):
            assert window.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# zeros gap: the thread-gap target, rows between consecutive arrivals


def _tensor(grid):
    return assemble_features(grid, CHANNEL_ORDER)


def _gaps(g, col_range=None):
    col_range = col_range or (0, g.spec.n_cols)
    return slice_segments(_tensor(g), g, 1, 1, TargetKind.THREAD_GAP, col_range).target.tolist()


def test_zeros_gap_same_interval():
    s = EventStream.from_cascades([cascade("a", 10.0), cascade("b", 20.0)])
    g = build_grid(s, d=60.0, t0=0.0, n_rows=2)
    assert _gaps(g) == [0.0]


def test_zeros_gap_floor_oracle():
    s = EventStream.from_cascades([cascade("a", 10.0), cascade("b", 130.0)])
    g = build_grid(s, d=60.0, t0=0.0, n_rows=3)
    assert _gaps(g) == [2.0]


def test_zeros_gap_direct_subtraction():
    spec = GridSpec(d=1.0, t0=0.0, n_rows=12, n_cols=2)
    counts = np.zeros((12, 2), dtype=np.int64)
    counts[5, 0] = 1
    counts[9, 1] = 1
    g = Grid(spec=spec, counts=counts, arrival_rows=np.array([5, 9]))
    assert _gaps(g) == [4.0]


def test_zeros_gap_out_of_range(small_grid):
    # the last column (2) has no successor and a negative column is no column
    assert _gaps(small_grid, col_range=(2, 10)) == []
    arr = small_grid.arrival_rows
    assert _gaps(small_grid, col_range=(-1, 1)) == [float(arr[1] - arr[0])]


@given(stream_strategy(max_cascades=5), st.integers(1, 30))
@settings(max_examples=40, deadline=None)
def test_zeros_gap_telescopes(stream, n_rows):
    g = build_grid(stream, 60.0, 0.0, n_rows)
    segs = slice_segments(_tensor(g), g, 2, 2, TargetKind.THREAD_GAP, (0, g.spec.n_cols))
    arr = g.arrival_rows
    if not len(segs):
        return
    last = segs.anchors[-1, 1] + 1
    assert segs.target.sum() == arr[last] - arr[0]
    if arr[-1] < n_rows:  # every thread arrives in the rows: one gap per column pair
        assert last == g.spec.n_cols - 1


# ---------------------------------------------------------------------------
# slice_segments


@given(stream_strategy(), st.integers(1, 30), st.sampled_from([(1, 1), (2, 3), (4, 2), (6, 5)]))
@settings(max_examples=60, deadline=None)
def test_segment_rows_are_the_windows_at_their_anchors(stream, n_rows, hw):
    g = build_grid(stream, 60.0, 0.0, n_rows)
    tensor = _tensor(g)
    h, w = hw
    gaps = slice_segments(tensor, g, h, w, TargetKind.THREAD_GAP, (0, g.spec.n_cols))
    rows = frontier_segments(tensor, g, h, w, (0, g.spec.n_rows))
    assert gaps.kind is TargetKind.THREAD_GAP and rows.kind is TargetKind.NEXT_ROW
    live = 1.0 - g.mask
    for segs in (gaps, rows):
        n = len(segs)
        assert segs.features.shape == (n, 3, h, w) and segs.anchors.shape == (n, 2)
        for k, (i, j) in enumerate(segs.anchors):
            assert np.array_equal(segs.features[k], window_at(tensor.data, i, j, h, w))
    arr = g.arrival_rows
    assert gaps.target.shape == (len(gaps),) and gaps.target_weight is None
    for k, (i, j) in enumerate(gaps.anchors):
        assert i == arr[j] and gaps.target[k] == arr[j + 1] - arr[j]
    assert rows.target.shape == rows.target_weight.shape == (len(rows), h, w)
    for k, (i, j) in enumerate(rows.anchors):
        assert np.array_equal(rows.target[k], window_at(g.counts, i + 1, j, h, w))
        assert np.array_equal(rows.target_weight[k], window_at(live, i + 1, j, h, w))


def test_segments_index_to_the_sub_batch(small_grid):
    for segs in (
        slice_segments(_tensor(small_grid), small_grid, 3, 2, TargetKind.THREAD_GAP,
                       (0, small_grid.spec.n_cols)),
        frontier_segments(_tensor(small_grid), small_grid, 3, 2, (0, small_grid.spec.n_rows)),
    ):
        tail = segs[-1:]
        assert len(tail) == 1 and tail.kind is segs.kind
        for name in ("features", "anchors", "target"):
            assert np.array_equal(getattr(tail, name), getattr(segs, name)[-1:])
        if segs.target_weight is not None:
            assert np.array_equal(tail.target_weight, segs.target_weight[-1:])


def test_next_row_on_single_row_grid_is_empty():
    s = EventStream((cascade("a", 0.0),))
    g = build_grid(s, d=60.0, t0=0.0, n_rows=1)
    segs = frontier_segments(_tensor(g), g, 2, 2, (0, g.spec.n_rows))
    assert len(segs) == 0
    assert segs.features.shape == (0, 3, 2, 2) and segs.anchors.shape == (0, 2)
    assert segs.target.shape == segs.target_weight.shape == (0, 2, 2)


def test_thread_gap_with_one_column_is_empty():
    g = build_grid(EventStream((cascade("a", 0.0),)), d=60.0, t0=0.0, n_rows=3)
    segs = slice_segments(_tensor(g), g, 4, 2, TargetKind.THREAD_GAP, (0, g.spec.n_cols))
    assert segs.features.shape == (0, 3, 4, 2) and segs.target.shape == (0,)


def test_slice_segments_sends_next_row_to_frontier_segments(small_grid):
    with pytest.raises(GridError, match="frontier_segments"):
        slice_segments(_tensor(small_grid), small_grid, 3, 2, TargetKind.NEXT_ROW,
                       (0, small_grid.spec.n_cols))


def test_thread_gap_two_columns_single_segment():
    s = EventStream.from_cascades([cascade("a", 10.0), cascade("b", 130.0)])
    g = build_grid(s, d=60.0, t0=0.0, n_rows=3)
    segs = slice_segments(_tensor(g), g, 2, 2, TargetKind.THREAD_GAP, (0, g.spec.n_cols))
    assert len(segs) == 1
    assert segs.target.tolist() == [2.0]
    assert segs.anchors.tolist() == [[int(g.arrival_rows[0]), 0]]


def _below(anchor, r, c, h, w):
    """Grid cell one row below window cell (r, c), or None off the grid."""
    i, j = anchor
    g, col = i - h + 2 + r, j - w + 1 + c
    return (g, col) if g >= 0 and col >= 0 else None


def test_next_row_targets_reconstruct_counts(small_grid):
    for w in (small_grid.spec.n_cols, 2):
        segs = frontier_segments(_tensor(small_grid), small_grid, 3, w, (0, small_grid.spec.n_rows))
        assert len(segs)
        for anchor, target in zip(segs.anchors, segs.target):
            for r in range(3):
                for c in range(w):
                    cell = _below(anchor, r, c, 3, w)
                    want = small_grid.counts[cell] if cell else 0
                    assert target[r, c] == want


def test_next_row_window_shape_and_exclusion(small_grid):
    segs = frontier_segments(_tensor(small_grid), small_grid, 3, 2, (0, small_grid.spec.n_rows))
    assert segs.features.shape[1:] == (3, 3, 2)
    for (i, j), feats in zip(segs.anchors, segs.features):
        # window bottom row is grid row i; the target row i+1 is excluded
        assert np.array_equal(
            feats[0, -1, :], window_at(small_grid.counts.astype(float), i, j, 1, 2)[0]
        )


def test_next_row_weights_follow_mask(small_grid):
    segs = frontier_segments(_tensor(small_grid), small_grid, 3, 3, (0, small_grid.spec.n_rows))
    for anchor, weight in zip(segs.anchors, segs.target_weight):
        for r in range(3):
            for c in range(3):
                cell = _below(anchor, r, c, 3, 3)
                want = 1.0 - small_grid.mask[cell] if cell else 0.0
                assert weight[r, c] == want


def test_thread_gap_skips_unmaterialised_anchor():
    s = EventStream.from_cascades(
        [cascade("a", 0.0), cascade("b", 60.0), cascade("c", 600.0)]
    )
    g = build_grid(s, d=60.0, t0=0.0, n_rows=3)  # c arrives at row 10, beyond
    segs = slice_segments(_tensor(g), g, 2, 2, TargetKind.THREAD_GAP, (0, g.spec.n_cols))
    assert segs.anchors[:, 1].tolist() == [0, 1]


def test_slice_rejects_bad_dims(small_grid):
    with pytest.raises(GridError):
        slice_segments(_tensor(small_grid), small_grid, 0, 2, TargetKind.THREAD_GAP,
                       (0, small_grid.spec.n_cols))


def test_window_padding_covers_oversized_request(small_grid):
    segs = frontier_segments(_tensor(small_grid), small_grid, 50, 50, (0, small_grid.spec.n_rows))
    assert segs.features[0].shape == (3, 50, 50)


# ---------------------------------------------------------------------------
# frontier_segments


def test_frontier_anchor_tracks_newest_arrival(small_grid):
    segs = frontier_segments(_tensor(small_grid), small_grid, 3, 2, (0, small_grid.spec.n_rows))
    arr = small_grid.arrival_rows
    for i, j in segs.anchors:
        assert arr[j] <= i
        assert j == small_grid.spec.n_cols - 1 or arr[j + 1] > i


def test_frontier_corner_is_always_live(small_grid):
    segs = frontier_segments(_tensor(small_grid), small_grid, 3, 2, (0, small_grid.spec.n_rows))
    assert len(segs), "expected at least one frontier segment"
    assert (segs.target_weight[:, -1, -1] == 1.0).all()


def test_frontier_targets_match_counts(small_grid):
    w = 2
    segs = frontier_segments(_tensor(small_grid), small_grid, 3, w, (0, small_grid.spec.n_rows))
    for (i, j), target, feats in zip(segs.anchors, segs.target, segs.features):
        cols = np.arange(max(0, j - w + 1), j + 1)
        want = np.zeros(w)
        want[w - len(cols) :] = small_grid.counts[i + 1, cols]
        assert np.array_equal(target[-1], want)
        assert np.array_equal(
            feats, window_at(_tensor(small_grid).data, i, j, 3, w)
        )


def test_frontier_skips_rows_before_first_arrival():
    s = EventStream.from_cascades([cascade("a", 200.0), cascade("b", 260.0)])
    g = build_grid(s, d=60.0, t0=0.0, n_rows=6)
    segs = frontier_segments(_tensor(g), g, 2, 2, (0, g.spec.n_rows))
    assert segs.anchors[:, 0].min() == int(g.arrival_rows[0])


def test_frontier_respects_row_range(small_grid):
    segs = frontier_segments(_tensor(small_grid), small_grid, 3, 2, row_range=(1, 3))
    assert set(segs.anchors[:, 0].tolist()) <= {1, 2}
