"""Reference predictors: the baseline adapters evaluation runs through the
same protocol as the trained models."""
import numpy as np

from gridcast.evaluate import (
    MeanGapBaseline,
    MeanRowBaseline,
    PersistenceGapBaseline,
    PersistenceRowBaseline,
    train_mean_cell_count,
    train_mean_gap_intervals,
)
from gridcast.grid import Grid, GridSpec

D = 300.0


def _times(*gaps):
    """Thread times on the d-lattice with the given gaps in intervals."""
    return np.concatenate([[0.0], np.cumsum(gaps)]) * D


def test_mean_fills_gap_history():
    tt = _times(2.0, 4.0)
    gap = train_mean_gap_intervals(tt, len(tt), D)
    assert gap == 3.0
    base = MeanGapBaseline(gap)
    assert [base.predict_gap(None, j) for j in (1, 2, 3)] == [3.0, 3.0, 3.0]


def test_persistence_repeats_last_gap():
    base = PersistenceGapBaseline(_times(2.0, 4.0, 5.0), D)
    # creating column 4 repeats the gap from column 2 to column 3
    assert base.predict_gap(None, col_index=4) == 5.0
    assert base.predict_gap(None, col_index=3) == 4.0


def test_mean_fills_rows_with_global_mean():
    counts = np.array([[0, 2], [4, 2]], dtype=np.int64)
    grid = Grid(GridSpec(d=D, t0=0.0, n_rows=2, n_cols=2), counts, np.zeros(2, np.int64))
    mean = train_mean_cell_count(grid, 0, 2)
    assert mean == 2.0
    out = MeanRowBaseline(mean).predict_next_rows(np.zeros((3, 1, 2, 2)), np.array([2, 5, 9]))
    assert out.shape == (3, 2)
    assert np.all(out == 2.0)


def test_persistence_repeats_last_row():
    counts = np.array([[0, 2], [4, 1], [3, 3]], dtype=np.int64)
    out = PersistenceRowBaseline(counts).predict_next_rows(np.zeros((2, 1, 1, 2)), np.array([2, 1]))
    assert out.dtype == np.float64
    assert np.array_equal(out, [[4.0, 1.0], [0.0, 2.0]])


def test_persistence_reads_counts_not_the_feature_window():
    """Channel 0 of the window holds anything but counts, as it would under
    a scaled count channel: the baseline still repeats the counts."""
    counts = np.array([[0, 2], [4, 1]], dtype=np.int64)
    window = np.log1p(counts[None, -1:].astype(np.float64)) - 7.0
    out = PersistenceRowBaseline(counts).predict_next_rows(window[None], np.array([2]))
    assert np.array_equal(out, [[4.0, 1.0]])


def test_single_element_history():
    gap = train_mean_gap_intervals(_times(7.0), 2, D)
    assert MeanGapBaseline(gap).predict_gap(None, 2) == 7.0
