"""Gridding of thread-reply event streams.

A discussion forum emits cascades: a thread post followed by replies. We
bucket each cascade's events into fixed-length time intervals and lay the
result out as a matrix with one column per cascade (in thread arrival
order) and one row per interval. Cells before a cascade's arrival are
structural zeros, distinguished from observed zero counts by a sentinel
mask channel. A relative-time channel encodes intervals elapsed since
each cascade's arrival, normalised per column.

Training windows leave this module as one Segments batch, stacked on
axis 0 from the cutter to the optimiser: features (N, C, h, w), the
anchors (N, 2) they were cut at, and a target of thread gaps (N,) or of
next-row count planes (N, h, w) with their weights.

All functions here are pure; grids and feature tensors are cheap to
rebuild and nothing in this module caches derived channels.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from enum import Enum
from typing import Iterable

import numpy as np


class GridError(ValueError):
    """Invalid inputs for grid construction or slicing."""


@dataclass(frozen=True)
class ThreadCascade:
    """One thread post plus its replies, times in epoch seconds."""

    thread_id: str
    thread_time: float
    reply_times: tuple[float, ...] = ()

    def __post_init__(self):
        if not self.thread_id:
            raise GridError("cascade needs a non-empty thread_id")
        times = self.reply_times
        if any(map(operator.lt, times[1:], times)):
            raise GridError(f"replies of {self.thread_id!r} not sorted")
        if times and times[0] < self.thread_time:
            raise GridError(
                f"reply precedes thread post in cascade {self.thread_id!r}"
            )

    @property
    def size(self) -> int:
        """Cascade size: the thread post itself plus all replies."""
        return 1 + len(self.reply_times)

    @property
    def last_event_time(self) -> float:
        return self.reply_times[-1] if self.reply_times else self.thread_time


@dataclass(frozen=True)
class EventStream:
    """Cascades ordered by (thread_time, thread_id)."""

    cascades: tuple[ThreadCascade, ...]

    def __post_init__(self):
        keys = [(c.thread_time, c.thread_id) for c in self.cascades]
        if not all(map(operator.lt, keys, keys[1:])):
            b = next(b for a, b in zip(keys, keys[1:]) if not a < b)
            raise GridError(f"cascades out of order near {b[1]!r}")

    @classmethod
    def from_cascades(cls, cascades: Iterable[ThreadCascade]) -> "EventStream":
        ordered = sorted(cascades, key=lambda c: (c.thread_time, c.thread_id))
        return cls(tuple(ordered))

    def __len__(self) -> int:
        return len(self.cascades)

    @property
    def thread_times(self) -> np.ndarray:
        return np.array([c.thread_time for c in self.cascades], dtype=np.float64)


@dataclass(frozen=True)
class GridSpec:
    """Interval length d (seconds), stream epoch t0, and matrix shape."""

    d: float
    t0: float
    n_rows: int
    n_cols: int

    def __post_init__(self):
        _check_lattice(self.d, self.t0)
        if self.n_rows < 1 or self.n_cols < 1:
            raise GridError(f"bad grid shape {self.n_rows}x{self.n_cols}")


class Channel(Enum):
    """Feature channels in canonical order."""

    COUNTS = 0
    RELTIME = 1
    MASK = 2


CHANNEL_ORDER = (Channel.COUNTS, Channel.RELTIME, Channel.MASK)

# Named channel subsets selectable from the CLI.
CHANNEL_SETS: dict[str, tuple[Channel, ...]] = {
    "S": (Channel.COUNTS,),
    "M": (Channel.COUNTS, Channel.RELTIME),
    "full": CHANNEL_ORDER,
}


def canonical_channels(channels: Iterable[Channel]) -> tuple[Channel, ...]:
    chans = set(channels)
    if not chans:
        raise GridError("channel set is empty")
    if Channel.COUNTS not in chans:
        raise GridError("channel set missing COUNTS")
    return tuple(c for c in CHANNEL_ORDER if c in chans)


@dataclass(frozen=True)
class Grid:
    """Count matrix plus per-column arrival rows.

    counts[i, j] is the number of events of cascade j (thread post
    included) inside interval i. arrival_rows[j] is the interval index
    of cascade j's thread post; it may be >= n_rows when the post falls
    beyond the materialised window. dropped_events counts events past
    the last row.
    """

    spec: GridSpec
    counts: np.ndarray
    arrival_rows: np.ndarray
    dropped_events: int = 0

    def __post_init__(self):
        if self.counts.shape != (self.spec.n_rows, self.spec.n_cols):
            raise GridError(
                f"counts shape {self.counts.shape} does not match spec "
                f"{(self.spec.n_rows, self.spec.n_cols)}"
            )
        if self.arrival_rows.shape != (self.spec.n_cols,):
            raise GridError("arrival_rows length must equal n_cols")

    @property
    def mask(self) -> np.ndarray:
        """Sentinel channel: 1 on structural-zero cells before arrival."""
        return _mask(np.arange(self.spec.n_rows), self.arrival_rows).astype(np.uint8)

    def crop(self, n_rows: int, cols: slice) -> "Grid":
        """A copy of the first n_rows rows of the given columns: what was
        observable at row n_rows."""
        counts = self.counts[:n_rows, cols].copy()
        spec = GridSpec(self.spec.d, self.spec.t0, *counts.shape)
        return Grid(spec=spec, counts=counts, arrival_rows=self.arrival_rows[cols].copy())

    def validate(self) -> None:
        """Deep invariant check, meant for tests and ingest paths."""
        if self.counts.min() < 0:
            raise GridError("negative cell count")
        rows = np.arange(self.spec.n_rows)
        step = max(1, (1 << 20) // self.spec.n_cols)  # rows per pre-arrival mask of ~1 MB
        for r in range(0, self.spec.n_rows, step):
            live = _mask(rows[r : r + step], self.arrival_rows)  # the rows' pre-arrival cells
            if np.any(self.counts[r : r + step], where=live):
                raise GridError("nonzero count on a pre-arrival cell")
        in_window = self.arrival_rows < self.spec.n_rows
        cols = np.where(in_window)[0]
        if np.any(self.counts[self.arrival_rows[cols], cols] < 1):
            raise GridError("arrival cell missing its thread event")
        if np.any(np.diff(self.arrival_rows) < 0):
            raise GridError("arrival rows not non-decreasing")


def _check_lattice(d: float, t0: float) -> None:
    """Raise GridError unless d and t0 are finite and d > 0: the lattice
    interval_index can search."""
    if not (math.isfinite(d) and math.isfinite(t0)):
        raise GridError(f"interval length and epoch must be finite, got d={d}, t0={t0}")
    if d <= 0:  # interval_index would search without end
        raise GridError(f"interval length must be positive, got {d}")


def _check_epoch(stream: EventStream, t0: float) -> None:
    """Raise GridError unless the non-empty stream starts at or after t0.
    The first thread post is the earliest event: cascades are sorted and
    replies never precede their thread."""
    first = stream.cascades[0]
    if first.thread_time < t0:
        raise GridError(
            f"event before t0 in cascade {first.thread_id!r}: {first.thread_time} < {t0}"
        )


def interval_index(t: float, t0: float, d: float) -> int:
    """Index i with t0 + i*d <= t < t0 + (i+1)*d under float comparison.

    Plain floor((t - t0) / d) can land one off when (t - t0) / d rounds
    across an integer; nudge until the half-open test holds exactly.
    """
    i = math.floor((t - t0) / d)
    while t0 + (i + 1) * d <= t:
        i += 1
    while t0 + i * d > t:
        i -= 1
    return i


def build_grid(stream: EventStream, d: float, t0: float, n_rows: int) -> Grid:
    """Bucket every cascade of the stream into a count grid.

    Events at or beyond row n_rows are dropped (tallied, not an error).
    Events before t0 are an error: the epoch must precede the stream.
    """
    _check_lattice(d, t0)
    if len(stream) == 0:
        raise GridError("cannot grid an empty stream")
    if n_rows < 1:
        raise GridError("need at least one row")
    _check_epoch(stream, t0)

    n_cols = len(stream)
    counts = np.zeros((n_rows, n_cols), dtype=np.int64)
    arrival = np.zeros(n_cols, dtype=np.int64)
    dropped = 0
    for j, casc in enumerate(stream.cascades):
        arrival[j] = interval_index(casc.thread_time, t0, d)
        for t in (casc.thread_time,) + casc.reply_times:
            i = interval_index(t, t0, d)
            if i < n_rows:
                counts[i, j] += 1
            else:
                dropped += 1
    spec = GridSpec(d=d, t0=t0, n_rows=n_rows, n_cols=n_cols)
    return Grid(spec=spec, counts=counts, arrival_rows=arrival, dropped_events=dropped)


def rows_covering(stream: EventStream, d: float, t0: float) -> int:
    """Smallest row count that keeps every event of the stream in window."""
    _check_lattice(d, t0)
    if not stream.cascades:
        raise GridError("an empty stream covers no rows")
    _check_epoch(stream, t0)
    last = max(c.last_event_time for c in stream.cascades)
    return interval_index(last, t0, d) + 1


def time_split(grid: Grid, frac: float) -> tuple[int, int]:
    """Train/test split in time: (r_split, col_split).

    Rows before r_split, and the col_split threads arriving in them,
    train; the last rows and the threads arriving in them test. r_split
    keeps at least one row on each side when the grid has two.
    """
    r_split = min(max(int(grid.spec.n_rows * frac), 1), grid.spec.n_rows - 1)
    return r_split, int(np.searchsorted(grid.arrival_rows, r_split))


def _relative_time(rows: np.ndarray, arrival_rows: np.ndarray, n_rows) -> np.ndarray:
    """The RELTIME channel at the given rows (..., h) of columns arriving
    at arrival_rows (..., w), in grids of n_rows rows: (..., h, w).

    Intervals since arrival, scaled to [0, 1] by each column's maximum.
    Pre-arrival cells are zero. A column whose maximum is zero (arrival
    in the last row, or beyond the window) stays all zero rather than
    dividing by zero."""
    arrival = arrival_rows[..., None, :]
    elapsed = np.maximum(rows[..., :, None] - arrival, 0).astype(np.float64)
    return elapsed / np.maximum(n_rows - 1 - arrival, 1)


def _mask(rows: np.ndarray, arrival_rows: np.ndarray) -> np.ndarray:
    """Grid.mask at the given rows (..., h) of columns arriving at
    arrival_rows (..., w), as booleans (..., h, w): the cell's row lies
    before its column's arrival row."""
    return rows[..., :, None] < arrival_rows[..., None, :]


def window_features(
    counts: np.ndarray,
    n_rows: np.ndarray,
    arrival_rows: np.ndarray,
    widths: np.ndarray,
    channels: Iterable[Channel],
) -> np.ndarray:
    """The channels of N grids, each given by its last h rows: float64
    (N, C, h, w). counts (N, h, w) holds those rows at the bottom, zero
    above row 0 and right of the grid's width; n_rows (N,), arrival_rows
    (N, w) and widths (N,) are the grids' row counts, arrival rows and
    column counts. A cell depends only on its row, count, column's
    arrival row and n_rows, so grid k's window has the bits of
    window_at(assemble_features(grid_k).data, n_rows[k] - 1, widths[k] - 1,
    h, widths[k]), zero-padded on the right to w."""
    chans = canonical_channels(channels)
    n, h, w = counts.shape
    rows = n_rows[:, None] - h + np.arange(h)  # absolute rows, negative above row 0
    live = (rows >= 0)[:, :, None] & (np.arange(w) < widths[:, None])[:, None, :]
    out = np.empty((n, len(chans), h, w), dtype=np.float64)
    for k, ch in enumerate(chans):
        if ch is Channel.COUNTS:
            out[:, k] = counts
        elif ch is Channel.RELTIME:
            # finite and >= 0, so the product keeps a live cell's bits
            np.multiply(_relative_time(rows, arrival_rows, n_rows[:, None, None]), live,
                        out=out[:, k])
        else:
            out[:, k] = _mask(rows, arrival_rows) & live
    return out


def assemble_features(
    grid: Grid,
    channels: Iterable[Channel] = CHANNEL_ORDER,
) -> "FeatureTensor":
    """Stack the requested channels into a float64 C x H x W tensor: the
    window_features of the whole grid."""
    n_rows, n_cols = grid.counts.shape
    chans = canonical_channels(channels)
    data = window_features(grid.counts[None], np.array([n_rows]), grid.arrival_rows[None],
                           np.array([n_cols]), chans)[0]
    return FeatureTensor(channels=chans, data=data, spec=grid.spec)


@dataclass(frozen=True)
class FeatureTensor:
    """Channel-stacked view of a grid, shape (C, n_rows, n_cols)."""

    channels: tuple[Channel, ...]
    data: np.ndarray
    spec: GridSpec

    def __post_init__(self):
        expect = (len(self.channels), self.spec.n_rows, self.spec.n_cols)
        if self.data.shape != expect:
            raise GridError(f"feature tensor shape {self.data.shape} != {expect}")


def window_at(data: np.ndarray, row: int, col: int, h: int, w: int) -> np.ndarray:
    """h x w window whose bottom-right cell is (row, col), zero-padded
    top-left (the causal direction only) where it overhangs the tensor."""
    r0, c0 = row - h + 1, col - w + 1
    block = data[..., max(r0, 0) : row + 1, max(c0, 0) : col + 1]
    widths = [(0, 0)] * (data.ndim - 2) + [(max(0, -r0), 0), (max(0, -c0), 0)]
    return np.pad(block, widths)


class TargetKind(Enum):
    THREAD_GAP = "thread_gap"
    NEXT_ROW = "next_row"


@dataclass(frozen=True)
class Segments:
    """N training windows and their supervision, stacked on axis 0.

    features is (N, C, h, w); anchors (N, 2) holds each window's
    bottom-right (row, col). THREAD_GAP: target (N,) is the row gap to
    the next thread and target_weight is None. NEXT_ROW: target (N, h, w)
    is each window's count matrix shifted up one row, and target_weight
    zeroes padding and pre-arrival cells. Indexing on axis 0 (a slice,
    index array or mask) gives the sub-batch.
    """

    features: np.ndarray
    anchors: np.ndarray
    target: np.ndarray
    target_weight: np.ndarray | None

    @property
    def kind(self) -> TargetKind:
        return TargetKind.THREAD_GAP if self.target_weight is None else TargetKind.NEXT_ROW

    def __len__(self) -> int:
        return len(self.anchors)

    def __getitem__(self, rows) -> "Segments":
        weight = None if self.target_weight is None else self.target_weight[rows]
        return Segments(self.features[rows], self.anchors[rows], self.target[rows], weight)


def _windows(data: np.ndarray, anchors: np.ndarray, h: int, w: int) -> np.ndarray:
    """window_at for each (row, col) of anchors, stacked as float64 on axis 0."""
    out = np.empty((len(anchors), *data.shape[:-2], h, w), dtype=np.float64)
    for k, (i, j) in enumerate(anchors):
        out[k] = window_at(data, int(i), int(j), h, w)
    return out


def gap_columns(grid: Grid, lo: int, hi: int | None = None) -> list[int]:
    """Columns j in [lo, hi) with a scorable gap: column j + 1 exists
    and thread j arrives inside the materialised rows."""
    last = grid.spec.n_cols - 1
    hi = last if hi is None else min(hi, last)
    return [j for j in range(max(lo, 0), hi) if grid.arrival_rows[j] < grid.spec.n_rows]


def slice_segments(
    tensor: FeatureTensor,
    grid: Grid,
    h: int,
    w: int,
    kind: TargetKind,
    col_range: tuple[int, int],
) -> Segments:
    """Cut thread-gap training windows out of a feature tensor.

    One window per gap column j (see gap_columns), anchored bottom-right
    at (arrival_rows[j], j), with target arrival_rows[j + 1] -
    arrival_rows[j]. col_range restricts j (half-open). Next-row windows
    come from frontier_segments: kind NEXT_ROW raises GridError.
    """
    if kind is TargetKind.NEXT_ROW:
        raise GridError("slice_segments cuts THREAD_GAP windows; use frontier_segments")
    if h < 1 or w < 1:
        raise GridError("window dims must be >= 1")
    if tensor.spec != grid.spec:
        raise GridError("feature tensor and grid describe different specs")
    cols = np.array(gap_columns(grid, *col_range), dtype=np.int64)
    arrivals = grid.arrival_rows
    anchors = np.stack([arrivals[cols], cols], axis=1)
    gaps = arrivals[cols + 1] - arrivals[cols]
    return Segments(_windows(tensor.data, anchors, h, w), anchors, gaps.astype(np.float64), None)


def frontier_segments(
    tensor: FeatureTensor,
    grid: Grid,
    h: int,
    w: int,
    row_range: tuple[int, int],
) -> Segments:
    """Next-row windows whose right edge tracks the arrived frontier.

    Each window is anchored at (i, J_i) where J_i is the newest column
    already arrived by row i -- the geometry the rolling forecast sees
    live -- so the corner target is always a real cell. (Windows pinned
    to the grid's trailing columns would, on a grid covering a whole
    stream, supervise almost only pre-arrival cells.) Anchor rows
    before the first arrival are skipped; row_range restricts the
    anchor rows (half-open), e.g. for a train/test time split.
    """
    if h < 1 or w < 1:
        raise GridError("window dims must be >= 1")
    if tensor.spec != grid.spec:
        raise GridError("feature tensor and grid describe different specs")
    n_rows = grid.spec.n_rows
    lo, hi = row_range
    rows = np.arange(max(lo, 0), min(hi, n_rows - 1), dtype=np.int64)
    cols = np.searchsorted(grid.arrival_rows, rows, side="right") - 1
    anchors = np.stack([rows, cols], axis=1)[cols >= 0]
    # the same windows one row further down; i + 1 < n_rows always
    below = anchors + (1, 0)
    return Segments(
        features=_windows(tensor.data, anchors, h, w),
        anchors=anchors,
        target=_windows(grid.counts, below, h, w),
        target_weight=_windows(1.0 - grid.mask, below, h, w),
    )
