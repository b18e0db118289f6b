"""Event-log parsing, canonical serialisation, grid files, CSV."""
import csv
import json
import tracemalloc

import numpy as np
import pytest
from conftest import cascade, stream_strategy, write_zero_column_grid
from hypothesis import given, settings
from hypothesis import strategies as st

from gridcast.dataio import (
    EventParseError,
    GridFileError,
    load_grid,
    parse_events_with_stats,
    save_grid,
    serialize_events,
    write_csv,
)
from gridcast.grid import EventStream, Grid, GridSpec, ThreadCascade, build_grid


def _write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def _ev(tid, kind, ts):
    return json.dumps({"thread_id": tid, "kind": kind, "ts": ts})


@pytest.fixture
def log_path(tmp_path):
    return tmp_path / "events.ndjson"


# ---------------------------------------------------------------------------
# parsing


def test_parse_orders_cascades_and_replies(log_path):
    _write_lines(log_path, [
        _ev("b", "reply", 130.0),
        _ev("b", "thread", 100.0),
        _ev("a", "thread", 50.0),
        _ev("b", "reply", 110.0),
        _ev("a", "reply", 60.0),
    ])
    stream = parse_events_with_stats(log_path)[0]
    assert [c.thread_id for c in stream.cascades] == ["a", "b"]
    assert stream.cascades[1].reply_times == (110.0, 130.0)


def test_parse_stats_and_duplicate_dropping(log_path):
    _write_lines(log_path, [
        _ev("a", "thread", 1.0),
        _ev("a", "reply", 2.0),
        _ev("a", "reply", 2.0),  # exact duplicate triple
        _ev("a", "reply", 3.0),
    ])
    stream, stats = parse_events_with_stats(log_path)
    assert stats == type(stats)(threads=1, replies=2, duplicates=1)
    assert stream.cascades[0].reply_times == (2.0, 3.0)


def test_parse_ignores_blank_lines_and_unknown_fields(log_path):
    _write_lines(log_path, [
        "",
        json.dumps({"thread_id": "a", "kind": "thread", "ts": 5, "extra": [1]}),
        "   ",
    ])
    stream = parse_events_with_stats(log_path)[0]
    assert stream.thread_times.tolist() == [5.0]


def test_parse_empty_file_gives_empty_stream(log_path):
    log_path.write_text("", encoding="utf-8")
    stream, stats = parse_events_with_stats(log_path)
    assert len(stream.cascades) == 0
    assert stats.threads == stats.replies == stats.duplicates == 0


@pytest.mark.parametrize("bad,fragment", [
    ("{not json", "line 2: not valid JSON"),
    ("[1, 2]", "line 2: expected a JSON object"),
    (json.dumps({"kind": "thread", "ts": 1}), "missing field 'thread_id'"),
    (json.dumps({"thread_id": "x", "ts": 1}), "missing field 'kind'"),
    (json.dumps({"thread_id": "x", "kind": "thread"}), "missing field 'ts'"),
    (_ev("x", "repost", 1), "kind must be 'thread' or 'reply'"),
    (_ev("", "thread", 1), "thread_id must be a non-empty string"),
    (json.dumps({"thread_id": 7, "kind": "thread", "ts": 1}), "thread_id"),
    (json.dumps({"thread_id": "x", "kind": "thread", "ts": "soon"}), "ts must be a number"),
    (json.dumps({"thread_id": "x", "kind": "thread", "ts": True}), "ts must be a number"),
    ('{"thread_id": "x", "kind": "thread", "ts": NaN}', "ts must be finite"),
    ('{"thread_id": "x", "kind": "thread", "ts": Infinity}', "ts must be finite"),
    ('{"thread_id": "x", "kind": "reply", "ts": -Infinity}', "ts must be finite"),
    ('{"thread_id": "x", "kind": "thread", "ts": 1e999}', "ts must be finite"),
    pytest.param('{"thread_id": "x", "kind": "thread", "ts": 1' + "0" * 400 + "}",
                 "ts must be finite", id="ts-int-beyond-float-range"),
])
def test_parse_malformed_line_names_line_number(log_path, bad, fragment):
    _write_lines(log_path, [_ev("a", "thread", 0.0), bad])
    with pytest.raises(EventParseError) as exc:
        parse_events_with_stats(log_path)
    assert fragment in str(exc.value)
    assert "line 2" in str(exc.value)


def test_parse_rejects_second_thread_post(log_path):
    _write_lines(log_path, [_ev("a", "thread", 1.0), _ev("a", "thread", 9.0)])
    with pytest.raises(EventParseError, match=r"line 2.*'a' already posted"):
        parse_events_with_stats(log_path)


def test_parse_rejects_reply_without_thread(log_path):
    _write_lines(log_path, [_ev("a", "thread", 1.0), _ev("ghost", "reply", 2.0)])
    with pytest.raises(EventParseError, match="reply without a thread: 'ghost'"):
        parse_events_with_stats(log_path)


def test_parse_rejects_reply_before_thread(log_path):
    _write_lines(log_path, [_ev("a", "thread", 100.0), _ev("a", "reply", 40.0)])
    with pytest.raises(EventParseError, match=r"'a' \(line 1\).*40.*precedes"):
        parse_events_with_stats(log_path)


def test_reply_at_thread_instant_is_allowed(log_path):
    _write_lines(log_path, [_ev("a", "thread", 100.0), _ev("a", "reply", 100.0)])
    assert parse_events_with_stats(log_path)[0].cascades[0].reply_times == (100.0,)


# ---------------------------------------------------------------------------
# serialisation roundtrip


def test_serialize_then_parse_is_identity(log_path):
    stream = EventStream.from_cascades([
        cascade("b", 65.0, 66.0, 200.0),
        cascade("a", 0.0, 10.0, 70.0, 130.0),
    ])
    serialize_events(stream, log_path)
    again = parse_events_with_stats(log_path)[0]
    assert again == stream


def test_serialize_writes_canonical_order(log_path):
    stream = EventStream.from_cascades([cascade("z", 10.0, 12.0), cascade("a", 0.0)])
    serialize_events(stream, log_path)
    kinds = [json.loads(l)["kind"] for l in log_path.read_text().splitlines()]
    ids = [json.loads(l)["thread_id"] for l in log_path.read_text().splitlines()]
    assert kinds == ["thread", "thread", "reply"]
    assert ids == ["a", "z", "z"]


@settings(max_examples=40, deadline=None)
@given(stream=stream_strategy())
def test_serialize_parse_roundtrip_property(tmp_path_factory, stream):
    path = tmp_path_factory.mktemp("io") / "events.ndjson"
    serialize_events(stream, path)
    # identical (thread, reply, ts) lines collapse on re-parse by design
    expected = EventStream.from_cascades([
        cascade(c.thread_id, c.thread_time, *sorted(set(c.reply_times)))
        for c in stream.cascades
    ])
    assert parse_events_with_stats(path)[0] == expected


def _json_dumps_lines(stream) -> bytes:
    """serialize_events' oracle: one json.dumps per record."""
    return "".join(
        json.dumps({"thread_id": c.thread_id, "kind": kind, "ts": ts}) + "\n"
        for c in stream.cascades
        for kind, ts in (("thread", c.thread_time), *(("reply", t) for t in c.reply_times))
    ).encode("utf-8")


# NaN and ints beyond float range only in the fixed cases: NaN has no order,
# and numpy floats do not compare with such ints
_TS = st.one_of(
    st.floats(allow_nan=False),
    st.floats(allow_nan=False).map(np.float64),
    st.integers(-(2**70), 2**70),
)


@st.composite
def _any_stream(draw):
    cascades = []
    for tid in draw(st.lists(st.text(min_size=1), max_size=4, unique=True)):
        t = draw(_TS)
        replies = sorted(r for r in draw(st.lists(_TS, max_size=5)) if r >= t)
        cascades.append(ThreadCascade(tid, t, tuple(replies)))
    return EventStream.from_cascades(cascades)


@settings(max_examples=200, deadline=None)
@given(stream=_any_stream())
def test_serialize_writes_what_json_dumps_writes(tmp_path_factory, stream):
    path = tmp_path_factory.mktemp("io") / "events.ndjson"
    serialize_events(stream, path)
    assert path.read_bytes() == _json_dumps_lines(stream)


@pytest.mark.parametrize("ts, text", [
    (7, "7"),
    (-0.0, "-0.0"),
    (5e-324, "5e-324"),
    (1.7976931348623157e308, "1.7976931348623157e+308"),
    (np.float64(0.1), "0.1"),
    (float("nan"), "NaN"),
    (float("inf"), "Infinity"),
    (float("-inf"), "-Infinity"),
])
@pytest.mark.parametrize("tid", ['say "hi"', "back\\slash", "na\u00efve \u2603 \u65e5\u672c"],
                         ids=["quotes", "backslash", "non-ascii"])
def test_serialize_formats_numbers_and_ids_as_json_dumps(log_path, ts, text, tid):
    stream = EventStream((ThreadCascade(tid, ts, (ts, ts)),))
    serialize_events(stream, log_path)
    assert log_path.read_bytes() == _json_dumps_lines(stream)
    lines = log_path.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 3 and lines[0].isascii()
    assert lines[0] == '{"thread_id": ' + json.dumps(tid) + ', "kind": "thread", "ts": ' + text + "}"


def test_serialize_mixes_int_and_float_times_as_json_dumps(log_path):
    stream = EventStream((ThreadCascade("a", 1, (1.5, 2, 2.0)), ThreadCascade("b", 3.0, (10**400,))))
    serialize_events(stream, log_path)
    assert log_path.read_bytes() == _json_dumps_lines(stream)


# ---------------------------------------------------------------------------
# grid container


def _demo_grid():
    stream = EventStream.from_cascades([
        cascade("a", 0.0, 10.0, 70.0, 130.0),
        cascade("b", 65.0, 66.0, 200.0),
    ])
    return build_grid(stream, d=60.0, t0=0.0, n_rows=5)


def test_grid_file_roundtrip(tmp_path):
    grid = _demo_grid()
    path = tmp_path / "grid.bin"
    save_grid(grid, path)
    loaded = load_grid(path)
    assert loaded.spec == grid.spec
    assert np.array_equal(loaded.counts, grid.counts)
    assert np.array_equal(loaded.arrival_rows, grid.arrival_rows)
    assert loaded.dropped_events == grid.dropped_events
    loaded.validate()


def test_load_grid_peaks_below_1_3_times_the_file(tmp_path):
    """The file is read once into a writable buffer, and the loaded counts
    and arrival rows are aligned views of it: the tracemalloc peak inside
    load_grid on a 1500 x 2000 grid (24 MB of counts) stays below 1.3
    times the file's size, where a copy of the counts would need 2."""
    rng = np.random.default_rng(11)
    n_rows, n_cols = 1500, 2000
    arrival = np.sort(rng.integers(0, n_rows + 50, n_cols))
    counts = rng.poisson(0.5, size=(n_rows, n_cols))
    counts[np.arange(n_rows)[:, None] < arrival[None, :]] = 0
    live = np.nonzero(arrival < n_rows)[0]
    counts[arrival[live], live] += 1
    grid = Grid(GridSpec(60.0, 0.0, n_rows, n_cols), counts, arrival, 0)
    path = tmp_path / "grid.bin"
    save_grid(grid, path)
    del counts, grid
    tracemalloc.start()
    try:
        loaded = load_grid(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    assert peak < 1.3 * size, f"{peak / size:.2f} times the file"
    assert loaded.spec == GridSpec(60.0, 0.0, n_rows, n_cols)
    for a in (loaded.counts, loaded.arrival_rows):
        assert a.dtype == np.int64 and a.flags.aligned and a.flags.writeable
        assert not a.flags.owndata  # a view of the file's buffer


def test_grid_file_bad_magic(tmp_path):
    path = tmp_path / "grid.bin"
    save_grid(_demo_grid(), path)
    path.write_bytes(b"XXXXXXXX" + path.read_bytes()[8:])
    with pytest.raises(GridFileError, match="magic"):
        load_grid(path)


def test_grid_file_bad_version(tmp_path):
    path = tmp_path / "grid.bin"
    save_grid(_demo_grid(), path)
    raw = bytearray(path.read_bytes())
    raw[8] = 9
    path.write_bytes(bytes(raw))
    with pytest.raises(GridFileError, match="version 9"):
        load_grid(path)


def test_grid_file_truncation_and_corruption(tmp_path):
    path = tmp_path / "grid.bin"
    save_grid(_demo_grid(), path)
    good = path.read_bytes()
    path.write_bytes(good[:-8])
    with pytest.raises(GridFileError, match="truncated"):
        load_grid(path)
    raw = bytearray(good)
    raw[-1] ^= 0x01
    path.write_bytes(bytes(raw))
    with pytest.raises(GridFileError, match="CRC"):
        load_grid(path)


def test_grid_file_without_columns_is_rejected(tmp_path):
    path = tmp_path / "empty.bin"
    write_zero_column_grid(path)
    with pytest.raises(GridFileError, match=r"empty\.bin: malformed grid: .*bad grid shape 3x0"):
        load_grid(path)


@pytest.mark.parametrize(
    "counts, arrival_rows, rule",
    [
        ([[1, 0], [-1, 1], [0, 0]], [0, 1], "negative cell count"),
        ([[1, 2], [0, 1], [0, 0]], [0, 1], "nonzero count on a pre-arrival cell"),
        ([[1, 0], [0, 0], [0, 0]], [0, 1], "arrival cell missing its thread event"),
        ([[0, 1], [1, 0], [0, 0]], [1, 0], "arrival rows not non-decreasing"),
    ],
    ids=["negative", "pre-arrival", "arrival-cell", "arrival-order"],
)
def test_grid_file_that_breaks_a_grid_invariant_is_rejected(tmp_path, counts, arrival_rows, rule):
    """Each grid breaks exactly one rule of Grid.validate; the file itself is well formed."""
    counts = np.array(counts, dtype=np.int64)
    grid = Grid(GridSpec(60.0, 0.0, *counts.shape), counts, np.array(arrival_rows, np.int64))
    path = tmp_path / "bad.bin"
    save_grid(grid, path)
    with pytest.raises(GridFileError, match=rf"bad\.bin: malformed grid: .*{rule}"):
        load_grid(path)


# ---------------------------------------------------------------------------
# csv


def test_write_csv(tmp_path):
    path = tmp_path / "out.csv"
    write_csv(path, ["step", "mae"], [[1, 0.5], [2, 0.25]])
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows == [["step", "mae"], ["1", "0.5"], ["2", "0.25"]]
