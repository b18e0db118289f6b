"""Event-log parsing and on-disk formats.

Event logs are newline-delimited JSON records:

    {"thread_id": "abc", "kind": "thread", "ts": 1690001234.5}
    {"thread_id": "abc", "kind": "reply",  "ts": 1690001301.0}

Records may arrive in any order; unknown fields are ignored; exact
duplicate records are dropped and counted. A reply whose
thread never appears, a reply before its thread post, or a malformed
line is an error that names the offending line.

serialize_events writes each cascade's thread line, then its replies,
every line what json.dumps writes for the record: `{"thread_id": <id>,
"kind": "reply", "ts": <ts>}` with ", " and ": " separators, the id an
ASCII-escaped JSON string, a float ts its float.__repr__ (numpy float64
too) or NaN, Infinity or -Infinity, and an int ts its int.__repr__.

Grids serialise to the binary container checkpoints also use (see
container.py), version 2: d, t0 and dropped_events in the header, and
the arrays counts (n_rows x n_cols) and arrival_rows (n_cols), both
little-endian int64, so the shape is read from the manifest.
"""
from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .container import Format, read_container, write_container
from .grid import EventStream, Grid, GridSpec, ThreadCascade


class EventParseError(ValueError):
    pass


class GridFileError(ValueError):
    pass


GRID_FILE = Format("grid", b"GCASTGRD", 2, ("<i8",), GridFileError, GridFileError, GridFileError)


@dataclass(frozen=True)
class ParseStats:
    threads: int
    replies: int
    duplicates: int


def _record(line: str, line_no: int) -> tuple[str, str, float] | None:
    """The line's (thread_id, kind, ts), or None for a blank line."""
    text = line.strip()
    if not text:
        return None
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise EventParseError(f"line {line_no}: not valid JSON ({exc.msg})") from exc
    if not isinstance(obj, dict):
        raise EventParseError(f"line {line_no}: expected a JSON object")
    try:
        thread_id, kind, ts = obj["thread_id"], obj["kind"], obj["ts"]
    except KeyError as exc:
        raise EventParseError(f"line {line_no}: missing field {exc.args[0]!r}") from exc
    if not isinstance(thread_id, str) or not thread_id:
        raise EventParseError(f"line {line_no}: thread_id must be a non-empty string")
    if kind not in ("thread", "reply"):
        raise EventParseError(f"line {line_no}: kind must be 'thread' or 'reply'")
    if not isinstance(ts, (int, float)) or isinstance(ts, bool):
        raise EventParseError(f"line {line_no}: ts must be a number")
    try:
        finite = math.isfinite(ts)
    except OverflowError:  # an integer beyond float range
        finite = False
    if not finite:
        raise EventParseError(f"line {line_no}: ts must be finite")
    return thread_id, kind, float(ts)


def parse_events_with_stats(path: str | Path) -> tuple[EventStream, ParseStats]:
    seen: set[tuple[str, str, float]] = set()
    threads: dict[str, tuple[float, int]] = {}
    replies: dict[str, list[float]] = {}
    duplicates = 0
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            key = _record(line, line_no)
            if key is None:
                continue
            if key in seen:
                duplicates += 1
                continue
            seen.add(key)
            thread_id, kind, ts = key
            if kind == "thread":
                if thread_id in threads:
                    prev_ts, prev_line = threads[thread_id]
                    raise EventParseError(
                        f"line {line_no}: thread {thread_id!r} already posted "
                        f"at ts {prev_ts} (line {prev_line})"
                    )
                threads[thread_id] = (ts, line_no)
            else:
                replies.setdefault(thread_id, []).append(ts)
    cascades = []
    for tid, reply_ts in replies.items():
        if tid not in threads:
            raise EventParseError(f"reply without a thread: {tid!r}")
    for tid, (t_thread, line_no) in threads.items():
        reply_ts = sorted(replies.get(tid, []))
        if reply_ts and reply_ts[0] < t_thread:
            raise EventParseError(
                f"thread {tid!r} (line {line_no}): reply at ts {reply_ts[0]} "
                f"precedes the thread post at ts {t_thread}"
            )
        cascades.append(ThreadCascade(tid, t_thread, tuple(reply_ts)))
    n_replies = sum(map(len, replies.values()))
    return EventStream.from_cascades(cascades), ParseStats(len(threads), n_replies, duplicates)


_JSON_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def serialize_events(stream: EventStream, path: str | Path) -> None:
    """The canonical log: one json.dumps line per event (module docstring)."""
    with open(path, "w", encoding="utf-8") as fh:
        for casc in stream.cascades:
            times = (casc.thread_time, *casc.reply_times)
            try:
                ts = list(map(float.__repr__, times))
                ts = map(_JSON_NON_FINITE.get, ts, ts)
            except TypeError:  # not every ts a float: json.dumps judges each
                ts = map(json.dumps, times)
            tid = json.dumps(casc.thread_id)
            sep = '}\n{"thread_id": ' + tid + ', "kind": "reply", "ts": '
            fh.write('{"thread_id": ' + tid + ', "kind": "thread", "ts": ' + sep.join(ts) + "}\n")


# ---------------------------------------------------------------------------
# grid container


def save_grid(grid: Grid, path: str | Path) -> None:
    header = {"d": grid.spec.d, "t0": grid.spec.t0, "dropped_events": grid.dropped_events}
    arrays = [("counts", grid.counts.astype("<i8", copy=False)),
              ("arrival_rows", grid.arrival_rows.astype("<i8", copy=False))]
    write_container(GRID_FILE, path, header, arrays)


def load_grid(path: str | Path) -> Grid:
    header, arrays = read_container(GRID_FILE, path)
    if [name for name, _ in arrays] != ["counts", "arrival_rows"]:
        raise GridFileError(f"{path}: the arrays are not counts, then arrival_rows")
    counts, arrival = [a.astype(np.int64) for _, a in arrays]
    del arrays  # the container's views, and with them the file's bytes
    try:
        grid = Grid(
            spec=GridSpec(header["d"], header["t0"], *counts.shape),
            counts=counts,
            arrival_rows=arrival,
            dropped_events=header["dropped_events"],
        )
        grid.validate()  # a GridError is a ValueError
    except (KeyError, TypeError, ValueError) as exc:
        raise GridFileError(f"{path}: malformed grid: {exc!r}") from exc
    return grid


def write_csv(path: str | Path, header: list[str], rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow(row)
