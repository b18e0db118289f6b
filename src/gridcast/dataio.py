"""Event-log parsing and on-disk formats.

Event logs are newline-delimited JSON records:

    {"thread_id": "abc", "kind": "thread", "ts": 1690001234.5}
    {"thread_id": "abc", "kind": "reply",  "ts": 1690001301.0}

Records may arrive in any order; unknown fields are ignored; exact
duplicate records are dropped and counted. A reply whose
thread never appears, a reply before its thread post, or a malformed
line is an error that names the offending line.

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
class EventRecord:
    thread_id: str
    kind: str
    ts: float


@dataclass(frozen=True)
class ParseStats:
    threads: int
    replies: int
    duplicates: int


def _record(line: str, line_no: int) -> EventRecord | None:
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
    return EventRecord(thread_id=thread_id, kind=kind, ts=float(ts))


def parse_events_with_stats(path: str | Path) -> tuple[EventStream, ParseStats]:
    seen: set[tuple[str, str, float]] = set()
    threads: dict[str, tuple[float, int]] = {}
    replies: dict[str, list[float]] = {}
    duplicates = 0
    n_replies = 0
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            rec = _record(line, line_no)
            if rec is None:
                continue
            key = (rec.thread_id, rec.kind, rec.ts)
            if key in seen:
                duplicates += 1
                continue
            seen.add(key)
            if rec.kind == "thread":
                if rec.thread_id in threads:
                    prev_ts, prev_line = threads[rec.thread_id]
                    raise EventParseError(
                        f"line {line_no}: thread {rec.thread_id!r} already posted "
                        f"at ts {prev_ts} (line {prev_line})"
                    )
                threads[rec.thread_id] = (rec.ts, line_no)
            else:
                replies.setdefault(rec.thread_id, []).append(rec.ts)
                n_replies += 1
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
        cascades.append(
            ThreadCascade(thread_id=tid, thread_time=t_thread, reply_times=tuple(reply_ts))
        )
    stream = EventStream.from_cascades(cascades)
    return stream, ParseStats(threads=len(threads), replies=n_replies, duplicates=duplicates)


def serialize_events(stream: EventStream, path: str | Path) -> None:
    """Canonical order: each cascade's thread line, then its replies."""
    with open(path, "w", encoding="utf-8") as fh:
        for casc in stream.cascades:
            fh.write(json.dumps(
                {"thread_id": casc.thread_id, "kind": "thread", "ts": casc.thread_time}
            ))
            fh.write("\n")
            for ts in casc.reply_times:
                fh.write(json.dumps(
                    {"thread_id": casc.thread_id, "kind": "reply", "ts": ts}
                ))
                fh.write("\n")


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
    (_, counts), (_, arrival) = arrays
    try:
        grid = Grid(
            spec=GridSpec(header["d"], header["t0"], *counts.shape),
            counts=counts.astype(np.int64),
            arrival_rows=arrival.astype(np.int64),
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
