"""Spans around calls into gridcast, recorded from outside the program.

A Recorder keeps every span in memory (span id, parent span id, name,
start, end) and writes them out once, at the end of a run. A Tracer
wraps the public functions and methods of the traced gridcast modules so
that each call opens a span; a function imported by name into another
module is wrapped at every binding, so a call through any name is seen.
uninstall() puts every original attribute back.

Self time is a span's duration minus the time its direct child spans
cover. The program is single-threaded apart from BLAS, so spans nest
strictly and children never overlap.
"""
from __future__ import annotations

import gzip
import importlib
import inspect
import json
import os
import sys
import time
from collections import defaultdict
from enum import Enum
from types import ModuleType

PACKAGE = "gridcast"
TRACED_LAYERS = ("dataio", "grid", "nn", "tcn", "models", "forecast", "evaluate", "checkpoint")

# Public functions left unwrapped, with the reason.
UNTRACED = {
    # Called once per event inside build_grid: a span would cost more
    # than the work it measures and would swamp build_grid's self time.
    "grid.interval_index",
}


class Recorder:
    """In-memory span store. Spans are numbered in the order they open."""

    def __init__(self, run_id: str, clock=time.perf_counter):
        self.run_id = run_id
        self.clock = clock
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.errors: list[bool] = []
        self.counters: dict[tuple[str, str], float] = defaultdict(float)
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        sid = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.errors.append(False)
        self.ends.append(0.0)
        self._stack.append(sid)
        self.starts.append(self.clock())
        return sid

    def close(self, sid: int, error: bool = False) -> None:
        self.ends[sid] = self.clock()
        if self._stack.pop() != sid:
            raise RuntimeError(f"span {sid} ({self.names[sid]}) closed out of order")
        self.errors[sid] = error

    def span(self, name: str):
        return _Span(self, name)

    def count(self, name: str, key: str, value: float) -> None:
        self.counters[(name, key)] += value

    def __len__(self) -> int:
        return len(self.names)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds, self seconds, errors."""
        child = [0.0] * len(self.names)
        for sid, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += self.ends[sid] - self.starts[sid]
        out: dict[str, dict[str, float]] = {}
        for sid, name in enumerate(self.names):
            dur = self.ends[sid] - self.starts[sid]
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "errors": 0})
            row["calls"] += 1
            row["total_s"] += dur
            row["self_s"] += dur - child[sid]
            row["errors"] += int(self.errors[sid])
        return out

    def write_jsonl(self, path: str) -> None:
        """One JSON object per span, gzip-compressed."""
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            for sid, name in enumerate(self.names):
                fh.write(json.dumps({
                    "run": self.run_id, "id": sid, "parent": self.parents[sid],
                    "name": name, "start": self.starts[sid], "end": self.ends[sid],
                    "error": self.errors[sid],
                }))
                fh.write("\n")


class _Span:
    __slots__ = ("rec", "name", "sid")

    def __init__(self, rec: Recorder, name: str):
        self.rec, self.name = rec, name

    def __enter__(self):
        self.sid = self.rec.open(self.name)
        return self

    def __exit__(self, exc_type, exc, tb):
        self.rec.close(self.sid, error=exc_type is not None)
        return False


def _wrap(fn, name: str, rec: Recorder, meter):
    def traced(*args, **kwargs):
        sid = rec.open(name)
        try:
            out = fn(*args, **kwargs)
        except BaseException:
            rec.close(sid, error=True)
            raise
        rec.close(sid)
        if meter is not None:
            meter(rec, name, args, kwargs, out)
        return out

    traced.__name__ = getattr(fn, "__name__", name)
    traced.__qualname__ = getattr(fn, "__qualname__", name)
    traced.__doc__ = fn.__doc__
    traced.__wrapped__ = fn
    return traced


def _is_plain_class(obj) -> bool:
    return inspect.isclass(obj) and not issubclass(obj, (BaseException, Enum))


def _package_modules() -> list[tuple[str, ModuleType]]:
    return [(name, m) for name, m in sorted(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


class Tracer:
    """Wraps the public callables of the TRACED_LAYERS modules, at every
    binding in the package's modules. `meters` maps a span name to a
    function called after each successful call to record counters."""

    def __init__(self, rec: Recorder, meters: dict | None = None):
        self.rec = rec
        self.meters = meters or {}
        self._saved: list[tuple[object, str, object]] = []  # (owner, attr, original)

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        wrapped: dict[int, object] = {}  # id(original function) -> wrapper
        for layer in TRACED_LAYERS:
            module = importlib.import_module(f"{PACKAGE}.{layer}")
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    name = f"{layer}.{attr}"
                    if name not in UNTRACED:
                        wrapped[id(obj)] = _wrap(obj, name, self.rec, self.meters.get(name))
                elif _is_plain_class(obj):
                    self._wrap_class(layer, obj)
        for _, module in _package_modules():
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrapped and inspect.isfunction(obj):
                    self._saved.append((module, attr, obj))
                    setattr(module, attr, wrapped[id(obj)])

    def _wrap_class(self, layer: str, cls) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{layer}.{cls.__qualname__}.{attr}"
            if name in UNTRACED:
                continue
            meter = self.meters.get(name)
            if isinstance(raw, (classmethod, staticmethod)):
                new = type(raw)(_wrap(raw.__func__, name, self.rec, meter))
            elif inspect.isfunction(raw):
                new = _wrap(raw, name, self.rec, meter)
            else:
                continue  # properties and plain class attributes
            self._saved.append((cls, attr, raw))
            setattr(cls, attr, new)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, exc_type, exc, tb):
        self.uninstall()
        return False


def snapshot() -> dict[tuple[str, str], object]:
    """Every attribute of the package's modules and of the classes they
    define, keyed by (owner, attribute), for an identity comparison."""
    out: dict[tuple[str, str], object] = {}
    for mod_name, module in _package_modules():
        for attr, obj in vars(module).items():
            out[(mod_name, attr)] = obj
            if _is_plain_class(obj) and obj.__module__ == mod_name:
                for cattr, cobj in vars(obj).items():
                    out[(f"{mod_name}.{obj.__qualname__}", cattr)] = cobj
    return out


def changed_attributes(before: dict, after: dict) -> list[tuple[str, str]]:
    keys = set(before) | set(after)
    return sorted(k for k in keys if before.get(k, None) is not after.get(k, None))
