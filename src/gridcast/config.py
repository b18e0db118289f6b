"""Flat run settings: a base (the defaults or an experiment's recipe),
then a config file, then flag overrides (flags win)."""
from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, replace
from itertools import product
from pathlib import Path

from .grid import CHANNEL_SETS
from .models import ModelConfig, TrainConfig
from .synth import SynthParams


class ConfigError(ValueError):
    pass


def parse_int_list(text: str) -> list[int]:
    """A non-empty comma list of integers >= 1."""
    try:
        values = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        values = []
    if not values or min(values) < 1:
        raise ConfigError(f"expected comma-separated integers, each >= 1, got {text!r}")
    return values


def parse_float_list(text: str) -> list[float]:
    """A non-empty comma list of finite numbers > 0."""
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        values = []
    if not values or not all(math.isfinite(v) and v > 0 for v in values):
        raise ConfigError(f"expected comma-separated numbers, each finite and > 0, got {text!r}")
    return values


# the smallest value each integer setting takes
_LOWER_BOUNDS = {
    "seed": 0,
    "rows": 0,
    "n_threads": 0,
    "n_intervals": 0,
    "n_start_points": 1,
    "context_cols": 1,
    "horizon_intervals": -1,
}


@dataclass(frozen=True)
class RunSettings:
    """Every run setting, declared once: each field is also the CLI flag
    (window_h is --window-h, typed like its default) of each command that reads it."""

    # gridding
    d: float = 300.0
    t0: float = 0.0
    rows: int = 0  # 0: cover every event
    # features / model
    channels: str = "full"  # S | M | full
    window_h: int = 16
    window_w: int = 12
    n_filters: int = 16
    kernel_size: int = 3
    filter_shape: str = "KxK"  # KxK | Kx1
    n_blocks: int = 3
    loss_mode: str = ModelConfig.loss_mode  # corner | full
    # training
    lr: float = TrainConfig.lr
    weight_decay: float = TrainConfig.weight_decay
    epochs: int = TrainConfig.epochs
    batch_size: int = TrainConfig.batch_size
    seed: int = TrainConfig.seed
    train_frac: float = 0.7
    # synthetic generator
    lambda_thread: float = 1.0 / 600.0
    mu_reply: float = 0.05
    theta: float = 300.0
    horizon: float = 86400.0
    breakout_fraction: float = 0.0
    breakout_boost: float = 1.0
    # forecast / evaluation
    n_threads: int = 6
    n_intervals: int = 10
    n_start_points: int = 20
    span_seconds: float = 3600.0
    context_cols: int = 16
    horizon_intervals: int = -1  # -1: lifetime percentile default
    # hyperparameter search
    search_filters: str = "16,32,64,128"
    search_kernels: str = "3,5,7,9"
    search_blocks: str = "3,4,5,6,7"

    def __post_init__(self):
        for name, value in vars(self).items():
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.d <= 0:
            raise ValueError(f"d must be > 0, got {self.d}")
        if not self.lr > 0:
            raise ValueError(f"lr must be > 0, got {self.lr}")
        if not 0.0 < self.train_frac < 1.0:
            raise ValueError(f"train_frac must lie in (0, 1), got {self.train_frac}")
        if self.channels not in CHANNEL_SETS:
            raise ValueError(
                f"unknown channel set {self.channels!r}, not one of {sorted(CHANNEL_SETS)}"
            )
        if self.filter_shape not in ("KxK", "Kx1"):
            raise ValueError(f"unknown filter shape {self.filter_shape!r}, not KxK or Kx1")
        for name, low in _LOWER_BOUNDS.items():
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be >= {low}, got {getattr(self, name)}")
        for name in SEARCH:
            try:
                parse_int_list(getattr(self, name))
            except ConfigError as exc:
                raise ValueError(f"{name}: {exc}") from exc
        # the library configs' own rules, checked by building what the settings describe
        self.model_config("reply")
        self.train_config()
        self.synth_params()

    def model_config(self, kind: str) -> ModelConfig:
        k_w = 1 if self.filter_shape == "Kx1" else self.kernel_size
        return ModelConfig(
            kind=kind,
            channels=CHANNEL_SETS[self.channels],
            window=(self.window_h, self.window_w),
            n_filters=self.n_filters,
            k_h=self.kernel_size,
            k_w=k_w,
            n_blocks=self.n_blocks,
            loss_mode=self.loss_mode,
        )

    def train_config(self) -> TrainConfig:
        return TrainConfig(**{name: getattr(self, name) for name in _names(TrainConfig)})

    def synth_params(self) -> SynthParams:
        return SynthParams(**{name: getattr(self, name) for name in _names(SynthParams)})

    def search_configs(self, kind: str) -> list[ModelConfig]:
        """The grid-search candidates: this model at each search_filters x
        search_kernels x search_blocks triple, in that nested order."""
        lists = (parse_int_list(getattr(self, name)) for name in SEARCH)
        return [replace(self, n_filters=f, kernel_size=k, n_blocks=b).model_config(kind)
                for f, k, b in product(*lists)]


def _names(cls) -> tuple[str, ...]:
    return tuple(f.name for f in dataclasses.fields(cls))


# the fields each stage reads, by RunSettings' groups
GRIDDING = ("d", "t0", "rows")
MODEL = ("channels", "window_h", "window_w", "n_filters", "kernel_size", "filter_shape",
         "n_blocks", "loss_mode")
TRAINING = (*_names(TrainConfig), "train_frac")
GENERATOR = _names(SynthParams)
SEARCH = ("search_filters", "search_kernels", "search_blocks")
# the model fields a grid search takes from its search lists, not from the settings
SEARCHED = ("n_filters", "kernel_size", "n_blocks")

# the type each setting takes, the rule the CLI flags use too
_TYPES = {f.name: type(f.default) for f in dataclasses.fields(RunSettings)}


def load_settings(config_path: str | None, overrides: dict, base: RunSettings) -> RunSettings:
    """The base settings, then config-file values, then flag overrides."""
    values: dict = {}
    if config_path:
        try:
            raw = json.loads(Path(config_path).read_text(encoding="utf-8"))
        except FileNotFoundError as exc:
            raise ConfigError(f"config file not found: {config_path}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config parse failure in {config_path}: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError(f"{config_path}: config must be a JSON object")
        for key, val in raw.items():
            if key not in _TYPES:
                raise ConfigError(f"{config_path}: unknown config key {key!r}")
            want = _TYPES[key]  # an int may stand for a float; a bool is no number
            if type(val) is not want and not (want is float and type(val) is int):
                raise ConfigError(f"{config_path}: {key!r} must be {want.__name__}, got {val!r}")
        values.update(raw)
    for key, val in overrides.items():
        if val is None:
            continue
        if key not in _TYPES:
            raise ConfigError(f"unknown setting {key!r}")
        values[key] = val
    try:
        return dataclasses.replace(base, **values)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad config values: {exc}") from exc
