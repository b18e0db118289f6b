"""Model checkpoints: the shared container (see container.py), version
2, magic b"GCASTCKP". The header holds the model config and free-form
metadata; the arrays are the parameters at their live precision ("<f4"
for standard models), then the float64 batch-norm running statistics,
so reloaded models predict bit-identically. Optimiser moments are not
kept. Saving a freshly loaded model reproduces the file byte for byte.
"""
from __future__ import annotations

from pathlib import Path

from .container import Format, read_container, write_container
from .models import ModelConfig, build_model
from .tcn import load_state, state_arrays

MAGIC = b"GCASTCKP"
VERSION = 2


class CheckpointError(Exception):
    """Base class for unreadable or inconsistent checkpoints."""


class CheckpointVersionError(CheckpointError):
    pass


class CheckpointCorruptError(CheckpointError):
    pass


class CheckpointFormatError(CheckpointError):
    pass


FORMAT = Format(
    "checkpoint", MAGIC, VERSION, ("<f4", "<f8"),
    CheckpointFormatError, CheckpointVersionError, CheckpointCorruptError,
)


def save_checkpoint(model, path: str | Path, meta: dict) -> None:
    header = {"meta": meta, "model": model.config.to_json_dict()}
    write_container(FORMAT, path, header, state_arrays(model))


def load_checkpoint(path: str | Path):
    """Rebuild (model, meta) from a checkpoint file.

    Raises CheckpointError subclasses on a wrong magic, an unsupported
    version, CRC/length damage, an array dtype other than "<f4" or
    "<f8", or arrays whose names or shapes do not match the model the
    stored config describes.
    """
    header, arrays = read_container(FORMAT, path)
    if not arrays:
        raise CheckpointFormatError(f"{path}: empty array manifest")
    try:
        config = ModelConfig.from_json_dict(header["model"])
        model = build_model(config, seed=0, dtype=arrays[0][1].dtype)
        load_state(model, arrays)
        return model, header["meta"]
    except KeyError as exc:
        raise CheckpointFormatError(f"{path}: the header lacks {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise CheckpointFormatError(f"{path}: {exc}") from exc
