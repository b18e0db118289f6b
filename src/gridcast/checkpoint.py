"""Model checkpoints: one self-describing binary file.

The file is the shared container (see container.py) with magic
b"GCASTCKP". Its header holds the model config, free-form metadata and
the array manifest (name / shape / dtype); its payload holds the arrays
back to back, C order, little-endian.

Parameters are stored at their live precision (float32 for standard
models, so "<f4" payloads); batch-norm running statistics ride along as
float64 buffers so reloaded models predict bit-identically. Optimiser
moments are not persisted. Saving a freshly loaded model reproduces the
file byte for byte.
"""
from __future__ import annotations

from pathlib import Path

import numpy as np

from .container import Format, read_container, write_container
from .models import ModelConfig, build_model
from .tcn import load_state, state_arrays

MAGIC = b"GCASTCKP"
VERSION = 1


class CheckpointError(Exception):
    """Base class for unreadable or inconsistent checkpoints."""


class CheckpointVersionError(CheckpointError):
    pass


class CheckpointCorruptError(CheckpointError):
    pass


class CheckpointFormatError(CheckpointError):
    pass


FORMAT = Format(
    "checkpoint", MAGIC, VERSION, CheckpointError, CheckpointVersionError, CheckpointCorruptError
)


def _le(dtype) -> str:
    return np.dtype(dtype).newbyteorder("<").str


# the array dtypes save_checkpoint writes; nothing else is read back
_DTYPES = ("<f4", "<f8")


def _manifest_dtype(code) -> np.dtype:
    if code not in _DTYPES:
        raise ValueError(f"unsupported array dtype {code!r}")
    return np.dtype(code)


def save_checkpoint(model, path: str | Path, meta: dict | None = None) -> None:
    manifest = []
    chunks = []
    for name, arr in state_arrays(model):
        le = _le(arr.dtype)
        manifest.append({"name": name, "shape": list(arr.shape), "dtype": le})
        chunks.append(np.ascontiguousarray(arr, dtype=le).tobytes())
    header = {"arrays": manifest, "meta": meta or {}, "model": model.config.to_json_dict()}
    write_container(FORMAT, path, header, b"".join(chunks))


def _payload_arrays(path, manifest, payload: bytes):
    """Yield (name, array) for each manifest entry, in payload order."""
    pos = 0
    for name, shape, dt in manifest:
        nbytes = int(np.prod(shape, dtype=np.int64)) * dt.itemsize
        chunk = payload[pos : pos + nbytes]
        pos += nbytes
        if len(chunk) != nbytes:
            raise CheckpointCorruptError(f"{path}: payload ends inside {name!r}")
        yield name, np.frombuffer(chunk, dtype=dt).reshape(shape)
    if pos != len(payload):
        raise CheckpointCorruptError(f"{path}: {len(payload) - pos} stray payload bytes")


def load_checkpoint(path: str | Path):
    """Rebuild (model, meta) from a checkpoint file.

    Raises CheckpointError subclasses on a wrong magic, an unsupported
    version, CRC/length damage, an array dtype other than "<f4" or
    "<f8", or arrays whose names or shapes do not match the model the
    stored config describes.
    """
    header, payload = read_container(FORMAT, path)
    try:
        config = ModelConfig.from_json_dict(header["model"])
        manifest = [
            (e["name"], tuple(int(n) for n in e["shape"]), _manifest_dtype(e["dtype"]))
            for e in header["arrays"]
        ]
        meta = header["meta"]
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointFormatError(f"{path}: malformed header: {exc!r}") from exc
    if not manifest:
        raise CheckpointFormatError(f"{path}: empty array manifest")
    try:
        model = build_model(config, seed=0, dtype=manifest[0][2])
        load_state(model, _payload_arrays(path, manifest, payload))
    except (TypeError, ValueError) as exc:
        raise CheckpointFormatError(f"{path}: {exc}") from exc
    return model, meta
