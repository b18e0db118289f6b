"""The binary container shared by grid files and checkpoints: stable bytes,
and a typed error from each loader for every kind of damage."""
import hashlib
import json
import struct

import numpy as np
import pytest
from conftest import cascade, tiny_model
from hypothesis import given, settings
from hypothesis import strategies as st

from gridcast.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from gridcast.dataio import GridFileError, load_grid, save_grid
from gridcast.grid import EventStream, build_grid

PREFIX = 8 + 4 + 8  # magic, u32 version, u64 header length


def _grid():
    stream = EventStream.from_cascades([
        cascade("a", 0.0, 10.0, 70.0, 130.0),
        cascade("b", 65.0, 66.0, 200.0),
    ])
    return build_grid(stream, d=60.0, t0=0.0, n_rows=5)


def _model():
    """A reply model whose state does not depend on the RNG stream."""
    model = tiny_model("reply")
    for k, p in enumerate(model.params()):
        p.value[...] = np.linspace(-1.0, 1.0, p.value.size).reshape(p.value.shape) + k
    for k, (_, buf) in enumerate(model.named_buffers()):
        buf[...] = 0.5 + k
    return model


# loader kind -> (write the file, load it, the loader's error type)
KINDS = {
    "grid": (lambda path: save_grid(_grid(), path), load_grid, GridFileError),
    "checkpoint": (
        lambda path: save_checkpoint(_model(), path, meta={"note": "x"}),
        load_checkpoint,
        CheckpointError,
    ),
}


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    """kind -> bytes of a good file."""
    out = {}
    for kind, (write, _, _) in KINDS.items():
        path = tmp_path_factory.mktemp("good") / kind
        write(path)
        out[kind] = path.read_bytes()
    return out


def _load(tmp_path, kind, raw):
    path = tmp_path / f"damaged.{kind}"
    path.write_bytes(raw)
    return KINDS[kind][1](path)


def _rewrite_header(raw, fn):
    """Apply fn to the JSON header, keeping the stored length consistent."""
    (hlen,) = struct.unpack_from("<Q", raw, 12)
    header = json.loads(raw[PREFIX : PREFIX + hlen])
    fn(header)
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    return raw[:12] + struct.pack("<Q", len(blob)) + blob + raw[PREFIX + hlen :]


def test_container_bytes_are_stable(saved):
    """Format version 1, byte for byte: a change here breaks old files."""
    assert hashlib.sha256(saved["grid"]).hexdigest() == (
        "eb85c0e5d7068868917418e972d27e98e6cce3dc9138707b4f92c580e8bba49c"
    )
    assert hashlib.sha256(saved["checkpoint"]).hexdigest() == (
        "1b3bdf0e7032b11e770a558d7e610e5b39206810e158b200aa8ea89958a86e19"
    )


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_every_truncation_raises_typed_error(tmp_path, saved, kind):
    raw = saved[kind]
    for cut in range(len(raw)):
        with pytest.raises(KINDS[kind][2]):
            _load(tmp_path, kind, raw[:cut])


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_every_inverted_byte_raises_typed_error(tmp_path, saved, kind):
    raw = saved[kind]
    for pos in range(len(raw)):
        bad = bytearray(raw)
        bad[pos] ^= 0xFF
        with pytest.raises(KINDS[kind][2]):
            _load(tmp_path, kind, bytes(bad))


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_any_single_byte_edit_loads_or_raises_typed_error(tmp_path_factory, saved, data):
    """The header carries no checksum, so an edit there may still load
    (a digit of t0, say); it must never escape as an untyped error. In
    the payload the CRC catches every edit."""
    kind = data.draw(st.sampled_from(sorted(KINDS)))
    raw = saved[kind]
    pos = data.draw(st.integers(0, len(raw) - 1))
    byte = data.draw(st.integers(0, 255).filter(lambda b: b != raw[pos]))
    bad = bytearray(raw)
    bad[pos] = byte
    (hlen,) = struct.unpack_from("<Q", raw, 12)
    tmp = tmp_path_factory.mktemp("edit")
    if pos >= PREFIX + hlen:
        with pytest.raises(KINDS[kind][2], match="CRC"):
            _load(tmp, kind, bytes(bad))
    else:
        try:
            _load(tmp, kind, bytes(bad))
        except KINDS[kind][2]:
            pass


@pytest.mark.parametrize("kind,key", [
    ("grid", "n_rows"), ("grid", "d"), ("checkpoint", "model"), ("checkpoint", "arrays"),
])
def test_renamed_header_key_raises_typed_error(tmp_path, saved, kind, key):
    def rename(header):
        header[key + "_"] = header.pop(key)

    with pytest.raises(KINDS[kind][2], match=f"'{key}'"):
        _load(tmp_path, kind, _rewrite_header(saved[kind], rename))


@pytest.mark.parametrize("field,delta", [("n_rows", 1), ("n_cols", -1)])
def test_grid_shape_disagreeing_with_payload_raises_grid_file_error(
    tmp_path, saved, field, delta
):
    def grow(header):
        header[field] += delta

    with pytest.raises(GridFileError, match="payload"):
        _load(tmp_path, "grid", _rewrite_header(saved["grid"], grow))


def test_grid_loader_checks_truncated_header(tmp_path, saved):
    raw = bytearray(saved["grid"])
    struct.pack_into("<Q", raw, 12, len(raw))  # header longer than the file
    with pytest.raises(GridFileError, match="truncated header"):
        _load(tmp_path, "grid", bytes(raw))
