"""The binary container shared by grid files and checkpoints: stable bytes,
and a typed error from each loader for every kind of damage."""
import hashlib
import json
import struct
import zlib

import numpy as np
import pytest
from conftest import cascade, tiny_model
from hypothesis import given, settings
from hypothesis import strategies as st

from gridcast.checkpoint import (
    CheckpointCorruptError,
    CheckpointError,
    CheckpointVersionError,
    load_checkpoint,
    save_checkpoint,
)
from gridcast.dataio import GridFileError, load_grid, save_grid
from gridcast.grid import EventStream, build_grid

# magic, u32 version, u32 CRC-32 of everything after it, u64 header length
CRC_OFF, HLEN_OFF, PREFIX = 12, 16, 24


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


def _sealed(raw):
    """raw with its CRC recomputed, so the loader gets past the CRC check."""
    return raw[:CRC_OFF] + struct.pack("<I", zlib.crc32(raw[HLEN_OFF:])) + raw[HLEN_OFF:]


def _rewrite_header(raw, fn):
    """Apply fn to the JSON header, keeping the stored length and the CRC
    consistent."""
    (hlen,) = struct.unpack_from("<Q", raw, HLEN_OFF)
    header = json.loads(raw[PREFIX : PREFIX + hlen])
    fn(header)
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    return _sealed(raw[:HLEN_OFF] + struct.pack("<Q", len(blob)) + blob + raw[PREFIX + hlen :])


def test_container_bytes_are_stable(saved):
    """Format version 2, byte for byte: a change here breaks old files."""
    assert hashlib.sha256(saved["grid"]).hexdigest() == (
        "f0d2c4c0650134a463d6fb439b96ede6af9a1822cf8ef445dbf46c4de0cf15a7"
    )
    assert hashlib.sha256(saved["checkpoint"]).hexdigest() == (
        "f812e2f5d30a395139c3a461d1ad5e8dea992bad507d0e548da9103da7b2738a"
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
def test_any_single_byte_edit_raises_typed_error(tmp_path_factory, saved, data):
    """The CRC covers everything after itself, so an edit there always
    fails it; an edit of the magic or the version is named as such."""
    kind = data.draw(st.sampled_from(sorted(KINDS)))
    raw = saved[kind]
    pos = data.draw(st.integers(0, len(raw) - 1))
    byte = data.draw(st.integers(0, 255).filter(lambda b: b != raw[pos]))
    bad = bytearray(raw)
    bad[pos] = byte
    match = "magic" if pos < 8 else "version" if pos < CRC_OFF else "CRC"
    with pytest.raises(KINDS[kind][2], match=match):
        _load(tmp_path_factory.mktemp("edit"), kind, bytes(bad))


def test_equal_length_header_edit_fails_the_crc(tmp_path, saved):
    """A header edit that leaves valid JSON of the same length, a grid's
    t0 or a checkpoint's meta, must fail the CRC rather than load."""
    assert saved["grid"].count(b'"t0":0.0') == 1
    with pytest.raises(GridFileError, match="CRC"):
        _load(tmp_path, "grid", saved["grid"].replace(b'"t0":0.0', b'"t0":7.0'))
    assert saved["checkpoint"].count(b'"note":"x"') == 1
    with pytest.raises(CheckpointCorruptError, match="CRC"):
        _load(tmp_path, "checkpoint", saved["checkpoint"].replace(b'"note":"x"', b'"note":"y"'))


@pytest.mark.parametrize(
    "kind,error", [("grid", GridFileError), ("checkpoint", CheckpointVersionError)]
)
def test_version_1_file_raises_the_version_error(tmp_path, saved, kind, error):
    """A version-1 prefix (magic, u32 version, u64 header length) and header."""
    blob = b'{"payload_bytes":0,"payload_crc32":0}'
    raw = saved[kind][:8] + struct.pack("<IQ", 1, len(blob)) + blob
    with pytest.raises(error, match="version 1, this build reads 2"):
        _load(tmp_path, kind, raw)


@pytest.mark.parametrize("kind,key", [
    ("grid", "t0"), ("grid", "d"), ("checkpoint", "model"), ("checkpoint", "arrays"),
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
    """The counts shape in the manifest grows by a row or loses a column,
    so the arrays no longer tile the payload."""
    def grow(header):
        header["arrays"][0]["shape"][("n_rows", "n_cols").index(field)] += delta

    with pytest.raises(GridFileError, match="payload"):
        _load(tmp_path, "grid", _rewrite_header(saved["grid"], grow))


@pytest.mark.parametrize("edit,message", [
    (lambda arrays: arrays[0].update(shape=[10, 1]), "arrival_rows length"),
    (lambda arrays: arrays[0].update(name="cells"), "not counts, then arrival_rows"),
    (lambda arrays: arrays.reverse(), "not counts, then arrival_rows"),
    (lambda arrays: arrays[0].update(dtype="<f8"), "dtype '<f8'"),
], ids=["reshaped", "renamed", "reordered", "retyped"])
def test_grid_arrays_that_tile_but_do_not_fit_raise_grid_file_error(
    tmp_path, saved, edit, message
):
    """Manifest edits that keep the payload tiled: the 5x2 counts read as
    10x1, an unknown or reordered array, or a dtype no grid file holds."""
    with pytest.raises(GridFileError, match=message):
        _load(tmp_path, "grid", _rewrite_header(saved["grid"], lambda h: edit(h["arrays"])))


def test_grid_loader_checks_truncated_header(tmp_path, saved):
    raw = bytearray(saved["grid"])
    struct.pack_into("<Q", raw, HLEN_OFF, len(raw))  # header longer than the file
    with pytest.raises(GridFileError, match="truncated header"):
        _load(tmp_path, "grid", _sealed(bytes(raw)))
