"""Checkpoint file format: exact roundtrips and damage detection."""
import json
import struct
import zlib
from pathlib import Path

import numpy as np
import pytest
from conftest import predict_plane, tiny_model

from gridcast.checkpoint import (
    FORMAT,
    MAGIC,
    CheckpointCorruptError,
    CheckpointError,
    CheckpointFormatError,
    CheckpointVersionError,
    load_checkpoint,
    save_checkpoint,
)
from gridcast.container import write_container

CRC_OFF = len(MAGIC) + 4  # u32 CRC-32 of everything after it, after magic + version
HLEN_OFF = CRC_OFF + 4  # then the u64 header length
HDR_OFF = HLEN_OFF + 8


def _scramble(model, seed=0):
    """Non-default weights and running stats so roundtrips prove something."""
    rng = np.random.default_rng(seed)
    for p in model.params():
        p.value[...] = rng.normal(0, 0.3, size=p.value.shape).astype(p.value.dtype)
    for _, buf in model.named_buffers():
        buf[...] = rng.uniform(0.5, 1.5, size=buf.shape)
    return model


def _sealed(raw: bytes) -> bytes:
    """raw with its CRC recomputed, so the loader gets past the CRC check."""
    return raw[:CRC_OFF] + struct.pack("<I", zlib.crc32(raw[HLEN_OFF:])) + raw[HLEN_OFF:]


def _mutate_header(path, fn):
    """Rewrite the JSON header in place, fixing up the stored length and CRC."""
    raw = Path(path).read_bytes()
    (hlen,) = struct.unpack_from("<Q", raw, HLEN_OFF)
    header = json.loads(raw[HDR_OFF : HDR_OFF + hlen])
    fn(header)
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    Path(path).write_bytes(
        _sealed(raw[:HLEN_OFF] + struct.pack("<Q", len(blob)) + blob + raw[HDR_OFF + hlen :])
    )


@pytest.fixture
def ckpt_path(tmp_path):
    return tmp_path / "model.ckpt"


def test_thread_roundtrip_predictions_bit_identical(ckpt_path):
    model = _scramble(tiny_model("thread", seed=1), seed=10)
    feats = np.random.default_rng(2).uniform(0, 3, size=(3, 6, 4))
    before = model.predict_gap(feats)
    save_checkpoint(model, ckpt_path, {})
    loaded, _ = load_checkpoint(ckpt_path)
    assert loaded.predict_gap(feats) == before
    for pa, pb in zip(model.params(), loaded.params()):
        assert pa.name == pb.name and pa.value.tobytes() == pb.value.tobytes()
    for (na, ba), (nb, bb) in zip(model.named_buffers(), loaded.named_buffers()):
        assert na == nb and ba.tobytes() == bb.tobytes()


def test_reply_roundtrip_predictions_bit_identical(ckpt_path):
    model = _scramble(tiny_model("reply", seed=3), seed=11)
    feats = np.random.default_rng(4).uniform(0, 3, size=(3, 6, 4))
    before = predict_plane(model, feats)
    save_checkpoint(model, ckpt_path, {})
    loaded, _ = load_checkpoint(ckpt_path)
    assert np.array_equal(predict_plane(loaded, feats), before)
    assert loaded.config == model.config


def test_resave_is_byte_identical(ckpt_path, tmp_path):
    model = _scramble(tiny_model("reply", seed=5), seed=12)
    save_checkpoint(model, ckpt_path, meta={"epochs": 3})
    loaded, meta = load_checkpoint(ckpt_path)
    second = tmp_path / "again.ckpt"
    save_checkpoint(loaded, second, meta=meta)
    assert second.read_bytes() == ckpt_path.read_bytes()


def test_meta_roundtrip(ckpt_path):
    model = tiny_model("thread", seed=6)
    meta = {"history": [1.5, 0.25], "d": 300, "note": "smoke"}
    save_checkpoint(model, ckpt_path, meta=meta)
    _, got = load_checkpoint(ckpt_path)
    assert got == meta


def test_float64_model_roundtrips_at_full_precision(ckpt_path):
    model = _scramble(tiny_model("reply", seed=7, dtype=np.float64), seed=13)
    save_checkpoint(model, ckpt_path, {})
    loaded, _ = load_checkpoint(ckpt_path)
    assert loaded.dtype == np.float64
    assert all(p.value.dtype == np.float64 for p in loaded.params())


def test_rejects_bad_magic(ckpt_path):
    save_checkpoint(tiny_model("thread"), ckpt_path, {})
    raw = ckpt_path.read_bytes()
    ckpt_path.write_bytes(b"NOTACKPT" + raw[8:])
    with pytest.raises(CheckpointError, match="magic"):
        load_checkpoint(ckpt_path)


def test_rejects_tiny_file(ckpt_path):
    ckpt_path.write_bytes(MAGIC[:4])
    with pytest.raises(CheckpointError):
        load_checkpoint(ckpt_path)


def test_rejects_future_version(ckpt_path):
    save_checkpoint(tiny_model("thread"), ckpt_path, {})
    raw = bytearray(ckpt_path.read_bytes())
    struct.pack_into("<I", raw, len(MAGIC), 99)
    ckpt_path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointVersionError, match="99"):
        load_checkpoint(ckpt_path)


def test_rejects_truncated_payload(ckpt_path):
    save_checkpoint(tiny_model("thread"), ckpt_path, {})
    raw = ckpt_path.read_bytes()
    ckpt_path.write_bytes(raw[:-20])
    with pytest.raises(CheckpointCorruptError, match="payload"):
        load_checkpoint(ckpt_path)


def test_rejects_truncated_header(ckpt_path):
    save_checkpoint(tiny_model("thread"), ckpt_path, {})
    raw = ckpt_path.read_bytes()
    ckpt_path.write_bytes(raw[: HDR_OFF + 5])
    with pytest.raises(CheckpointCorruptError, match="header"):
        load_checkpoint(ckpt_path)


def test_rejects_flipped_payload_byte(ckpt_path):
    save_checkpoint(tiny_model("thread"), ckpt_path, {})
    raw = bytearray(ckpt_path.read_bytes())
    raw[-1] ^= 0xFF
    ckpt_path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointCorruptError, match="CRC"):
        load_checkpoint(ckpt_path)


def test_rejects_shape_mismatch_naming_parameter(ckpt_path):
    model = tiny_model("thread")
    save_checkpoint(model, ckpt_path, {})

    def flatten_first(header):
        """Same element count, so the arrays still tile the payload."""
        entry = header["arrays"][0]
        entry["shape"] = [int(np.prod(entry["shape"]))]

    _mutate_header(ckpt_path, flatten_first)
    first_name = model.params()[0].name
    with pytest.raises(CheckpointFormatError) as exc:
        load_checkpoint(ckpt_path)
    assert "shape" in str(exc.value)
    assert first_name in str(exc.value)  # message names the offending array


def test_rejects_unknown_array_name(ckpt_path):
    save_checkpoint(tiny_model("thread"), ckpt_path, {})

    def rename(header):
        header["arrays"][0]["name"] = "mystery.weight"

    _mutate_header(ckpt_path, rename)
    with pytest.raises(CheckpointFormatError, match="mystery.weight"):
        load_checkpoint(ckpt_path)


def test_rejects_missing_arrays(ckpt_path):
    """Drop the last manifest entry and its payload bytes; the arrays
    tile and the CRC matches, so the loader must notice the array is gone."""
    save_checkpoint(tiny_model("thread"), ckpt_path, {})
    raw = Path(ckpt_path).read_bytes()
    (hlen,) = struct.unpack_from("<Q", raw, HLEN_OFF)
    header = json.loads(raw[HDR_OFF : HDR_OFF + hlen])
    entry = header["arrays"].pop()
    nbytes = int(np.prod(entry["shape"], dtype=np.int64)) * np.dtype(entry["dtype"]).itemsize
    trimmed = raw[HDR_OFF + hlen : len(raw) - nbytes]
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    ckpt_path.write_bytes(
        _sealed(raw[:HLEN_OFF] + struct.pack("<Q", len(blob)) + blob + trimmed)
    )
    with pytest.raises(CheckpointFormatError, match="missing"):
        load_checkpoint(ckpt_path)


def _grow_last_shape(header):
    header["arrays"][-1]["shape"][0] += 1


def _drop_last_entry(header):
    header["arrays"].pop()


@pytest.mark.parametrize(
    "edit, message",
    [
        (_grow_last_shape, "payload ends inside 'stack.block0.norm.running_var'"),
        (_drop_last_entry, r"\d+ stray payload bytes"),
    ],
    ids=["grown", "dropped"],
)
def test_manifest_that_does_not_tile_the_payload_is_corrupt(ckpt_path, edit, message):
    """The payload stays as written and the CRC is recomputed, so only the
    manifest walk can tell that the arrays no longer tile the payload."""
    save_checkpoint(tiny_model("thread"), ckpt_path, {})
    _mutate_header(ckpt_path, edit)
    with pytest.raises(CheckpointCorruptError, match=message):
        load_checkpoint(ckpt_path)


def test_rejects_a_model_header_without_loss_mode(ckpt_path):
    save_checkpoint(tiny_model("reply"), ckpt_path, {})

    def drop(header):
        del header["model"]["loss_mode"]

    _mutate_header(ckpt_path, drop)
    with pytest.raises(CheckpointFormatError, match="loss_mode"):
        load_checkpoint(ckpt_path)


def test_rejects_empty_manifest(ckpt_path):
    header = {"meta": {}, "model": tiny_model("thread").config.to_json_dict()}
    write_container(FORMAT, ckpt_path, header, [])
    with pytest.raises(CheckpointFormatError, match="manifest"):
        load_checkpoint(ckpt_path)


@pytest.mark.parametrize("dtype", [",f4", "<,4", ">f4", "<f,"])
def test_rejects_a_dtype_it_never_writes(ckpt_path, dtype):
    """One-byte edits of a manifest dtype, with the CRC recomputed. numpy
    raises SyntaxError on the first two and would read byte-swapped or
    structured arrays from the others; the loader accepts only "<f4" and
    "<f8"."""
    save_checkpoint(tiny_model("thread"), ckpt_path, {})
    raw = ckpt_path.read_bytes()
    ckpt_path.write_bytes(_sealed(raw.replace(b'"<f4"', f'"{dtype}"'.encode(), 1)))
    with pytest.raises(CheckpointFormatError, match="dtype"):
        load_checkpoint(ckpt_path)
