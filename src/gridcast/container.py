"""The binary container that grid files and checkpoints share, and the
only code that reads or writes their bytes.

Layout (version 2), all integers little-endian:

    magic        8 bytes naming the file kind
    u32          format version
    u32          CRC-32 of everything after this field
    u64          header length in bytes
    header       canonical JSON (sorted keys, no spaces): the caller's
                 fields plus "arrays", a manifest of name, shape and
                 little-endian dtype per array
    payload      the arrays back to back, C order, in manifest order

A loader checks the magic, the version, the CRC, the JSON, the manifest
and its dtypes, and that the arrays tile the payload exactly.
"""
from __future__ import annotations

import json
import math
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

_PREFIX = struct.Struct("<IIQ")  # after the magic: version, CRC-32, header length


@dataclass(frozen=True)
class Format:
    """One kind of container file and the errors its loader raises."""

    name: str  # used in messages: "not a {name} file"
    magic: bytes
    version: int
    dtypes: tuple[str, ...]  # the array dtypes the file may hold
    error: type[Exception]  # wrong magic, or a manifest this build does not read
    version_error: type[Exception]
    corrupt_error: type[Exception]  # truncation, CRC mismatch, arrays that do not tile


def write_container(fmt: Format, path: str | Path, header: dict, arrays) -> None:
    """Write header and the (name, array) pairs, one array at a time."""
    arrays = [(name, np.ascontiguousarray(a, a.dtype.newbyteorder("<"))) for name, a in arrays]
    manifest = [{"name": n, "shape": list(a.shape), "dtype": a.dtype.str} for n, a in arrays]
    blob = json.dumps({**header, "arrays": manifest}, sort_keys=True, separators=(",", ":"))
    blob = blob.encode("utf-8")
    head = fmt.magic + _PREFIX.pack(fmt.version, 0, len(blob)) + blob
    checked = len(fmt.magic) + 8  # the CRC covers what follows it
    crc = zlib.crc32(head[checked:])
    with open(path, "wb") as fh:
        fh.write(head)
        for _, a in arrays:
            crc = zlib.crc32(a, crc)
            fh.write(a)
        fh.seek(checked - 4)
        fh.write(struct.pack("<I", crc))


def read_container(fmt: Format, path: str | Path) -> tuple[dict, list[tuple[str, np.ndarray]]]:
    """Return (header without "arrays", [(name, array)]) of a file written
    by write_container, raising fmt's errors on any damage. The arrays
    are writable views of the one copy of the file."""
    at = len(fmt.magic)
    with open(path, "rb") as fh:  # read once, at an offset that aligns the payload to 16 bytes
        hlen = int.from_bytes(fh.read(at + _PREFIX.size)[at + 8 :], "little")
        pad = -(at + _PREFIX.size + hlen) % 16
        raw = memoryview(bytearray(pad + fh.seek(0, 2)))[pad:]
        fh.seek(0)
        raw = raw[: fh.readinto(raw)]
    if raw[:at] != fmt.magic:
        raise fmt.error(f"{path}: not a {fmt.name} file (bad magic)")
    if len(raw) < at + _PREFIX.size:
        raise fmt.corrupt_error(f"{path}: truncated before the header")
    version, crc, hlen = _PREFIX.unpack_from(raw, at)
    if version != fmt.version:
        raise fmt.version_error(
            f"{path}: {fmt.name} format version {version}, this build reads {fmt.version}"
        )
    if zlib.crc32(raw[at + 8 :]) != crc:  # all that follows the CRC
        raise fmt.corrupt_error(
            f"{path}: CRC mismatch, the header or payload is damaged or truncated"
        )
    at += _PREFIX.size
    if at + hlen > len(raw):
        raise fmt.corrupt_error(f"{path}: truncated header of {hlen} bytes")
    try:
        header = json.loads(raw[at : at + hlen].tobytes().decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise fmt.corrupt_error(f"{path}: unreadable header: {exc}") from exc
    try:
        manifest = [(e["name"], tuple(e["shape"]), e["dtype"]) for e in header.pop("arrays")]
        if not all(type(n) is int and n >= 0 for _, shape, _ in manifest for n in shape):
            raise ValueError("array shapes must be lists of counts")
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise fmt.error(f"{path}: malformed array manifest: {exc!r}") from exc
    arrays, pos = [], at + hlen
    for name, shape, dtype in manifest:
        if dtype not in fmt.dtypes:
            raise fmt.error(f"{path}: array {name!r} has dtype {dtype!r}, not one of {fmt.dtypes}")
        end = pos + math.prod(shape) * np.dtype(dtype).itemsize
        if end > len(raw):
            raise fmt.corrupt_error(f"{path}: payload ends inside {name!r}")
        arrays.append((name, np.frombuffer(raw[pos:end], dtype=dtype).reshape(shape)))
        pos = end
    if pos != len(raw):
        raise fmt.corrupt_error(f"{path}: {len(raw) - pos} stray payload bytes")
    return header, arrays
