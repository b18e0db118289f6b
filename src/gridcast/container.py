"""The binary container that grid files and checkpoints share.

Layout, all integers little-endian:

    magic        8 bytes naming the file kind
    u32          format version
    u64          header length in bytes
    header       canonical JSON (sorted keys, no spaces): the caller's
                 fields plus payload_bytes and payload_crc32
    payload      raw bytes, covered by the CRC-32

The CRC covers the payload only. A damaged header is caught when it no
longer decodes as UTF-8 JSON or its fields no longer fit the payload;
an edit that leaves it valid and consistent (a digit of t0, say) is not.
"""
from __future__ import annotations

import json
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path

_PREFIX = struct.Struct("<IQ")  # version, header length


@dataclass(frozen=True)
class Format:
    """One kind of container file and the errors its loader raises."""

    name: str  # used in messages: "not a {name} file"
    magic: bytes
    version: int
    error: type[Exception]  # wrong magic
    version_error: type[Exception]
    corrupt_error: type[Exception]  # damaged header or payload


def write_container(fmt: Format, path: str | Path, header: dict, payload: bytes) -> None:
    header = {**header, "payload_bytes": len(payload), "payload_crc32": zlib.crc32(payload)}
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(fmt.magic + _PREFIX.pack(fmt.version, len(blob)) + blob)
        fh.write(payload)


def read_container(fmt: Format, path: str | Path) -> tuple[dict, bytes]:
    """Return (header without the payload fields, payload) of a file
    written by write_container, raising fmt's errors on any damage."""
    raw = Path(path).read_bytes()
    start = len(fmt.magic) + _PREFIX.size
    if len(raw) < start or raw[: len(fmt.magic)] != fmt.magic:
        raise fmt.error(f"{path}: not a {fmt.name} file (bad magic)")
    version, hlen = _PREFIX.unpack_from(raw, len(fmt.magic))
    if version != fmt.version:
        raise fmt.version_error(
            f"{path}: {fmt.name} format version {version}, this build reads {fmt.version}"
        )
    if start + hlen > len(raw):
        raise fmt.corrupt_error(f"{path}: truncated header")
    try:
        header = json.loads(raw[start : start + hlen].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise fmt.corrupt_error(f"{path}: unreadable header: {exc}") from exc
    if not isinstance(header, dict) or not {"payload_bytes", "payload_crc32"} <= header.keys():
        raise fmt.corrupt_error(f"{path}: header lacks the payload length and CRC")
    payload = raw[start + hlen :]
    want = header.pop("payload_bytes")
    if len(payload) != want:
        raise fmt.corrupt_error(
            f"{path}: truncated or padded payload: {len(payload)} bytes, header says {want}"
        )
    if zlib.crc32(payload) != header.pop("payload_crc32"):
        raise fmt.corrupt_error(f"{path}: payload CRC mismatch")
    return header, payload
