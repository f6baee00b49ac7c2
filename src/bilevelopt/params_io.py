"""Bit-exact serialization of parameter vectors.

Layout of the file, all integers little-endian:

  magic   4 bytes  "BLVL"
  version u16
  nseg    u32
  per segment: name length u16, utf-8 name, offset u64, length u64
  values  nseg-summed length of IEEE-754 doubles, little-endian

The segment count is not strictly implied by the payload, so it is written
explicitly right after the version.
"""

from __future__ import annotations

import struct

import numpy as np

from .errors import ParseError
from .numerics import Layout, ParamVector

__all__ = ["MAGIC", "FORMAT_VERSION", "write_params", "read_params"]

MAGIC = b"BLVL"
FORMAT_VERSION = 1


def write_params(path, x: ParamVector) -> None:
    chunks = [MAGIC, struct.pack("<H", FORMAT_VERSION)]
    segments = x.layout.segments
    chunks.append(struct.pack("<I", len(segments)))
    for seg in segments:
        name = seg.name.encode("utf-8")
        chunks.append(struct.pack("<H", len(name)))
        chunks.append(name)
        chunks.append(struct.pack("<QQ", seg.offset, seg.length))
    chunks.append(np.ascontiguousarray(x.values, dtype="<f8").tobytes())
    with open(path, "wb") as fh:
        fh.write(b"".join(chunks))


class _Reader:
    def __init__(self, blob: bytes, path):
        self.blob = blob
        self.pos = 0
        self.path = path

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.blob):
            raise ParseError(f"{self.path}: truncated at byte {self.pos}")
        out = self.blob[self.pos : self.pos + n]
        self.pos += n
        return out

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))


def read_params(path) -> ParamVector:
    with open(path, "rb") as fh:
        blob = fh.read()
    r = _Reader(blob, path)
    if r.take(4) != MAGIC:
        raise ParseError(f"{path}: bad magic bytes, not a parameter file")
    (version,) = r.unpack("<H")
    if version != FORMAT_VERSION:
        raise ParseError(f"{path}: unsupported format version {version}")
    (nseg,) = r.unpack("<I")
    if nseg == 0:
        raise ParseError(f"{path}: zero segments")
    sizes = []
    expected_offset = 0
    for _ in range(nseg):
        (name_len,) = r.unpack("<H")
        try:
            name = r.take(name_len).decode("utf-8")
        except UnicodeDecodeError as e:
            raise ParseError(f"{path}: segment name is not valid utf-8") from e
        offset, length = r.unpack("<QQ")
        if offset != expected_offset:
            raise ParseError(
                f"{path}: segment {name!r} offset {offset} != expected {expected_offset}"
            )
        expected_offset += length
        sizes.append((name, length))
    try:
        layout = Layout(sizes)
    except ValueError as e:
        raise ParseError(f"{path}: {e}") from e
    raw = r.take(8 * layout.dim)
    if r.pos != len(blob):
        raise ParseError(f"{path}: {len(blob) - r.pos} trailing bytes")
    values = np.frombuffer(raw, dtype="<f8")
    return ParamVector(layout, values.astype(np.float64))
