"""Parameter file round trips and malformed-input handling."""

import struct

import numpy as np
import pytest

from bilevelopt import Layout, ParamVector, ParseError, read_params, write_params
from bilevelopt.params_io import FORMAT_VERSION, MAGIC


def _sample_vector():
    gen = np.random.default_rng(0)
    layout = Layout([("init", 7), ("rates", 7), ("mask_logits", 2)])
    return ParamVector(layout, gen.standard_normal(layout.dim))


def test_round_trip_is_bit_exact(tmp_path):
    x = _sample_vector()
    path = tmp_path / "params.bin"
    write_params(path, x)
    back = read_params(path)
    assert back.layout == x.layout
    assert back.values.tobytes() == x.values.tobytes()


def test_round_trip_preserves_special_values(tmp_path):
    layout = Layout([("a", 4)])
    x = ParamVector(layout, [0.0, -0.0, 1e-310, 1e300])
    path = tmp_path / "params.bin"
    write_params(path, x)
    back = read_params(path)
    assert back.values.tobytes() == x.values.tobytes()


def test_writes_are_deterministic(tmp_path):
    x = _sample_vector()
    p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
    write_params(p1, x)
    write_params(p2, x)
    assert p1.read_bytes() == p2.read_bytes()


def test_header_layout(tmp_path):
    x = _sample_vector()
    path = tmp_path / "params.bin"
    write_params(path, x)
    blob = path.read_bytes()
    assert blob[:4] == MAGIC
    assert struct.unpack_from("<H", blob, 4)[0] == FORMAT_VERSION
    assert struct.unpack_from("<I", blob, 6)[0] == 3  # segment count
    # file ends exactly after the payload
    assert blob.endswith(np.ascontiguousarray(x.values, dtype="<f8").tobytes())


def test_bad_magic_is_rejected(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"NOPE" + bytes(32))
    with pytest.raises(ParseError, match="magic"):
        read_params(path)


def test_unsupported_version_is_rejected(tmp_path):
    x = _sample_vector()
    path = tmp_path / "params.bin"
    write_params(path, x)
    blob = bytearray(path.read_bytes())
    struct.pack_into("<H", blob, 4, FORMAT_VERSION + 1)
    path.write_bytes(bytes(blob))
    with pytest.raises(ParseError, match="version"):
        read_params(path)


def test_truncated_file_is_rejected(tmp_path):
    x = _sample_vector()
    path = tmp_path / "params.bin"
    write_params(path, x)
    blob = path.read_bytes()
    for cut in (2, 8, len(blob) // 2, len(blob) - 3):
        path.write_bytes(blob[:cut])
        with pytest.raises(ParseError):
            read_params(path)


def test_trailing_garbage_is_rejected(tmp_path):
    x = _sample_vector()
    path = tmp_path / "params.bin"
    write_params(path, x)
    path.write_bytes(path.read_bytes() + b"\x00\x01")
    with pytest.raises(ParseError):
        read_params(path)


def test_zero_segments_is_rejected(tmp_path):
    path = tmp_path / "params.bin"
    path.write_bytes(MAGIC + struct.pack("<H", FORMAT_VERSION) + struct.pack("<I", 0))
    with pytest.raises(ParseError, match="zero segments"):
        read_params(path)


def test_inconsistent_offsets_are_rejected(tmp_path):
    # one segment claiming offset 5 cannot start a contiguous layout
    name = b"w"
    header = (
        MAGIC
        + struct.pack("<H", FORMAT_VERSION)
        + struct.pack("<I", 1)
        + struct.pack("<H", len(name))
        + name
        + struct.pack("<QQ", 5, 2)
    )
    path = tmp_path / "params.bin"
    path.write_bytes(header + bytes(16))
    with pytest.raises(ParseError):
        read_params(path)


def _file_of(segments):
    """A parameter file whose segment table is (name, length) pairs, each
    at its contiguous offset, followed by its values."""
    chunks = [MAGIC, struct.pack("<H", FORMAT_VERSION), struct.pack("<I", len(segments))]
    offset = 0
    for name, length in segments:
        raw = name.encode("utf-8")
        chunks += [struct.pack("<H", len(raw)), raw, struct.pack("<QQ", offset, length)]
        offset += length
    return b"".join(chunks) + bytes(8 * offset)


@pytest.mark.parametrize(
    "segments, message",
    [
        ([("a", 2), ("b", 0)], "non-positive length"),
        ([("a", 2), ("a", 1)], "duplicate segment name"),
        ([("", 2)], "non-empty"),
    ],
    ids=["zero-length", "repeated", "empty-name"],
)
def test_a_segment_table_no_layout_admits_is_a_parse_error(tmp_path, segments, message):
    path = tmp_path / "params.bin"
    path.write_bytes(_file_of(segments))
    with pytest.raises(ParseError, match=message) as exc:
        read_params(path)
    assert str(exc.value).startswith(f"{path}: ")
