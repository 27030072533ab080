"""Hostile ``RPEB`` frames: truncated, with lying length fields, codes at
and past their tables, bool bytes other than 0/1.

Every such frame must be refused with an :class:`ExecutionError` — never a
``SystemError``, a crash or a read past the buffer — by both decoders
(``EventBlock.from_bytes`` and ``columnar.decode_events``) and on both
paths, the fold core's column kernels and the Python reference
(``foldcore.core = None``), with the same message.
"""

from __future__ import annotations

import struct
from array import array
from contextlib import nullcontext
from typing import Any, Callable
from unittest import mock

import pytest

from repro.errors import ExecutionError
from repro.events import columnar
from repro.events.block import EventBlock
from repro.events.columnar import build_event, encode_events
from repro.runtime import foldcore

needs_core = pytest.mark.skipif(foldcore.core is None, reason=foldcore.reason)

DECODERS: dict[str, Callable[[bytes], Any]] = {
    "from_bytes": EventBlock.from_bytes,
    "decode_events": columnar.decode_events,
}


def rich_frame() -> bytes:
    """Three key shapes, with f64, i64, bool and object columns."""
    rows = []
    for index in range(12):
        payloads = (
            {"g": index % 3, "x": index * 0.5},
            {"flag": index % 2 == 0, "s": f"s{index}"},
            {},
        )
        rows.append(build_event("ABC"[index % 3], 2**53 + index, payloads[index % 3], index))
    return encode_events(rows)


FRAME = rich_frame()


def refusal(decode: Callable[[bytes], Any], frame: bytes, *, reference: bool) -> str:
    """The message ``decode`` refuses ``frame`` with on one path."""
    with mock.patch.object(foldcore, "core", None) if reference else nullcontext():
        try:
            decode(frame)
        except ExecutionError as error:
            return str(error)
    raise AssertionError("a hostile frame decoded")


def assert_refused_alike(frame: bytes) -> None:
    for decode in DECODERS.values():
        assert refusal(decode, frame, reference=False) == refusal(decode, frame, reference=True)


def length_fields(frame: bytes) -> list[tuple[str, int, str]]:
    """``(name, offset, struct format)`` of every length or count field of
    a frame, found by walking it as the codec lays it out."""
    fields: list[tuple[str, int, str]] = []
    at = 5

    def u32(name: str) -> int:
        nonlocal at
        fields.append((name, at, "<I"))
        (value,) = struct.unpack_from("<I", frame, at)
        at += 4
        return value

    def column(name: str) -> None:
        nonlocal at
        at += 1  # the tag
        nbytes = u32(name + " nbytes")
        at += nbytes

    rows = u32("row count")
    column("times")
    column("sequences")
    for index in range(u32("type table count")):
        length = u32(f"type name {index} length")
        at += length
    nbytes = u32("type code column nbytes")
    at += nbytes
    shapes = []
    for index in range(u32("shape table count")):
        fields.append((f"shape {index} key count", at, "<H"))
        (keys,) = struct.unpack_from("<H", frame, at)
        at += 2
        shapes.append(keys)
        for key in range(keys):
            length = u32(f"shape {index} key {key} length")
            at += length
    nbytes = u32("key code column nbytes")
    at += nbytes
    for index, keys in enumerate(shapes):
        for key in range(keys):
            column(f"shape {index} column {key}")
    assert at == len(frame) and rows == 12
    return fields


def test_the_walk_finds_every_field():
    assert len(length_fields(FRAME)) == 21


@needs_core
@pytest.mark.parametrize("decoder", sorted(DECODERS))
def test_a_frame_truncated_at_any_byte_is_refused_alike(decoder):
    decode = DECODERS[decoder]
    for cut in range(len(FRAME)):
        frame = FRAME[:cut]
        assert refusal(decode, frame, reference=False) == refusal(decode, frame, reference=True)


def _lies(value: int, width: int) -> set[int]:
    top = (1 << (8 * width)) - 1
    return {lie for lie in (value + 1, value - 1, 0, value * 2 + 8, top) if 0 <= lie <= top} - {
        value
    }


@needs_core
@pytest.mark.parametrize("field", length_fields(FRAME), ids=lambda field: field[0])
def test_a_lying_length_field_is_refused_alike(field):
    name, offset, layout = field
    (value,) = struct.unpack_from(layout, FRAME, offset)
    for lie in sorted(_lies(value, struct.calcsize(layout))):
        frame = bytearray(FRAME)
        struct.pack_into(layout, frame, offset, lie)
        assert_refused_alike(bytes(frame))


def _code_column(frame: bytes, which: str) -> int:
    """Where the payload of the type or key code column starts."""
    named = dict((name, offset) for name, offset, _ in length_fields(frame))
    return named[f"{which} code column nbytes"] + 4


@needs_core
@pytest.mark.parametrize("which, table", [("type", 3), ("key", 3)])
@pytest.mark.parametrize("past", [0, 1, 2**32 - 1 - 3])
def test_a_code_at_or_past_its_table_is_refused_alike(which, table, past):
    frame = bytearray(FRAME)
    at = _code_column(FRAME, which) + 4 * 5  # row 5's code
    struct.pack_into("<I", frame, at, table + past)
    assert_refused_alike(bytes(frame))
    message = refusal(EventBlock.from_bytes, bytes(frame), reference=False)
    assert message == (
        f"columnar batch corrupt: interning code {table + past} outside its table of "
        f"{table} entries"
    )


@needs_core
@pytest.mark.parametrize("byte", [0x02, 0x7F, 0xFF])
def test_a_bool_byte_other_than_0_or_1_is_refused_alike(byte):
    named = dict((name, offset) for name, offset, _ in length_fields(FRAME))
    frame = bytearray(FRAME)
    at = named["shape 1 column 0 nbytes"] + 4  # the bool column's payload
    assert frame[at - 5 : at - 4] == b"b" and set(frame[at : at + 4]) == {0, 1}
    frame[at + 2] = byte
    assert_refused_alike(bytes(frame))
    assert f"bool column byte {byte:#04x}" in refusal(
        columnar.decode_events, bytes(frame), reference=False
    )


@needs_core
def test_a_time_column_of_another_kind_is_refused_or_decoded_alike():
    # A times column whose tag says i64 over the f64 bytes: decoded alike
    # (negative times are refused by both).
    frame = bytearray(encode_events([build_event("A", 0.5 * n, {}, n) for n in range(4)]))
    assert frame[9:10] == b"d"
    frame[9:10] = b"q"
    got = EventBlock.from_bytes(bytes(frame))
    with mock.patch.object(foldcore, "core", None):
        want = EventBlock.from_bytes(bytes(frame))
    assert got.times.typecode == want.times.typecode == "q"
    assert got.times == want.times and list(got.row_slots) == list(want.row_slots)
    frame[14:22] = array("q", [-5]).tobytes()
    assert_refused_alike(bytes(frame))
