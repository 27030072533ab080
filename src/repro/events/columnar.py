"""Versioned wire framing and the fixed-dtype columnar event codec.

Every byte-level batch (:meth:`repro.events.block.EventBlock.to_bytes`, a
shard worker's queue message) is one *frame*: a four-byte magic,
a codec id, and a columnar body — times as f64, sequences as i64, event
types and payload key tuples interned into tables, and one typed column per
(key shape, attribute).  A payload column whose values are not uniformly
``float``/``int``-in-i64/``bool`` falls back to a pickled object column, so
arbitrary payloads (big ints, ``None``, nested tuples, strings) round-trip
exactly — the homogeneous numeric columns the simulators emit just travel
as raw arrays.  A mismatched or corrupt buffer fails with a clear
:class:`~repro.errors.ExecutionError`; codec id 1 (the retired whole-batch
pickle codec) is refused by name and never unpickled.

Columns use the stdlib :mod:`array` machine formats, normalized to
little-endian on the (rare) big-endian host, so encode/decode of numeric
data is one ``memcpy`` instead of a per-value loop.  A decoded f64/i64
column *stays* that ``array('d')``/``array('q')`` — eight bytes a value,
no Python object per row until a consumer indexes it — and an ``array``
column is written back with its own bytes, no type scan.  The parse's
per-row checks and counts (the least time, each code column's highest
code, each key shape's rows and the row slots) are the runtime's fold-core
column kernels (``time_scan``, ``code_scan``) where it is loaded; the
Python passes are their reference.
:func:`decode_columnar_events` assembles :class:`Event` objects straight
from the columns, in the runtime's compiled fold core where it is loaded
(skipping the dataclass ``__init__`` re-validation — values were
validated when the events were first created).

Type preservation contract (pinned by the codec fuzz suite): decoding is
exact — ``type(value)`` survives for every payload value (an f64 column
yields floats, an i64 one ints; bool and object columns are lists),
``time`` and ``sequence`` round-trip bit-identically, and payload **key
order** is preserved (key tuples are interned, never sorted).
"""

from __future__ import annotations

import pickle
import struct
import sys
from array import array
from itertools import repeat
from typing import Any, Iterable, Iterator, Optional, Sequence, Union

from repro.errors import ExecutionError
from repro.events.event import Event, EventType
from repro.events.time import Timestamp

#: Anything the decoders accept: raw bytes or a (shared-memory) view.
Buffer = Union[bytes, bytearray, memoryview]
#: A piece of an encoded frame: bytes, or a typed column's own buffer.
_Part = Union[bytes, "array[Any]"]

__all__ = [
    "CODEC_COLUMNAR",
    "MAGIC",
    "decode_columnar_events",
    "decode_events",
    "encode_events",
    "encode_frame",
    "parse_frame",
]

#: Wire magic of every framed batch ("RePro Event Batch").
MAGIC = b"RPEB"
#: The codec id (the byte after the magic).
CODEC_COLUMNAR = 2
#: Id of the whole-batch pickle codec older builds wrote; refused on sight.
_RETIRED_PICKLE_CODEC = 1

_BIG_ENDIAN = sys.byteorder == "big"

_U8 = struct.Struct("<B")
_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")


# ---------------------------------------------------------------------- #
# Framing
# ---------------------------------------------------------------------- #
def parse_frame(data: Buffer) -> memoryview:
    """Check a framed buffer's header and return its columnar body.

    Raises:
        ExecutionError: if the buffer is truncated, carries the wrong magic
            (e.g. an unframed pickle blob), the retired pickle codec id or
            an unknown one.
    """
    view = memoryview(data)
    if len(view) < 5:
        raise ExecutionError(
            f"batch buffer too short for the wire header ({len(view)} bytes); "
            "expected RPEB magic + codec byte"
        )
    magic = bytes(view[:4])
    if magic != MAGIC:
        raise ExecutionError(
            f"batch buffer does not start with the {MAGIC!r} magic (got "
            f"{magic!r}); refusing to unpickle an unframed or foreign blob"
        )
    codec = view[4]
    if codec == _RETIRED_PICKLE_CODEC:
        raise ExecutionError(
            "batch buffer uses codec id 1, the retired whole-batch pickle "
            "codec; this build reads columnar frames (codec id 2) only and "
            "will not unpickle it"
        )
    if codec != CODEC_COLUMNAR:
        raise ExecutionError(
            f"unknown batch codec id {codec}; this build understands "
            f"{CODEC_COLUMNAR} (columnar) only"
        )
    return view[5:]


# ---------------------------------------------------------------------- #
# Column primitives
# ---------------------------------------------------------------------- #
def _column_parts(values: Sequence[Any]) -> tuple[bytes, bytes, _Part]:
    """One typed column as its tag byte, payload length and payload.

    The dtype is chosen by exact type so decoding restores ``type(v)`` for
    every value: ``float`` -> f64, ``int`` within i64 -> i64, ``bool`` ->
    bytes, anything else (or a mixed column) -> a pickled object column.
    The set of types and the i64 range check (``array`` raising) both run
    at C speed: no per-value Python step.  A non-empty ``array('d')`` /
    ``array('q')`` column (what :meth:`EventBlock.from_bytes` decodes to)
    is already its own payload and is handed on without a scan or a copy.
    """
    if isinstance(values, array) and values.typecode in "dq" and values:
        if _BIG_ENDIAN:  # pragma: no cover - big-endian hosts only
            values = array(values.typecode, values)
            values.byteswap()
        return values.typecode.encode(), _U32.pack(len(values) * values.itemsize), values
    kinds = set(map(type, values))
    typed: Optional["array[Any]"] = None
    if kinds <= {float}:  # empty columns encode as (empty) f64
        tag, typed = b"d", array("d", values)
    elif kinds == {int}:
        try:
            tag, typed = b"q", array("q", values)
        except OverflowError:  # an int outside i64: object column
            pass
    payload: _Part
    if typed is not None:
        if _BIG_ENDIAN:  # pragma: no cover - big-endian hosts only
            typed.byteswap()
        payload = typed.tobytes()
    elif kinds == {bool}:
        tag, payload = b"b", bytes(values)
    else:
        tag = b"O"
        payload = pickle.dumps(list(values), protocol=pickle.HIGHEST_PROTOCOL)
    return tag, _U32.pack(len(payload)), payload


def _typed_array(typecode: str, payload: memoryview) -> "array[Any]":
    """``payload``'s little-endian values as an exactly sized ``array``.

    One ``memcpy`` into an array allocated at its final length:
    ``array.frombytes`` would over-allocate it by a sixteenth, and a
    decoded column lives as long as its block.
    """
    itemsize = array(typecode).itemsize
    if len(payload) % itemsize:
        raise ExecutionError(
            f"columnar batch corrupt: {len(payload)} payload bytes are not a whole "
            f"number of {itemsize}-byte values"
        )
    values = array(typecode, [0]) * (len(payload) // itemsize)
    memoryview(values).cast("B")[:] = payload
    if _BIG_ENDIAN:  # pragma: no cover - big-endian hosts only
        values.byteswap()
    return values


def _decode_column(
    view: memoryview, offset: int, count: int
) -> tuple[Sequence[Any], int]:
    """Decode one column at ``offset``; return ``(values, next_offset)``.

    f64 and i64 columns come back as the decoded ``array`` itself; bool
    and object columns as lists.  A bool byte other than 0/1 is corruption,
    not ``False``.
    """
    values: Sequence[Any]
    try:
        tag = view[offset : offset + 1].tobytes()
        (nbytes,) = _U32.unpack_from(view, offset + 1)
        payload = view[offset + 5 : offset + 5 + nbytes]
        if len(payload) != nbytes:
            raise ExecutionError(
                f"columnar batch truncated: column payload of {nbytes} bytes "
                f"exceeds the remaining buffer"
            )
        if tag == b"d" or tag == b"q":
            values = _typed_array(tag.decode(), payload)
        elif tag == b"b":
            flags = payload.tobytes()
            stray = flags.translate(None, b"\x00\x01")
            if stray:
                raise ExecutionError(
                    f"columnar batch corrupt: bool column byte {stray[0]:#04x} "
                    "is neither 0 nor 1"
                )
            values = [byte == 1 for byte in flags]
        elif tag == b"O":
            values = pickle.loads(payload)
        else:
            raise ExecutionError(f"columnar batch corrupt: unknown column tag {tag!r}")
    except struct.error as error:
        raise ExecutionError(f"columnar batch truncated: {error}") from None
    if len(values) != count:
        raise ExecutionError(
            f"columnar batch corrupt: column holds {len(values)} values, "
            f"expected {count}"
        )
    return values, offset + 5 + nbytes


def _string_parts(text: str) -> tuple[bytes, bytes]:
    data = text.encode("utf-8")
    return _U32.pack(len(data)), data


def _decode_string(view: memoryview, offset: int) -> tuple[str, int]:
    (length,) = _U32.unpack_from(view, offset)
    data = view[offset + 4 : offset + 4 + length]
    if len(data) != length:
        raise ExecutionError("columnar batch truncated inside a string table")
    return data.tobytes().decode("utf-8"), offset + 4 + length


def _decode_codes(
    view: memoryview, offset: int, count: int, table: int, into: Optional["_ParsedColumns"] = None
) -> tuple["array[int]", int]:
    """A code column into a table of ``table`` entries, and the next
    offset; ``into`` (key codes) takes each code's row count and the row
    slots, from the core's one pass (``_foldcore.code_scan``) where it is
    loaded (the slots are then left for the block to hand out)."""
    (nbytes,) = _U32.unpack_from(view, offset)
    payload = view[offset + 4 : offset + 4 + nbytes]
    if len(payload) != nbytes:
        raise ExecutionError("columnar batch truncated inside a code column")
    codes = _typed_array("I", payload)
    if len(codes) != count:
        raise ExecutionError(
            f"columnar batch corrupt: {len(codes)} interning codes for "
            f"{count} events"
        )
    core = _fold_core()
    if core is None:
        highest = max(codes, default=-1)
    else:
        highest, occupancy, slots = core.code_scan(codes, table, into is not None)
        if into is not None:
            into.occupancy, into.row_slots = occupancy, slots
    if highest >= table:
        raise ExecutionError(
            f"columnar batch corrupt: interning code {highest} outside its "
            f"table of {table} entries"
        )
    return codes, offset + 4 + nbytes


def _code_parts(codes: "array[int]") -> tuple[bytes, _Part]:
    if _BIG_ENDIAN:  # pragma: no cover - big-endian hosts only
        codes = array("I", codes)
        codes.byteswap()
    return _U32.pack(len(codes) * codes.itemsize), codes


# ---------------------------------------------------------------------- #
# Frame codec (columns <-> bytes)
# ---------------------------------------------------------------------- #
def encode_frame(
    times: Sequence[Timestamp],
    sequences: Sequence[int],
    type_table: Sequence[EventType],
    type_codes: "array[int]",
    key_table: Sequence[tuple[str, ...]],
    key_codes: "array[int]",
    shape_columns: Sequence[Sequence[Sequence[Any]]],
) -> bytes:
    """Encode one batch's columns into a framed buffer.

    The row-aligned arguments (``times``, ``sequences`` and the two
    ``array("I")`` code columns) cover exactly the batch's rows;
    ``shape_columns[k][j]`` holds attribute ``j`` of the rows whose key
    shape is ``k``, in stream order.  The frame is joined from its parts
    in one exactly sized allocation, so an encode holds it once: a typed
    column is copied straight into it.
    """
    parts: list[_Part] = [MAGIC, _U8.pack(CODEC_COLUMNAR), _U32.pack(len(times))]
    parts += _column_parts(times)
    parts += _column_parts(sequences)
    parts.append(_U32.pack(len(type_table)))
    for name in type_table:
        parts += _string_parts(name)
    parts += _code_parts(type_codes)
    parts.append(_U32.pack(len(key_table)))
    for keys in key_table:
        parts.append(_U16.pack(len(keys)))
        for key in keys:
            parts += _string_parts(key)
    parts += _code_parts(key_codes)
    for columns in shape_columns:
        for column in columns:
            parts += _column_parts(column)
    return b"".join(parts)


class _ParsedColumns:
    """The decoded column set, shared by the block and event assemblers."""

    __slots__ = (
        "count",
        "times",
        "sequences",
        "type_table",
        "type_codes",
        "key_table",
        "key_codes",
        "shape_columns",
        "occupancy",
        "row_slots",
    )

    count: int
    times: Sequence[Any]
    sequences: Sequence[Any]
    type_table: list[str]
    type_codes: "array[int]"
    key_table: list[tuple[str, ...]]
    key_codes: "array[int]"
    shape_columns: list[list[Sequence[Any]]]
    #: Rows per key shape and per-row slots (``None``: the core did not scan).
    occupancy: Optional[list[int]]
    row_slots: Optional["array[int]"]


def _parse_columns(buffer: Buffer) -> _ParsedColumns:
    view = memoryview(buffer)
    parsed = _ParsedColumns()
    parsed.occupancy = parsed.row_slots = None
    try:
        (count,) = _U32.unpack_from(view, 0)
        offset = 4
        parsed.count = count
        times, offset = _decode_column(view, offset, count)
        parsed.times = times
        core = _fold_core()
        facts = None if core is None else core.time_scan(times, 0, count)
        # A NaN time is no negative one (the executors reject NaN themselves):
        # the core's least time passes over every NaN, the reference's
        # ``min`` over all but one at row 0, which then costs a scan.
        if facts is not None:
            if facts[0] >= 0 and times[facts[0]] < 0:
                raise ExecutionError("columnar batch corrupt: negative event time")
        else:
            low = min(times, default=0.0)
            if low < 0 or (low != low and any(time < 0 for time in times)):
                raise ExecutionError("columnar batch corrupt: negative event time")
        parsed.sequences, offset = _decode_column(view, offset, count)
        (type_count,) = _U32.unpack_from(view, offset)
        offset += 4
        type_table: list[str] = []
        for _ in range(type_count):
            name, offset = _decode_string(view, offset)
            type_table.append(name)
        parsed.type_table = type_table
        parsed.type_codes, offset = _decode_codes(view, offset, count, type_count)
        (shape_count,) = _U32.unpack_from(view, offset)
        offset += 4
        key_table: list[tuple[str, ...]] = []
        for _ in range(shape_count):
            (key_count,) = _U16.unpack_from(view, offset)
            offset += 2
            keys: list[str] = []
            for _ in range(key_count):
                key, offset = _decode_string(view, offset)
                keys.append(key)
            key_table.append(tuple(keys))
        parsed.key_table = key_table
        parsed.key_codes, offset = _decode_codes(view, offset, count, shape_count, parsed)
        occupancy = parsed.occupancy
        if occupancy is None:
            occupancy = [0] * shape_count
            for code in parsed.key_codes:
                occupancy[code] += 1
        shape_columns: list[list[Sequence[Any]]] = []
        for shape_index, keys in enumerate(key_table):
            columns: list[Sequence[Any]] = []
            for _ in range(len(keys)):
                column, offset = _decode_column(view, offset, occupancy[shape_index])
                columns.append(column)
            shape_columns.append(columns)
        parsed.shape_columns = shape_columns
    except struct.error as error:
        raise ExecutionError(f"columnar batch truncated: {error}") from None
    except ExecutionError:
        raise
    except Exception as error:
        raise ExecutionError(f"columnar batch corrupt: {error}") from None
    return parsed


# ---------------------------------------------------------------------- #
# Fast event assembly
# ---------------------------------------------------------------------- #
_event_new = Event.__new__
#: The slot descriptors' setters: a third faster than ``object.__setattr__``
#: by name, which looks each slot up again per call.
_set_type = Event.__dict__["event_type"].__set__
_set_time = Event.__dict__["time"].__set__
_set_payload = Event.__dict__["payload"].__set__
_set_sequence = Event.__dict__["sequence"].__set__


def build_event(
    event_type: EventType, time: Timestamp, payload: dict[str, Any], sequence: int
) -> Event:
    """Assemble an :class:`Event` without re-running dataclass validation.

    Decoded values were validated when the events were first created, so the
    receive path skips ``__init__``/``__post_init__`` (and the sequence
    counter) entirely.
    """
    event = _event_new(Event)
    _set_type(event, event_type)
    _set_time(event, time)
    _set_payload(event, payload)
    _set_sequence(event, sequence)
    return event


def _listed(column: Sequence[Any]) -> Sequence[Any]:
    return column.tolist() if isinstance(column, array) else column


def _fold_core() -> Any:
    """The compiled fold core, or ``None``: imported at the first decode,
    so this package takes no import-time dependency on the runtime."""
    from repro.runtime import foldcore

    return foldcore.core


def _column(values: Sequence[Any]) -> Sequence[Any]:
    return values if isinstance(values, (list, array)) else list(values)


def decode_columnar_events(buffer: Buffer) -> list[Event]:
    """Decode a columnar body straight into events.

    With the fold core loaded the events are built there, in one call
    (``_foldcore.assemble_events``).  The map below is its reference
    (``foldcore.core = None``): the typed columns are turned into lists one
    at a time, so no more than one column is held in both forms; each key
    shape's payload dicts are zipped from its columns in one pass (a
    zero-key shape gets a fresh ``{}`` per row), then dealt out in row
    order by the shape codes.  Either way a payload's keys come in its
    shape's order.
    """
    parsed = _parse_columns(buffer)
    core = _fold_core()
    if core is not None:
        shapes = [[_column(column) for column in columns] for columns in parsed.shape_columns]
        return core.assemble_events(
            Event, parsed.count, _column(parsed.times), _column(parsed.sequences),
            parsed.type_table, parsed.type_codes, parsed.key_table, parsed.key_codes, shapes,
        )
    times = parsed.times = _listed(parsed.times)
    sequences = parsed.sequences = _listed(parsed.sequences)
    shapes: list[Iterator[dict[str, Any]]] = []
    for code, (keys, columns) in enumerate(zip(parsed.key_table, parsed.shape_columns)):
        for position in range(len(columns)):  # (no loop variable pins an array)
            columns[position] = _listed(columns[position])
        rows = zip(*columns) if keys else repeat((), parsed.key_codes.count(code))
        shapes.append(iter(list(map(dict, map(zip, repeat(keys), rows)))))
        columns.clear()
    payloads = map(next, map(shapes.__getitem__, parsed.key_codes))
    types = map(parsed.type_table.__getitem__, parsed.type_codes)
    return list(map(build_event, types, times, payloads, sequences))


def encode_events(events: Iterable[Event]) -> bytes:
    """Encode a chunk of events into a framed buffer."""
    from repro.events.block import EventBlock

    return EventBlock.from_events(events).to_bytes()


def decode_events(data: Buffer) -> list[Event]:
    """Decode a framed buffer into events."""
    return decode_columnar_events(parse_frame(data))
