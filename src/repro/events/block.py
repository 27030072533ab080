"""Columnar in-memory event blocks: the hot path's native batch format.

:class:`EventBlock` keeps a chunk of in-order events in exactly the layout
the columnar wire codec (:mod:`repro.events.columnar`) already uses on the
wire — times and sequences as flat columns, event types and payload key
tuples interned into tables, and one value column per (key shape, attribute
position).  That makes the block the *native* unit of work end to end:

* a framed byte buffer (a shard worker's queue message) becomes a block
  with one column parse (:meth:`EventBlock.from_bytes`) — no per-event
  assembly, and no per-value object either: decoded f64/i64 columns stay
  ``array('d')`` / ``array('q')``, and :meth:`EventBlock.select` /
  :meth:`EventBlock.concat` gather a typed column into a typed column;
* group keys are one interned code column (:meth:`EventBlock.group_codes`):
  the sharded router hashes each distinct key once and the executor
  resolves each key's group once, both indexing by integer code;
* the streaming executor computes window-instance coverage and kernel-run
  segmentation over the raw time/type columns and feeds the fold backends
  directly.

Per-row :class:`~repro.events.event.Event` views are created lazily and only
at API edges (:meth:`event_at`, iteration, the per-event compatibility
paths).  Slicing with a unit step is **zero-copy**: the child block shares
every column with its parent and only narrows the ``[start, stop)`` row
range — which is why the column accessors return the *root* containers and
must be indexed with absolute positions from :attr:`start` to :attr:`stop`.

Type preservation matches the codec contract pinned by the codec fuzz
suite: a built block stores the original Python objects in lists (the dtype
selection of :func:`repro.events.columnar._encode_column` happens only when
a block is serialized), a decoded one the typed arrays whose elements read
back as the same types, so ``type(value)``, ``time`` and ``sequence``
survive a round-trip bit-identically and payload key order is never sorted.
Column consumers index any ``Sequence``; none may assume a ``list``.
"""

from __future__ import annotations

import bisect
from array import array
from itertools import chain, compress
from operator import itemgetter
from typing import Any, Callable, Iterable, Iterator, Optional, Sequence, Union, cast

from repro.errors import SchemaError
from repro.events import columnar
from repro.events import event as _event_module
from repro.events.columnar import Buffer, build_event
from repro.events.event import Event, EventType, collapse_nan, unhashable_key_error
from repro.events.time import Timestamp

__all__ = ["EventBlock", "EventBlockBuilder", "group_codes"]

#: Per-shape value columns: ``shape_columns[key_code][position][slot]``.
ShapeColumns = list[list[Sequence[Any]]]
#: ``(table, codes)`` of :meth:`EventBlock.group_codes`.
GroupCodes = tuple[tuple[tuple[Any, ...], ...], "array[int]"]


def _taker(positions: Sequence[int]) -> Callable[[Sequence[Any]], tuple[Any, ...]]:
    """``column -> (column[p] for p in positions)`` as one C-level gather.

    :func:`operator.itemgetter` returns a bare item for one position and
    refuses none at all; those two sizes take the generic route.
    """
    if len(positions) > 1:
        return itemgetter(*positions)
    return lambda column: tuple(column[position] for position in positions)


def _gather(
    column: Sequence[Any], take: Callable[[Sequence[Any]], tuple[Any, ...]]
) -> Sequence[Any]:
    """``take(column)`` in a container of the column's own kind: a typed
    ``array`` stays one of its typecode, anything else becomes a list."""
    if isinstance(column, array):
        return array(column.typecode, take(column))
    return list(take(column))


def _join(parts: Sequence[Sequence[Any]]) -> Sequence[Any]:
    """``parts`` end to end: an ``array`` when every non-empty part is one
    of the same typecode, a list otherwise (empty parts carry no kind)."""
    parts = [part for part in parts if part]
    kinds = {part.typecode if isinstance(part, array) else None for part in parts}
    joined: Any = array(kinds.pop()) if len(kinds) == 1 and None not in kinds else []
    for part in parts:
        joined += part
    return joined


def _union_table(tables: Sequence[tuple[Any, ...]]) -> tuple[Any, ...]:
    """The one table when all are equal, else their first-appearance union."""
    first = tables[0]
    if all(table == first for table in tables):
        return first
    return tuple(dict.fromkeys(chain.from_iterable(tables)))


def _recode(
    codes: "array[int]", table: tuple[Any, ...], union: tuple[Any, ...]
) -> "array[int]":
    """``codes`` into ``table`` re-expressed as codes into ``union``."""
    if union[: len(table)] == table:
        return codes
    return array("I", map([union.index(entry) for entry in table].__getitem__, codes))


def group_codes(
    attributes: Sequence[str], columns: Sequence[Sequence[Any]], count: int
) -> GroupCodes:
    """The group keys of ``count`` rows, one payload column per key
    attribute (``attributes``), as ``(table, codes)``.

    ``table`` holds the distinct keys in first-appearance order and
    ``codes`` one ``array('I')`` entry per row: ``table[codes[i]]`` is row
    ``i``'s :func:`~repro.events.event.group_key` (float NaN collapsed to
    ``GROUP_NAN``) up to dict equality — keys a dict merges
    (``0.0``/``-0.0``, ``1``/``1.0``/``True``) share one code, the first
    row's key standing for them.  Two C-speed passes; no per-row object
    outlives them.  An unhashable value is a :class:`SchemaError` naming
    its attribute.
    """
    columns = [collapse_nan(column) for column in columns]
    table: tuple[tuple[Any, ...], ...]
    if not columns:
        table, codes = ((),) if count else (), array("I", [0]) * count
    else:
        single = len(columns) == 1
        try:
            index = dict.fromkeys(columns[0] if single else zip(*columns))
        except TypeError:
            for key in zip(*columns):
                try:
                    hash(key)
                except TypeError:
                    raise unhashable_key_error(attributes, key) from None
            raise
        for code, key in enumerate(index):
            index[key] = code
        codes = array("I", map(index.__getitem__, columns[0] if single else zip(*columns)))
        table = tuple((key,) for key in index) if single else tuple(index)
    return table, codes


def _block_from_columns(
    times: Sequence[Timestamp],
    sequences: Sequence[int],
    type_table: tuple[EventType, ...],
    type_codes: "array[int]",
    key_table: tuple[tuple[str, ...], ...],
    key_codes: "array[int]",
    shape_columns: ShapeColumns,
) -> "EventBlock":
    """A block over *compact* columns: every shape's value columns hold
    exactly the block's rows of that shape, in row order.

    Hands out the row slots — the one place that does, for decoded frames,
    gathers, joins and unpickled blocks alike (module-level so a pickle
    can name it).
    """
    if len(key_table) == 1:
        row_slots = array("I", range(len(times)))
    else:
        row_slots = array("I")
        occupancy = [0] * len(key_table)
        for code in key_codes:
            row_slots.append(occupancy[code])
            occupancy[code] += 1
    return EventBlock(
        times,
        sequences,
        type_table,
        type_codes,
        key_table,
        key_codes,
        row_slots,
        shape_columns,
    )


class EventBlock:
    """An immutable columnar chunk of events with zero-copy slicing.

    Blocks are constructed through the classmethods (:meth:`from_events`,
    :meth:`from_bytes`, :meth:`empty`) or an :class:`EventBlockBuilder`;
    the ``__init__`` signature is an internal detail shared with slicing.
    """

    __slots__ = (
        "_times",
        "_sequences",
        "_type_table",
        "_type_codes",
        "_key_table",
        "_key_codes",
        "_row_slots",
        "_shape_columns",
        "_start",
        "_stop",
        "_key_positions",
        "_column_cache",
        "_group_cache",
    )

    def __init__(
        self,
        times: Sequence[Timestamp],
        sequences: Sequence[int],
        type_table: tuple[EventType, ...],
        type_codes: "array[int]",
        key_table: tuple[tuple[str, ...], ...],
        key_codes: "array[int]",
        row_slots: "array[int]",
        shape_columns: ShapeColumns,
        start: int = 0,
        stop: Optional[int] = None,
    ) -> None:
        self._times = times
        self._sequences = sequences
        self._type_table = type_table
        self._type_codes = type_codes
        self._key_table = key_table
        self._key_codes = key_codes
        #: Absolute position of each row inside its shape's columns, so a
        #: zero-copy slice keeps O(1) payload access without re-cursoring.
        self._row_slots = row_slots
        self._shape_columns = shape_columns
        self._start = start
        self._stop = len(times) if stop is None else stop
        self._key_positions: Optional[list[dict[str, int]]] = None
        self._column_cache: dict[str, Sequence[Any]] = {}
        self._group_cache: dict[tuple[str, ...], GroupCodes] = {}

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def empty(cls) -> "EventBlock":
        """An empty block (no rows, no interned tables)."""
        return cls([], [], (), array("I"), (), array("I"), array("I"), [])

    @classmethod
    def from_events(cls, events: Iterable[Event]) -> "EventBlock":
        """Encode ``events`` (in stream order) into a block."""
        builder = EventBlockBuilder()
        for event in events:
            builder.append(event)
        return builder.finish()

    @classmethod
    def from_bytes(cls, data: Buffer) -> "EventBlock":
        """Decode a framed buffer into a block: one column parse, every
        decoded column — the typed f64/i64 arrays included — adopted as-is,
        no per-event or per-value objects."""
        parsed = columnar._parse_columns(columnar.parse_frame(data))
        return _block_from_columns(
            parsed.times,
            parsed.sequences,
            tuple(parsed.type_table),
            parsed.type_codes,
            tuple(parsed.key_table),
            parsed.key_codes,
            parsed.shape_columns,
        )

    # ------------------------------------------------------------------ #
    # Size and range
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return self._stop - self._start

    def __bool__(self) -> bool:
        return self._stop > self._start

    @property
    def start(self) -> int:
        """First absolute row index of this block's range."""
        return self._start

    @property
    def stop(self) -> int:
        """One past the last absolute row index of this block's range."""
        return self._stop

    # ------------------------------------------------------------------ #
    # Raw columns (absolute indexing: ``start`` .. ``stop``)
    # ------------------------------------------------------------------ #
    @property
    def times(self) -> Sequence[Timestamp]:
        """The root time column (index with absolute positions)."""
        return self._times

    @property
    def sequences(self) -> Sequence[int]:
        """The root sequence column (index with absolute positions)."""
        return self._sequences

    @property
    def type_codes(self) -> "array[int]":
        """The root interned type-code column (absolute positions)."""
        return self._type_codes

    @property
    def type_table(self) -> tuple[EventType, ...]:
        """The interned event-type table (first-appearance order)."""
        return self._type_table

    @property
    def key_codes(self) -> "array[int]":
        """The root payload-shape code column (absolute positions)."""
        return self._key_codes

    @property
    def key_table(self) -> tuple[tuple[str, ...], ...]:
        """The interned payload key-tuple table."""
        return self._key_table

    @property
    def row_slots(self) -> "array[int]":
        """Per-row slot inside its shape's columns (absolute positions)."""
        return self._row_slots

    @property
    def shape_columns(self) -> ShapeColumns:
        """The per-shape payload value columns (indexed by row slot)."""
        return self._shape_columns

    @property
    def event_types(self) -> tuple[EventType, ...]:
        """Distinct event types present in the *root* block's table."""
        return self._type_table

    # ------------------------------------------------------------------ #
    # Per-row access (lazy Event views only at the API edge)
    # ------------------------------------------------------------------ #
    def _absolute(self, index: int) -> int:
        length = self._stop - self._start
        if index < 0:
            index += length
        if not 0 <= index < length:
            raise IndexError(f"block index {index} out of range for {length} rows")
        return self._start + index

    def time_at(self, index: int) -> Timestamp:
        """Timestamp of row ``index`` (block-relative)."""
        return self._times[self._absolute(index)]

    def sequence_at(self, index: int) -> int:
        """Sequence number of row ``index`` (block-relative)."""
        return self._sequences[self._absolute(index)]

    def type_at(self, index: int) -> EventType:
        """Event type of row ``index`` (block-relative)."""
        return self._type_table[self._type_codes[self._absolute(index)]]

    def payload_at(self, index: int) -> dict[str, Any]:
        """Payload dict of row ``index`` (block-relative), freshly built."""
        position = self._absolute(index)
        key_code = self._key_codes[position]
        keys = self._key_table[key_code]
        columns = self._shape_columns[key_code]
        slot = self._row_slots[position]
        return {keys[j]: columns[j][slot] for j in range(len(keys))}

    def event_at(self, index: int) -> Event:
        """Materialize the lazy :class:`Event` view of row ``index``."""
        position = self._absolute(index)
        key_code = self._key_codes[position]
        keys = self._key_table[key_code]
        columns = self._shape_columns[key_code]
        slot = self._row_slots[position]
        payload = {keys[j]: columns[j][slot] for j in range(len(keys))}
        return build_event(
            self._type_table[self._type_codes[position]],
            self._times[position],
            payload,
            self._sequences[position],
        )

    def __iter__(self) -> Iterator[Event]:
        for index in range(self._stop - self._start):
            yield self.event_at(index)

    def to_events(self) -> list[Event]:
        """Materialize every row as an :class:`Event` (the API edge)."""
        return [self.event_at(index) for index in range(self._stop - self._start)]

    def __getitem__(self, index: Union[int, slice]) -> "Event | EventBlock":
        if isinstance(index, slice):
            start, stop, step = index.indices(self._stop - self._start)
            if step == 1:
                return self.slice(start, stop)
            return self.select(range(start, stop, step))
        return self.event_at(index)

    # ------------------------------------------------------------------ #
    # Slicing and selection
    # ------------------------------------------------------------------ #
    def slice(self, start: int, stop: int) -> "EventBlock":
        """Zero-copy sub-block of block-relative rows ``[start, stop)``.

        The child shares every column with this block (aliasing is pinned
        by the block test suite); only the row range narrows.
        """
        length = self._stop - self._start
        start = max(0, min(start, length))
        stop = max(start, min(stop, length))
        return EventBlock(
            self._times,
            self._sequences,
            self._type_table,
            self._type_codes,
            self._key_table,
            self._key_codes,
            self._row_slots,
            self._shape_columns,
            self._start + start,
            self._start + stop,
        )

    def select(self, indices: Iterable[int]) -> "EventBlock":
        """Gather block-relative ``indices`` into a new compact block.

        The interned tables are shared; every column is gathered in one
        C-level pass (:func:`operator.itemgetter`) — the row columns once,
        the value columns once per payload shape — so the per-row Python
        work is integer bookkeeping only, and a typed column gathers into
        a typed column.  This is what the sharded router ships and what
        the reorder buffer sorts and merges with.
        """
        if not isinstance(indices, (list, tuple, range)):
            indices = list(indices)
        length = self._stop - self._start
        if indices and not (0 <= min(indices) and max(indices) < length):
            index = next(index for index in indices if not 0 <= index < length)
            raise IndexError(f"block index {index} out of range for {length} rows")
        base = self._start
        positions: Sequence[int] = (
            list(map(base.__add__, indices)) if base else indices
        )
        take = _taker(positions)
        if len(self._key_table) == 1:
            # One payload shape: a row's slot is its position.
            key_codes = array("I", [0]) * len(positions)
            shape_takers = [take]
        else:
            key_codes = array("I", take(self._key_codes))
            slots = take(self._row_slots)
            shape_takers = [
                _taker(list(compress(slots, map(code.__eq__, key_codes))))
                for code in range(len(self._key_table))
            ]
        return _block_from_columns(
            _gather(self._times, take),
            _gather(self._sequences, take),
            self._type_table,
            array("I", take(self._type_codes)),
            self._key_table,
            key_codes,
            [
                [_gather(column, shape_take) for column in columns]
                for shape_take, columns in zip(shape_takers, self._shape_columns)
            ],
        )

    @classmethod
    def concat(cls, blocks: Iterable["EventBlock"]) -> "EventBlock":
        """Join ``blocks`` row after row into one compact block.

        Blocks over equal interned tables (frames of one producer, slices
        of one root) keep their codes; otherwise the tables are united in
        first-appearance order and each block's codes are remapped through
        the union, one C-level pass per code column.  Each column is joined
        by :func:`_join`: typed parts of one typecode stay typed.
        """
        blocks = [block for block in blocks if block]
        if len(blocks) < 2:
            return blocks[0] if blocks else cls.empty()
        type_table = _union_table([block._type_table for block in blocks])
        key_table = _union_table([block._key_table for block in blocks])
        rows = [block._rows() for block in blocks]
        type_codes = array("I")
        key_codes = array("I")
        parts: list[list[list[Sequence[Any]]]] = [[[] for _ in keys] for keys in key_table]
        for block, (_, _, block_types, block_keys, shapes) in zip(blocks, rows):
            type_codes += _recode(block_types, block._type_table, type_table)
            key_codes += _recode(block_keys, block._key_table, key_table)
            for keys, columns in zip(block._key_table, shapes):
                targets = parts[key_table.index(keys)]
                for target, column in zip(targets, columns):
                    target.append(column)
        return _block_from_columns(
            _join([row[0] for row in rows]),
            _join([row[1] for row in rows]),
            type_table,
            type_codes,
            key_table,
            key_codes,
            [[_join(column) for column in columns] for columns in parts],
        )

    def slice_time(
        self, start: Optional[Timestamp] = None, end: Optional[Timestamp] = None
    ) -> "EventBlock":
        """Zero-copy sub-block covering the half-open time slice ``[start, end)``.

        The cut points come from binary search over the (sorted) time
        column — the block analogue of :func:`repro.events.stream.slice_stream`.
        """
        times = self._times
        lo = (
            bisect.bisect_left(times, start, self._start, self._stop) - self._start
            if start is not None
            else 0
        )
        hi = (
            bisect.bisect_left(times, end, self._start, self._stop) - self._start
            if end is not None
            else self._stop - self._start
        )
        return self.slice(lo, hi)

    # ------------------------------------------------------------------ #
    # Columnar payload access
    # ------------------------------------------------------------------ #
    def _positions(self) -> list[dict[str, int]]:
        positions = self._key_positions
        if positions is None:
            positions = [
                {key: j for j, key in enumerate(keys)} for keys in self._key_table
            ]
            self._key_positions = positions
        return positions

    def payload_column(self, key: str, default: Any = None) -> Sequence[Any]:
        """Per-row values of payload attribute ``key`` (``default`` if absent).

        Matches :meth:`Event.get` semantics row by row; the ``default is
        None`` case is cached per block instance (it backs group-key
        computation on the routing and windowing hot paths).  With one
        payload shape the answer is a slice of the value column itself, so
        a typed column answers typed.
        """
        if default is None:
            cached = self._column_cache.get(key)
            if cached is not None:
                return cached
        positions = self._positions()
        key_codes = self._key_codes
        row_slots = self._row_slots
        shapes = self._shape_columns
        per_shape: list[Optional[Sequence[Any]]] = []
        for code, keys in enumerate(self._key_table):
            j = positions[code].get(key)
            per_shape.append(None if j is None else shapes[code][j])
        out: Sequence[Any]
        if len(per_shape) == 1:
            # Single payload shape: row slots are the identity, so the
            # column *is* the answer — itself for the whole root, else one
            # C-level slice copy.
            column = per_shape[0]
            if column is None:
                out = [default] * (self._stop - self._start)
            elif self._start == 0 and self._stop == len(column):
                out = column
            else:
                out = column[self._start : self._stop]
        else:
            gathered: list[Any] = []
            append = gathered.append
            for position in range(self._start, self._stop):
                column = per_shape[key_codes[position]]
                append(default if column is None else column[row_slots[position]])
            out = gathered
        if default is None:
            self._column_cache[key] = out
        return out

    def group_codes(self, attributes: tuple[str, ...]) -> GroupCodes:
        """:func:`group_codes` of the payload columns of ``attributes``,
        cached per block (:meth:`group_key_at` is a row's own key)."""
        cached = self._group_cache.get(attributes)
        if cached is None:
            columns = [self.payload_column(attribute) for attribute in attributes]
            cached = self._group_cache[attributes] = group_codes(attributes, columns, len(self))
        return cached

    def group_key_at(self, attributes: tuple[str, ...], index: int) -> tuple[Any, ...]:
        """Row ``index``'s own group key (block-relative) — the key
        :meth:`group_codes` may have merged under an equal first one."""
        return tuple(collapse_nan([self.payload_column(key)[index] for key in attributes]))

    # ------------------------------------------------------------------ #
    # Serialization
    # ------------------------------------------------------------------ #
    def _rows(
        self,
    ) -> tuple[Sequence[Timestamp], Sequence[int], "array[int]", "array[int]", ShapeColumns]:
        """This block's rows as compact columns (times, sequences, type
        codes, key codes, per-shape value columns), each of its root
        column's own kind.

        Slots are handed out in row order per shape, so the rows of
        ``[start, stop)`` occupy one contiguous slot range of each shape's
        columns — found with C-speed ``array.count/index``.
        """
        start, stop = self._start, self._stop
        key_codes = self._key_codes[start:stop]
        shape_columns: ShapeColumns = []
        for code, columns in enumerate(self._shape_columns):
            rows = key_codes.count(code)
            low = self._row_slots[start + key_codes.index(code)] if rows else 0
            shape_columns.append([column[low : low + rows] for column in columns])
        return (
            self._times[start:stop],
            self._sequences[start:stop],
            self._type_codes[start:stop],
            key_codes,
            shape_columns,
        )

    def to_bytes(self) -> bytes:
        """Serialize this block's rows to a framed columnar buffer.

        The columns are written as they stand (:meth:`_rows`).  A slice or
        gather keeps its root's interned tables whole.
        """
        times, sequences, type_codes, key_codes, shape_columns = self._rows()
        return columnar.encode_frame(
            times,
            sequences,
            self._type_table,
            type_codes,
            self._key_table,
            key_codes,
            shape_columns,
        )

    def __reduce__(self) -> tuple[Any, ...]:
        """Pickle the rows of ``[start, stop)`` only, compacted.

        A zero-copy slice shares its root's columns; without this a
        10-row slice of a 5,000-row block pickled all 5,000 rows — in
        every buffered reorder segment, every retract release-log entry
        and so every checkpoint taken under lateness.  The lazily filled
        caches are not state and stay behind.
        """
        times, sequences, type_codes, key_codes, shape_columns = self._rows()
        return _block_from_columns, (
            times,
            sequences,
            self._type_table,
            type_codes,
            self._key_table,
            key_codes,
            shape_columns,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"EventBlock({self._stop - self._start} events, "
            f"{len(self._type_table)} types)"
        )


class EventBlockBuilder:
    """Incrementally build an :class:`EventBlock` without per-row events.

    Dataset simulators append raw ``(type, time, payload)`` rows
    (:meth:`append_row`); compatibility paths append existing events
    (:meth:`append`).  Row order is the caller's: nothing here checks
    times, and the sharded lateness path legitimately builds disordered
    blocks for the shard reorder buffers to sort.
    """

    __slots__ = (
        "_times",
        "_sequences",
        "_type_table",
        "_type_codes",
        "_type_map",
        "_key_table",
        "_key_codes",
        "_key_map",
        "_row_slots",
        "_shape_columns",
        "_occupancy",
    )

    def __init__(self) -> None:
        self._times: list[Timestamp] = []
        self._sequences: list[int] = []
        self._type_table: list[EventType] = []
        self._type_codes: "array[int]" = array("I")
        self._type_map: dict[EventType, int] = {}
        self._key_table: list[tuple[str, ...]] = []
        self._key_codes: "array[int]" = array("I")
        self._key_map: dict[tuple[str, ...], int] = {}
        self._row_slots: "array[int]" = array("I")
        self._shape_columns: list[list[list[Any]]] = []
        self._occupancy: list[int] = []

    def __len__(self) -> int:
        return len(self._times)

    def append_row(
        self,
        event_type: EventType,
        time: Timestamp,
        payload: dict[str, Any],
        sequence: Optional[int] = None,
    ) -> None:
        """Append one row; draws the global sequence counter if unset."""
        if time < 0:
            raise SchemaError(f"event time must be non-negative, got {time!r}")
        if sequence is None:
            sequence = next(_event_module._sequence_counter)
        type_code = self._type_map.get(event_type)
        if type_code is None:
            type_code = self._type_map[event_type] = len(self._type_table)
            self._type_table.append(event_type)
        keys = tuple(payload)
        key_code = self._key_map.get(keys)
        if key_code is None:
            key_code = self._key_map[keys] = len(self._key_table)
            self._key_table.append(keys)
            self._shape_columns.append([[] for _ in keys])
            self._occupancy.append(0)
        self._times.append(time)
        self._sequences.append(sequence)
        self._type_codes.append(type_code)
        self._key_codes.append(key_code)
        self._row_slots.append(self._occupancy[key_code])
        self._occupancy[key_code] += 1
        columns = self._shape_columns[key_code]
        for position, value in enumerate(payload.values()):
            columns[position].append(value)

    def append(self, event: Event) -> None:
        """Append an existing event (keeps its sequence number)."""
        self.append_row(event.event_type, event.time, dict(event.payload), event.sequence)

    def finish(self) -> EventBlock:
        """Freeze the builder into an immutable block."""
        return EventBlock(
            self._times,
            self._sequences,
            tuple(self._type_table),
            self._type_codes,
            tuple(self._key_table),
            self._key_codes,
            self._row_slots,
            cast(ShapeColumns, self._shape_columns),
        )
