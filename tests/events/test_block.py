"""EventBlock: the columnar in-memory batch format of the hot path.

Pins the design points from the block's contract: empty/single-row blocks,
mixed payload dtypes falling back to object columns, zero-copy slice
aliasing, selection, the wire codec interoperating with the event-level
helpers, and a hypothesis round-trip suite proving events -> block -> events
preserves exact types and the ``(time, sequence)`` order.
"""

from __future__ import annotations

from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ExecutionError, SchemaError
from repro.events import Event, EventBlock, EventBlockBuilder, EventStream
from repro.events import columnar
from repro.events.event import GROUP_NAN


def make(payloads, type_name="T"):
    return [
        Event(type_name, float(index), payload)
        for index, payload in enumerate(payloads)
    ]


def keys_of(block, attributes):
    """Per-row group keys, read back through the block's code column."""
    table, codes = block.group_codes(attributes)
    return [table[code] for code in codes]


def identical(decoded, originals):
    """Full equality: fields, payload content, and exact payload types."""
    assert decoded == originals  # (type, time, sequence)
    assert [e.payload for e in decoded] == [e.payload for e in originals]
    for left, right in zip(decoded, originals):
        assert [type(v) for v in left.payload.values()] == [
            type(v) for v in right.payload.values()
        ]


class TestEdgeCases:
    def test_empty_block(self):
        block = EventBlock.empty()
        assert len(block) == 0 and not block
        assert block.to_events() == []
        assert list(block) == []
        assert EventBlock.from_events([]).to_events() == []
        assert EventBlock.from_bytes(block.to_bytes()).to_events() == []
        assert block.group_codes(("district",)) == ((), array("I"))
        assert block.payload_column("x") == []

    def test_single_event(self):
        events = make([{"v": 1.5, "n": 3}])
        block = EventBlock.from_events(events)
        assert len(block) == 1 and bool(block)
        identical(block.to_events(), events)
        assert block[0] == events[0]
        assert block[-1] == events[0]
        assert block.time_at(0) == 0.0
        assert block.type_at(0) == "T"
        assert block.sequence_at(0) == events[0].sequence
        assert block.payload_at(0) == {"v": 1.5, "n": 3}

    def test_index_out_of_range(self):
        block = EventBlock.from_events(make([{}, {}]))
        with pytest.raises(IndexError):
            block.event_at(2)
        with pytest.raises(IndexError):
            block.event_at(-3)
        with pytest.raises(IndexError):
            block.select([5])

    def test_mixed_dtypes_fall_back_to_object_columns(self):
        values = [4, 4.0, True, "4", None, (1, 2.5), 2**70, -(2**70)]
        events = make([{"x": value} for value in values])
        block = EventBlock.from_events(events)
        identical(block.to_events(), events)
        # ... and through the wire codec, which re-runs dtype selection.
        identical(EventBlock.from_bytes(block.to_bytes()).to_events(), events)
        assert block.payload_column("x") == values

    def test_heterogeneous_shapes_and_key_order(self):
        events = make([{"a": 1.0, "b": 2.0}]) + make([{"b": 3.0, "a": 4.0}]) + make([{}])
        block = EventBlock.from_events(events)
        assert tuple(block.to_events()[0].payload) == ("a", "b")
        assert tuple(block.to_events()[1].payload) == ("b", "a")
        assert block.to_events()[2].payload == {}
        assert block.payload_column("a") == [1.0, 4.0, None]
        assert block.payload_column("a", default=0.0) == [1.0, 4.0, 0.0]

    def test_group_codes_match_event_get(self):
        events = make(
            [{"d": 1, "s": 2.0}, {"d": 2}, {"s": 9.0}, {"d": 1, "s": 4.0}]
        )
        block = EventBlock.from_events(events)
        for attrs in ((), ("d",), ("d", "s"), ("missing",)):
            expected = [tuple(e.get(a) for a in attrs) for e in events]
            table, codes = block.group_codes(attrs)
            assert keys_of(block, attrs) == expected
            assert table == tuple(dict.fromkeys(expected))  # first appearance
            assert codes.typecode == "I" and len(codes) == len(events)
        # cached: repeated calls return the same pair
        assert block.group_codes(("d",)) is block.group_codes(("d",))

    def test_builder_rejects_negative_time(self):
        builder = EventBlockBuilder()
        with pytest.raises(SchemaError):
            builder.append_row("T", -1.0, {})

    def test_builder_draws_fresh_sequences(self):
        builder = EventBlockBuilder()
        builder.append_row("T", 0.0, {"v": 1})
        builder.append_row("T", 1.0, {"v": 2})
        block = builder.finish()
        first, second = block.to_events()
        assert second.sequence > first.sequence
        assert first < second

    def test_builder_does_not_enforce_time_order(self):
        # Order is the caller's contract: the sharded lateness path builds
        # disordered blocks for the shard reorder buffers to sort.
        builder = EventBlockBuilder()
        builder.append_row("T", 5.0, {"v": 1})
        builder.append_row("T", 2.0, {"v": 2})
        assert [e.time for e in builder.finish().to_events()] == [5.0, 2.0]


class TestSlicing:
    def test_slice_aliases_parent_columns(self):
        events = make([{"v": float(i)} for i in range(10)])
        block = EventBlock.from_events(events)
        child = block.slice(2, 8)
        assert len(child) == 6
        # zero-copy: every column is the parent's own container
        assert child.times is block.times
        assert child.sequences is block.sequences
        assert child.type_codes is block.type_codes
        assert child.shape_columns is block.shape_columns
        assert child.row_slots is block.row_slots
        assert (child.start, child.stop) == (2, 8)
        identical(child.to_events(), events[2:8])

    def test_nested_slices_compose(self):
        events = make([{"v": i} for i in range(20)])
        block = EventBlock.from_events(events)
        child = block[4:16]
        grand = child[3:9]
        assert grand.times is block.times
        identical(grand.to_events(), events[7:13])
        assert grand.payload_column("v") == [e.payload["v"] for e in events[7:13]]
        assert keys_of(grand, ("v",)) == [(e.payload["v"],) for e in events[7:13]]

    def test_slice_bounds_clamp(self):
        block = EventBlock.from_events(make([{}, {}, {}]))
        assert len(block.slice(-5, 99)) == 3
        assert len(block.slice(2, 1)) == 0
        assert block[1:].to_events() == block.to_events()[1:]

    def test_stepped_slice_gathers(self):
        events = make([{"v": i} for i in range(10)])
        block = EventBlock.from_events(events)
        stepped = block[1:9:3]
        assert stepped.times is not block.times
        identical(stepped.to_events(), events[1:9:3])

    def test_select_gathers_in_given_order(self):
        events = make([{"v": i, "w": float(i)} for i in range(6)])
        block = EventBlock.from_events(events)
        picked = block.select([4, 0, 2])
        identical(picked.to_events(), [events[4], events[0], events[2]])
        # selection from a slice uses block-relative indices
        child = block.slice(2, 6)
        identical(child.select([1, 3]).to_events(), [events[3], events[5]])

    def test_slice_serializes_only_its_rows(self):
        events = make([{"v": float(i)} for i in range(8)])
        block = EventBlock.from_events(events)
        child = block.slice(3, 6)
        identical(EventBlock.from_bytes(child.to_bytes()).to_events(), events[3:6])
        # ... with multiple payload shapes too: each shape's rows occupy one
        # contiguous slot range, wherever the slice starts.
        mixed = make([{"v": i} if i % 3 else {"w": float(i), "u": i} for i in range(9)])
        block = EventBlock.from_events(mixed)
        for start in range(9):
            for stop in range(start, 10):
                child = block.slice(start, stop)
                identical(
                    EventBlock.from_bytes(child.to_bytes()).to_events(),
                    mixed[start:stop],
                )


class TestWireInterop:
    def test_from_bytes_reads_event_encoder_output(self):
        events = make([{"v": 1.5}, {"v": 2.5}], type_name="A") + make(
            [{"n": 3}], type_name="B"
        )
        data = columnar.encode_events(events)
        identical(EventBlock.from_bytes(data).to_events(), events)

    def test_event_decoder_reads_block_bytes(self):
        events = make([{"v": 1.5}, {"n": 2}])
        block = EventBlock.from_events(events)
        identical(columnar.decode_events(block.to_bytes()), events)

    def test_from_bytes_rejects_garbage(self):
        with pytest.raises(ExecutionError, match="magic"):
            EventBlock.from_bytes(b"XXXX" + bytes(32))
        with pytest.raises(ExecutionError):
            EventBlock.from_bytes(b"")

    def test_memoryview_input(self):
        events = make([{"v": 1.0}])
        data = memoryview(EventBlock.from_events(events).to_bytes())
        identical(EventBlock.from_bytes(data).to_events(), events)

    def test_stream_to_block(self):
        events = make([{"v": i} for i in range(5)])
        stream = EventStream(events, name="s")
        identical(stream.to_block().to_events(), events)


_scalar_values = st.one_of(
    st.integers(min_value=-(2**70), max_value=2**70),
    st.floats(allow_nan=False, allow_infinity=True, width=64),
    st.booleans(),
    st.text(max_size=12),
    st.none(),
)
_payload_values = st.one_of(
    _scalar_values,
    st.tuples(_scalar_values, _scalar_values),
    st.lists(st.integers(min_value=-1000, max_value=1000), max_size=3).map(tuple),
)
_payloads = st.dictionaries(st.text(max_size=16), _payload_values, max_size=5)


@st.composite
def _fuzz_events(draw):
    count = draw(st.integers(min_value=0, max_value=40))
    events = []
    clock = 0.0
    for _ in range(count):
        clock += draw(st.floats(min_value=0.0, max_value=10.0, allow_nan=False))
        events.append(
            Event(
                draw(st.text(min_size=1, max_size=8)),
                clock,
                draw(_payloads),
            )
        )
    return events


class TestRoundTripProperty:
    @settings(max_examples=60, deadline=None)
    @given(events=_fuzz_events())
    def test_block_round_trip_preserves_types_and_order(self, events):
        block = EventBlock.from_events(events)
        identical(block.to_events(), events)
        # (time, sequence) order is preserved exactly
        decoded = block.to_events()
        assert [(e.time, e.sequence) for e in decoded] == [
            (e.time, e.sequence) for e in events
        ]
        assert sorted(decoded) == decoded

    @settings(max_examples=60, deadline=None)
    @given(events=_fuzz_events())
    def test_wire_round_trip(self, events):
        block = EventBlock.from_events(events)
        identical(EventBlock.from_bytes(block.to_bytes()).to_events(), events)
        identical(columnar.decode_events(block.to_bytes()), events)

    @settings(max_examples=30, deadline=None)
    @given(events=_fuzz_events(), cut=st.integers(min_value=0, max_value=40))
    def test_slices_agree_with_event_lists(self, events, cut):
        block = EventBlock.from_events(events)
        lo = min(cut, len(events))
        identical(block.slice(0, lo).to_events(), events[:lo])
        identical(block.slice(lo, len(events)).to_events(), events[lo:])


# --------------------------------------------------------------------- #
# Column-at-a-time gather and join (PR 15) against the row-by-row definition
# --------------------------------------------------------------------- #
def assert_well_formed(block):
    """The invariants every consumer of a compact (root) block leans on:
    slots are handed out in row order per shape, and each shape's columns
    hold exactly its rows."""
    assert block.start == 0 and block.stop == len(block.times)
    occupancy = [0] * len(block.key_table)
    for code, slot in zip(block.key_codes, block.row_slots):
        assert slot == occupancy[code]
        occupancy[code] += 1
    for code, columns in enumerate(block.shape_columns):
        assert all(len(column) == occupancy[code] for column in columns)


class TestSelectConcatProperty:
    @settings(max_examples=60, deadline=None)
    @given(events=_fuzz_events(), data=st.data())
    def test_select_is_the_row_by_row_gather(self, events, data):
        block = EventBlock.from_events(events)
        lo = data.draw(st.integers(0, len(events)))
        hi = data.draw(st.integers(lo, len(events)))
        view = block.slice(lo, hi)  # a gather must honour the slice's base
        indices = data.draw(
            st.lists(st.integers(0, max(0, hi - lo - 1)), max_size=30)
            if hi > lo
            else st.just([])
        )
        for picked in (indices, tuple(indices), iter(indices)):
            gathered = view.select(picked)
            identical(gathered.to_events(), [events[lo + index] for index in indices])
            assert_well_formed(gathered)
            assert gathered.type_table == block.type_table
            assert gathered.key_table == block.key_table
        # ... and what it ships is what the rows encode to.
        identical(
            columnar.decode_events(view.select(indices).to_bytes()),
            [events[lo + index] for index in indices],
        )

    def test_select_rejects_each_out_of_range_index(self):
        block = EventBlock.from_events(make([{"a": 1}, {"b": 2}, {"a": 3}])).slice(1, 3)
        for indices in ([2], [-1], [0, 1, 2], range(1, 4)):
            with pytest.raises(IndexError, match="out of range for 2 rows"):
                block.select(indices)
        assert block.select([]).to_events() == []

    @settings(max_examples=60, deadline=None)
    @given(parts=st.lists(_fuzz_events(), max_size=4), data=st.data())
    def test_concat_is_the_row_by_row_join(self, parts, data):
        # Independently built blocks: different interned type tables, key
        # tables and payload shapes, each joined from an arbitrary slice.
        blocks, expected = [], []
        for events in parts:
            lo = data.draw(st.integers(0, len(events)))
            hi = data.draw(st.integers(lo, len(events)))
            blocks.append(EventBlock.from_events(events).slice(lo, hi))
            expected.extend(events[lo:hi])
        joined = EventBlock.concat(blocks)
        identical(joined.to_events(), expected)
        if sum(map(bool, blocks)) > 1:  # (a lone block is handed back as is)
            assert_well_formed(joined)
        identical(columnar.decode_events(joined.to_bytes()), expected)
        for name in {key for event in expected for key in event.payload}:
            assert joined.payload_column(name) == [e.get(name) for e in expected]

    def test_concat_of_one_producers_slices_keeps_the_tables(self):
        events = make([{"a": 1.0}, {"b": 2}, {"a": 3.0}, {"b": 4}, {"a": 5.0}])
        block = EventBlock.from_events(events)
        joined = EventBlock.concat([block.slice(3, 5), block.slice(0, 2)])
        assert joined.type_table is block.type_table
        assert joined.key_table is block.key_table
        identical(joined.to_events(), events[3:5] + events[0:2])

    def test_concat_unites_differing_tables_in_first_appearance_order(self):
        left = EventBlock.from_events(
            [Event("A", 1.0, {"x": 1}), Event("B", 2.0, {"y": 2.0})]
        )
        right = EventBlock.from_events(
            [Event("C", 3.0, {"y": 3.0}), Event("A", 4.0, {"z": "s"}), Event("B", 5.0, {"x": 5})]
        )
        joined = EventBlock.concat([left, EventBlock.empty(), right])
        assert joined.type_table == ("A", "B", "C")
        assert joined.key_table == (("x",), ("y",), ("z",))
        identical(joined.to_events(), left.to_events() + right.to_events())
        assert EventBlock.concat([]).to_events() == []
        assert EventBlock.concat([EventBlock.empty(), left]) is left


class TestPickle:
    """A block pickles the rows of its own range, compacted (PR 15): a
    slice used to drag its whole root — columns *and* lazily filled caches
    — into every buffered reorder segment, retract-log entry and
    checkpoint."""

    @staticmethod
    def _root(rows=5_000):
        builder = EventBlockBuilder()
        for index in range(rows):
            shape = {"g": float(index % 7), "v": index} if index % 3 else {"w": str(index)}
            builder.append_row("AB"[index % 2], float(index), shape, sequence=index)
        return builder.finish()

    def test_slice_pickles_its_rows_not_its_root(self):
        import pickle

        root = self._root()
        view = root.slice(2_500, 2_510)
        compact = view.select(range(10))
        baseline = len(pickle.dumps(compact))
        assert len(pickle.dumps(view)) <= baseline  # at the parent: 240x
        root.group_codes(("g",))  # fill the root's and the slice's caches
        view.group_codes(("g",))
        view.payload_column("v")
        assert len(pickle.dumps(view)) <= baseline
        assert baseline < len(pickle.dumps(root)) / 100

    @settings(max_examples=40, deadline=None)
    @given(events=_fuzz_events(), data=st.data())
    def test_round_trip_equals_the_slice(self, events, data):
        import pickle

        block = EventBlock.from_events(events)
        lo = data.draw(st.integers(0, len(events)))
        hi = data.draw(st.integers(lo, len(events)))
        view = block.slice(lo, hi)
        view.group_codes(tuple(sorted({k for e in events[lo:hi] for k in e.payload}))[:2])
        clone = pickle.loads(pickle.dumps(view))
        identical(clone.to_events(), events[lo:hi])
        assert_well_formed(clone)
        assert clone.start == 0 and clone.stop == len(clone.times) == hi - lo
        assert clone.type_table == block.type_table
        assert clone.key_table == block.key_table
        assert clone.to_bytes() == view.to_bytes()


# --------------------------------------------------------------------- #
# Typed columns: a decoded frame's f64/i64 columns stay arrays end to end
# --------------------------------------------------------------------- #
def _typed_events(rows=12):
    """One payload shape, one column of each codec dtype."""
    return [
        Event(
            "AB"[index % 2],
            float(index) / 2,
            {"f": index * 0.25, "i": index - 6, "b": bool(index % 3), "o": f"s{index % 4}"},
        )
        for index in range(rows)
    ]


def _mixed_events():
    """Several shapes; per key a float, an int, a mixed and an empty column."""
    return make(
        [
            {"x": 1.5, "n": 2},
            {"y": 3},
            {"x": -0.0, "n": -(2**63)},
            {"y": 4.0},
            {},
            {"x": 2.0, "n": 7},
        ]
    )


def _columns(block):
    return [block.times, block.sequences] + [
        column for columns in block.shape_columns for column in columns
    ]


class TestTypedColumns:
    def test_decoded_numeric_columns_are_typed_arrays(self):
        events = _typed_events()
        block = EventBlock.from_bytes(EventBlock.from_events(events).to_bytes())
        (f, i, b, o), = block.shape_columns
        assert isinstance(block.times, array) and block.times.typecode == "d"
        assert isinstance(block.sequences, array) and block.sequences.typecode == "q"
        assert (f.typecode, i.typecode) == ("d", "q")
        assert type(b) is list and type(o) is list
        assert isinstance(block.payload_column("f"), array)
        identical(block.to_events(), events)

    @pytest.mark.parametrize("events", (_typed_events(), _mixed_events()), ids=("typed", "mixed"))
    def test_select_and_concat_keep_typed_columns_typed(self, events):
        built = EventBlock.from_events(events)
        decoded = EventBlock.from_bytes(built.to_bytes())
        picked = [5, 0, 3, 3, 1]
        gathered = decoded.select(picked)
        joined = EventBlock.concat([decoded.slice(3, 6), decoded.slice(0, 2)])
        for block, expected in (
            (gathered, [events[p] for p in picked]),
            (joined, events[3:6] + events[0:2]),
        ):
            identical(block.to_events(), expected)
            assert_well_formed(block)
            for typed, column in zip(_columns(decoded), _columns(block)):
                if isinstance(typed, array) and len(column):
                    assert isinstance(column, array) and column.typecode == typed.typecode

    def test_concat_of_typed_and_list_parts_is_a_list(self):
        events = _typed_events()
        decoded = EventBlock.from_bytes(EventBlock.from_events(events[:6]).to_bytes())
        joined = EventBlock.concat([decoded, EventBlock.from_events(events[6:])])
        assert type(joined.times) is list
        identical(joined.to_events(), events)

    @pytest.mark.parametrize("events", (_typed_events(), _mixed_events()), ids=("typed", "mixed"))
    def test_typed_encode_writes_the_frame_it_decoded(self, events):
        # The typed fast path writes an array's own bytes: byte-identical to
        # what the per-value dtype scan writes for the same values as lists.
        built = EventBlock.from_events(events)
        frame = built.to_bytes()
        decoded = EventBlock.from_bytes(frame)
        assert decoded.to_bytes() == frame
        picked = [4, 1, 1, 0]
        assert decoded.select(picked).to_bytes() == built.select(picked).to_bytes()
        parts = [(3, 6), (0, 2), (5, 6)]
        assert (
            EventBlock.concat([decoded.slice(lo, hi) for lo, hi in parts]).to_bytes()
            == EventBlock.concat([built.slice(lo, hi) for lo, hi in parts]).to_bytes()
        )
        assert decoded.slice(2, 5).to_bytes() == built.slice(2, 5).to_bytes()

    def test_pickled_list_and_typed_blocks_restore(self):
        import pickle

        events = _typed_events()
        built = EventBlock.from_events(events)
        for block in (built, EventBlock.from_bytes(built.to_bytes())):
            clone = pickle.loads(pickle.dumps(block.slice(2, 9)))
            identical(clone.to_events(), events[2:9])
            assert type(clone.times) is type(block.times)

    def test_decode_and_group_codes_allocate_no_per_row_objects(self):
        import gc
        import tracemalloc

        def frame(rows):
            builder = EventBlockBuilder()
            for index in range(rows):
                builder.append_row(
                    "AB"[index % 2],
                    float(index),
                    {"g": float(index % 5), "v": index, "flag": bool(index % 2)},
                    sequence=index,
                )
            return builder.finish().to_bytes()

        def live_allocations(data):
            gc.collect()
            tracemalloc.start()
            try:
                block = EventBlock.from_bytes(data)
                block.group_codes(("g",))
                block.group_codes(("g", "flag"))
                snapshot = tracemalloc.take_snapshot()
            finally:
                tracemalloc.stop()
            del block
            return sum(stat.count for stat in snapshot.statistics("filename"))

        small, large = frame(1_024), frame(4_096)
        live_allocations(small)  # warm caches and free lists
        assert live_allocations(small) == live_allocations(large)


class TestGroupCodes:
    def test_distinct_nan_objects_share_one_code(self):
        first, second = float("nan"), float("nan")
        events = make([{"g": first}, {"g": 1.0}, {"g": second}])
        built = EventBlock.from_events(events)
        for block in (built, EventBlock.from_bytes(built.to_bytes())):
            table, codes = block.group_codes(("g",))
            assert list(codes) == [0, 1, 0]
            assert table[0][0] is GROUP_NAN and table[1] == (1.0,)

    def test_signed_zeros_share_one_code_first_row_stands_for_it(self):
        built = EventBlock.from_events(make([{"g": -0.0}, {"g": 0.0}, {"g": 3.0}]))
        for block in (built, EventBlock.from_bytes(built.to_bytes())):
            table, codes = block.group_codes(("g",))
            assert list(codes) == [0, 0, 1] and str(table[0][0]) == "-0.0"
            assert str(block.group_key_at(("g",), 1)[0]) == "0.0"  # the row's own

    def test_equal_numbers_of_different_types_share_one_code(self):
        built = EventBlock.from_events(make([{"g": 1}, {"g": 1.0}, {"g": True}, {"g": 2}]))
        for block in (built, EventBlock.from_bytes(built.to_bytes())):
            table, codes = block.group_codes(("g",))
            assert list(codes) == [0, 0, 0, 1] and type(table[0][0]) is int
            assert [type(block.group_key_at(("g",), row)[0]) for row in range(3)] == [
                int, float, bool
            ]

    def test_multi_attribute_keys(self):
        nan = float("nan")
        events = make(
            [{"d": 1, "s": "x"}, {"d": 1, "s": "y"}, {"d": nan, "s": "x"}, {"s": "x"},
             {"d": float("nan"), "s": "x"}, {"d": 1.0, "s": "x"}]
        )
        built = EventBlock.from_events(events)
        for block in (built, EventBlock.from_bytes(built.to_bytes())):
            table, codes = block.group_codes(("d", "s"))
            assert list(codes) == [0, 1, 2, 3, 2, 0]
            assert table[2][0] is GROUP_NAN and table[3] == (None, "x")
            assert keys_of(block, ("s", "d"))[1] == ("y", 1)

    def test_slices_code_their_own_rows(self):
        events = make([{"g": float(index % 3)} for index in range(9)])
        built = EventBlock.from_events(events)
        for block in (built, EventBlock.from_bytes(built.to_bytes())):
            view = block.slice(4, 8)
            table, codes = view.group_codes(("g",))
            assert table == ((1.0,), (2.0,), (0.0,)) and list(codes) == [0, 1, 2, 0]
            assert view.group_key_at(("g",), 2) == (0.0,)


class TestHostileBytes:
    def test_corrupt_bool_byte_is_an_error_not_false(self):
        events = make([{"flag": bool(index % 2)} for index in range(4)])
        frame = bytearray(EventBlock.from_events(events).to_bytes())
        tag = frame.rindex(b"b" + (4).to_bytes(4, "little"))
        assert frame[tag + 5 : tag + 9] == bytes([0, 1, 0, 1])
        frame[tag + 6] = 0x07
        for decode in (EventBlock.from_bytes, columnar.decode_events):
            with pytest.raises(ExecutionError, match="corrupt: bool column byte 0x07"):
                decode(bytes(frame))

    def test_out_of_table_code_is_named(self):
        payload = array("I", [0, 1, 5, 2]).tobytes()
        view = memoryview(len(payload).to_bytes(4, "little") + payload)
        with pytest.raises(ExecutionError, match="interning code 5 outside its table of 3"):
            columnar._decode_codes(view, 0, 4, 3)
        codes, offset = columnar._decode_codes(view, 0, 4, 6)
        assert list(codes) == [0, 1, 5, 2] and offset == len(view)

    @pytest.mark.parametrize(
        "times", ([0.5, -1.0, 2.0], [float("nan"), -1.0, 2.0]), ids=("negative", "after-nan")
    )
    def test_negative_event_time_is_corrupt(self, times):
        # ``Event`` refuses a negative time, but neither decoder builds rows
        # through it: the parse itself must refuse the frame.
        frame = bytearray(EventBlock.from_events(make([{"v": 1.5}] * 3)).to_bytes())
        assert frame[9:14] == b"d" + (24).to_bytes(4, "little")
        frame[14:38] = array("d", times).tobytes()
        for decode in (EventBlock.from_bytes, columnar.decode_events):
            with pytest.raises(ExecutionError, match="columnar batch corrupt: negative event time"):
                decode(bytes(frame))
        # A NaN alone still decodes: the executors reject it as non-finite.
        frame[14:38] = array("d", [float("nan"), 1.0, 2.0]).tobytes()
        assert len(EventBlock.from_bytes(bytes(frame))) == len(columnar.decode_events(bytes(frame)))

    def test_ragged_typed_payload_is_corrupt(self):
        frame = bytearray(EventBlock.from_events(make([{"v": 1.5}, {"v": 2.5}])).to_bytes())
        # The times column: tag "d", 16 payload bytes -> claim 15.
        assert frame[9:14] == b"d" + (16).to_bytes(4, "little")
        frame[10] = 15
        with pytest.raises(ExecutionError, match="corrupt"):
            EventBlock.from_bytes(bytes(frame))
