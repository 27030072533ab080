"""Columnar wire codec: framing, typed columns, exact-type round trips.

The randomized identity property lives in ``tests/runtime/test_sharding.py``
(the wire fuzz); this module pins the deliberate design points — the
versioned header's failure modes (the retired pickle codec id among them),
the exact-type column classification and the object-column fallback.
"""

from __future__ import annotations

import pickle
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ExecutionError
from repro.events import Event, EventBlock
from repro.events import columnar


def make(payloads, type_name="T"):
    return [
        Event(type_name, float(index), payload)
        for index, payload in enumerate(payloads)
    ]


def round_trip(events):
    data = EventBlock.from_events(events).to_bytes()
    return EventBlock.from_bytes(data).to_events()


class TestFraming:
    def test_header_magic_and_codec_byte(self):
        data = EventBlock.from_events(make([{}])).to_bytes()
        assert data[:4] == columnar.MAGIC
        assert data[4] == columnar.CODEC_COLUMNAR == 2

    def test_wrong_magic_is_a_clean_error(self):
        with pytest.raises(ExecutionError, match="magic"):
            EventBlock.from_bytes(b"XXXX" + bytes(64))

    def test_legacy_unframed_pickle_is_a_clean_error(self):
        legacy = pickle.dumps(("T",), protocol=pickle.HIGHEST_PROTOCOL)
        with pytest.raises(ExecutionError, match="magic"):
            EventBlock.from_bytes(legacy)

    def test_unknown_codec_version_is_a_clean_error(self):
        data = bytearray(EventBlock.from_events(make([{}])).to_bytes())
        data[4] = 0x7F
        with pytest.raises(ExecutionError, match="codec"):
            EventBlock.from_bytes(bytes(data))

    def test_retired_pickle_codec_is_refused_not_unpickled(self, monkeypatch):
        # A codec-1 frame as older builds wrote it: header + pickle blob.
        blob = pickle.dumps((("T",), ((),), ((0, 0.0, 1, 0, ()),)))
        frame = columnar.MAGIC + bytes([1]) + blob

        def forbidden(*args, **kwargs):
            raise AssertionError("a codec-1 frame reached pickle.loads")

        monkeypatch.setattr(columnar.pickle, "loads", forbidden)
        for decode in (EventBlock.from_bytes, columnar.decode_events, columnar.parse_frame):
            with pytest.raises(ExecutionError, match="retired.*pickle codec"):
                decode(frame)

    def test_truncated_buffer_is_a_clean_error(self):
        data = EventBlock.from_events(
            make([{"v": 1.0, "w": 2}, {"v": 3.5, "w": 4}])
        ).to_bytes()
        for cut in (0, 3, 5, len(data) // 2, len(data) - 1):
            with pytest.raises(ExecutionError):
                EventBlock.from_bytes(data[:cut])


class TestTypedColumns:
    def test_exact_type_preservation_per_column(self):
        # One key carrying a uniform dtype per batch → typed column; the
        # decoded values must come back with type() intact, not coerced.
        events = make([{"v": 1.0}, {"v": -0.5}]) + make([{"v": 2.5}])
        assert [e.payload["v"] for e in round_trip(events)] == [1.0, -0.5, 2.5]
        events = make([{"n": 4}, {"n": -7}])
        decoded = [e.payload["n"] for e in round_trip(events)]
        assert decoded == [4, -7] and all(type(v) is int for v in decoded)
        events = make([{"b": True}, {"b": False}])
        decoded = [e.payload["b"] for e in round_trip(events)]
        assert decoded == [True, False] and all(type(v) is bool for v in decoded)

    def test_mixed_dtypes_fall_back_to_object_column(self):
        # int/float/bool/str mixed under one key cannot share a fixed
        # dtype; the object column must keep each value's exact type.
        values = [4, 4.0, True, "4", None, (1, 2.5), 2**70, -(2**70)]
        events = make([{"x": value} for value in values])
        decoded = [e.payload["x"] for e in round_trip(events)]
        assert decoded == values
        assert [type(v) for v in decoded] == [type(v) for v in values]

    def test_negative_zero_and_int64_boundaries(self):
        values = [-0.0, float(2**53), -(2**63), 2**63 - 1, 2**63]
        events = make([{"x": value} for value in values])
        decoded = [e.payload["x"] for e in round_trip(events)]
        assert [type(v) for v in decoded] == [type(v) for v in values]
        assert str(decoded[0]) == "-0.0"
        assert decoded[1:] == values[1:]

    def test_key_order_and_heterogeneous_shapes(self):
        events = make([{"a": 1.0, "b": 2.0}]) + make([{"b": 3.0, "a": 4.0}])
        decoded = round_trip(events)
        assert tuple(decoded[0].payload) == ("a", "b")
        assert tuple(decoded[1].payload) == ("b", "a")

    def test_unicode_types_and_keys(self):
        events = make([{"clé": "värde", "鍵": 1.0}], type_name="Tÿpe")
        decoded = round_trip(events)
        assert decoded[0].event_type == "Tÿpe"
        assert decoded[0].payload == {"clé": "värde", "鍵": 1.0}

    def test_time_and_sequence_survive_exactly(self):
        events = [
            Event("T", 0.1 + 0.2, {"v": 1.0}),
            Event("T", 1e308, {"v": 2.0}),
        ]
        decoded = round_trip(events)
        assert [e.time for e in decoded] == [e.time for e in events]
        assert [e.sequence for e in decoded] == [e.sequence for e in events]

    def test_empty_batch_and_empty_payloads(self):
        assert round_trip([]) == []
        decoded = round_trip(make([{}, {}]))
        assert [e.payload for e in decoded] == [{}, {}]

    def test_decode_accepts_memoryview(self):
        events = make([{"v": 1.5}, {"v": 2.5}])
        data = EventBlock.from_events(events).to_bytes()
        assert columnar.decode_events(memoryview(data)) == events

    def test_encode_decode_events_helpers(self):
        events = make([{"v": 1.5}])
        data = columnar.encode_events(events)
        assert data == EventBlock.from_events(events).to_bytes()
        decoded = columnar.decode_events(data)
        assert decoded == events
        assert decoded[0].payload == events[0].payload


def _row(event: Event) -> tuple:
    """Everything a decoded row carries, value types and key order included
    (``repr`` tells ``-0.0`` from ``0.0`` and a NaN from nothing)."""
    payload = [(key, type(value), repr(value)) for key, value in event.payload.items()]
    return (event.event_type, repr(event.time), event.sequence, payload)


def _assert_decodes_like_the_block(frame: bytes) -> None:
    decoded = columnar.decode_events(frame)
    block = EventBlock.from_bytes(frame)
    assert len(decoded) == len(block)
    assert [_row(event) for event in decoded] == [_row(block.event_at(i)) for i in range(len(block))]
    assert len({id(event.payload) for event in decoded}) == len(decoded)  # one dict a row


#: The frames ``test_golden_frames.py`` pins byte for byte.
GOLDEN = Path(__file__).parent / "data"

_VALUES = st.one_of(
    st.floats(allow_infinity=True, allow_nan=True),
    st.integers(-(2**64), 2**64),
    st.booleans(),
    st.none(),
    st.text(max_size=3),
)
_PAYLOADS = st.dictionaries(st.sampled_from(("x", "y", "z")), _VALUES, max_size=3)


class TestDecodeEventsDifferential:
    """``decode_events`` (whole frame straight to events) against the block's
    own row view, ``EventBlock.from_bytes(f).event_at(i)``, row by row."""

    @pytest.mark.parametrize("name", sorted(path.stem for path in GOLDEN.glob("*.hex")))
    def test_golden_frames(self, name):
        _assert_decodes_like_the_block(bytes.fromhex((GOLDEN / f"{name}.hex").read_text()))

    def test_zero_key_two_shape_and_empty_frames(self):
        zero_keys = [Event("A", float(i), {}, sequence=i) for i in range(3)]
        mixed = [
            Event("A", 0.0, {}, sequence=0),
            Event("B", 1.0, {"v": 1.5, "n": 2}, sequence=1),
            Event("A", 1.0, {}, sequence=2),
            Event("B", 2.0, {"n": 3, "v": 2.5}, sequence=3),
        ]
        for events in ([], zero_keys, mixed):
            frame = EventBlock.from_events(events).to_bytes()
            _assert_decodes_like_the_block(frame)
            assert [_row(event) for event in columnar.decode_events(frame)] == [
                _row(event) for event in events
            ]

    @settings(deadline=None, derandomize=True, max_examples=200)
    @given(
        rows=st.lists(
            st.tuples(
                st.sampled_from(("A", "B", "C")),
                st.floats(0.0, 1e12, allow_nan=False),
                st.integers(0, 2**62),
                _PAYLOADS,
            ),
            max_size=30,
        )
    )
    def test_hypothesis_frames(self, rows):
        events = [Event(kind, time, payload, sequence=seq) for kind, time, seq, payload in rows]
        _assert_decodes_like_the_block(EventBlock.from_events(events).to_bytes())
