"""Compiled-vs-reference differential for decoding a frame into events.

``columnar.decode_columnar_events`` builds its events in the fold core
(``_foldcore.assemble_events``) where it is loaded; the Python map stays
the reference, selected with ``foldcore.core = None``.  For every frame
both must give, per event, the same ``event_type``, a ``time`` of the same
type and value, an equal payload with the same key order (floats matched by
their bits, so NaN too) and the same ``sequence`` — and a corrupt frame
must fail the same way on both.  The core leaks nothing, on its error paths
either.
"""

from __future__ import annotations

import gc
import struct
import tracemalloc
from array import array
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ExecutionError
from repro.events import Event
from repro.events.columnar import build_event, decode_events, encode_events
from repro.runtime import foldcore

needs_core = pytest.mark.skipif(foldcore.core is None, reason=foldcore.reason)


def reference(frame: bytes) -> list[Event]:
    with mock.patch.object(foldcore, "core", None):
        return decode_events(frame)


def same_value(got, want) -> bool:
    if type(got) is not type(want):
        return False
    if isinstance(want, float):
        return struct.pack("<d", got) == struct.pack("<d", want)
    return bool(got == want)


def assert_same_events(got: list, want: list) -> None:
    assert len(got) == len(want)
    for mine, theirs in zip(got, want):
        assert type(mine) is Event
        assert mine.event_type == theirs.event_type
        assert same_value(mine.time, theirs.time), (mine.time, theirs.time)
        assert list(mine.payload) == list(theirs.payload)  # key order
        for key, value in theirs.payload.items():
            assert same_value(mine.payload[key], value), (key, mine.payload[key], value)
        assert same_value(mine.sequence, theirs.sequence)


def frame_of(*rows) -> bytes:
    """A frame of ``(type, time, payload, sequence)`` rows (built without
    ``Event``'s validation: a NaN time frames too)."""
    return encode_events([build_event(*row) for row in rows])


NAN = float("nan")
FRAMES = {
    "empty": frame_of(),
    "shapes": frame_of(
        ("A", 0.5, {}, 0),
        ("B", 1.0, {"a": 1.5}, 1),
        ("A", 1.0, {"a": 2.5, "b": 3}, 2),
        ("C", 2.0, {"b": 4, "a": 0.25}, 3),  # the same keys in another order
        ("B", 2.5, {}, 4),
        ("A", 3.0, {"a": -0.0}, 5),
    ),
    "objects": frame_of(
        ("A", 1.0, {"s": "x", "t": (1, "y"), "n": 2**70}, 7),
        ("A", 2.0, {"s": None, "t": [3.5], "n": -3}, 8),
        ("B", 3.0, {"s": b"raw", "t": True, "n": 1.5}, 9),
    ),
    "nanosecond times": frame_of(
        ("A", 2**53, {"v": 1}, 0),
        ("B", 2**53 + 1, {"v": 2}, 1),
        ("A", 1_700_000_000_123_456_789, {"v": 3}, 2),
    ),
    "mixed times": frame_of(("A", 1.5, {}, 0), ("A", 2**60, {}, 1), ("B", 2**80, {}, 2**40)),
    "nan and none": frame_of(
        ("A", 1.0, {"x": NAN, "y": None, "z": True}, 0),
        ("A", 2.0, {"x": float("inf"), "y": None, "z": False}, 1),
        ("B", NAN, {"x": -NAN, "y": 1.0, "z": True}, 2),
    ),
}


@needs_core
@pytest.mark.parametrize("name", sorted(FRAMES))
def test_core_builds_the_reference_events(name):
    frame = FRAMES[name]
    assert_same_events(decode_events(frame), reference(frame))


@needs_core
def test_a_negative_time_is_a_corrupt_frame_on_both_paths():
    # No builder frames a negative time: overwrite the f64 time column's bytes.
    frame = bytearray(frame_of(*(("A", float(n), {"v": n}, n) for n in range(3))))
    assert frame[9:14] == b"d" + (24).to_bytes(4, "little")
    frame[14:38] = array("d", [0.5, -1.0, 2.0]).tobytes()
    for decode in (decode_events, reference):
        with pytest.raises(ExecutionError, match="negative event time"):
            decode(bytes(frame))


_VALUES = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(-(2**70), 2**70),
    st.booleans(),
    st.none(),
    st.text(max_size=3),
)
_ROWS = st.lists(
    st.tuples(
        st.sampled_from("ABC"),
        st.one_of(st.floats(0.0, 1e12), st.integers(0, 2**64)),
        st.dictionaries(st.sampled_from("abcd"), _VALUES, max_size=4),
        st.integers(0, 2**63 - 1),
    ),
    max_size=24,
)


@needs_core
@settings(deadline=None, derandomize=True, max_examples=300)
@given(rows=_ROWS)
def test_core_builds_the_reference_events_for_any_frame(rows):
    frame = frame_of(*rows)
    assert_same_events(decode_events(frame), reference(frame))


@needs_core
def test_the_core_leaks_nothing_on_success_or_error():
    from repro.events.block import EventBlock

    core = foldcore.core
    frames = list(FRAMES.values())
    one, two = array("I", [0]), array("I", [0, 0])
    bad_calls = (
        # A type code past its table, at the second row.
        (Event, 2, [0.5, 1.5], [0, 1], ["A"], array("I", [0, 1]), [("v",)], two, [[[1, 2]]]),
        # A type code that is no integer, at the second row.
        (Event, 2, [0.5, 1.5], [0, 1], ["A"], [0, "x"], [("v",)], two, [[[1, 2]]]),
        # A payload column shorter than its shape's rows.
        (Event, 2, [0.5, 1.5], [0, 1], ["A"], two, [("v",)], two, [[[1]]]),
        # A key code past its table.
        (Event, 2, [0.5, 1.5], [0, 1], ["A"], two, [("v",)], array("I", [0, 1]), [[[1, 2]]]),
        # A shape whose keys are not a tuple.
        (Event, 1, [0.5], [0], ["A"], one, [["v"]], one, [[[1]]]),
        # A column that is neither a list nor a typed array.
        (Event, 1, (0.5,), [0], ["A"], one, [("v",)], one, [[[1]]]),
    )

    def loop() -> None:
        for frame in frames:
            decode_events(frame)
        EventBlock.from_bytes(frames[1]).to_events()
        for args in bad_calls:
            try:
                core.assemble_events(*args)
            except (TypeError, ValueError):
                pass
            else:  # pragma: no cover - a bad call must fail
                raise AssertionError(args)

    for _ in range(50):  # warm caches, interned keys and free lists
        loop()
    gc.collect()
    tracemalloc.start()
    try:
        loop()
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(1000):
            loop()
        gc.collect()
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    # A leak of one object per loop would be tens of kilobytes.
    assert after - before < 8 * 1024, after - before
