"""Compiled-vs-reference differential for the column kernels.

Between a frame's bytes and the Cover walk the fold core answers every
per-row question where it is loaded: the parse's least time and highest
codes, each key shape's rows and the row slots (``time_scan`` /
``code_scan``), the in-order and key-order checks (``time_scan``), the
lateness stage's late rows and newest times (``late_scan``) and
``EventBlock.select``'s typed gather (``gather``).  The Python passes stay
the reference, selected with ``foldcore.core = None``.  On both paths a
decoded block must be the same column by column (kinds, typecodes, value
bits, row slots, code columns), the order checks and the lateness stage
must return, release and refuse the same, ``select`` must gather the same
rows and refuse the same index — every error of the same type with the same
message — and the core leaks nothing, on its error paths either.
"""

from __future__ import annotations

import gc
import struct
import tracemalloc
from array import array
from contextlib import nullcontext
from typing import Any, Callable
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import OutOfOrderError
from repro.events.block import EventBlock
from repro.events.columnar import build_event, encode_events
from repro.runtime import foldcore
from repro.runtime.lateness import Lateness
from repro.runtime.reorder import ensure_block_in_order

needs_core = pytest.mark.skipif(foldcore.core is None, reason=foldcore.reason)

NAN, INF = float("nan"), float("inf")
#: The payload shapes a frame's rows draw from (1 to 3 of them per frame).
SHAPES = (("g", "x"), ("x",), ("flag", "s"))


def outcome(call: Callable[[], Any], *, reference: bool) -> tuple:
    """``("ok", value)`` or ``("error", type, message)`` of ``call`` on one path."""
    with mock.patch.object(foldcore, "core", None) if reference else nullcontext():
        try:
            return ("ok", call())
        except Exception as error:  # noqa: BLE001 - the error is the result
            return ("error", type(error), str(error))


def bits(value: Any) -> tuple:
    """A value by its type and its exact bits (NaN and -0.0 included)."""
    if isinstance(value, float):
        return (float, struct.pack("<d", value))
    return (type(value), repr(value))


def column_state(column: Any) -> tuple:
    if isinstance(column, array):
        return ("array", column.typecode, column.tobytes())
    return (type(column).__name__, tuple(map(bits, column)))


def block_state(block: EventBlock) -> tuple:
    """Everything a block holds, column by column, by kind and bits."""
    return (
        block.start,
        block.stop,
        column_state(block.times),
        column_state(block.sequences),
        block.type_table,
        column_state(block.type_codes),
        block.key_table,
        column_state(block.key_codes),
        column_state(block.row_slots),
        tuple(tuple(map(column_state, columns)) for columns in block.shape_columns),
    )


def state_of(result: tuple) -> tuple:
    """An :func:`outcome` with a block replaced by its :func:`block_state`."""
    if result[0] == "ok" and isinstance(result[1], EventBlock):
        return ("ok", block_state(result[1]))
    if result[0] == "ok":
        return ("ok", bits(result[1]))
    return result


def frame_with_times(times: array, shapes: list[int]) -> bytes:
    """A frame of one row per time, row ``i`` of payload shape
    ``shapes[i]``, its time column overwritten with ``times``' bytes (no
    builder frames a negative time)."""
    rows = []
    for index, shape in enumerate(shapes):
        keys = SHAPES[shape]
        values = {"g": index % 3, "x": index * 0.5, "flag": index % 2 == 0, "s": f"s{index}"}
        rows.append(build_event("AB"[index % 2], 0.0 if times.typecode == "d" else 0,
                                {key: values[key] for key in keys}, index))
    frame = bytearray(encode_events(rows))
    if not times:  # (an empty column frames as f64)
        return bytes(frame)
    assert frame[9:14] == times.typecode.encode() + (8 * len(times)).to_bytes(4, "little")
    frame[14 : 14 + 8 * len(times)] = times.tobytes()
    return bytes(frame)


def decode_on_both(frame: bytes) -> tuple:
    got = outcome(lambda: EventBlock.from_bytes(frame), reference=False)
    want = outcome(lambda: EventBlock.from_bytes(frame), reference=True)
    assert state_of(got) == state_of(want)
    return got


FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, NAN, INF, -INF, 2.0**53, 2.0**53 + 2]),
)
INTS = st.one_of(
    st.integers(-(2**63), 2**63 - 1),
    st.sampled_from([0, 2**53, 2**53 + 1, 2**63 - 1, -(2**63)]),
    st.integers(0, 50),
)


@st.composite
def frames(draw: Any) -> bytes:
    """A frame: an f64 or i64 time column of any values, 1 to 3 shapes."""
    typecode = draw(st.sampled_from("dq"))
    values = draw(st.lists(FLOATS if typecode == "d" else INTS, max_size=40))
    if typecode == "d" and values and draw(st.booleans()):
        values[0] = NAN  # a NaN at row 0 hides a negative time from ``min``
    used = draw(st.lists(st.integers(0, 2), min_size=1, max_size=3, unique=True))
    shapes = [draw(st.sampled_from(used)) for _ in values]
    return frame_with_times(array(typecode, values), shapes)


@needs_core
@settings(deadline=None, derandomize=True, max_examples=300)
@given(frame=frames())
def test_a_decoded_frame_is_the_same_block_on_both_paths(frame):
    decode_on_both(frame)


@needs_core
@pytest.mark.parametrize("rows", [0, 1, 5000])
@pytest.mark.parametrize("shapes", [1, 3])
def test_empty_one_row_and_large_frames_on_both_paths(rows, shapes):
    times = array("d", (0.25 * row for row in range(rows)))
    got = decode_on_both(frame_with_times(times, [row % shapes for row in range(rows)]))
    assert got[0] == "ok" and len(got[1]) == rows


@needs_core
@pytest.mark.parametrize(
    "times",
    [
        array("d", [1.0, NAN, -1.0]),
        array("d", [NAN, -0.5, 2.0]),
        array("d", [-INF]),
        array("q", [5, -(2**63), 7]),
        array("q", [2**63 - 1, -1]),
    ],
    ids=["after-nan", "nan-at-row-0", "minus-inf", "int64-min", "minus-one"],
)
def test_a_negative_time_is_refused_alike(times):
    got = decode_on_both(frame_with_times(times, [0] * len(times)))
    assert got[0] == "error" and "negative event time" in got[2]


@needs_core
def test_nan_minus_zero_and_int64_ends_decode_alike():
    for times in (array("d", [NAN, -0.0, 0.0, INF]), array("q", [0, 2**53 + 1, 2**63 - 1])):
        assert decode_on_both(frame_with_times(times, [0, 1, 2, 0][: len(times)]))[0] == "ok"


# ---------------------------------------------------------------------- #
# Order admission
# ---------------------------------------------------------------------- #
CLOCKS = st.one_of(st.sampled_from([-INF, 0.0, 2**53, 2**53 + 1]), FLOATS, INTS)


@needs_core
@settings(deadline=None, derandomize=True, max_examples=300)
@given(frame=frames(), cut=st.tuples(st.integers(0, 40), st.integers(0, 40)), clock=CLOCKS)
def test_the_block_order_check_is_the_same_on_both_paths(frame, cut, clock):
    decoded = decode_on_both(frame)
    if decoded[0] != "ok":
        return
    block = decoded[1]
    start, stop = min(cut[0], len(block)), min(max(cut), len(block))
    check = lambda: ensure_block_in_order(block.times, start, stop, clock)  # noqa: E731
    assert state_of(outcome(check, reference=False)) == state_of(outcome(check, reference=True))


@needs_core
@pytest.mark.parametrize(
    "times, clock",
    [
        (array("q", [2**53 + 1, 2**53]), 0),  # a descent a double cannot see
        (array("q", [2**53, 2**53 + 1]), 2**53 + 1),  # behind the clock by one
        (array("q", [2**53 + 1, 2**53 + 1]), float(2**53)),
        (array("d", [1.0, NAN, 0.5]), 0.0),  # the NaN is named first
        (array("d", [2.0, 1.0, INF]), 0.0),
        (array("d", [-0.0, 0.0, -0.0]), 0.0),
    ],
)
def test_order_edges_on_both_paths(times, clock):
    check = lambda: ensure_block_in_order(times, 0, len(times), clock)  # noqa: E731
    got, want = outcome(check, reference=False), outcome(check, reference=True)
    assert state_of(got) == state_of(want)
    if times.typecode == "q" and clock == 0:
        assert got[0] == "error" and got[1] is OutOfOrderError


class RecordingCore:
    """What the lateness stage feeds, row by row, with its kinds."""

    def __init__(self) -> None:
        self.calls: list[tuple] = []

    def _ingest_events(self, events) -> None:
        self.calls.append(("events", tuple((bits(e.time), e.sequence) for e in events)))

    def _ingest_block(self, block) -> None:
        rows = zip(block.times[block.start : block.stop], block.sequences[block.start : block.stop])
        self.calls.append(("block", tuple((bits(time), sequence) for time, sequence in rows)))

    def _edge_after(self, time) -> float:
        return -INF

    def _core_state(self) -> list:
        return list(self.calls)

    def _restore_core(self, snapshot: list) -> int:
        self.calls = list(snapshot)
        return len(snapshot)


def offer(block: EventBlock, lateness: Any, newest: Any, policy: str) -> tuple:
    """One ``offer_block`` into a stage whose buffer has seen ``newest``:
    what the core was fed, the late rows, the buffer's newest time and floor."""
    core, late = RecordingCore(), []
    stage = Lateness(core, lateness, policy, late.append if policy == "side_output" else None)
    if newest is not None:
        stage.buffer.observe(newest)
    try:
        stage.offer_block(core, block)
        stage.flush(core)
    except Exception as error:  # noqa: BLE001 - the error is the result
        return ("error", type(error), str(error), core.calls)
    buffer = stage.buffer
    return (
        core.calls,
        [(bits(event.time), event.sequence) for event in late],
        bits(buffer.max_event_time),
        bits(buffer.floor),
        (stage.late_dropped, stage.late_side_output),
    )


@needs_core
@settings(deadline=None, derandomize=True, max_examples=300)
@given(
    frame=frames(),
    lateness=st.one_of(st.sampled_from([0, 0.0, 1, 2.5, 2**60]), st.floats(0, 1e6)),
    newest=st.one_of(st.none(), FLOATS.filter(lambda t: t == t), INTS),
    policy=st.sampled_from(["raise", "drop", "side_output"]),
    start=st.integers(0, 5),
)
def test_the_lateness_stage_takes_a_block_alike_on_both_paths(
    frame, lateness, newest, policy, start
):
    decoded = decode_on_both(frame)
    if decoded[0] != "ok":
        return
    block = decoded[1].slice(start, len(decoded[1]))
    got = offer(block, lateness, newest, policy)
    with mock.patch.object(foldcore, "core", None):
        want = offer(block, lateness, newest, policy)
    assert got == want


@needs_core
@pytest.mark.parametrize(
    "times, lateness, newest",
    [
        (array("q", [10, 2**53 + 9, 2**53, 2**53 + 10, 3]), 8, None),  # int64 lateness
        (array("q", [2**53 + 9, 2**53 + 1, 2**53 + 2]), 8, None),  # bound exactly at a row
        (array("q", [2**62, 2**62 - 2**10, 2**62 - 2**11]), 1000.5, None),  # a double bound
        (array("q", [1, 2, 3]), 1.0, 2**63 - 1),
        (array("d", [5.0, 1.0, 6.0, 4.0, 0.5]), 1, 3.0),
        (array("d", [1.0, 2.0, NAN]), 1.0, None),
        (array("d", [1.0, INF]), 1.0, None),
        (array("d", [-0.0, 0.0, -0.0]), 0.0, None),
    ],
)
def test_lateness_edges_on_both_paths(times, lateness, newest):
    block = decode_on_both(frame_with_times(times, [0] * len(times)))[1]
    for policy in ("raise", "side_output"):
        got = offer(block, lateness, newest, policy)
        with mock.patch.object(foldcore, "core", None):
            assert got == offer(block, lateness, newest, policy)


# ---------------------------------------------------------------------- #
# select
# ---------------------------------------------------------------------- #
#: Ranges with a bound or a length the core cannot read as ``Py_ssize_t``
#: (it declines them) or whose next index would overflow one: the
#: reference words the error.
HUGE_RANGES = (
    range(2**63, 2**63 + 1),
    range(-(2**63) - 1, 0),
    range(2**64),
    range(2, 2**64, 2**63 - 2),
)


@needs_core
@settings(deadline=None, derandomize=True, max_examples=300)
@given(
    frame=frames(),
    start=st.integers(0, 5),
    picks=st.lists(st.integers(-3, 45), max_size=50),
    as_range=st.sampled_from((None, "down", *HUGE_RANGES)),
)
def test_select_gathers_and_refuses_alike_on_both_paths(frame, start, picks, as_range):
    decoded = decode_on_both(frame)
    if decoded[0] != "ok":
        return
    block = decoded[1].slice(start, len(decoded[1]))
    indices: Any = (
        picks if as_range is None
        else range(len(block) - 1, -1, -2) if as_range == "down"
        else as_range
    )
    pick = lambda: block.select(indices)  # noqa: E731
    assert state_of(outcome(pick, reference=False)) == state_of(outcome(pick, reference=True))


@needs_core
def test_select_of_a_built_block_with_list_columns_on_both_paths():
    events = [build_event("AB"[i % 2], i * 0.5, {"x": i, "o": [i]} if i % 3 else {}, i)
              for i in range(30)]
    block = EventBlock.from_events(events).slice(2, 28)
    for indices in ([5, 1, 1, 20], (3,), range(0, 26, 5), [], [1, 26], [-1], *HUGE_RANGES):
        pick = lambda: block.select(indices)  # noqa: E731
        assert state_of(outcome(pick, reference=False)) == state_of(outcome(pick, reference=True))


# ---------------------------------------------------------------------- #
# The core leaks nothing
# ---------------------------------------------------------------------- #
@needs_core
def test_the_kernels_leak_nothing_on_success_or_error():
    core = foldcore.core
    frames_ = [
        frame_with_times(array("d", [0.5 * row for row in range(200)]), [0, 1, 2] * 66 + [0, 1]),
        frame_with_times(array("q", range(50)), [0] * 50),
        frame_with_times(array("d", [1.0, NAN, -1.0]), [0, 1, 2]),  # refused: negative
    ]
    times, codes = array("d", [1.0, 0.5, INF]), array("I", [0, 1, 0])
    bad_calls = (
        (core.time_scan, (times, 2, 1), ValueError),
        (core.time_scan, (times, 0, 9), ValueError),
        (core.code_scan, ([0, 1], 2, True), TypeError),
        (core.code_scan, (array("d"), 2, True), TypeError),
        (core.gather, ([0, 5], 0, 3, [times]), None),  # position 1 out of range
        (core.gather, ([0, "x"], 0, 3, [times]), None),  # no int: None
        (core.gather, ([0], 0, 3, [[1.0]]), TypeError),
        (core.gather, ({0}, 0, 3, [times]), TypeError),
        (core.gather, ([0], 0, 9, [times]), ValueError),
        (core.gather, (HUGE_RANGES[0], 0, 3, [times]), None),  # declined: None
        (core.gather, (HUGE_RANGES[2], 0, 3, [times]), None),  # a length past Py_ssize_t
        (core.gather, (HUGE_RANGES[3], 0, 3, [times]), None),  # position 1 out of range
        (core.late_scan, (times, 0, 9, -INF, 1.0), ValueError),
        (core.memory_units, ([object()], object), AttributeError),  # no groups
        (core.memory_units, ([], 1), TypeError),
    )

    def loop() -> None:
        for frame in frames_:
            try:
                block = EventBlock.from_bytes(frame)
            except Exception:  # noqa: BLE001 - the refused frame
                continue
            block.select([3, 1, 2]).select(range(2))
            for indices in ([0, len(block)], [-1]):
                try:
                    block.select(indices)
                except IndexError:
                    pass
            ensure_block_in_order(block.times, 0, len(block), -INF)
            stage = Lateness(RecordingCore(), 1.0, "drop")
            stage.buffer.observe(block.times[len(block) - 1])
            stage.offer_block(RecordingCore(), block)
        for kernel, args, error in bad_calls:
            if error is None:
                kernel(*args)
                continue
            with pytest.raises(error):
                kernel(*args)
        core.late_scan(times, 0, 3, -INF, 1.0)
        core.code_scan(codes, 2, True)

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
