"""Golden codec-2 frames: the wire bytes may not move.

The hex files under ``tests/events/data/`` were written by the row-form
encoder this repo shipped before ``EventBlock`` learned to serialize its own
columns (``EventBlock.to_bytes("columnar")`` at commit 7a28740, CPython
3.11).  They pin the ``RPEB`` codec-2 layout byte for byte — header, column
tags, interned tables (a slice or gather keeps its root's full tables),
per-shape value columns and the pickled object-column fallback — so a frame
written by any earlier build still decodes and a frame written today is
indistinguishable from one of theirs.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.events import Event, EventBlock

DATA = Path(__file__).parent / "data"


def _events() -> list[Event]:
    """Twelve rows, two types, explicit sequences, one payload shape."""
    return [
        Event(
            "A" if index % 3 else "B",
            float(index) * 0.5,
            {"ride": index % 4, "price": 1.25 * index, "surge": index % 2 == 0},
            sequence=1000 + index,
        )
        for index in range(12)
    ]


def golden_blocks() -> dict[str, EventBlock]:
    full = EventBlock.from_events(_events())
    two_shapes = EventBlock.from_events(
        [
            Event("A", 0.0, {"x": 1, "y": 2.0}, sequence=1),
            Event("B", 1.0, {"y": 3.0, "x": 4}, sequence=2),
            Event("A", 1.0, {"x": 5, "y": 6.0}, sequence=3),
            Event("C", 2.5, {}, sequence=4),
            Event("B", 3.0, {"y": 7.0, "x": 8}, sequence=5),
        ]
    )
    return {
        "full": full,
        "slice": full.slice(3, 9),
        "select": full.select([0, 2, 5, 11]),
        "empty": EventBlock.empty(),
        "single_row": EventBlock.from_events(
            [Event("Only", 7.0, {"v": -0.0}, sequence=42)]
        ),
        "two_shapes": two_shapes,
        "two_shapes_slice": two_shapes.slice(1, 4),
        "object_column": EventBlock.from_events(
            [
                Event("T", float(index), {"x": value}, sequence=index)
                for index, value in enumerate(
                    [4, 4.0, True, "4", None, (1, 2.5), 2**70]
                )
            ]
        ),
    }


def _same_rows(left: EventBlock, right: EventBlock) -> None:
    assert len(left) == len(right)
    for a, b in zip(left.to_events(), right.to_events()):
        assert (a.event_type, a.sequence) == (b.event_type, b.sequence)
        assert a.time == b.time and type(a.time) is type(b.time)
        assert list(a.payload.items()) == list(b.payload.items())  # key order
        assert [type(v) for v in a.payload.values()] == [
            type(v) for v in b.payload.values()
        ]


@pytest.mark.parametrize("name", sorted(golden_blocks()))
def test_to_bytes_reproduces_the_golden_frame(name):
    block = golden_blocks()[name]
    golden = bytes.fromhex((DATA / f"{name}.hex").read_text())
    assert block.to_bytes() == golden
    _same_rows(EventBlock.from_bytes(golden), block)
    _same_rows(EventBlock.from_bytes(block.to_bytes()), block)
