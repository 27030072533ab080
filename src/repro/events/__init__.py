"""Event model and stream abstractions.

This package provides the substrate every engine in the library is built on:

* :class:`~repro.events.event.Event` — an immutable timestamped tuple of a
  particular event type.
* :class:`~repro.events.schema.Attribute` / :class:`~repro.events.schema.Schema`
  — attribute declarations and validation for event types.
* :class:`~repro.events.stream.EventStream` — an ordered, replayable sequence
  of events with helpers for slicing, merging and rate statistics.
* :class:`~repro.events.block.EventBlock` — the one batch container: the
  columnar in-memory form the hot path consumes natively (zero-copy slices,
  lazy per-row event views) and, framed by :mod:`~repro.events.columnar`,
  the only form in which a batch crosses a process boundary.
* :mod:`~repro.events.time` — time-stamp helpers shared by windows and panes.
"""

from repro.events.block import EventBlock, EventBlockBuilder
from repro.events.event import Event, EventType
from repro.events.schema import Attribute, AttributeKind, Schema
from repro.events.stream import EventStream, StreamStatistics, merge_streams
from repro.events.time import Timestamp, gcd_of_intervals

__all__ = [
    "Attribute",
    "AttributeKind",
    "Event",
    "EventBlock",
    "EventBlockBuilder",
    "EventStream",
    "EventType",
    "Schema",
    "StreamStatistics",
    "Timestamp",
    "gcd_of_intervals",
    "merge_streams",
]
