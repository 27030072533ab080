"""Event streams.

An :class:`EventStream` is an ordered, replayable, in-memory sequence of
events.  The runtime executor consumes streams event by event; the dataset
simulators produce them; benchmarks slice and merge them.

Streams enforce the paper's in-order arrival assumption: appending an event
that regresses behind the last appended event in ``(time, sequence)`` order
raises :class:`~repro.errors.StreamError` (equal times with non-decreasing
sequence numbers are fine — that is the total event order every consumer
downstream relies on).  Disordered feeds belong in plain event lists or
blocks, ingested through an executor with ``allowed_lateness`` set.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Optional, Sequence, overload

from repro.errors import StreamError
from repro.events.event import Event, EventType
from repro.events.time import Timestamp

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations
    from repro.events.block import EventBlock


@dataclass(frozen=True, slots=True)
class StreamStatistics:
    """Summary statistics of a stream used by benchmarks and the optimizer."""

    count: int
    duration: float
    events_per_second: float
    events_per_type: dict[EventType, int]

    @property
    def events_per_minute(self) -> float:
        """Average arrival rate expressed per minute (the paper's unit)."""
        return self.events_per_second * 60.0


class EventStream:
    """An ordered, replayable sequence of events.

    The class behaves like an immutable sequence once handed to an engine but
    supports efficient appends while a simulator is producing it.
    """

    __slots__ = ("name", "_events", "_times", "_by_type")

    def __init__(self, events: Iterable[Event] = (), *, name: str = "stream") -> None:
        self.name = name
        self._events: list[Event] = []
        #: Timestamp array kept in lock-step with ``_events`` so time-based
        #: slicing (``between``, the streaming executor's pane bounds) never
        #: rebuilds the full list per call.
        self._times: list[Timestamp] = []
        #: Per-type index kept in lock-step with ``_events`` so type-based
        #: selection (``of_type``/``of_types``, the executors' per-unit
        #: relevant-type filtering) never re-scans the full stream.
        self._by_type: dict[EventType, list[Event]] = {}
        for event in events:
            self.append(event)

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    def append(self, event: Event) -> None:
        """Append ``event``; arrivals must not regress in ``(time, sequence)``.

        Time alone is not enough: equal-time events with a regressing
        sequence number would pass a time-only check here only to be
        rejected later by the shared-window engines' strict order guard —
        the boundary enforces the same total order.
        """
        if self._events:
            last = self._events[-1]
            if event.time < last.time or (
                event.time == last.time and event.sequence < last.sequence
            ):
                raise StreamError(
                    f"out-of-order append: event time={event.time!r} "
                    f"seq={event.sequence} arrived after time={last.time!r} "
                    f"seq={last.sequence} and would precede it in stream order"
                )
        self._events.append(event)
        self._times.append(event.time)
        per_type = self._by_type.get(event.event_type)
        if per_type is None:
            per_type = self._by_type[event.event_type] = []
        per_type.append(event)

    def extend(self, events: Iterable[Event]) -> None:
        """Append every event in ``events`` in order."""
        for event in events:
            self.append(event)

    # ------------------------------------------------------------------ #
    # Sequence protocol
    # ------------------------------------------------------------------ #
    def __iter__(self) -> Iterator[Event]:
        return iter(self._events)

    def __len__(self) -> int:
        return len(self._events)

    @overload
    def __getitem__(self, index: int) -> Event: ...

    @overload
    def __getitem__(self, index: slice) -> "EventStream": ...

    def __getitem__(self, index: int | slice) -> "Event | EventStream":
        if isinstance(index, slice):
            return EventStream(self._events[index], name=self.name)
        return self._events[index]

    def __bool__(self) -> bool:
        return bool(self._events)

    @property
    def events(self) -> Sequence[Event]:
        """The underlying events as an immutable view."""
        return tuple(self._events)

    def to_block(self) -> "EventBlock":
        """Encode the stream into a columnar :class:`EventBlock`.

        The block is the hot path's native batch format; executors ingest
        it without materializing per-event objects.
        """
        from repro.events.block import EventBlock

        return EventBlock.from_events(self._events)

    # ------------------------------------------------------------------ #
    # Time-based access
    # ------------------------------------------------------------------ #
    @property
    def start_time(self) -> Optional[Timestamp]:
        """Timestamp of the first event, or None for an empty stream."""
        return self._events[0].time if self._events else None

    @property
    def end_time(self) -> Optional[Timestamp]:
        """Timestamp of the last event, or None for an empty stream."""
        return self._events[-1].time if self._events else None

    @property
    def times(self) -> Sequence[Timestamp]:
        """The event timestamps as a sorted array (kept in step with appends)."""
        return self._times

    def index_at(self, timestamp: Timestamp) -> int:
        """Index of the first event with ``time >= timestamp`` (binary search)."""
        return bisect.bisect_left(self._times, timestamp)

    def between(self, start: Timestamp, end: Timestamp) -> "EventStream":
        """Return the sub-stream with timestamps in the half-open ``[start, end)``."""
        return EventStream(
            self._events[self.index_at(start) : self.index_at(end)], name=self.name
        )

    def filter(self, predicate: Callable[[Event], bool]) -> "EventStream":
        """Return the sub-stream of events satisfying ``predicate``."""
        return EventStream(
            (event for event in self._events if predicate(event)), name=self.name
        )

    @property
    def by_type(self) -> dict[EventType, Sequence[Event]]:
        """The per-type event lists (each in stream order), built on append."""
        return {event_type: tuple(events) for event_type, events in self._by_type.items()}

    def events_of_type(self, event_type: EventType) -> Sequence[Event]:
        """The events of one type in stream order (an immutable view)."""
        return tuple(self._by_type.get(event_type, ()))

    def of_types(self, event_types: Iterable[EventType]) -> list[Event]:
        """Events whose type is in ``event_types``, in stream order.

        Uses the per-type index: the per-type lists are merged by the total
        event order ``(time, sequence)`` instead of re-scanning the whole
        stream, so the cost scales with the *selected* events (plus the
        merge), not the stream length — this is what the executors use to
        cut each execution unit's sub-stream.
        """
        # dict.fromkeys dedups while keeping the caller's order — iterating
        # a set here would make the (order-insensitive) merge input depend
        # on the hash seed for no benefit.
        selected: list[list[Event]] = [
            self._by_type[event_type]
            for event_type in dict.fromkeys(event_types)
            if event_type in self._by_type
        ]
        if not selected:
            return []
        if len(selected) == 1:
            return list(selected[0])
        merged = [event for events in selected for event in events]
        merged.sort(key=lambda event: (event.time, event.sequence))
        return merged

    def of_type(self, *event_types: EventType) -> "EventStream":
        """Return the sub-stream of events whose type is in ``event_types``."""
        return EventStream(self.of_types(event_types), name=self.name)

    # ------------------------------------------------------------------ #
    # Statistics
    # ------------------------------------------------------------------ #
    def statistics(self) -> StreamStatistics:
        """Compute summary statistics for the stream."""
        per_type: dict[EventType, int] = {}
        for event in self._events:
            per_type[event.event_type] = per_type.get(event.event_type, 0) + 1
        if not self._events:
            return StreamStatistics(0, 0.0, 0.0, per_type)
        duration = self._events[-1].time - self._events[0].time
        rate = len(self._events) / duration if duration > 0 else float(len(self._events))
        return StreamStatistics(
            count=len(self._events),
            duration=duration,
            events_per_second=rate,
            events_per_type=per_type,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"EventStream({self.name!r}, {len(self._events)} events)"


def merge_streams(*streams: EventStream, name: str = "merged") -> EventStream:
    """Merge streams into a single stream ordered by ``(time, sequence)``.

    The merge is stable with respect to the total order on events and is used
    by dataset simulators that generate each event type independently.
    """
    merged = sorted(
        (event for stream in streams for event in stream),
        key=lambda event: (event.time, event.sequence),
    )
    return EventStream(merged, name=name)
