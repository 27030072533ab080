"""The :class:`Event` data type.

An event is an immutable, timestamped tuple of a particular event type with a
payload of named attributes.  Events are hashable and totally ordered by
``(time, sequence_number)`` so that streams with simultaneous events still
have a deterministic order.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from operator import eq
from typing import Any, Mapping, Optional, Sequence

from repro.errors import SchemaError
from repro.events.schema import Schema
from repro.events.time import Timestamp

#: Alias used in type hints: event types are plain strings (e.g. ``"Travel"``).
EventType = str

_sequence_counter = itertools.count()


@dataclass(frozen=True, slots=True)
class Event:
    """A single event.

    Attributes:
        event_type: Name of the event type (``e.type`` in the paper).
        time: Timestamp in seconds assigned by the event source.
        payload: Mapping of attribute name to value.
        sequence: Monotonically increasing tie-breaker assigned at creation
            time; guarantees a deterministic total order for events that share
            a timestamp.
    """

    event_type: EventType
    time: Timestamp
    payload: Mapping[str, Any] = field(default_factory=dict)
    sequence: int = field(default_factory=lambda: next(_sequence_counter))

    def __post_init__(self) -> None:
        if self.time < 0:
            raise SchemaError(f"event time must be non-negative, got {self.time!r}")

    # ------------------------------------------------------------------ #
    # Attribute access
    # ------------------------------------------------------------------ #
    def __getitem__(self, attribute: str) -> Any:
        """Return the value of ``attribute``.

        Raises:
            KeyError: if the attribute is absent from the payload.
        """
        return self.payload[attribute]

    def get(self, attribute: str, default: Any = None) -> Any:
        """Return the value of ``attribute`` or ``default`` if absent."""
        return self.payload.get(attribute, default)

    def has(self, attribute: str) -> bool:
        """Return True if the payload carries ``attribute``."""
        return attribute in self.payload

    # ------------------------------------------------------------------ #
    # Ordering and identity
    # ------------------------------------------------------------------ #
    def __lt__(self, other: "Event") -> bool:
        if self.time != other.time:
            return self.time < other.time
        return self.sequence < other.sequence

    def __le__(self, other: "Event") -> bool:
        if self.time != other.time:
            return self.time < other.time
        return self.sequence <= other.sequence

    def __hash__(self) -> int:
        return hash((self.event_type, self.time, self.sequence))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Event):
            return NotImplemented
        return (
            self.event_type == other.event_type
            and self.time == other.time
            and self.sequence == other.sequence
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        attrs = ", ".join(f"{key}={value!r}" for key, value in sorted(self.payload.items()))
        return f"Event({self.event_type}@{self.time:g}{', ' + attrs if attrs else ''})"

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #
    @classmethod
    def create(
        cls,
        event_type: EventType,
        time: Timestamp,
        schema: Optional[Schema] = None,
        **payload: Any,
    ) -> "Event":
        """Create an event, optionally validating the payload against ``schema``."""
        if schema is not None:
            if schema.event_type != event_type:
                raise SchemaError(
                    f"schema is for type {schema.event_type!r}, event is {event_type!r}"
                )
            schema.validate(payload)
        return cls(event_type=event_type, time=time, payload=dict(payload))

    def with_payload(self, **updates: Any) -> "Event":
        """Return a copy of this event with payload entries added/overridden."""
        payload = dict(self.payload)
        payload.update(updates)
        return Event(event_type=self.event_type, time=self.time, payload=payload)


# ---------------------------------------------------------------------- #
# Group keys
# ---------------------------------------------------------------------- #
#: The one NaN object group keys carry.  ``nan != nan`` and a NaN hashes by
#: identity, so keys holding distinct NaN objects (every decoded stream's)
#: would scatter one group over as many groups as it has rows; like SQL
#: ``GROUP BY``, every float NaN of a grouping attribute is one group.
GROUP_NAN = float("nan")


def group_key(event: Event, attributes: tuple[str, ...]) -> tuple[Any, ...]:
    """The grouping key of ``event`` (``()`` without GROUP BY), NaN collapsed."""
    key = tuple(map(event.payload.get, attributes))
    for value in key:
        if value != value:
            return tuple(collapse_nan(list(key)))
    return key


def unhashable_key_error(attributes: Sequence[str], key: Sequence[Any]) -> SchemaError:
    """The error for a group key a dict cannot hold, naming the attribute
    whose value (``key`` holds one per attribute) is unhashable."""
    for name, value in zip(attributes, key):
        try:
            hash(value)
        except TypeError:
            return SchemaError(
                f"GROUP BY attribute {name!r} has an unhashable value {value!r}"
            )
    return SchemaError(f"GROUP BY key {tuple(key)!r} of {tuple(attributes)!r} is unhashable")


def collapse_nan(values: list[Any]) -> list[Any]:
    """``values`` with every float NaN replaced by :data:`GROUP_NAN` — the
    list itself when it holds none, found by one C-speed ``sum`` when every
    value is a number (NaN propagates; ``inf - inf`` is a harmless false
    alarm)."""
    try:
        total = sum(values)
        clean = total == total
    except (TypeError, ArithmeticError):  # not all numbers (or huge ints)
        clean = all(map(eq, values, values))
    if clean:
        return values
    return [GROUP_NAN if isinstance(value, float) and value != value else value for value in values]
