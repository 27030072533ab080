"""Snapshots and the snapshot table (Definitions 8 and 9).

A snapshot is a variable whose value is an intermediate trend aggregate *per
query*.  Graphlet-level snapshots capture the aggregate a query has reached
at the point a shared graphlet starts; event-level snapshots capture the
per-query aggregate of a single event whose predecessor set differs across
the sharing queries (because of predicates or negation).

The snapshot table ``S`` maps ``(snapshot, query)`` to the query's value —
the paper's "hash table of snapshots".
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Optional

from repro.errors import SharingError
from repro.events.event import EventType
from repro.greta.aggregators import AggregateVector


class SnapshotLevel(enum.Enum):
    """Whether a snapshot was created at graphlet or at event level."""

    GRAPHLET = "graphlet"
    EVENT = "event"


@dataclass(frozen=True, slots=True)
class Snapshot:
    """A snapshot variable (identity only; values live in the table)."""

    snapshot_id: str
    level: SnapshotLevel
    event_type: EventType

    def __repr__(self) -> str:
        return self.snapshot_id


class SnapshotTable:
    """Mapping from ``(snapshot, query)`` to the query's aggregate vector."""

    __slots__ = ("_dimension", "_snapshots", "_values", "_id_counter", "_created")

    def __init__(self, dimension: int) -> None:
        self._dimension = dimension
        self._snapshots: dict[str, Snapshot] = {}
        self._values: dict[tuple[str, str], AggregateVector] = {}
        self._id_counter = itertools.count(1)
        self._created = {SnapshotLevel.GRAPHLET: 0, SnapshotLevel.EVENT: 0}

    # ------------------------------------------------------------------ #
    # Creation
    # ------------------------------------------------------------------ #
    def create(
        self,
        level: SnapshotLevel,
        event_type: EventType,
        values: Mapping[str, AggregateVector],
    ) -> Snapshot:
        """Create a new snapshot with its per-query values.

        Args:
            level: graphlet- or event-level.
            event_type: The event type of the graphlet the snapshot feeds.
            values: Mapping from query name to the query's value.
        """
        prefix = "x" if level is SnapshotLevel.GRAPHLET else "z"
        snapshot = Snapshot(f"{prefix}{next(self._id_counter)}", level, event_type)
        self._snapshots[snapshot.snapshot_id] = snapshot
        self._created[level] += 1
        for query_name, value in values.items():
            self.set_value(snapshot.snapshot_id, query_name, value)
        return snapshot

    def set_value(self, snapshot_id: str, query_name: str, value: AggregateVector) -> None:
        """Set the value of ``snapshot_id`` for ``query_name``."""
        if value.dimension != self._dimension:
            raise SharingError(
                f"snapshot value has {value.dimension} measures, table expects {self._dimension}"
            )
        self._values[(snapshot_id, query_name)] = value

    # ------------------------------------------------------------------ #
    # Lookup
    # ------------------------------------------------------------------ #
    def value(self, snapshot_id: str, query_name: str) -> AggregateVector:
        """Value of a snapshot for one query (zero if the query has no entry)."""
        if snapshot_id not in self._snapshots:
            raise SharingError(f"unknown snapshot {snapshot_id!r}")
        return self._values.get(
            (snapshot_id, query_name), AggregateVector.zero(self._dimension)
        )

    def resolver(self, query_name: str) -> Callable[[str], AggregateVector]:
        """Return a ``snapshot_id -> value`` callable for one query."""
        return lambda snapshot_id: self.value(snapshot_id, query_name)

    def raw_lookup(self, query_name: str) -> Callable[[str], Optional[AggregateVector]]:
        """A hot-path lookup for one query: ``snapshot_id -> value | None``.

        Unlike :meth:`resolver` this never allocates a zero vector — a query
        without an entry yields ``None`` (callers treat it as zero) — and it
        skips the known-snapshot check, which engine-built expressions
        guarantee by construction.
        """
        values = self._values
        return lambda snapshot_id: values.get((snapshot_id, query_name))

    def snapshot(self, snapshot_id: str) -> Snapshot:
        """The snapshot object for ``snapshot_id``."""
        try:
            return self._snapshots[snapshot_id]
        except KeyError:
            raise SharingError(f"unknown snapshot {snapshot_id!r}") from None

    def snapshots(self) -> Iterable[Snapshot]:
        """All snapshots created so far."""
        return tuple(self._snapshots.values())

    # ------------------------------------------------------------------ #
    # Statistics used by the optimizer, benchmarks and memory accounting
    # ------------------------------------------------------------------ #
    @property
    def dimension(self) -> int:
        """Number of measure components per value."""
        return self._dimension

    def created_count(self, level: SnapshotLevel | None = None) -> int:
        """Number of snapshots created (optionally of one level)."""
        if level is None:
            return sum(self._created.values())
        return self._created[level]

    def entry_count(self) -> int:
        """Number of ``(snapshot, query)`` value entries stored."""
        return len(self._values)

    def memory_units(self) -> int:
        """One unit per snapshot plus one per stored per-query value."""
        return len(self._snapshots) + len(self._values)


class WindowCoefficientTable:
    """Per-``(consumer, window instance)`` running aggregate coefficients.

    The snapshot table above separates the per-*query* values of a shared
    symbolic aggregate; this is its cross-*window* twin: for every consumer
    (a query, or a class of computationally identical queries) and every
    live window instance it keeps one running total — the coefficient the
    shared graph work is tagged with, so a window's close is a readout of
    its column and an eviction of its entries rather than a replay.

    The per-window maps are plain dicts keyed by the integer window-instance
    index and are handed out raw (:meth:`window_map`) because the engines'
    hot loops fold into them per event; measure-less workloads store bare
    floats instead of :class:`~repro.core.kernels.MutableAggregate` rows.
    """

    __slots__ = ("dimension", "scalar", "_maps")

    def __init__(self, dimension: int) -> None:
        self.dimension = dimension
        #: Scalar mode: COUNT(*)-only consumers track one float per window.
        self.scalar = dimension == 0
        self._maps: dict[tuple, dict[int, object]] = {}

    def window_map(self, consumer: tuple) -> dict:
        """The raw ``window index -> coefficient`` map of one consumer."""
        window_map = self._maps.get(consumer)
        if window_map is None:
            window_map = self._maps[consumer] = {}
        return window_map

    def clear(self) -> None:
        """Empty every map in place: the engines' plans hold them."""
        for window_map in self._maps.values():
            window_map.clear()

    def entry_count(self) -> int:
        """Number of live ``(consumer, window)`` coefficients.

        O(consumers) scan — engines keep their own incremental counter for
        the hot path; this accessor is the ground truth the invariant tests
        compare that counter against.
        """
        return sum(len(window_map) for window_map in self._maps.values())

    def memory_units(self) -> int:
        """One unit per coefficient (plus its measure components)."""
        per_entry = 1 if self.scalar else 1 + self.dimension
        return self.entry_count() * per_entry
