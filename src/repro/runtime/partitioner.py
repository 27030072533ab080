"""Stream partitioning by grouping attributes and window instances.

HAMLET first partitions the stream by the values of the grouping attributes,
then slices it in time (Section 3.1).  The executor evaluates an engine per
``(group key, window instance)`` partition; an event belongs to every window
instance that covers its timestamp, so events of overlapping sliding windows
are routed to several partitions.

Partitions are keyed by the *integer window-instance index* ``k`` (instance
``k`` spans ``[k*slide, k*slide + size)``), never by the float start
``k*slide``: for fractional slides the float start accumulates rounding error
(``3*0.1 != 0.3``), which used to misassign boundary events and make keys of
the same instance unequal across execution units.

Routing is exposed both incrementally (:meth:`GroupWindowPartitioner.route`
yields the keys of one event without storing anything — the streaming
executor's path) and materialized (:meth:`GroupWindowPartitioner.add_all`
builds the dict-of-lists the batch executor replays).

Queries that share an engine partition must agree on grouping attributes
(guaranteed by Definition 5) and on the window specification (a documented
simplification of the paper's pane-based cross-window sharing — see
``docs/DESIGN.md``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from repro.events.event import Event, group_key
from repro.query.query import Query
from repro.query.windows import Window

#: A partition is identified by the group-by key and the window-instance index.
PartitionKey = tuple[tuple, int]


def _value_sort_key(value) -> tuple:
    """A total-order sort key for one group-key element.

    Group keys are tuples of payload values (numbers, strings, None, ...).
    Sorting them by ``repr`` — the original implementation — orders ``10``
    before ``2`` and depends on each type's repr details; comparing raw
    values directly raises for mixed types.  This key is type-tagged: values
    sort by kind first (None < booleans < non-finite floats < finite
    numbers < strings < everything else), then naturally within a kind.
    Finite numbers compare as their raw values — CPython's mixed int/float
    comparisons are exact (no float overflow for huge ints, no 2**53
    truncation; this used to go through :class:`~fractions.Fraction`, which
    orders identically but costs an object per element) — with the repr as
    a deterministic tie-breaker for equal values of different types (``1``
    vs ``1.0``); NaN and the infinities get their own bucket ordered by repr,
    so the order stays *total* — a bare NaN comparison is neither ``<`` nor
    ``>`` and would make the result depend on input order.  Every tag's
    tail has a fixed element layout so comparisons never cross types.

    Sibling of ``repro.runtime.routing._canonical_key_element``, which
    answers the *equality-collapse* question for shard hashing over the
    same key population; a new group-key value type should be considered
    for both.
    """
    if value is None:
        return (0, 0, "")
    if isinstance(value, bool):
        return (1, int(value), "")
    if isinstance(value, float) and not math.isfinite(value):
        return (2, 0, repr(value))  # '-inf' < 'inf' < 'nan', deterministically
    if isinstance(value, (int, float)):
        return (3, value, repr(value))
    if isinstance(value, str):
        return (4, 0, value)
    if isinstance(value, tuple):
        return (5, 0, "") + tuple(_value_sort_key(element) for element in value)
    return (6, 0, repr(value))


def group_sort_key(group_key: tuple) -> tuple:
    """The canonical total order on group keys.

    Every component that orders partitions — the batch partitioner, the
    streaming executor's close sweeps and final flush, and the sharded
    driver's cross-shard merge — must use this same key, so that one
    workload produces one deterministic partition order regardless of the
    execution strategy.
    """
    return tuple(_value_sort_key(value) for value in group_key)


@dataclass(frozen=True)
class PartitionSpec:
    """Grouping attributes + window spec shared by the queries of a partition set."""

    group_by: tuple[str, ...]
    window: Window

    def group_key(self, event: Event) -> tuple:
        """Grouping key of an event (empty tuple when there is no GROUP BY;
        every float NaN is the one :data:`~repro.events.event.GROUP_NAN`)."""
        return group_key(event, self.group_by)


class GroupWindowPartitioner:
    """Routes a stream into ``(group key, window instance)`` partitions."""

    def __init__(self, spec: PartitionSpec) -> None:
        self.spec = spec
        self._partitions: dict[PartitionKey, list[Event]] = {}

    @classmethod
    def for_queries(cls, queries: Sequence[Query]) -> "GroupWindowPartitioner":
        """Build a partitioner for queries sharing group-by and window clauses."""
        first = queries[0]
        return cls(PartitionSpec(group_by=first.group_by, window=first.window))

    def route(self, event: Event) -> Iterator[PartitionKey]:
        """Yield the key of every partition ``event`` belongs to, storing nothing."""
        group_key = self.spec.group_key(event)
        for index in self.spec.window.instance_indices_covering(event.time):
            yield (group_key, index)

    def window_start(self, key: PartitionKey) -> float:
        """Window start time of a partition key (derived, for reporting)."""
        return key[1] * self.spec.window.slide

    def add(self, event: Event) -> None:
        """Route one event into every partition it belongs to."""
        for key in self.route(event):
            self._partitions.setdefault(key, []).append(event)

    def add_all(self, events: Iterable[Event]) -> None:
        """Route every event of ``events``."""
        for event in events:
            self.add(event)

    def partitions(self) -> Iterator[tuple[PartitionKey, list[Event]]]:
        """Yield partitions ordered by window instance then group key."""
        for key in sorted(
            self._partitions, key=lambda item: (item[1], group_sort_key(item[0]))
        ):
            yield key, self._partitions[key]

    def partition_count(self) -> int:
        """Number of non-empty partitions."""
        return len(self._partitions)

    def routed_event_count(self) -> int:
        """Total number of (event, partition) assignments."""
        return sum(len(events) for events in self._partitions.values())
