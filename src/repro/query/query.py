"""The :class:`Query` object — Definition 2 of the paper.

An event trend aggregation query consists of five clauses:

* aggregation result specification (RETURN),
* a Kleene pattern (PATTERN),
* optional predicates (WHERE),
* optional grouping attributes (GROUP BY),
* a window (WITHIN / SLIDE).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Iterable, Optional, Sequence

from repro.errors import PatternError
from repro.events.event import Event, EventType, group_key
from repro.query.aggregates import AggregateFunction, count_trends
from repro.query.pattern import Pattern
from repro.query.predicates import CompositePredicate, Predicate
from repro.query.windows import Window

_query_counter = itertools.count(1)


@dataclass(frozen=True, eq=False)
class Query:
    """An event trend aggregation query.

    Queries are identified by ``name`` (auto-generated if omitted) and
    compared by identity: two distinct Query objects are distinct workload
    members even if all clauses coincide.
    """

    pattern: Pattern
    aggregate: AggregateFunction = field(default_factory=count_trends)
    predicates: CompositePredicate = field(default_factory=CompositePredicate)
    group_by: tuple[str, ...] = ()
    window: Window = field(default_factory=lambda: Window(600.0))
    name: str = ""

    def __post_init__(self) -> None:
        if not isinstance(self.pattern, Pattern):
            raise PatternError(f"pattern must be a Pattern, got {type(self.pattern).__name__}")
        if not self.name:
            object.__setattr__(self, "name", f"q{next(_query_counter)}")
        if isinstance(self.group_by, list):
            object.__setattr__(self, "group_by", tuple(self.group_by))

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #
    @classmethod
    def build(
        cls,
        pattern: Pattern,
        *,
        aggregate: Optional[AggregateFunction] = None,
        predicates: Iterable[Predicate] = (),
        group_by: Sequence[str] = (),
        window: Optional[Window] = None,
        name: str = "",
    ) -> "Query":
        """Build a query from loose clause values."""
        return cls(
            pattern=pattern,
            aggregate=aggregate if aggregate is not None else count_trends(),
            predicates=CompositePredicate(predicates),
            group_by=tuple(group_by),
            window=window if window is not None else Window(600.0),
            name=name,
        )

    # ------------------------------------------------------------------ #
    # Event-level checks used by all engines
    # ------------------------------------------------------------------ #
    def event_types(self) -> set[EventType]:
        """Event types referenced by the pattern."""
        return self.pattern.event_types()

    def kleene_types(self) -> set[EventType]:
        """Event types under a Kleene plus (candidate shareable sub-patterns)."""
        return self.pattern.kleene_types()

    def accepts_event(self, event: Event) -> bool:
        """Return True if the event passes this query's local predicates.

        Type membership (whether the event type occurs in the pattern at all)
        is checked by the template, not here.
        """
        return self.predicates.accepts_event(event)

    def accepts_edge(self, previous: Event, current: Event) -> bool:
        """Return True if the adjacency ``previous -> current`` passes edge predicates."""
        return self.predicates.accepts_edge(previous, current)

    def group_key(self, event: Event) -> tuple[Any, ...]:
        """Return the grouping key of ``event`` (empty tuple when no GROUP BY)."""
        return group_key(event, self.group_by)

    # ------------------------------------------------------------------ #
    # Identity
    # ------------------------------------------------------------------ #
    def __hash__(self) -> int:
        return hash(self.name)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Query):
            return NotImplemented
        return self.name == other.name

    def describe(self) -> str:
        """A SASE-like textual rendering of the query."""
        parts = [f"RETURN {self.aggregate.describe()}", f"PATTERN {self.pattern.describe()}"]
        if not self.predicates.is_empty():
            parts.append(f"WHERE {self.predicates!r}")
        if self.group_by:
            parts.append("GROUP BY " + ", ".join(self.group_by))
        parts.append(self.window.describe())
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"Query({self.name}: {self.pattern.describe()})"
