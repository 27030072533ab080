"""The merged (HAMLET) query template.

The merged template overlays the per-query templates of a set of sharable
queries: every event type is represented once and every transition is
labelled with the set of queries for which it holds (Example 3 / Figure 3(b)
of the paper).  The HAMLET executor consults the merged template to decide,
for a new event of type ``E`` and query ``q``, which predecessor types
``pt(E, q)`` feed the event's intermediate aggregate.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from repro.errors import TemplateError
from repro.events.event import EventType
from repro.query.query import Query
from repro.template.template import QueryTemplate, compile_pattern


class MergedTemplate:
    """Merged template over a set of sharable queries."""

    def __init__(self, templates: Mapping[Query, QueryTemplate]) -> None:
        if not templates:
            raise TemplateError("a merged template needs at least one query")
        self._templates: dict[Query, QueryTemplate] = dict(templates)
        self._event_types: set[EventType] = set()
        self._transition_queries: dict[tuple[EventType, EventType], set[Query]] = {}
        for query, template in self._templates.items():
            self._event_types |= template.event_types
            for edge in template.edges:
                self._transition_queries.setdefault(edge, set()).add(query)

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_queries(cls, queries: Iterable[Query]) -> "MergedTemplate":
        """Compile each query's pattern and merge the resulting templates."""
        templates = {query: compile_pattern(query.pattern) for query in queries}
        return cls(templates)

    # ------------------------------------------------------------------ #
    # Accessors
    # ------------------------------------------------------------------ #
    @property
    def queries(self) -> tuple[Query, ...]:
        """The queries participating in this merged template."""
        return tuple(self._templates)

    @property
    def event_types(self) -> frozenset[EventType]:
        """All event types appearing in any participating query."""
        return frozenset(self._event_types)

    def template(self, query: Query) -> QueryTemplate:
        """The per-query template of ``query``."""
        try:
            return self._templates[query]
        except KeyError:
            raise TemplateError(f"query {query.name!r} is not part of this template") from None

    def transition_label(self, source: EventType, target: EventType) -> frozenset[Query]:
        """Queries for which the transition ``source -> target`` holds."""
        return frozenset(self._transition_queries.get((source, target), ()))

    def predecessor_types(self, event_type: EventType, query: Query) -> tuple[EventType, ...]:
        """``pt(E, q)`` within this merged template (sorted, see QueryTemplate)."""
        return self.template(query).predecessor_types(event_type)

    def queries_sharing_kleene(self, event_type: EventType) -> frozenset[Query]:
        """Queries whose pattern contains the Kleene sub-pattern ``event_type+``.

        These are the queries that may share a graphlet of ``event_type``
        events (Definition 7).
        """
        return frozenset(
            query
            for query, template in self._templates.items()
            if event_type in template.kleene_types
        )

    def shared_kleene_types(self) -> frozenset[EventType]:
        """Event types whose Kleene sub-pattern is shared by more than one query."""
        return frozenset(
            event_type
            for event_type in self._event_types
            if len(self.queries_sharing_kleene(event_type)) > 1
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MergedTemplate({len(self._templates)} queries, "
            f"types={sorted(self._event_types)})"
        )
