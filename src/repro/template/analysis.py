"""Workload analysis: grouping queries into sets of sharable queries.

Definition 4 (shareable Kleene sub-pattern): ``E+`` is shareable if it
appears in more than one query of the workload.

Definition 5 (sharable queries): two queries are sharable if

* their patterns contain at least one shareable Kleene sub-pattern,
* their aggregation functions can be shared,
* their windows overlap, and
* their grouping attributes are the same.

This compile-time analysis (the left half of Figure 2) produces
:class:`SharableGroup` objects — each with its merged template — plus the
list of queries that end up alone in their group and are therefore always
executed non-shared (GRETA-style).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.events.event import EventType
from repro.events.time import gcd_of_intervals
from repro.query.query import Query
from repro.query.workload import Workload
from repro.template.decompose import DecomposedQuery, decomposable, decompose_query
from repro.template.merged import MergedTemplate


@dataclass
class SharableGroup:
    """A maximal set of pairwise-sharable queries.

    Attributes:
        queries: The member queries.
        shared_kleene_types: Event types whose Kleene sub-pattern is shared by
            at least two member queries.
        merged_template: The HAMLET merged query template for the group.
        pane_size: gcd of all member window sizes and slides, i.e. the pane
            length used to slice the stream for this group (Section 3.1).
    """

    queries: tuple[Query, ...]
    shared_kleene_types: frozenset[EventType]
    merged_template: MergedTemplate
    pane_size: float

    @property
    def is_shared(self) -> bool:
        """True if the group actually has something to share."""
        return len(self.queries) > 1 and bool(self.shared_kleene_types)

    def group_by(self) -> tuple[str, ...]:
        """The (common) grouping attributes of the member queries."""
        return self.queries[0].group_by if self.queries else ()


@dataclass
class WorkloadAnalysis:
    """Result of analysing a workload."""

    workload: Workload
    groups: list[SharableGroup] = field(default_factory=list)
    #: Original-query name -> its decomposition, for OR/AND queries that were
    #: split into sub-queries before grouping (Section 5).
    decompositions: dict[str, "DecomposedQuery"] = field(default_factory=dict)

    def group_of(self, query: Query) -> SharableGroup:
        """Return the group containing ``query``."""
        for group in self.groups:
            if query in group.queries:
                return group
        raise KeyError(f"query {query.name!r} not found in any group")


def _sharable(
    query_a: Query, query_b: Query, kleene_a: set[EventType], kleene_b: set[EventType]
) -> bool:
    """Definition 5: can these two queries, with these Kleene types, share execution?"""
    if kleene_a.isdisjoint(kleene_b):
        return False
    if not query_a.aggregate.sharable_with(query_b.aggregate):
        return False
    if query_a.group_by != query_b.group_by:
        return False
    if not query_a.window.overlaps(query_b.window):
        return False
    return True


def analyze_workload(workload: Workload | Iterable[Query]) -> WorkloadAnalysis:
    """Group a workload into maximal sets of sharable queries.

    Grouping is computed as connected components of the "is sharable with"
    relation: if q1 shares with q2 and q2 with q3, all three land in one
    group even if q1 and q3 are not directly sharable — the merged template
    still exposes every pairwise sharing opportunity and the runtime
    optimizer picks the beneficial subsets per burst.

    Queries whose pattern contains disjunction or conjunction are decomposed
    (Section 5) before grouping; the decomposition bookkeeping is preserved
    on the group's merged template via the sub-query names.
    """
    if not isinstance(workload, Workload):
        workload = Workload(workload)
    workload.validate()

    expanded: list[Query] = []
    decompositions: dict[str, DecomposedQuery] = {}
    for query in workload:
        if decomposable(query):
            decomposition = decompose_query(query)
            decompositions[query.name] = decomposition
            expanded.extend(decomposition.sub_queries)
        else:
            expanded.append(query)

    # Union-find over the sharable relation.
    parent = {query.name: query.name for query in expanded}

    def find(name: str) -> str:
        while parent[name] != name:
            parent[name] = parent[parent[name]]
            name = parent[name]
        return name

    def union(name_a: str, name_b: str) -> None:
        root_a, root_b = find(name_a), find(name_b)
        if root_a != root_b:
            parent[root_b] = root_a

    # One pattern walk per query, not one per pair.
    walked = [(query, query.kleene_types()) for query in expanded]
    for i, (query_a, kleene_a) in enumerate(walked):
        for query_b, kleene_b in walked[i + 1:]:
            if _sharable(query_a, query_b, kleene_a, kleene_b):
                union(query_a.name, query_b.name)

    members: dict[str, list[Query]] = {}
    for query in expanded:
        members.setdefault(find(query.name), []).append(query)

    analysis = WorkloadAnalysis(workload=workload, decompositions=decompositions)
    for group_queries in members.values():
        merged = MergedTemplate.from_queries(group_queries)
        shared_types = merged.shared_kleene_types() if len(group_queries) > 1 else frozenset()
        intervals = [q.window.size for q in group_queries] + [q.window.slide for q in group_queries]
        pane_size = gcd_of_intervals(intervals)
        analysis.groups.append(
            SharableGroup(
                queries=tuple(group_queries),
                shared_kleene_types=frozenset(shared_types),
                merged_template=merged,
                pane_size=pane_size,
            )
        )
    # Deterministic order: groups sorted by their first query's name.
    analysis.groups.sort(key=lambda group: group.queries[0].name)
    return analysis
