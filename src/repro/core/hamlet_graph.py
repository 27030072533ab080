"""The HAMLET graph: graphlets, per-type accumulators and predecessor access.

The graph serves three access patterns:

* **shared propagation** — the engine only touches the active graphlet's
  running expression (O(#snapshots) per event);
* **snapshot creation** — a new graphlet-level snapshot needs, per sharing
  query, the total intermediate aggregate of every predecessor *type*
  (Definition 8, Equation 5).  :class:`TypeAccumulator` maintains those
  totals, deferring the per-query evaluation of shared (symbolic) events
  until a snapshot actually needs them;
* **non-shared propagation** — the GRETA-style path needs the predecessors of
  a new event for one query, with edge predicates and negation applied
  (Equation 2).  When neither applies, the per-type running totals answer the
  predecessor sum in O(predecessor types) instead of a node scan — the fast
  path selected by the engine (see docs/DESIGN.md).

All running totals are kept in the mutable kernels of
:mod:`repro.core.kernels`; immutable values are produced only at API
boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator

from repro.core.expression import SnapshotExpression
from repro.core.graphlet import Graphlet, HamletNode
from repro.core.kernels import MutableAggregate, MutableExpressionBuilder
from repro.core.snapshot import SnapshotTable
from repro.events.event import Event, EventType
from repro.greta.aggregators import AggregateVector
from repro.query.query import Query
from repro.template.template import QueryTemplate


@dataclass
class TypeAccumulator:
    """Running totals of intermediate aggregates for one event type.

    ``resolved`` holds per-query totals that are already plain numbers;
    ``pending`` holds the symbolic contributions of shared events that have
    not been evaluated per query yet, merged in place into one
    :class:`~repro.core.kernels.MutableExpressionBuilder` per sharing query
    set.  Deferring (and batching) the evaluation keeps the shared fast path
    free of per-query work — the fold happens when a snapshot is created or a
    fast-path total is needed, and costs one expression evaluation per query
    set rather than one per event.
    """

    dimension: int
    resolved: dict[str, MutableAggregate] = field(default_factory=dict)
    pending: dict[frozenset[str], MutableExpressionBuilder] = field(default_factory=dict)

    def _resolved_for(self, query_name: str) -> MutableAggregate:
        accumulator = self.resolved.get(query_name)
        if accumulator is None:
            accumulator = self.resolved[query_name] = MutableAggregate(self.dimension)
        return accumulator

    def add_resolved(self, query_name: str, vector: AggregateVector) -> None:
        """Add a per-query resolved vector to the running total."""
        self._resolved_for(query_name).add_vector(vector)

    def add_pending(self, expression: SnapshotExpression, query_names: frozenset[str]) -> None:
        """Add a shared event's expression (valid for ``query_names``)."""
        builder = self.pending.get(query_names)
        if builder is None:
            builder = self.pending[query_names] = MutableExpressionBuilder(self.dimension)
        builder.add_expression(expression)

    def fold(self, table: SnapshotTable) -> int:
        """Evaluate all pending contributions per query and fold them into ``resolved``.

        Returns the number of per-query evaluations performed (work units).
        """
        if not self.pending:
            return 0
        evaluations = 0
        for query_names, builder in self.pending.items():
            for query_name in query_names:
                lookup = table.raw_lookup(query_name)
                applied = builder.evaluate_into(self._resolved_for(query_name), lookup)
                evaluations += max(1, applied)
        self.pending.clear()
        return evaluations

    def total_into(
        self, accumulator: MutableAggregate, query_name: str, table: SnapshotTable
    ) -> None:
        """Fold the current total for one query into ``accumulator``.

        Pending contributions are evaluated read-only; call :meth:`fold`
        first when repeated totals of the same type are expected.
        """
        resolved = self.resolved.get(query_name)
        if resolved is not None:
            accumulator.add(resolved)
        for query_names, builder in self.pending.items():
            if query_name in query_names:
                builder.evaluate_into(accumulator, table.raw_lookup(query_name))

    def total(self, query_name: str, table: SnapshotTable) -> AggregateVector:
        """Current total for one query (evaluating pending expressions read-only)."""
        accumulator = MutableAggregate(self.dimension)
        self.total_into(accumulator, query_name, table)
        return accumulator.freeze()

    def memory_units(self) -> int:
        """Entries kept for the running totals."""
        return len(self.resolved) + sum(builder.size() for builder in self.pending.values())


class HamletGraph:
    """All graphlets of one partition plus the indexes the engine needs."""

    def __init__(self, queries: Iterable[Query], dimension: int) -> None:
        self._dimension = dimension
        self._queries = tuple(queries)
        self.graphlets: list[Graphlet] = []
        self._active_by_type: dict[EventType, Graphlet] = {}
        self._nodes_by_type: dict[EventType, list[HamletNode]] = {}
        self._accumulators: dict[EventType, TypeAccumulator] = {}
        self._negatives: dict[EventType, list[tuple[Event, frozenset[str]]]] = {}
        #: The most recent event stored in the graph (nodes or negatives);
        #: guards the O(1) predecessor fast path, which assumes in-order
        #: streams (every stored event precedes the incoming one).
        self._latest_event: Event | None = None
        #: Abstract work counter (predecessor accesses, expression updates,
        #: per-query evaluations); read by the engine's ``operations()``.
        self.operations = 0

    # ------------------------------------------------------------------ #
    # Graphlets
    # ------------------------------------------------------------------ #
    def active_graphlet(self, event_type: EventType) -> Graphlet | None:
        """The active graphlet of ``event_type``, if any."""
        graphlet = self._active_by_type.get(event_type)
        if graphlet is not None and graphlet.active:
            return graphlet
        return None

    def open_graphlet(self, graphlet: Graphlet) -> Graphlet:
        """Register a freshly created graphlet as the active one for its type."""
        previous = self._active_by_type.get(graphlet.event_type)
        if previous is not None:
            previous.deactivate()
        self.graphlets.append(graphlet)
        self._active_by_type[graphlet.event_type] = graphlet
        return graphlet

    def deactivate_other_types(self, event_type: EventType) -> None:
        """Deactivate active graphlets of every type except ``event_type``.

        Mirrors Algorithm 1 lines 4–6: the arrival of an ``E`` event closes
        the graphlets of all other types.
        """
        for other_type, graphlet in self._active_by_type.items():
            if other_type != event_type:
                graphlet.deactivate()

    # ------------------------------------------------------------------ #
    # Nodes
    # ------------------------------------------------------------------ #
    def register_node(self, graphlet: Graphlet, node: HamletNode) -> None:
        """Append a node to its graphlet and to the per-type index."""
        graphlet.append(node)
        self._nodes_by_type.setdefault(node.event.event_type, []).append(node)
        if self._latest_event is None or self._latest_event < node.event:
            self._latest_event = node.event

    def nodes_of_type(self, event_type: EventType) -> list[HamletNode]:
        """All stored nodes of one type, in arrival order."""
        return self._nodes_by_type.get(event_type, [])

    def node_count(self) -> int:
        """Total number of stored (matched) events."""
        return sum(len(nodes) for nodes in self._nodes_by_type.values())

    def add_negative(self, event: Event, query_names: frozenset[str]) -> None:
        """Record an event matched by a negated sub-pattern of some queries."""
        self._negatives.setdefault(event.event_type, []).append((event, query_names))
        if self._latest_event is None or self._latest_event < event:
            self._latest_event = event

    def has_negatives(self, negated_type: EventType) -> bool:
        """True if any recorded negative event of ``negated_type`` exists."""
        return bool(self._negatives.get(negated_type))

    def is_in_order(self, event: Event) -> bool:
        """True if ``event`` arrives after every event stored so far.

        The O(1) predecessor fast path relies on this: running per-type
        totals only equal the predecessor scan when all stored events
        strictly precede the incoming one.
        """
        return self._latest_event is None or self._latest_event < event

    # ------------------------------------------------------------------ #
    # Accumulators (feed graphlet-level snapshots and the fast path)
    # ------------------------------------------------------------------ #
    def accumulator(self, event_type: EventType) -> TypeAccumulator:
        """The running-total accumulator of one event type."""
        accumulator = self._accumulators.get(event_type)
        if accumulator is None:
            accumulator = self._accumulators[event_type] = TypeAccumulator(self._dimension)
        return accumulator

    def predecessor_total_into(
        self,
        accumulator: MutableAggregate,
        query: Query,
        template: QueryTemplate,
        event_type: EventType,
        table: SnapshotTable,
    ) -> None:
        """Equation 5, in place: fold the predecessor-type totals for one query.

        This is also Equation 2's O(1) fast path: when no edge predicate or
        negation constraint discriminates between stored predecessors, the
        per-type running totals *are* the predecessor sum — O(predecessor
        types) instead of a scan over stored nodes.
        """
        for predecessor_type in template.predecessor_types(event_type):
            type_accumulator = self._accumulators.get(predecessor_type)
            if type_accumulator is None:
                continue
            if type_accumulator.pending:
                # Fold so repeated fast-path totals stay O(1) per type.
                self.operations += type_accumulator.fold(table)
            type_accumulator.total_into(accumulator, query.name, table)
            self.operations += 1

    def predecessor_total(
        self, query: Query, template: QueryTemplate, event_type: EventType, table: SnapshotTable
    ) -> AggregateVector:
        """Equation 5: total aggregate of all predecessor-type events for one query."""
        accumulator = MutableAggregate(self._dimension)
        self.predecessor_total_into(accumulator, query, template, event_type, table)
        return accumulator.freeze()

    # ------------------------------------------------------------------ #
    # Non-shared (GRETA-style) predecessor access — the slow path
    # ------------------------------------------------------------------ #
    def predecessors_for(
        self, query: Query, template: QueryTemplate, event: Event
    ) -> Iterator[HamletNode]:
        """Individual predecessor nodes of ``event`` for one query (Equation 2)."""
        query_name = query.name
        check_edges = bool(query.predicates.edge_predicates)
        constraints = [
            constraint
            for constraint in template.negations
            if constraint.after_types
            and event.event_type in constraint.after_types
            and self.has_negatives(constraint.negated_type)
        ]
        for predecessor_type in template.predecessor_types(event.event_type):
            for node in self._nodes_by_type.get(predecessor_type, ()):
                self.operations += 1
                if not node.event < event:
                    continue
                if not node.covers_query(query_name):
                    continue
                if check_edges and not query.accepts_edge(node.event, event):
                    continue
                if constraints and self._negation_blocks(
                    query_name, constraints, node.event, event
                ):
                    continue
                yield node

    def _negation_blocks(
        self, query_name: str, constraints, previous: Event, current: Event
    ) -> bool:
        for constraint in constraints:
            if previous.event_type not in constraint.before_types:
                continue
            for negative, matched_by in self._negatives.get(constraint.negated_type, ()):
                if query_name in matched_by and previous < negative < current:
                    return True
        return False

    # ------------------------------------------------------------------ #
    # Finalization
    # ------------------------------------------------------------------ #
    def end_total(self, query: Query, template: QueryTemplate, table: SnapshotTable) -> AggregateVector:
        """Equation 3: sum of intermediate aggregates of valid end-type events."""
        trailing = [c for c in template.negations if not c.after_types]
        total = MutableAggregate(self._dimension)
        for event_type in template.end_types:
            for node in self._nodes_by_type.get(event_type, ()):
                if not node.covers_query(query.name):
                    continue
                if trailing and self._cancelled_by_trailing(query.name, node.event, trailing):
                    continue
                node.vector_into(total, query.name, table)
                self.operations += 1
        return total.freeze()

    def end_total_from_accumulators(
        self, query: Query, template: QueryTemplate, table: SnapshotTable
    ) -> AggregateVector:
        """Equation 3 via the per-type running totals — O(end types).

        Only valid when (a) every registered node's aggregate was also folded
        into its type accumulator (the engine maintains this invariant) and
        (b) the query has no trailing negation constraint, so every stored
        end-type node contributes.  Callers that cannot guarantee both must
        use :meth:`end_total`.
        """
        total = MutableAggregate(self._dimension)
        for event_type in template.end_types:
            accumulator = self._accumulators.get(event_type)
            if accumulator is None:
                continue
            accumulator.total_into(total, query.name, table)
            self.operations += 1
        return total.freeze()

    def _cancelled_by_trailing(self, query_name: str, event: Event, constraints) -> bool:
        for constraint in constraints:
            if event.event_type not in constraint.before_types:
                continue
            for negative, matched_by in self._negatives.get(constraint.negated_type, ()):
                if query_name in matched_by and event < negative:
                    return True
        return False

    # ------------------------------------------------------------------ #
    # Memory accounting
    # ------------------------------------------------------------------ #
    def memory_units(self) -> int:
        """Graphlets, nodes, accumulators and negative events."""
        units = sum(graphlet.memory_units() for graphlet in self.graphlets)
        units += sum(acc.memory_units() for acc in self._accumulators.values())
        units += sum(len(entries) for entries in self._negatives.values())
        return units


class StoredEvent:
    """One event stored once for *all* window instances covering it.

    ``lo..hi`` is the inclusive range of window-instance indices the event
    belongs to (computed with the snapped integer window arithmetic when the
    event arrived, so membership tests are exact integer comparisons even
    for fractional slides).  ``values`` holds the event's per-``(consumer,
    window)`` intermediate aggregates for consumers that may later need a
    per-node scan (edge predicates, negation) — consumers on the pure
    coefficient path store nothing per node.
    """

    __slots__ = ("event", "lo", "hi", "values")

    def __init__(self, event: Event, lo: int, hi: int, values: dict | None) -> None:
        self.event = event
        self.lo = lo
        self.hi = hi
        self.values = values

    def covers(self, index: int) -> bool:
        """True if the event belongs to window instance ``index``."""
        return self.lo <= index <= self.hi


class SharedWindowStore:
    """Event store shared by every live window instance of one partition group.

    The multi-window engines keep each matched event (and each negated
    event) exactly once, tagged with its covering-window range, instead of
    duplicating it into ``ceil(size/slide)`` per-instance graphs.  The store
    serves the window-filtered accesses the slow paths need — predecessor
    scans under edge predicates, negation "between" checks, trailing-NOT
    end-node filtering — and evicts events the moment their range falls
    below every live instance.
    """

    def __init__(self) -> None:
        self._nodes: dict[EventType, list[StoredEvent]] = {}
        #: Negated events as ``(stored event, matching consumer keys)``.
        self._negatives: dict[EventType, list[tuple[StoredEvent, frozenset]]] = {}
        #: Incrementally tracked footprint so :meth:`memory_units` is O(1):
        #: one unit per stored event plus one per stored per-window value.
        self._units = 0
        self.operations = 0

    # ------------------------------------------------------------------ #
    # Insertion
    # ------------------------------------------------------------------ #
    def add_node(self, event: Event, lo: int, hi: int, values: dict | None) -> StoredEvent:
        """Store one matched event covered by window instances ``lo..hi``."""
        stored = StoredEvent(event, lo, hi, values)
        self._nodes.setdefault(event.event_type, []).append(stored)
        self._units += 1 + (len(values) if values else 0)
        return stored

    def add_negative(self, event: Event, lo: int, hi: int, matched_by: frozenset) -> None:
        """Store one negated event matched by the given consumers."""
        stored = StoredEvent(event, lo, hi, None)
        self._negatives.setdefault(event.event_type, []).append((stored, matched_by))
        self._units += 1

    # ------------------------------------------------------------------ #
    # Window-filtered access
    # ------------------------------------------------------------------ #
    def nodes_of_type(self, event_type: EventType) -> list[StoredEvent]:
        """All stored events of one type, in arrival order."""
        return self._nodes.get(event_type, [])

    def node_count(self) -> int:
        """Total number of stored (matched) events."""
        return sum(len(nodes) for nodes in self._nodes.values())

    def has_negatives(self, negated_type: EventType) -> bool:
        """True if any negated event of ``negated_type`` is still stored."""
        return bool(self._negatives.get(negated_type))

    def negative_count(self) -> int:
        """Number of stored negated events."""
        return sum(len(entries) for entries in self._negatives.values())

    def negation_blocks(
        self, consumer, constraints, previous: Event, current: Event
    ) -> bool:
        """True if a negated event of ``consumer`` lies between the two events.

        Both events belong to the window under evaluation, so any negated
        event strictly between them does too — the check needs no window
        filter (mirrors :meth:`HamletGraph._negation_blocks`).
        """
        for constraint in constraints:
            if previous.event_type not in constraint.before_types:
                continue
            for stored, matched_by in self._negatives.get(constraint.negated_type, ()):
                if consumer in matched_by and previous < stored.event < current:
                    return True
        return False

    def cancelled_by_trailing(
        self, consumer, constraints, event: Event, window_index: int
    ) -> bool:
        """Trailing-NOT check: a matching negated event follows ``event`` in-window."""
        for constraint in constraints:
            if event.event_type not in constraint.before_types:
                continue
            for stored, matched_by in self._negatives.get(constraint.negated_type, ()):
                if (
                    consumer in matched_by
                    and stored.covers(window_index)
                    and event < stored.event
                ):
                    return True
        return False

    # ------------------------------------------------------------------ #
    # Eviction
    # ------------------------------------------------------------------ #
    def evict_to(self, oldest: int | None) -> None:
        """Drop events whose covering range ends before instance ``oldest``.

        Events arrive in time order, so each per-type list is non-decreasing
        in ``hi`` and eviction trims a prefix.  ``None`` empties the store.
        """
        if oldest is None:
            self._nodes.clear()
            self._negatives.clear()
            self._units = 0
            return
        for event_type, nodes in list(self._nodes.items()):
            keep = 0
            while keep < len(nodes) and nodes[keep].hi < oldest:
                stored = nodes[keep]
                self._units -= 1 + (len(stored.values) if stored.values else 0)
                keep += 1
            if keep:
                del nodes[:keep]
                if not nodes:
                    del self._nodes[event_type]
        for event_type, entries in list(self._negatives.items()):
            keep = 0
            while keep < len(entries) and entries[keep][0].hi < oldest:
                self._units -= 1
                keep += 1
            if keep:
                del entries[:keep]
                if not entries:
                    del self._negatives[event_type]

    # ------------------------------------------------------------------ #
    # Memory accounting
    # ------------------------------------------------------------------ #
    def memory_units(self) -> int:
        """One unit per stored event plus one per stored per-window value.

        O(1): the count is maintained incrementally on insert and eviction.
        A node's *values* entries are counted as of insertion time; windows
        closed since then keep their (dead) entries until the node is
        evicted, which bounds the overhang by one window span.
        """
        return self._units
