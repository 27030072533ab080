"""The HAMLET engine (Algorithm 1 + the split/merge executor of Section 4.2).

The engine evaluates one stream partition (one group-by key / window
instance) for a set of sharable queries.  Events are buffered into *bursts*
(maximal runs of same-type events, Definition 10).  When a burst completes,
the sharing optimizer is consulted; the burst is then processed either

* **shared** — appended to a shared graphlet whose propagation is symbolic
  (one snapshot expression per event, valid for every sharing query), or
* **non-shared** — processed once per query, GRETA-style, against the
  individual predecessor events stored in the HAMLET graph.

Switching from non-shared to shared processing creates a graphlet-level
snapshot that consolidates each query's current aggregate (a *merge*,
Figure 6(f)); switching from shared to non-shared simply stops extending the
shared graphlet (a *split*, Figure 6(d)) — earlier symbolic aggregates remain
valid and are resolved per query on demand.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.core.expression import SnapshotExpression
from repro.core.graphlet import Graphlet, HamletNode
from repro.core.hamlet_graph import HamletGraph
from repro.core.kernels import MutableAggregate
from repro.core.snapshot import SnapshotLevel, SnapshotTable
from repro.errors import ExecutionError, SharingError
from repro.events.event import Event, EventType
from repro.greta.aggregators import (
    AggregateVector,
    Measure,
    measures_for_queries,
    result_from_vector,
)
from repro.interfaces import TrendAggregationEngine
from repro.optimizer.decisions import DynamicSharingOptimizer, SharingDecision, SharingOptimizer
from repro.optimizer.statistics import BurstStatistics, CandidateSet, QueryBurstProfile
from repro.query.query import Query
from repro.template.merged import MergedTemplate
from repro.template.template import QueryTemplate


def compile_fast_path_guards(
    queries: Sequence[Query], templates: dict[str, QueryTemplate]
) -> dict[tuple[str, EventType], tuple[EventType, ...]]:
    """Which ``(query, event type)`` pairs may use the O(1) Equation 2 path.

    A pair is eligible when no edge predicate of the query applies to events
    of the type — then every stored predecessor is accepted and the per-type
    running totals equal the predecessor scan.  Negation constraints whose
    after-set contains the type are recorded as runtime guards: the fast
    path applies only while no matching negative event has been stored.

    Shared by :class:`HamletEngine` and the multi-window engines of
    :mod:`repro.runtime.shared_windows` (where the same table gates the
    per-window coefficient path).
    """
    table: dict[tuple[str, EventType], tuple[EventType, ...]] = {}
    for query in queries:
        template = templates[query.name]
        for event_type in template.event_types:
            if query.predicates.has_edge_predicates_for(event_type):
                continue
            guards = tuple(
                sorted(
                    {
                        constraint.negated_type
                        for constraint in template.negations
                        if constraint.after_types and event_type in constraint.after_types
                    }
                )
            )
            table[(query.name, event_type)] = guards
    return table


@dataclass
class _TypeSharingInfo:
    """Compile-time facts about sharing a Kleene sub-pattern of one type."""

    event_type: EventType
    #: Names of the queries whose pattern contains ``event_type +``.
    candidates: frozenset[str]
    #: Per-query flag: sharing this query is expected to require snapshots.
    introduces_snapshots: dict[str, bool] = field(default_factory=dict)
    #: Exponential moving average of event-level snapshots per burst event.
    slow_fraction: float = 0.0


class HamletEngine(TrendAggregationEngine):
    """Shared online trend aggregation with runtime sharing decisions."""

    name = "hamlet"
    #: Cross-window sharing: identical-query classes computed once per event
    #: and tagged with per-window coefficients (see runtime/shared_windows).
    shared_window_flavor = "classes"

    def __init__(
        self,
        optimizer: Optional[SharingOptimizer] = None,
        *,
        fast_predecessor_totals: bool = True,
    ) -> None:
        """Create the engine.

        Args:
            optimizer: Sharing optimizer (default: dynamic).
            fast_predecessor_totals: Enable the O(1) Equation 2/3 fast paths
                that answer predecessor and end-type sums from the per-type
                running totals.  Disabling forces the predecessor-scan slow
                path everywhere — only useful for equivalence testing and
                debugging (see docs/DESIGN.md).
        """
        #: The sharing optimizer persists across partitions so that its
        #: decision statistics cover a whole benchmark run.
        self.optimizer = optimizer if optimizer is not None else DynamicSharingOptimizer()
        self.fast_predecessor_totals = fast_predecessor_totals
        self._queries: tuple[Query, ...] = ()
        self._templates: dict[str, QueryTemplate] = {}
        self._merged: Optional[MergedTemplate] = None
        self._measures: tuple[Measure, ...] = ()
        self._table: Optional[SnapshotTable] = None
        self._graph: Optional[HamletGraph] = None
        self._sharing_info: dict[EventType, _TypeSharingInfo] = {}
        self._relevant_types: set[EventType] = set()
        #: Equation 2 fast-path table: ``(query name, event type) -> negated
        #: types to re-check at runtime``.  A missing key means the pair is
        #: ineligible (edge predicates apply) and must use the node scan.
        self._fast_path_guards: dict[tuple[str, EventType], tuple[EventType, ...]] = {}
        self._burst_type: Optional[EventType] = None
        self._burst: list[Event] = []
        self._operations = 0
        self._started = False
        #: Snapshots created across all partitions this engine instance has
        #: evaluated (the per-partition table is reset by :meth:`start`).
        self._lifetime_snapshots = 0

    # ------------------------------------------------------------------ #
    # Engine interface
    # ------------------------------------------------------------------ #
    def start(self, queries: Sequence[Query]) -> None:
        """Prepare templates, the snapshot table and the HAMLET graph."""
        if not queries:
            raise ExecutionError("HamletEngine.start requires at least one query")
        if self._table is not None:
            self._lifetime_snapshots += self._table.created_count()
        for query in queries:
            if not query.aggregate.kind.is_linear:
                raise SharingError(
                    f"HamletEngine only supports linear aggregates; query {query.name} "
                    f"computes {query.aggregate.describe()} — route it to GretaEngine"
                )
        # A new partition has no burst continuity with the previous one: the
        # optimizer's merge/split counters must not compare the first burst
        # of this partition against the last decision of the previous one.
        self.optimizer.begin_partition()
        same_queries = tuple(queries) == self._queries
        self._queries = tuple(queries)
        if not same_queries or self._merged is None:
            # Template compilation and sharing analysis are pure functions of
            # the query set; reuse them across partitions of the same unit.
            self._merged = MergedTemplate.from_queries(self._queries)
            self._templates = {
                query.name: self._merged.template(query) for query in self._queries
            }
            self._measures = measures_for_queries(self._queries)
            self._sharing_info = self._analyze_sharing()
            self._fast_path_guards = self._compile_fast_paths()
            self._relevant_types = set()
            for template in self._templates.values():
                self._relevant_types |= set(template.event_types) | set(template.negated_types)
        self._table = SnapshotTable(len(self._measures))
        self._graph = HamletGraph(self._queries, len(self._measures))
        self._burst_type = None
        self._burst = []
        self._operations = 0
        self._started = True

    def process(self, event: Event) -> None:
        """Buffer the event into the current burst, flushing completed bursts."""
        if not self._started:
            raise ExecutionError("HamletEngine.process called before start()")
        if event.event_type not in self._relevant_types:
            return
        if self._burst_type == event.event_type:
            self._burst.append(event)
            return
        self._flush_burst()
        if self._is_positive_type(event.event_type):
            self._burst_type = event.event_type
            self._burst = [event]
        else:
            # The type appears only under NOT: record it immediately.
            self._record_negatives([event])

    def results(self) -> dict[str, float]:
        """Final aggregate per query (Equation 3), resolving snapshot expressions."""
        if not self._started:
            raise ExecutionError("HamletEngine.results called before start()")
        self._flush_burst()
        assert self._graph is not None and self._table is not None
        results: dict[str, float] = {}
        for query in self._queries:
            template = self._templates[query.name]
            if not self.fast_predecessor_totals or any(
                not constraint.after_types for constraint in template.negations
            ):
                # Trailing NOT needs the per-node validity filter.
                total = self._graph.end_total(query, template, self._table)
            else:
                total = self._graph.end_total_from_accumulators(
                    query, template, self._table
                )
            results[query.name] = result_from_vector(query, total, self._measures)
        return results

    def close(self) -> None:
        """Evict the finished partition's graph and snapshot table.

        Compiled, query-set-pure state (templates, merged template, sharing
        analysis, fast-path guards) is kept so a pooled engine restarts
        without recompiling.
        """
        if self._table is not None:
            self._lifetime_snapshots += self._table.created_count()
        self._table = None
        self._graph = None
        self._burst_type = None
        self._burst = []
        self._operations = 0
        self._started = False

    def memory_units(self) -> int:
        """Graph, snapshot table and one result slot per query."""
        if self._graph is None or self._table is None:
            return 0
        return self._graph.memory_units() + self._table.memory_units() + len(self._queries)

    def operations(self) -> int:
        """Abstract work units performed since :meth:`start`."""
        graph_ops = self._graph.operations if self._graph is not None else 0
        return self._operations + graph_ops

    # ------------------------------------------------------------------ #
    # Introspection for tests and benchmarks
    # ------------------------------------------------------------------ #
    @property
    def snapshot_table(self) -> SnapshotTable:
        """The snapshot table of the current partition."""
        if self._table is None:
            raise ExecutionError("engine not started")
        return self._table

    @property
    def graph(self) -> HamletGraph:
        """The HAMLET graph of the current partition."""
        if self._graph is None:
            raise ExecutionError("engine not started")
        return self._graph

    def snapshots_created(self) -> int:
        """Number of snapshots created in the current partition."""
        return self._table.created_count() if self._table is not None else 0

    def total_snapshots_created(self) -> int:
        """Snapshots created across every partition this instance evaluated."""
        return self._lifetime_snapshots + self.snapshots_created()

    # ------------------------------------------------------------------ #
    # Compile-time sharing analysis
    # ------------------------------------------------------------------ #
    def _analyze_sharing(self) -> dict[EventType, _TypeSharingInfo]:
        assert self._merged is not None
        info: dict[EventType, _TypeSharingInfo] = {}
        for event_type in self._merged.shared_kleene_types():
            sharing_queries = self._merged.queries_sharing_kleene(event_type)
            candidates = frozenset(query.name for query in sharing_queries)
            type_info = _TypeSharingInfo(event_type=event_type, candidates=candidates)
            signatures = {
                query.name: query.predicates.signature_for_type(event_type)
                for query in sharing_queries
            }
            distinct_signatures = set(signatures.values())
            for query in sharing_queries:
                template = self._templates[query.name]
                has_edge_predicates = query.predicates.has_edge_predicates_for(event_type)
                negation_risk = any(
                    event_type in constraint.after_types for constraint in template.negations
                )
                differing_predicates = len(distinct_signatures) > 1
                type_info.introduces_snapshots[query.name] = bool(
                    has_edge_predicates or negation_risk or differing_predicates
                )
            info[event_type] = type_info
        return info

    def _compile_fast_paths(self) -> dict[tuple[str, EventType], tuple[EventType, ...]]:
        """Equation 2 fast-path table (see :func:`compile_fast_path_guards`)."""
        if not self.fast_predecessor_totals:
            return {}
        return compile_fast_path_guards(self._queries, self._templates)

    def _is_positive_type(self, event_type: EventType) -> bool:
        return any(
            event_type in template.event_types for template in self._templates.values()
        )

    # ------------------------------------------------------------------ #
    # Burst processing
    # ------------------------------------------------------------------ #
    def _flush_burst(self) -> None:
        if not self._burst:
            self._burst_type = None
            return
        events = self._burst
        event_type = self._burst_type
        self._burst = []
        self._burst_type = None
        assert event_type is not None and self._graph is not None

        self._record_negatives(events)

        positive_queries = [
            query
            for query in self._queries
            if event_type in self._templates[query.name].event_types
        ]
        if not positive_queries:
            return

        # A burst of E events closes the active graphlets of every other type
        # (Algorithm 1, lines 4–6).
        self._graph.deactivate_other_types(event_type)

        sharing_info = self._sharing_info.get(event_type)
        decision = self._decide(event_type, events, sharing_info)

        shared_names = decision.shared_queries if decision.share else frozenset()
        shared_queries = [query for query in positive_queries if query.name in shared_names]
        separate_queries = [query for query in positive_queries if query.name not in shared_names]

        if decision.share and len(shared_queries) >= 2:
            self._process_shared_burst(event_type, events, shared_queries, separate_queries)
        else:
            self._process_non_shared_burst(event_type, events, positive_queries)

    def _decide(
        self,
        event_type: EventType,
        events: list[Event],
        sharing_info: Optional[_TypeSharingInfo],
    ) -> SharingDecision:
        if sharing_info is None or len(sharing_info.candidates) < 2:
            candidates = frozenset() if sharing_info is None else sharing_info.candidates
            return SharingDecision(False, frozenset(), candidates, 0.0, "no shareable sub-pattern")
        stats = self._burst_statistics(event_type, events, sharing_info)
        return self.optimizer.decide(stats)

    def _burst_statistics(
        self, event_type: EventType, events: list[Event], info: _TypeSharingInfo
    ) -> BurstStatistics:
        assert self._graph is not None
        burst_size = len(events)
        # ``n`` in the cost model: events a non-shared evaluation would have
        # to touch per new event, i.e. the stored events of the burst type's
        # predecessor types (plus the burst itself), not the whole window.
        predecessor_types: set[EventType] = {event_type}
        for query_name in info.candidates:
            predecessor_types |= set(self._templates[query_name].predecessor_types(event_type))
        stored_predecessors = sum(
            len(self._graph.nodes_of_type(predecessor)) for predecessor in predecessor_types
        )
        events_in_window = max(1, stored_predecessors + burst_size)
        active = self._graph.active_graphlet(event_type)
        continuing = (
            active is not None and active.shared and active.query_names >= info.candidates
        )
        graphlet_size = (active.size() + burst_size) if continuing and active else burst_size
        snapshots_propagated = (
            len(active.propagated_snapshots()) if continuing and active else 1
        )
        profiles = []
        for query_name in sorted(info.candidates):
            template = self._templates[query_name]
            introduces = info.introduces_snapshots.get(query_name, False)
            expected = info.slow_fraction * burst_size if introduces else 0.0
            profiles.append(
                QueryBurstProfile(
                    query_name=query_name,
                    introduces_snapshots=introduces,
                    expected_snapshots=expected,
                    predecessor_types=max(1, len(template.predecessor_types(event_type))),
                )
            )
        types_per_query = max(
            2, round(sum(len(t.event_types) for t in self._templates.values()) / len(self._templates))
        )
        return BurstStatistics(
            candidates=CandidateSet(event_type, tuple(profiles), types_per_query),
            burst_size=burst_size,
            events_in_window=events_in_window,
            graphlet_size=graphlet_size,
            snapshots_propagated=snapshots_propagated,
            graphlet_snapshots_needed=0 if continuing else 1,
        )

    # ------------------------------------------------------------------ #
    # Negative events
    # ------------------------------------------------------------------ #
    def _record_negatives(self, events: list[Event]) -> None:
        assert self._graph is not None
        for event in events:
            matched_by = frozenset(
                query.name
                for query in self._queries
                if event.event_type in self._templates[query.name].negated_types
                and query.accepts_event(event)
            )
            if matched_by:
                self._graph.add_negative(event, matched_by)

    # ------------------------------------------------------------------ #
    # Shared processing
    # ------------------------------------------------------------------ #
    def _process_shared_burst(
        self,
        event_type: EventType,
        events: list[Event],
        shared_queries: list[Query],
        separate_queries: list[Query],
    ) -> None:
        assert self._graph is not None and self._table is not None
        shared_names = frozenset(query.name for query in shared_queries)
        graphlet = self._ensure_shared_graphlet(event_type, shared_names, shared_queries)
        info = self._sharing_info.get(event_type)
        slow_events = 0

        for event in events:
            node = HamletNode(event=event)
            slow_events += self._append_shared(event, node, graphlet, shared_queries)
            for query in separate_queries:
                self._append_non_shared(event, node, query)
            if node.expression is not None or node.resolved:
                self._graph.register_node(graphlet, node)

        if info is not None and events:
            observed = slow_events / len(events)
            info.slow_fraction = 0.5 * info.slow_fraction + 0.5 * observed

    def _ensure_shared_graphlet(
        self,
        event_type: EventType,
        shared_names: frozenset[str],
        shared_queries: list[Query],
    ) -> Graphlet:
        assert self._graph is not None and self._table is not None
        active = self._graph.active_graphlet(event_type)
        if active is not None and active.shared and active.query_names == shared_names:
            return active
        # Merge: consolidate each query's current aggregate into a new
        # graphlet-level snapshot (Definition 8 / Figure 6(f)).  Pending
        # symbolic contributions are folded by predecessor_total_into.
        values: dict[str, AggregateVector] = {}
        for query in shared_queries:
            template = self._templates[query.name]
            total = MutableAggregate(len(self._measures))
            if template.is_start(event_type):
                total.count = 1.0
            self._graph.predecessor_total_into(total, query, template, event_type, self._table)
            values[query.name] = total.freeze()
            self._operations += 1
        snapshot = self._table.create(SnapshotLevel.GRAPHLET, event_type, values)
        graphlet = Graphlet(
            event_type=event_type,
            shared=True,
            query_names=shared_names,
            input_snapshot_id=snapshot.snapshot_id,
            dimension=len(self._measures),
        )
        return self._graph.open_graphlet(graphlet)

    def _append_shared(
        self, event: Event, node: HamletNode, graphlet: Graphlet, shared_queries: list[Query]
    ) -> int:
        """Process one event for the sharing queries; returns 1 if it needed a snapshot."""
        assert self._graph is not None and self._table is not None
        shared_names = graphlet.query_names
        matching = [query for query in shared_queries if query.accepts_event(event)]
        fast = len(matching) in (0, len(shared_queries)) and not self._needs_event_snapshot(
            event, shared_queries
        )
        if fast and not matching:
            # No sharing query matches the event; nothing to add for them.
            return 0
        if fast:
            # Mutable kernel: copy the graphlet's running sum once, extend it
            # in place, and freeze a single immutable expression for the node.
            builder = graphlet.running_builder.copy()
            builder.add_identity(graphlet.input_snapshot_id)
            if self._measures:
                contributions = tuple(
                    measure.contribution(event) for measure in self._measures
                )
                builder.fold_contribution(contributions)
            expression = builder.freeze()
            self._operations += expression.size()
            node.expression = expression
            node.expression_queries = shared_names
            graphlet.running_builder.add_builder(builder)
            self._graph.accumulator(event.event_type).add_pending(expression, shared_names)
            return 0
        # Event-level snapshot (Definition 9): per-query aggregates computed
        # individually, then propagated symbolically as a single variable.
        values: dict[str, AggregateVector] = {}
        for query in shared_queries:
            values[query.name] = self._non_shared_vector(event, query)
        snapshot = self._table.create(SnapshotLevel.EVENT, event.event_type, values)
        expression = SnapshotExpression.identity(snapshot.snapshot_id, len(self._measures))
        node.expression = expression
        node.expression_queries = shared_names
        graphlet.running_builder.add_identity(snapshot.snapshot_id)
        self._graph.accumulator(event.event_type).add_pending(expression, shared_names)
        self._operations += len(shared_queries)
        return 1

    def _needs_event_snapshot(self, event: Event, shared_queries: list[Query]) -> bool:
        """True if per-query predecessor sets may differ for this event."""
        assert self._graph is not None
        for query in shared_queries:
            if query.predicates.has_edge_predicates_for(event.event_type):
                return True
            template = self._templates[query.name]
            for constraint in template.negations:
                if event.event_type not in constraint.after_types:
                    continue
                if self._graph.nodes_of_type(constraint.negated_type) or self._graph.has_negatives(
                    constraint.negated_type
                ):
                    return True
        return False

    # ------------------------------------------------------------------ #
    # Non-shared processing
    # ------------------------------------------------------------------ #
    def _process_non_shared_burst(
        self, event_type: EventType, events: list[Event], positive_queries: list[Query]
    ) -> None:
        assert self._graph is not None
        graphlet = self._ensure_non_shared_graphlet(event_type, positive_queries)
        for event in events:
            node = HamletNode(event=event)
            for query in positive_queries:
                self._append_non_shared(event, node, query)
            if node.resolved:
                self._graph.register_node(graphlet, node)

    def _ensure_non_shared_graphlet(
        self, event_type: EventType, positive_queries: list[Query]
    ) -> Graphlet:
        assert self._graph is not None
        query_names = frozenset(query.name for query in positive_queries)
        active = self._graph.active_graphlet(event_type)
        if active is not None and not active.shared and active.query_names == query_names:
            return active
        # Split (Figure 6(d)): simply start a fresh non-shared graphlet; the
        # aggregates of the previously shared graphlet stay symbolic and are
        # resolved per query on demand.
        graphlet = Graphlet(
            event_type=event_type,
            shared=False,
            query_names=query_names,
            dimension=len(self._measures),
        )
        return self._graph.open_graphlet(graphlet)

    def _append_non_shared(self, event: Event, node: HamletNode, query: Query) -> None:
        assert self._graph is not None
        if not query.accepts_event(event):
            return
        vector = self._non_shared_vector(event, query)
        node.resolved[query.name] = vector
        self._graph.accumulator(event.event_type).add_resolved(query.name, vector)

    def _non_shared_vector(self, event: Event, query: Query) -> AggregateVector:
        """Equation 2 for one query: aggregate of the event's predecessors.

        Fast path: when no edge predicate applies to the event's type and no
        applicable negation constraint is armed (no matching negative event
        stored), every stored predecessor is accepted, so the per-type
        running totals give the predecessor sum in O(predecessor types).
        Otherwise the stored predecessor nodes are scanned (the GRETA-style
        slow path).  Both paths fold in the same order, so they agree
        bit-for-bit on integer-valued inputs (see docs/DESIGN.md).
        """
        assert self._graph is not None and self._table is not None
        if not query.accepts_event(event):
            return AggregateVector.zero(len(self._measures))
        template = self._templates[query.name]
        total = MutableAggregate(len(self._measures))
        if template.is_start(event.event_type):
            total.count = 1.0
        if self._use_fast_predecessors(event, query):
            self._graph.predecessor_total_into(
                total, query, template, event.event_type, self._table
            )
        else:
            for predecessor in self._graph.predecessors_for(query, template, event):
                predecessor.vector_into(total, query.name, self._table)
        if self._measures:
            total.apply_contributions(
                measure.contribution(event) for measure in self._measures
            )
        self._operations += 1
        return total.freeze()

    def _use_fast_predecessors(self, event: Event, query: Query) -> bool:
        """Select the Equation 2 path for one ``(event, query)`` pair."""
        assert self._graph is not None
        guards = self._fast_path_guards.get((query.name, event.event_type))
        if guards is None:
            return False
        if not self._graph.is_in_order(event):
            return False
        for negated_type in guards:
            if self._graph.has_negatives(negated_type):
                return False
        return True
