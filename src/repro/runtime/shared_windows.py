"""Cross-window shared aggregation: one engine for all overlapping instances.

A per-instance path redoes graph work and Equation-2 totals once per
overlapping window instance.  This module is the shared path the HAMLET
paper's cross-window sharing calls for: per ``(group key, execution unit)`` pair
**one** :class:`MultiWindowLinearEngine` holds a single shared event store
and tags the running aggregates with *per-window-instance coefficients*
(:class:`~repro.core.snapshot.WindowCoefficientTable`), so that

* ``process(event)`` does the structural graph work — type dispatch, local
  predicate checks, negation recording, node storage — exactly **once** per
  event, regardless of the overlap factor;
* the per-window numeric work collapses to an O(predecessor types) fold per
  *armed* window instance on the coefficient fast path (the PR 1 Equation 2
  fast path, lifted across windows), or a window-filtered predecessor scan
  on the slow path (edge predicates / armed negation);
* a window instance's close is an O(end types) coefficient readout plus an
  eviction of its column — never a replay;
* events are stored at most once (with their covering-index range) and are
  evicted the moment they fall out of every live instance, so peak memory
  no longer multiplies with the overlap factor.

Cross-query sharing rides along: queries whose template and predicates are
identical form one *query class* whose per-event work is done once for the
whole class (the degenerate-but-common case of HAMLET's snapshot sharing,
where all sharing queries agree on every coefficient).  The GRETA flavour
disables class sharing — every query is its own class — but still shares
the event store and window coefficients, preserving the engines' relative
positioning in benchmarks.

Class sharing is additionally *adaptive*: under a per-burst
:class:`~repro.optimizer.decisions.SharingOptimizer` (see
``runtime/streaming.py``), each ``(class, event type)`` pair is either
shared (the canonical column only) or split (the canonical column plus one
replica per other member), switched mid-stream by
:meth:`MultiWindowLinearEngine.apply_burst_decision`.  Members are
computationally identical, so every decision shares all of a class or none
of it, and all columns of a pair hold bit-identical values at all times: a
split is an O(live windows) copy of the canonical column per replica, a
merge just drops the replicas, and results are unaffected whatever the
decisions — only the work and memory profiles change.  See the "Adaptive
sharing" section of ``docs/DESIGN.md``.

Lazy opening propagates naturally: a window instance is *armed* for a class
only once a trend-start event of that class arrives inside it.  Unarmed
windows hold no coefficients and are skipped by every per-window loop, and
because no trend can begin before a start event, their implied aggregates
are exactly zero — the same invariant that makes the per-instance lazy-open
optimization sound.

Correctness contract: over in-order streams the engine produces totals
bit-identical to both the batch replay and the per-instance streaming path
on integer-valued workloads (the randomized suite in
``tests/runtime/test_streaming_equivalence.py`` asserts all three agree);
the arithmetic folds the same values as the per-instance fast/slow paths,
only grouped per window instead of per engine.
"""

from __future__ import annotations

import bisect
from array import array
from typing import Mapping, NamedTuple, Optional, Sequence

from repro.core.engine import compile_fast_path_guards
from repro.core.hamlet_graph import SharedWindowStore
from repro.core.kernels import MutableAggregate, PythonKernelBackend, settle_kleene
from repro.core.snapshot import WindowCoefficientTable
from repro.errors import ExecutionError
from repro.events.event import Event, EventType
from repro.greta.aggregators import Measure, measures_for_queries, project, projection_of
from repro.interfaces import MultiWindowEngine, TrendAggregationEngine
from repro.optimizer.statistics import BurstStatistics, CandidateSet, QueryBurstProfile
from repro.runtime import foldcore
from repro.runtime.reorder import ensure_shared_order, ensure_shared_run_order
from repro.runtime.results import ResultLayout, WindowValues
from repro.query.predicates import CompositePredicate
from repro.query.query import Query
from repro.template.template import NegationConstraint, QueryTemplate, compile_pattern


#: The reference run fold, where ``foldcore.core`` is ``None``: only then does a
#: probe wrapping ``KernelBackend.fold_*`` see a fold (the core's is in C).
_REFERENCE_FOLD = PythonKernelBackend()


class QueryClassSpec:
    """One class of computationally identical queries of an execution unit.

    All members share the template and the predicates, so every per-event
    quantity — acceptance, predecessor set, intermediate aggregate — is
    computed once for the class; members differ only in how the final
    vector is extracted (COUNT(*) vs SUM vs AVG ...).
    """

    __slots__ = (
        "index", "queries", "template", "predicates", "check_locals", "store_values",
        "fast_guards", "sequence_negations", "trailing_negations", "pred_types", "end_types",
        "candidates", "projections",
    )

    def __init__(self, index: int, queries: Sequence[Query], template: QueryTemplate) -> None:
        self.index = index
        self.queries = tuple(queries)
        self.template = template
        representative = self.queries[0]
        self.predicates: CompositePredicate = representative.predicates
        self.check_locals = bool(self.predicates.local_predicates)
        #: Per-node per-window values must be kept whenever a later event (or
        #: the readout) may need a window-filtered scan over individual
        #: predecessors: edge predicates or any negation constraint.
        self.store_values = bool(self.predicates.edge_predicates) or bool(template.negations)
        guards = compile_fast_path_guards(
            [representative], {representative.name: template}
        )
        #: ``event type -> negated guard types`` for the coefficient fast
        #: path; a missing type means edge predicates force the scan path.
        self.fast_guards: dict[EventType, tuple[EventType, ...]] = {
            event_type: guard for (_, event_type), guard in guards.items()
        }
        self.sequence_negations: tuple[NegationConstraint, ...] = tuple(
            c for c in template.negations if c.after_types
        )
        self.trailing_negations: tuple[NegationConstraint, ...] = tuple(
            c for c in template.negations if not c.after_types
        )
        self.pred_types: dict[EventType, tuple[EventType, ...]] = {
            event_type: tuple(sorted(template.predecessor_types(event_type)))
            for event_type in template.event_types
        }
        self.end_types: tuple[EventType, ...] = tuple(sorted(template.end_types))
        #: Vector units: one compiled projection per readout slot of the
        #: class, in slot order (set by :class:`UnitCompilation`).
        self.projections: tuple[tuple, ...] = ()
        #: The static half of every per-burst sharing decision about this
        #: class, per burst type (multi-member classes only — a single query
        #: has nothing to share).  Members are computationally identical, so
        #: sharing them never requires event-level snapshots (Theorem 4.1
        #: territory): the decision trades the per-query fold cost against
        #: the merge cost of starting a fresh shared run.
        self.candidates: dict[EventType, CandidateSet] = {}
        if len(self.queries) >= 2:
            types_per_query = max(2, len(template.event_types))
            for event_type, predecessors in self.pred_types.items():
                profiles = tuple(
                    QueryBurstProfile(query.name, False, 0.0, max(1, len(predecessors)))
                    for query in self.queries
                )
                self.candidates[event_type] = CandidateSet(
                    event_type, profiles, types_per_query
                )


def _template_signature(template: QueryTemplate) -> tuple:
    """Structural identity of a compiled template (for class grouping)."""
    return (
        tuple(sorted(template.event_types)),
        tuple(sorted(template.edges)),
        tuple(sorted(template.start_types)),
        tuple(sorted(template.end_types)),
        tuple(sorted(template.kleene_types)),
        tuple(sorted(template.negated_types)),
        tuple(
            sorted(
                (
                    tuple(sorted(c.before_types)),
                    c.negated_type,
                    tuple(sorted(c.after_types)),
                )
                for c in template.negations
            )
        ),
    )


class UnitCompilation:
    """Compile-time plan of one execution unit for multi-window execution.

    Pure function of the unit's query set; built once per unit and shared by
    the per-group engine instances (which hold only state).
    """

    def __init__(
        self, queries: Sequence[Query], *, share_classes: bool,
        templates: Optional[Mapping[str, QueryTemplate]] = None,
    ) -> None:
        """``templates``: the queries' compiled patterns by name (``None``: compiled here)."""
        self.queries = tuple(queries)
        self.share_classes = share_classes
        self.measures: tuple[Measure, ...] = measures_for_queries(self.queries)
        self.dimension = len(self.measures)
        #: Scalar mode: a COUNT(*)-only unit tracks bare floats per window.
        self.scalar = self.dimension == 0
        if templates is None:
            templates = {query.name: compile_pattern(query.pattern) for query in self.queries}
        grouped: dict[object, list[Query]] = {}  # (in first-member order)
        for query in self.queries:
            key: object = query.name
            if share_classes:
                key = (_template_signature(templates[query.name]), query.predicates.signature())
            grouped.setdefault(key, []).append(query)
        self.classes: tuple[QueryClassSpec, ...] = tuple(
            QueryClassSpec(index, members, templates[members[0].name])
            for index, members in enumerate(grouped.values())
        )
        #: Names in readout order (class-major, members in order), each
        #: reading its class's slot for its aggregate: members are
        #: computationally identical, so equal aggregates read one value.
        slot_of: list[int] = []
        for spec in self.classes:
            aggregates = list(dict.fromkeys(query.aggregate for query in spec.queries))
            base = len(set(slot_of))
            slot_of.extend(base + aggregates.index(query.aggregate) for query in spec.queries)
            if not self.scalar:  # a scalar class's one slot is its total
                spec.projections = tuple(projection_of(each, self.measures) for each in aggregates)
        self.layout = ResultLayout((q.name for spec in self.classes for q in spec.queries), slot_of)
        positive: dict[EventType, list[QueryClassSpec]] = {}
        negative: dict[EventType, list[QueryClassSpec]] = {}
        stored_types: set[EventType] = set()
        for spec in self.classes:
            for event_type in spec.template.event_types:
                positive.setdefault(event_type, []).append(spec)
            for event_type in spec.template.negated_types:
                negative.setdefault(event_type, []).append(spec)
            if spec.store_values:
                stored_types |= spec.template.event_types
        self.positive_classes_by_type = {t: tuple(specs) for t, specs in positive.items()}
        self.negative_classes_by_type = {t: tuple(specs) for t, specs in negative.items()}
        #: Classes a per-burst sharing decision applies to, per burst type:
        #: only multi-member classes have anything to share or split.
        self.adaptive_classes_by_type: dict[EventType, tuple[QueryClassSpec, ...]] = {
            event_type: eligible
            for event_type, specs in positive.items()
            if (eligible := tuple(s for s in specs if len(s.queries) >= 2))
        }
        #: Event types whose events must be kept in the shared store (some
        #: class may scan them later); everything else is never stored.
        self.stored_node_types: frozenset[EventType] = frozenset(stored_types)
        self.needs_store = bool(stored_types) or bool(negative)
        #: Event types whose rows fold from columns — nothing about them is
        #: stored, negated, locally filtered or guarded — so they never need
        #: an ``Event``.  A row of any other type goes through the engine's
        #: per-event body, on its :class:`Event`.
        self.columnar_types: frozenset[EventType] = frozenset(
            event_type
            for event_type, specs in positive.items()
            if not (
                self.needs_store and (event_type in negative or event_type in stored_types)
            )
            and all(
                not spec.check_locals
                and spec.fast_guards.get(event_type) is not None
                and not (self.needs_store and spec.fast_guards[event_type])
                for spec in specs
            )
        )

        #: The classes the segment fold defers (:class:`_DeferredKleene`), by
        #: index: scalar ``SEQ(P, K+)`` — a columnar start type with no
        #: predecessor feeding a columnar Kleene self-loop — as ``(P, K)``.
        self.deferred_shapes: dict[int, tuple[EventType, EventType]] = {}
        for spec in self.classes if self.scalar else ():
            preds = spec.pred_types
            names = sorted(preds, key=lambda name: (len(preds[name]), name))
            if [spec.template.is_start(name) for name in names] == [True, False] and (
                not preds[names[0]] and set(preds[names[1]]) == set(names)
            ) and self.columnar_types.issuperset(names):
                self.deferred_shapes[spec.index] = (names[0], names[1])

    def contributions(self, event: Event) -> tuple[float, ...]:
        """The event's contribution to each unit measure (Equation 1)."""
        return tuple(measure.contribution(event) for measure in self.measures)


class _TypePlan:
    """Hot-loop plan of one ``(query class, positive event type)`` pair.

    Holds direct references to the class's per-window coefficient maps so
    the per-event loop performs only dict operations and float adds.
    """

    __slots__ = (
        "spec",
        "is_start",
        "guards",
        "check_edges",
        "total_map",
        "pred_maps",
        "pred_types",
        "targets",
    )

    def __init__(
        self,
        spec: QueryClassSpec,
        event_type: EventType,
        coefficients: WindowCoefficientTable,
    ) -> None:
        self.spec = spec
        self.is_start = spec.template.is_start(event_type)
        self.guards = spec.fast_guards.get(event_type)
        self.check_edges = spec.predicates.has_edge_predicates_for(event_type)
        self.total_map = coefficients.window_map((spec.index, event_type))
        self.pred_types = spec.pred_types[event_type]
        self.pred_maps = tuple(
            coefficients.window_map((spec.index, predecessor))
            for predecessor in self.pred_types
        )
        #: Coefficient maps the per-event fold writes into: the class's
        #: canonical map while the pair is shared (the static plan and the
        #: adaptive default), then the replicas while it is split.  Rewired
        #: by ``apply_burst_decision``.
        self.targets: tuple[dict, ...] = (self.total_map,)

    def fold_sources(self, total_map: dict) -> tuple[dict, ...]:
        """Predecessor maps one column's fold must read.

        A Kleene self-loop makes the folded map its own predecessor, and the
        canonical column folds first — so replica columns substitute their
        *own* map for the self-referential predecessor (reading the
        canonical one there would see this event's post-update value and
        break bit-identity with the fully shared plan).
        """
        if total_map is self.total_map:
            return self.pred_maps
        return tuple(
            total_map if window_map is self.total_map else window_map
            for window_map in self.pred_maps
        )


class _DeferredKleene:
    """The Kleene type shared by a unit's scalar prefix + Kleene classes.

    The segment fold counts a row of the type (``rows``) instead of applying
    it to the cells that read it.  A cell's *stamp*, its value in the armed
    map, is the count it is settled up to: it owes ``rows - stamp`` steps
    (:func:`settle_kleene`).  ``cells`` (armed cells of the reading classes)
    and ``entries`` (those a Kleene row has reached: the eager fold holds a
    Kleene coefficient for them) make a row's accounting O(1).
    """

    __slots__ = ("rows", "cells", "entries")

    def __init__(self) -> None:
        self.rows = self.cells = self.entries = 0


class _DeferredClass(NamedTuple):
    """Segment-fold state of one scalar class of the dominant shape, a
    prefix type (start, no predecessor) feeding a Kleene self-loop."""

    armed: dict
    prefix_map: dict
    kleene_map: dict
    kleene: _DeferredKleene


class _EagerClass:
    """Segment-fold scratch of any other class, which folds one same-type
    run *of the class* at a time: ``rows`` collects the segment rows of
    ``plan``'s type until a row of another type of the class, or a start
    row arming a window, ends the run."""

    __slots__ = ("armed", "plan", "rows")

    def __init__(self, armed: dict) -> None:
        self.armed = armed
        self.plan: Optional[_TypePlan] = None
        self.rows: list[int] = []


class _OrderPoint:
    """Order cursor left behind by a block run.

    The block fast path never materializes :class:`Event` objects, but the
    engine's arrival-order contract needs *something* to compare the next
    arrival against.  This token carries exactly the two fields the order
    relation reads (``Event.__lt__`` is duck-typed on ``time``/``sequence``),
    so per-event and block ingestion can interleave freely on one engine.
    """

    __slots__ = ("time", "sequence")

    def __init__(self, time: float, sequence: int) -> None:
        self.time = time
        self.sequence = sequence

    def __lt__(self, other: "Event | _OrderPoint") -> bool:
        if self.time != other.time:
            return bool(self.time < other.time)
        return self.sequence < other.sequence

    def __reduce__(self) -> tuple[object, ...]:
        # Explicit so checkpoints pickle the cursor identically on every
        # supported interpreter (slots, no dict).
        return (_OrderPoint, (self.time, self.sequence))

    def __repr__(self) -> str:
        return f"<row time={self.time!r} seq={self.sequence}>"


class MultiWindowLinearEngine(MultiWindowEngine):
    """Shared linear trend aggregation across all live window instances.

    One instance serves one ``(group key, execution unit)`` pair.  See the
    module docstring for the sharing scheme; the state is

    * a :class:`~repro.core.snapshot.WindowCoefficientTable` holding, per
      ``(query class, event type)``, the per-window running totals of the
      intermediate aggregates (the window-instance coefficients);
    * per-class *armed* window sets (lazy opening: a window is armed by the
      first trend-start event of the class inside it);
    * a :class:`~repro.core.hamlet_graph.SharedWindowStore` of events kept
      once across windows, only for types some class may have to scan.
    """

    def __init__(self, unit: UnitCompilation) -> None:
        # The structure: maps, and the plans and feeds holding them.
        self.unit = unit
        self._coefficients = WindowCoefficientTable(unit.dimension)
        #: Per class: ``armed window -> stamp`` (:class:`_DeferredKleene`; else 0).
        self._armed: list[dict[int, int]] = [dict() for _ in unit.classes]
        self._plans_by_type: dict[EventType, tuple[_TypePlan, ...]] = {
            event_type: tuple(_TypePlan(spec, event_type, self._coefficients) for spec in specs)
            for event_type, specs in unit.positive_classes_by_type.items()
        }
        #: ``(class index, event type) -> plan`` for adaptive-mode rewiring.
        self._plan_of: dict[tuple[int, EventType], _TypePlan] = {
            (plan.spec.index, event_type): plan
            for event_type, plans in self._plans_by_type.items()
            for plan in plans
        }
        #: Segment fold: per columnar type, what a row feeds; sets ``_deferred``
        #: (class index -> state) and ``_eager`` (the other classes' states).
        self._segment_feeds = self._compile_segment_feeds()
        #: Split ``(class, type)`` pairs -> their replica maps, one per member
        #: after the first; a shared pair has no entry.
        self._columns: dict[tuple[int, EventType], tuple[dict, ...]] = {}
        #: Per class: ``(last positive burst type, shared run length)``.  The
        #: run length counts events folded into the class's current
        #: uninterrupted fully-shared run — the analog of the batch engine's
        #: active shared graphlet size (``g`` in the cost model).
        self._runs: dict[int, tuple[Optional[EventType], int]] = {}
        window_map = self._coefficients.window_map
        #: Per-class end-type coefficient maps, resolved once for the readout.
        self._end_maps: list[tuple[dict, ...]] = [
            tuple(window_map((spec.index, name)) for name in spec.end_types)
            for spec in unit.classes
        ]
        #: Maps the readout does not already drain: non-end types, plus every
        #: map of trailing-NOT classes (their readout scans nodes instead).
        self._evict_maps: tuple[dict, ...] = tuple(
            window_map((spec.index, name))
            for spec in unit.classes
            for name in spec.template.event_types
            if spec.trailing_negations or name not in spec.template.end_types
        )
        self.reset()

    def reset(self) -> None:
        """Back to a fresh engine's state: every map, armed set and deferred
        counter emptied *in place* (plans and feeds hold them), books and
        cursor cleared, a new event store (split columns stay: :meth:`recyclable`)."""
        for armed in self._armed:
            armed.clear()
        self._coefficients.clear()
        for state in self._deferred.values():
            state.kleene.rows = state.kleene.cells = state.kleene.entries = 0
        for collector in self._eager:  # (a segment leaves no rows behind)
            collector.plan = None
        self._runs.clear()
        self._store = SharedWindowStore() if self.unit.needs_store else None
        #: True while cells may owe Kleene steps; eager readers ``_settle`` first.
        self._unsettled = False
        self._latest_event: Event | _OrderPoint | None = None
        #: Live entries, kept incrementally so memory accounting never scans
        #: the table: ``(class, type, window)`` coefficients, those of
        #: replica (non-canonical) columns, armed cells; and the operations.
        self._coeff_entries = self._replica_entries = self._armed_entries = self._ops = 0

    def recyclable(self) -> bool:
        """Whether :meth:`reset` makes this a fresh engine: no split column."""
        return not self._columns

    # ------------------------------------------------------------------ #
    # MultiWindowEngine interface
    # ------------------------------------------------------------------ #
    def process(self, event: Event, lo: int, hi: int) -> None:
        """Do the event's graph work once; fold coefficients per armed window."""
        ensure_shared_order(self._latest_event, event)
        self._latest_event = event
        if self._unsettled:
            self._settle()
        unit = self.unit
        self._process_event(event, lo, hi, None if unit.scalar else unit.contributions(event))

    def _process_event(
        self, event: Event, lo: int, hi: int, contributions: Optional[tuple[float, ...]]
    ) -> None:
        """The per-event body, past the caller's order check: negation
        records, arming, one fold per plan and the stored node.  It reads
        no deferred cell: a deferred class has only columnar types."""
        unit = self.unit
        store = self._store
        negative_specs = unit.negative_classes_by_type.get(event.event_type)
        if negative_specs is not None and store is not None:
            matched = frozenset(
                spec.index for spec in negative_specs if spec.predicates.accepts_event(event)
            )
            if matched:
                store.add_negative(event, lo, hi, matched)
        plans = self._plans_by_type.get(event.event_type)
        if plans is None:
            return
        node_values: Optional[dict] = None
        for plan in plans:
            spec = plan.spec
            if spec.check_locals and not spec.predicates.accepts_event(event):
                continue
            armed = self._armed[spec.index]
            if plan.is_start:
                for index in range(lo, hi + 1):
                    if index not in armed:
                        armed[index] = 0
                        self._armed_entries += 1
            if not armed:
                continue
            guards = plan.guards
            if guards is None or (
                store is not None and any(store.has_negatives(t) for t in guards)
            ):
                node_values = self._slow_path(plan, event, armed, contributions, node_values)
            elif spec.store_values:
                node_values = self._fold_stored(plan, armed, contributions, node_values)
            else:
                self._fold_run(plan, armed, 1, None if contributions is None else (contributions,))
        if store is not None and event.event_type in unit.stored_node_types:
            store.add_node(event, lo, hi, node_values)

    def process_burst(self, burst: Sequence[tuple], event_type: EventType) -> bool:
        """Fold one buffered same-type burst: the run of
        :meth:`process_block_run`, given as the rows ``(time, sequence, lo,
        hi, contribution row, event)`` an optimizer's executor buffers per
        group (the contribution row is ``None`` in scalar units, the event
        ``None`` for a columnar type)."""
        times, sequences, lows, highs, rows, events = zip(*burst)
        return self.process_block_run(
            event_type, times, sequences, lows, highs, None if self.unit.scalar else rows, events
        )

    def process_block_run(
        self,
        event_type: EventType | Sequence[EventType],
        times: Sequence[float],
        sequences: Sequence[int],
        lows: Sequence[int],
        highs: Sequence[int],
        contribution_rows: Optional[Sequence[tuple[float, ...]]] = None,
        events: Optional[Sequence[Event]] = None,
    ) -> bool:
        """Fold consecutive rows of one group, in arrival order: times,
        sequences, the non-decreasing covering ranges ``lows``/``highs``,
        for vector units the contribution rows, and ``events[i]``, row
        ``i``'s :class:`Event`, read only for a type outside
        ``unit.columnar_types``.  ``event_type`` is one type name per row
        for a **segment** (:meth:`_fold_segment`), what the static plan
        hands over per ``(group, close-sweep segment)`` (the compiled walk
        only where it does not fold it in place), or one type name for a
        same-type **run**, what an optimizer's executor flushes after its
        per-burst decision.

        Results *and* abstract operation counts equal the equivalent
        sequence of :meth:`process` calls, pinned by the block and segment
        differential suites.  Returns ``True``, but ``False``, untouched,
        for a run of a type outside ``columnar_types`` without ``events``.
        """
        if not isinstance(event_type, str):
            return self._fold_segment(
                event_type, times, sequences, lows, highs, contribution_rows, events
            )
        if event_type in self.unit.columnar_types:
            events = None  # folded from the columns
        elif events is None:
            return False
        self._advance(times, sequences)
        if self._unsettled:
            self._settle()
        if events is not None:
            for row, event in enumerate(events):
                contributions = None if contribution_rows is None else contribution_rows[row]
                self._process_event(event, lows[row], highs[row], contributions)
            return True
        count = len(times)
        for plan in self._plans_by_type[event_type]:
            armed = self._armed[plan.spec.index]
            if not plan.is_start:
                if armed:
                    self._fold_run(plan, armed, count, contribution_rows)
                continue
            # A start row arms its covering range before it folds.  Ranges
            # are non-decreasing over sorted times, so the run is cut where
            # the high end moves: within a cut the first row's range covers
            # every later row's.
            first = 0
            while first < count:
                high = highs[first]
                last = bisect.bisect_right(highs, high, first)
                for index in range(lows[first], high + 1):
                    if index not in armed:
                        armed[index] = 0
                        self._armed_entries += 1
                if armed:
                    rows = contribution_rows
                    if rows is not None and last - first < count:
                        rows = rows[first:last]
                    self._fold_run(plan, armed, last - first, rows)
                first = last
        return True

    def _fold_run(
        self,
        plan: _TypePlan,
        armed: dict,
        count: int,
        contribution_rows: Optional[Sequence[tuple[float, ...]]],
        targets: Optional[tuple[dict, ...]] = None,
    ) -> None:
        """Fold one fast-eligible run of ``count`` rows: the core's
        ``fold_run``, else the reference fold, one column at a time.

        Folds every sharing column of ``plan`` (or just ``targets``) over
        the armed windows (``contribution_rows`` is ``None`` for scalar
        units) and charges exactly the per-event fast-path operation total.
        """
        targets = plan.targets if targets is None else targets
        made = foldcore.fold_run(self, plan, armed, count, contribution_rows, targets)
        if made is None:
            made = [0, 0]  # entries created: canonical, replica
            base = 1.0 if plan.is_start else 0.0
            for total_map in targets:
                sources = plan.fold_sources(total_map)
                if self.unit.scalar:
                    fresh = _REFERENCE_FOLD.fold_scalar_run(total_map, armed, sources, base, count)
                else:
                    fresh = _REFERENCE_FOLD.fold_vector_run(
                        total_map, armed, sources, base, contribution_rows, self.unit.dimension
                    )
                made[total_map is not plan.total_map] += fresh
        self._coeff_entries += made[0]
        self._replica_entries += made[1]
        self._ops += count * len(targets) * len(armed) * (1 + len(plan.pred_maps))

    def _fold_stored(
        self,
        plan: _TypePlan,
        armed: dict,
        contributions: Optional[tuple[float, ...]],
        node_values: Optional[dict],
    ) -> dict:
        """Fold one event into a class that keeps node values for a later
        scan: the canonical column also records, per armed window, the
        value the event folds (the node's); replica columns take the run
        fold."""
        dimension = self.unit.dimension
        spec_index = plan.spec.index
        base = 1.0 if plan.is_start else 0.0
        total_map = plan.total_map
        if node_values is None:
            node_values = {}
        for index in armed:
            if contributions is None:
                value = base
                for window_map in plan.pred_maps:
                    previous = window_map.get(index)
                    if previous is not None:
                        value += previous
                current = total_map.get(index)
                total_map[index] = value if current is None else current + value
                node_values[spec_index, index] = value
            else:
                accumulator = MutableAggregate(dimension)
                accumulator.count = base
                for window_map in plan.pred_maps:
                    previous = window_map.get(index)
                    if previous is not None:
                        accumulator.add(previous)
                accumulator.apply_contributions(contributions)
                node_values[spec_index, index] = accumulator.freeze()
                current = total_map.get(index)
                if current is None:
                    total_map[index] = accumulator
                else:
                    current.add(accumulator)
            if current is None:
                self._coeff_entries += 1
        self._ops += len(armed) * (1 + len(plan.pred_maps))
        if len(plan.targets) > 1:
            rows = None if contributions is None else (contributions,)
            self._fold_run(plan, armed, 1, rows, plan.targets[1:])
        return node_values

    def _advance(self, times: Sequence[float], sequences: Sequence[int]) -> None:
        """Check the rows' arrival order against the cursor; move it past
        them (in place: a one-row segment per event allocates no cursor)."""
        latest = self._latest_event
        cursor = ensure_shared_run_order(times, sequences, latest)
        if cursor is not None:
            if type(latest) is _OrderPoint:
                latest.time, latest.sequence = cursor
            else:
                self._latest_event = _OrderPoint(*cursor)

    def _fold_segment(
        self,
        types: Sequence[EventType],
        times: Sequence[float],
        sequences: Sequence[int],
        lows: Sequence[int],
        highs: Sequence[int],
        contribution_rows: Optional[Sequence[tuple[float, ...]]],
        events: Optional[Sequence[Event]],
    ) -> bool:
        """Fold one mixed-type segment, in one pass over its rows.

        What may reorder against the per-event run: cells.  What may not:
        the rows within a cell.  A Kleene row is counted once for all the
        deferred classes; a prefix row arms its covering range, settles the
        class's cells up to the count and steps their prefix.  An eager
        class collects same-type runs; a start-type row arms before it
        folds, so the run before it goes to the windows armed so far.  A
        row of a type outside ``columnar_types`` folds the collected runs,
        then itself through the per-event body.  Split sharing columns are
        adaptive state: a segment refuses them.
        """
        if self._columns:
            raise ExecutionError("a segment folds fully shared columns only")
        self._advance(times, sequences)
        feeds = self._segment_feeds
        if self._deferred and not self._unsettled:
            # Deferral resumes: count the cells and entries the maps hold.
            self._unsettled = True
            for state in self._deferred.values():
                state.kleene.cells += len(state.armed)
                state.kleene.entries += len(state.kleene_map)
        ops, created, armings, start = foldcore.fold_segment(self, feeds, types, lows, highs)
        for row, event_type in enumerate(types[start:], start):  # the core's leftovers
            try:
                counter, prefixed, eager = feeds[event_type]
            except KeyError:  # a declined type (rare on the hot path)
                for state in self._eager:
                    self._fold_class_run(state, contribution_rows)
                if events is None:
                    raise ExecutionError(f"row of type {event_type!r} needs its event") from None
                contributions = None if contribution_rows is None else contribution_rows[row]
                self._process_event(events[row], lows[row], highs[row], contributions)
                continue
            if counter is not None:
                # What the per-event fold does at this row: three operations
                # per armed cell, a Kleene entry for the cells that had none.
                counter.rows += 1
                cells = counter.cells
                ops += 3 * cells
                if counter.entries != cells:
                    created += cells - counter.entries
                    counter.entries = cells
            for armed, prefix_map, kleene_map, kleene in prefixed:
                now = kleene.rows
                for index in range(lows[row], highs[row] + 1):
                    if index not in armed:
                        armed[index] = now
                        prefix_map[index] = 0.0
                        kleene.cells += 1
                        created += 1
                        armings += 1
                ops += len(armed)
                for index, stamp in armed.items():
                    prefix = prefix_map[index]
                    if stamp != now:
                        kleene_map[index] = settle_kleene(
                            prefix, kleene_map.get(index, 0.0), now - stamp
                        )
                        armed[index] = now
                    prefix_map[index] = prefix + 1.0
            for state, plan in eager:
                armed = state.armed
                fresh = plan.is_start and [
                    index for index in range(lows[row], highs[row] + 1) if index not in armed
                ]
                if fresh or plan is not state.plan:
                    self._fold_class_run(state, contribution_rows)
                    state.plan = plan
                    if fresh:
                        armed.update(dict.fromkeys(fresh, 0))
                        armings += len(fresh)
                state.rows.append(row)
        self._ops += ops
        self._coeff_entries += created
        self._armed_entries += armings
        for state in self._eager:
            self._fold_class_run(state, contribution_rows)
        return True

    def _fold_class_run(
        self, state: _EagerClass, contribution_rows: Optional[Sequence[tuple[float, ...]]]
    ) -> None:
        """Hand the run an eager class has collected to the reference fold
        (rows that precede the class's first armed window fold nowhere)."""
        rows = state.rows
        if rows and state.armed:
            picked = None if contribution_rows is None else [contribution_rows[r] for r in rows]
            self._fold_run(state.plan, state.armed, len(rows), picked)
        rows.clear()

    def _compile_segment_feeds(self) -> dict[EventType, tuple]:
        """Sort the unit's classes into deferred and eager ones; return, per
        columnar type, what a row of it feeds: ``(the deferred counter it
        advances, the deferred classes it prefixes, the (eager class, plan)
        pairs reading it)``."""
        self._deferred: dict[int, _DeferredClass] = {}
        self._eager: list[_EagerClass] = []
        counters: dict[EventType, _DeferredKleene] = {}
        prefixed: dict[EventType, list[_DeferredClass]] = {}
        eager: dict[EventType, list[tuple[_EagerClass, _TypePlan]]] = {}
        for spec in self.unit.classes:
            armed = self._armed[spec.index]
            shape = self.unit.deferred_shapes.get(spec.index)
            if shape is not None:
                prefix, kleene_type = shape
                prefix_map, kleene_map = (self._plan_of[spec.index, n].total_map for n in shape)
                kleene = counters.setdefault(kleene_type, _DeferredKleene())
                state = _DeferredClass(armed, prefix_map, kleene_map, kleene)
                self._deferred[spec.index] = state
                prefixed.setdefault(prefix, []).append(state)
                continue
            self._eager.append(collector := _EagerClass(armed))
            preds = spec.pred_types
            for name in sorted(preds, key=lambda name: (len(preds[name]), name)):
                eager.setdefault(name, []).append((collector, self._plan_of[spec.index, name]))
        # A type outside ``columnar_types`` has no feed: its rows go per event.
        return {
            name: (counters.get(name), tuple(prefixed.get(name, ())), tuple(eager.get(name, ())))
            for name in self.unit.columnar_types
        }

    def _settle(self) -> None:
        """Pay every cell's owed Kleene steps: back to the state the per-event
        fold holds (every stamp and counter at 0), which every reader but the
        segment fold and the readout of one window expects."""
        self._unsettled = False
        for armed, prefix_map, kleene_map, kleene in self._deferred.values():
            for index, stamp in armed.items():
                if stamp != kleene.rows:
                    kleene_map[index] = settle_kleene(
                        prefix_map[index], kleene_map.get(index, 0.0), kleene.rows - stamp
                    )
                armed[index] = 0
        for state in self._deferred.values():
            state.kleene.rows = state.kleene.cells = state.kleene.entries = 0

    def close_window(self, index: int) -> WindowValues:
        """Equation 3 readout of one instance: one double per readout slot."""
        if (read := foldcore.close_window(self, index)) is not None:
            return read
        unit = self.unit
        scalar = unit.scalar
        values: list[float] = []  # in ``unit.layout`` slot order
        evicted = 0
        replica_evicted = 0
        columns = self._columns
        deferred = self._deferred if self._unsettled else None
        for spec in unit.classes:
            stamp = self._armed[spec.index].pop(index, None)
            if stamp is not None:
                self._armed_entries -= 1
                state = deferred.get(spec.index) if deferred else None
                if state is not None:
                    # Pay what this one cell owes; the others stay deferred.
                    _, prefix_map, kleene_map, kleene = state
                    kleene.cells -= 1
                    if stamp != kleene.rows:
                        kleene_map[index] = settle_kleene(
                            prefix_map[index], kleene_map.get(index, 0.0), kleene.rows - stamp
                        )
                        kleene.entries -= 1
                    elif index in kleene_map:
                        kleene.entries -= 1
            if spec.trailing_negations and self._store is not None:
                total = self._trailing_total(spec, index)
                self._ops += 1
            else:
                # The readout drains the end-type coefficients it reads: the
                # canonical maps, member 0's columns.  A split end type still
                # charges one readout per member, but every column of a pair
                # holds the canonical values bit for bit (the replicas are
                # evicted below), so each slot is what each member would read.
                if scalar:
                    total = 0.0
                    for end_map in self._end_maps[spec.index]:
                        value = end_map.pop(index, None)
                        if value is not None:
                            total += value
                            evicted += 1
                else:
                    total = MutableAggregate(unit.dimension)
                    for end_map in self._end_maps[spec.index]:
                        value = end_map.pop(index, None)
                        if value is not None:
                            total.add(value)
                            evicted += 1
                split = columns and any((spec.index, t) in columns for t in spec.end_types)
                self._ops += len(spec.queries) if split else 1
            if scalar:
                values.append(total)
            else:
                sums = (total.count, *total.measures)
                values.extend([project(projection, sums) for projection in spec.projections])
        for window_map in self._evict_maps:
            if window_map.pop(index, None) is not None:
                evicted += 1
        # The readout drains canonical columns only: evict every replica
        # column's entry here.
        for replicas in columns.values():
            for window_map in replicas:
                if window_map.pop(index, None) is not None:
                    replica_evicted += 1
        self._coeff_entries -= evicted
        self._replica_entries -= replica_evicted
        return WindowValues(unit.layout, array("d", values))

    def evict_to(self, oldest: Optional[int]) -> None:
        """Drop stored events outside every instance at or after ``oldest``."""
        if self._store is not None:
            self._store.evict_to(oldest)

    def memory_units(self) -> int:
        """Coefficient entries plus the shared store footprint (O(1))."""
        per_entry = 1 if self.unit.scalar else 1 + self.unit.dimension
        units = (self._coeff_entries + self._replica_entries) * per_entry + self._armed_entries
        if self._store is not None:
            units += self._store.memory_units()
        return units

    # ------------------------------------------------------------------ #
    # Adaptive sharing: per-burst split / merge of coefficient columns
    # ------------------------------------------------------------------ #
    def note_positive_burst(self, event_type: EventType) -> None:
        """End every class's shared run whose type the burst interrupts.

        The batch engine's burst of type ``E`` deactivates the active
        graphlets of every *other* type (Algorithm 1, lines 4–6); the
        multi-window analog is that a class's fully-shared run of another
        type stops growing, so the next burst of that type must pay for a
        fresh merge (``graphlet_snapshots_needed = 1`` in its statistics).
        """
        for spec_index, (last_type, length) in self._runs.items():
            if length and last_type != event_type:
                self._runs[spec_index] = (last_type, 0)

    def _continuing_run(self, spec: QueryClassSpec, event_type: EventType) -> tuple[bool, int]:
        """Whether a fully-shared run of ``event_type`` is live, and its length."""
        last_type, length = self._runs.get(spec.index, (None, 0))
        continuing = (
            length > 0
            and last_type == event_type
            and (spec.index, event_type) not in self._columns
        )
        return continuing, length

    def burst_statistics(
        self,
        spec: QueryClassSpec,
        event_type: EventType,
        burst_size: int,
        events_in_window: int,
    ) -> BurstStatistics:
        """Cost-model inputs for one burst of ``event_type`` at one class.

        Everything static comes compiled (``spec.candidates``); only the
        burst's own numbers — ``b``, ``n``, ``g`` and whether a fresh merge
        is needed (``sc``) — are filled in here.
        """
        continuing, run_length = self._continuing_run(spec, event_type)
        return BurstStatistics(
            candidates=spec.candidates[event_type],
            burst_size=burst_size,
            events_in_window=max(1, events_in_window),
            graphlet_size=run_length + burst_size if continuing else burst_size,
            snapshots_propagated=1,
            graphlet_snapshots_needed=0 if continuing else 1,
        )

    def apply_burst_decision(
        self, spec: QueryClassSpec, event_type: EventType, share: bool, burst_size: int
    ) -> None:
        """Share or split the ``(class, type)`` pair's columns for one burst.

        Shared, every member folds into the class's canonical column; split,
        each member after the first folds into its own replica.  A split
        copies the canonical column once per replica (O(live windows), never
        a replay) and a merge drops the replicas — sound because every
        column of a pair holds bit-identical values at all times.
        """
        if self._unsettled:
            self._settle()
        continuing, run_length = self._continuing_run(spec, event_type)
        key = (spec.index, event_type)
        replicas = self._columns.get(key)
        if share == (replicas is not None):
            plan = self._plan_of[key]
            canonical = plan.total_map
            if replicas is not None:  # merge
                del self._columns[key]
                self._replica_entries -= sum(map(len, replicas))
            else:  # split
                scalar = self.unit.scalar
                replicas = self._columns[key] = tuple(
                    dict(canonical) if scalar else {i: v.copy() for i, v in canonical.items()}
                    for _ in spec.queries[1:]
                )
                self._replica_entries += len(canonical) * len(replicas)
                self._ops += len(canonical) * len(replicas)
            plan.targets = (canonical,) if share else (canonical, *replicas)
            self._ops += 1  # the split/merge transition itself
        self._runs[spec.index] = (
            event_type, (run_length + burst_size if continuing else burst_size) if share else 0
        )

    def operations(self) -> int:
        """Abstract work units (coefficient folds, scans, readouts) so far."""
        return self._ops

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def armed_window_count(self) -> int:
        """Number of live ``(class, window)`` armed pairs (lazy-open state)."""
        return sum(len(armed) for armed in self._armed)

    @property
    def coefficients(self) -> WindowCoefficientTable:
        """The per-window coefficient table (ground truth for accounting)."""
        if self._unsettled:
            self._settle()
        return self._coefficients

    def live_coefficient_entries(self) -> int:
        """The engine's incremental entry counter — must always equal
        ``coefficients.entry_count()`` (pinned by the runtime tests)."""
        return self._coeff_entries

    def replica_coefficient_entries(self) -> int:
        """Live entries held by replica (split per-query) columns — must
        always equal the ground-truth scan of the column table (pinned by
        the runtime tests)."""
        return self._replica_entries

    def replica_entry_count(self) -> int:
        """Ground-truth O(columns) scan of the replica column maps."""
        return sum(len(replica) for replicas in self._columns.values() for replica in replicas)

    @property
    def store(self) -> Optional[SharedWindowStore]:
        """The shared event store (None when no class ever scans nodes)."""
        return self._store

    # ------------------------------------------------------------------ #
    # Per-window folds
    # ------------------------------------------------------------------ #
    def _slow_path(
        self,
        plan: _TypePlan,
        event: Event,
        armed: dict,
        contributions: Optional[tuple[float, ...]],
        node_values: Optional[dict],
    ) -> Optional[dict]:
        """Equation 2 with edge predicates / armed negation: window-filtered scan."""
        store = self._store
        assert store is not None  # store_values classes always have a store
        spec = plan.spec
        spec_index = spec.index
        scalar = self.unit.scalar
        constraints = [
            constraint
            for constraint in spec.sequence_negations
            if event.event_type in constraint.after_types
            and store.has_negatives(constraint.negated_type)
        ]
        check_edges = plan.check_edges
        predicates = spec.predicates
        pred_node_lists = [store.nodes_of_type(t) for t in plan.pred_types]
        canonical = plan.total_map
        base = 1.0 if plan.is_start else 0.0
        for total_map in plan.targets:
            is_canonical = total_map is canonical
            for index in armed:
                if scalar:
                    value = base
                else:
                    accumulator = MutableAggregate(self.unit.dimension)
                    accumulator.count = base
                for nodes in pred_node_lists:
                    for stored in nodes:
                        self._ops += 1
                        if stored.lo > index or stored.hi < index:
                            continue
                        values = stored.values
                        if values is None:
                            continue
                        stored_value = values.get((spec_index, index))
                        if stored_value is None:
                            continue
                        if not stored.event < event:
                            continue
                        if check_edges and not predicates.accepts_edge(stored.event, event):
                            continue
                        if constraints and store.negation_blocks(
                            spec_index, constraints, stored.event, event
                        ):
                            continue
                        if scalar:
                            value += stored_value
                        else:
                            accumulator.add_vector(stored_value)
                if scalar:
                    current = total_map.get(index)
                    if current is None:
                        total_map[index] = value
                        if is_canonical:
                            self._coeff_entries += 1
                        else:
                            self._replica_entries += 1
                    else:
                        total_map[index] = current + value
                    if is_canonical:
                        if node_values is None:
                            node_values = {}
                        node_values[(spec_index, index)] = value
                else:
                    accumulator.apply_contributions(contributions)
                    if is_canonical:
                        if node_values is None:
                            node_values = {}
                        node_values[(spec_index, index)] = accumulator.freeze()
                    total = total_map.get(index)
                    if total is None:
                        total_map[index] = accumulator
                        if is_canonical:
                            self._coeff_entries += 1
                        else:
                            self._replica_entries += 1
                    else:
                        total.add(accumulator)
        return node_values

    def _trailing_total(self, spec: QueryClassSpec, index: int):
        """Equation 3 with a trailing NOT: scan end-type nodes, filter cancelled."""
        store = self._store
        assert store is not None
        scalar = self.unit.scalar
        if scalar:
            total = 0.0
        else:
            total = MutableAggregate(self.unit.dimension)
        for event_type in spec.end_types:
            for stored in store.nodes_of_type(event_type):
                self._ops += 1
                if stored.lo > index or stored.hi < index:
                    continue
                values = stored.values
                if values is None:
                    continue
                value = values.get((spec.index, index))
                if value is None:
                    continue
                if store.cancelled_by_trailing(
                    spec.index, spec.trailing_negations, stored.event, index
                ):
                    continue
                if scalar:
                    total += value
                else:
                    total.add_vector(value)
        return total


def shared_window_flavor_of(
    engine_factory, prebuilt: Optional[TrendAggregationEngine] = None
) -> tuple[Optional[str], Optional[TrendAggregationEngine]]:
    """Resolve how (whether) a unit built from ``engine_factory`` can share windows.

    Returns ``(flavor, probe)`` where ``flavor`` is ``"classes"``,
    ``"per-query"`` or ``None`` (fall back to one engine per instance) and
    ``probe`` is an engine instance built along the way, if any, so callers
    can seed their per-instance pool instead of discarding it.
    """
    if isinstance(engine_factory, type):
        if issubclass(engine_factory, TrendAggregationEngine):
            return getattr(engine_factory, "shared_window_flavor", None), prebuilt
        return None, prebuilt
    probe = prebuilt
    if probe is None:
        try:
            probe = engine_factory()
        except Exception:  # pragma: no cover - defensive
            return None, None
    flavor = getattr(probe, "shared_window_flavor", None)
    if flavor == "classes" and not getattr(probe, "fast_predecessor_totals", True):
        # The slow-path-only debugging mode has no coefficient fast path to
        # lift across windows; keep it on the per-instance reference path.
        flavor = None
    return flavor, probe
