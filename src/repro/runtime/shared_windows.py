"""Cross-window shared aggregation: one engine for all overlapping instances.

The per-instance streaming path (PR 2) multiplies every event into up to
``ceil(size/slide)`` independent engines — graph construction, predicate
evaluation and Equation-2 totals are redone once per overlapping window
instance.  This module is the shared execution path the HAMLET paper's
cross-window sharing calls for: per ``(group key, execution unit)`` pair
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
``runtime/streaming.py``), each ``(class, event type)`` pair can be split
into per-member coefficient columns and merged back mid-stream —
:meth:`MultiWindowLinearEngine.apply_burst_decision`.  Columns of one pair
hold bit-identical values at all times (members are computationally
identical), so a split is an O(live windows) copy of the canonical column,
a merge just drops the replicas, and results are unaffected whatever the
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
from typing import NamedTuple, Optional, Sequence

from repro.core.engine import compile_fast_path_guards
from repro.core.hamlet_graph import SharedWindowStore
from repro.core.kernels import MutableAggregate, PythonKernelBackend, settle_kleene
from repro.core.snapshot import WindowCoefficientTable
from repro.errors import ExecutionError
from repro.events.event import Event, EventType
from repro.greta.aggregators import Measure, measures_for_queries, project, projection_of
from repro.interfaces import MultiWindowEngine, TrendAggregationEngine
from repro.optimizer.statistics import BurstStatistics, CandidateSet, QueryBurstProfile
from repro.runtime.reorder import ensure_shared_order, ensure_shared_run_order
from repro.runtime.results import ResultLayout, WindowValues
from repro.query.predicates import CompositePredicate
from repro.query.query import Query
from repro.template.template import NegationConstraint, QueryTemplate, compile_pattern


#: The one fold the engine runs: every run fold, and the per-event vector
#: fold (a run of one row).  Called as methods of this instance, so a probe
#: wrapping ``KernelBackend.fold_*`` sees every fold.
_REFERENCE_FOLD = PythonKernelBackend()


class QueryClassSpec:
    """One class of computationally identical queries of an execution unit.

    All members share the template and the predicates, so every per-event
    quantity — acceptance, predecessor set, intermediate aggregate — is
    computed once for the class; members differ only in how the final
    vector is extracted (COUNT(*) vs SUM vs AVG ...).
    """

    __slots__ = (
        "index",
        "queries",
        "template",
        "predicates",
        "check_locals",
        "store_values",
        "fast_guards",
        "sequence_negations",
        "trailing_negations",
        "pred_types",
        "end_types",
        "candidates",
        "projections",
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

    def __init__(self, queries: Sequence[Query], *, share_classes: bool) -> None:
        self.queries = tuple(queries)
        self.share_classes = share_classes
        self.measures: tuple[Measure, ...] = measures_for_queries(self.queries)
        self.dimension = len(self.measures)
        #: Scalar mode: a COUNT(*)-only unit tracks bare floats per window.
        self.scalar = self.dimension == 0
        templates = {query.name: compile_pattern(query.pattern) for query in self.queries}
        grouped: dict[object, list[Query]] = {}
        order: list[object] = []
        for query in self.queries:
            key: object
            if share_classes:
                key = (_template_signature(templates[query.name]), query.predicates.signature())
            else:
                key = query.name
            if key not in grouped:
                order.append(key)
                grouped[key] = []
            grouped[key].append(query)
        self.classes: tuple[QueryClassSpec, ...] = tuple(
            QueryClassSpec(index, grouped[key], templates[grouped[key][0].name])
            for index, key in enumerate(order)
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
        #: Event types whose runs :meth:`MultiWindowLinearEngine.process_block_run`
        #: never declines — nothing about them is stored, negated, locally
        #: filtered or guarded — so their rows never need an ``Event``.  (Runs
        #: of every other positive type are always declined: a guard can only
        #: go stale for a class with negations, whose types are all stored.)
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
        #: Every type the unit reads folds from columns: a whole mixed-type
        #: segment can go to :meth:`MultiWindowLinearEngine.process_block_run`
        #: at once (no store, no negation, no local or edge predicate).
        self.columnar = not negative and len(self.columnar_types) == len(positive)

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
        #: Coefficient maps the per-event fold writes into.  All-shared (the
        #: static plan and the adaptive default) folds once into the class's
        #: canonical map; a split class folds once per sharing column — the
        #: canonical map always first.  Rewired by ``apply_burst_decision``.
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


class _ColumnState:
    """Sharing partition of one ``(query class, event type)`` pair.

    Absent from the engine's column table when the pair is fully shared (the
    static default): every member query folds into the class's canonical
    coefficient map.  Present only while a per-burst decision keeps at least
    one member on its own column:

    * ``leaders[pos]`` is the column of the ``pos``-th member query, named by
      the smallest member position of that column;
    * ``maps[leader]`` is the column's ``window index -> coefficient`` map.
      The column containing query position 0 always owns the class's
      *canonical* map object — the dict other type plans hold direct
      predecessor references to — so canonical values keep being maintained
      whatever the partition.

    All columns of a pair hold bit-identical values at all times (member
    queries are computationally identical), which is what makes split and
    merge pure state transitions: a split copies the canonical column, a
    merge keeps it and drops the replicas — no replay, no reconciliation.
    """

    __slots__ = ("leaders", "maps")

    def __init__(self, leaders: tuple[int, ...], maps: dict[int, dict]) -> None:
        self.leaders = leaders
        self.maps = maps


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
        self.unit = unit
        self._coefficients = WindowCoefficientTable(unit.dimension)
        #: Per class: ``armed window -> stamp`` (:class:`_DeferredKleene`; else 0).
        self._armed: list[dict[int, int]] = [dict() for _ in unit.classes]
        self._store: Optional[SharedWindowStore] = (
            SharedWindowStore() if unit.needs_store else None
        )
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
        #: Segment fold, compiled by the first segment (burst-buffered engines
        #: never pay for it): per event type what a row of it feeds — ``(the
        #: deferred counter it advances, the deferred classes it prefixes, the
        #: (eager class, type plan) pairs reading it)`` — and the class states
        #: behind it, the deferred ones by class index.
        self._segment_feeds: Optional[dict[EventType, tuple]] = None
        self._deferred: dict[int, _DeferredClass] = {}
        self._eager: list[_EagerClass] = []
        #: True while cells may owe Kleene steps; eager readers ``_settle`` first.
        self._unsettled = False
        #: Split ``(class, type)`` pairs; fully shared pairs have no entry.
        self._columns: dict[tuple[int, EventType], _ColumnState] = {}
        #: Per class: ``(last positive burst type, shared run length)``.  The
        #: run length counts events folded into the class's current
        #: uninterrupted fully-shared run — the analog of the batch engine's
        #: active shared graphlet size (``g`` in the cost model).
        self._runs: dict[int, tuple[Optional[EventType], int]] = {}
        #: Live coefficient entries held by replica (non-canonical) columns,
        #: maintained incrementally like ``_coeff_entries``.
        self._replica_entries = 0
        #: Per-class end-type coefficient maps, resolved once for the readout.
        self._end_maps: list[tuple[dict, ...]] = [
            tuple(
                self._coefficients.window_map((spec.index, event_type))
                for event_type in spec.end_types
            )
            for spec in unit.classes
        ]
        #: Maps the readout does not already drain: non-end types, plus every
        #: map of trailing-NOT classes (their readout scans nodes instead).
        evict_maps: list[dict] = []
        for spec in unit.classes:
            for event_type in spec.template.event_types:
                if spec.trailing_negations or event_type not in spec.template.end_types:
                    evict_maps.append(self._coefficients.window_map((spec.index, event_type)))
        self._evict_maps: tuple[dict, ...] = tuple(evict_maps)
        self._armed_entries = 0
        self._latest_event: Event | _OrderPoint | None = None
        #: Live ``(class, type, window)`` coefficient entries, maintained
        #: incrementally so memory accounting never scans the table.
        self._coeff_entries = 0
        self._ops = 0

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
        scalar = unit.scalar
        contributions = None if scalar else unit.contributions(event)
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
            fast = plan.guards is not None
            if fast and plan.guards and store is not None:
                for negated_type in plan.guards:
                    if store.has_negatives(negated_type):
                        fast = False
                        break
            if fast:
                if scalar:
                    node_values = self._fast_scalar(plan, armed, node_values)
                else:
                    node_values = self._fast_vector(plan, armed, contributions, node_values)
            else:
                node_values = self._slow_path(plan, event, armed, contributions, node_values)
        if store is not None and event.event_type in unit.stored_node_types:
            store.add_node(event, lo, hi, node_values)

    def process_burst(self, burst: Sequence[tuple], event_type: EventType) -> bool:
        """Fold one buffered same-type burst of column rows.

        ``burst`` is what the streaming executor buffers per group: rows
        ``(time, sequence, lo, hi, contribution row, event)`` in arrival
        order (the contribution row is ``None`` for scalar units; the event
        is the caller's, for replaying a declined run).  Transposes the
        rows and hands the columns to :meth:`process_block_run`, whose
        contract — including returning ``False`` untouched when the run
        needs per-event structure — is this method's.
        """
        times, sequences, lows, highs, rows, _ = zip(*burst)
        return self.process_block_run(
            event_type, times, sequences, lows, highs, None if self.unit.scalar else rows
        )

    def process_block_run(
        self,
        event_type: EventType | Sequence[EventType],
        times: Sequence[float],
        sequences: Sequence[int],
        lows: Sequence[int],
        highs: Sequence[int],
        contribution_rows: Optional[Sequence[tuple[float, ...]]] = None,
    ) -> bool:
        """Fold consecutive rows of one group straight from block columns.

        The column-level entry point of both ingest paths: the caller hands
        the rows' parallel columns (times, sequences, covering ranges, and —
        for vector units — precomputed contribution rows) and no per-event
        objects exist anywhere on the path.  ``lows``/``highs`` must be the
        non-decreasing covering ranges of the (sorted) ``times`` — what
        :meth:`Window.instance_range_columns` produces.  ``event_type`` is

        * one type name for a same-type **run** (what a burst-buffered
          executor flushes): each ``(class, type)`` plan is resolved once
          and the reference fold runs every sharing column of it with
          per-event arithmetic, bit-identical; or
        * one type name per row for a mixed-type **segment** (what the
          static block path hands over between two close sweeps:
          :meth:`_fold_segment`).  Only a unit whose every type is
          columnar, with no split sharing column, takes one.

        Results *and* abstract operation counts equal the equivalent
        sequence of :meth:`process` calls; this is pinned by the block and
        segment differential suites.

        Returns ``False`` **without touching any engine state** when the
        rows need per-event :class:`Event` structure — store interactions
        (the type is negated or stored by some class), local predicates,
        the scan slow path, or a stale guard — so the caller can replay
        them through the per-event reference entry points.
        """
        if not isinstance(event_type, str):
            return self._fold_segment(
                event_type, times, sequences, lows, highs, contribution_rows
            )
        unit = self.unit
        store = self._store
        if store is not None and (
            event_type in unit.negative_classes_by_type
            or event_type in unit.stored_node_types
        ):
            return False
        plans = self._plans_by_type.get(event_type)
        if plans is not None:
            for plan in plans:
                if plan.spec.check_locals:
                    return False
                guards = plan.guards
                if guards is None:
                    return False
                if guards and store is not None:
                    for negated_type in guards:
                        if store.has_negatives(negated_type):
                            return False
        # Order check across the whole run — the same contract process()
        # enforces, on scalar columns.
        cursor = ensure_shared_run_order(times, sequences, self._latest_event)
        if cursor is not None:
            self._latest_event = _OrderPoint(cursor[0], cursor[1])
        if self._unsettled:
            self._settle()
        count = len(times)
        for plan in plans or ():
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
    ) -> None:
        """Hand one fast-eligible run of ``count`` rows to the reference fold.

        Folds every sharing column of ``plan`` over the armed windows
        (``contribution_rows`` is ``None`` for scalar units) and charges
        exactly the per-event fast-path operation total.
        """
        scalar = self.unit.scalar
        indices = list(armed)
        base = 1.0 if plan.is_start else 0.0
        created = 0
        replica_created = 0
        canonical = plan.total_map
        for total_map in plan.targets:
            sources = plan.fold_sources(total_map)
            if scalar:
                made = _REFERENCE_FOLD.fold_scalar_run(total_map, indices, sources, base, count)
            else:
                made = _REFERENCE_FOLD.fold_vector_run(
                    total_map, indices, sources, base, contribution_rows, self.unit.dimension
                )
            if total_map is canonical:
                created += made
            else:
                replica_created += made
        self._coeff_entries += created
        self._replica_entries += replica_created
        self._ops += (
            count * len(plan.targets) * len(indices) * (1 + len(plan.pred_maps))
        )

    def _fold_segment(
        self,
        types: Sequence[EventType],
        times: Sequence[float],
        sequences: Sequence[int],
        lows: Sequence[int],
        highs: Sequence[int],
        contribution_rows: Optional[Sequence[tuple[float, ...]]],
    ) -> bool:
        """Fold one mixed-type segment, in one pass over its rows.

        What may reorder against the per-event run: cells.  What may not:
        the rows within a cell.  A Kleene row is counted once for all the
        deferred classes; a prefix row arms its covering range, settles the
        class's cells up to the count and steps their prefix.  An eager
        class collects same-type runs; a start-type row arms before it
        folds, so the run before it goes to the windows armed so far.
        """
        if not self.unit.columnar or self._columns:
            return False
        cursor = ensure_shared_run_order(times, sequences, self._latest_event)
        if cursor is not None:
            self._latest_event = _OrderPoint(cursor[0], cursor[1])
        feeds = self._segment_feeds or self._compile_segment_feeds()
        if self._deferred and not self._unsettled:
            # Deferral resumes: count the cells and entries the maps hold.
            self._unsettled = True
            for state in self._deferred.values():
                state.kleene.cells += len(state.armed)
                state.kleene.entries += len(state.kleene_map)
        ops = created = armings = 0
        for row, event_type in enumerate(types):
            counter, prefixed, eager = feeds.get(event_type, (None, (), ()))
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
        """Sort the unit's classes into deferred and eager ones and wire each
        event type to what a row of it feeds (``_segment_feeds``)."""
        counters: dict[EventType, _DeferredKleene] = {}
        prefixed: dict[EventType, list[_DeferredClass]] = {}
        eager: dict[EventType, list[tuple[_EagerClass, _TypePlan]]] = {}
        for spec in self.unit.classes:
            armed = self._armed[spec.index]
            preds = spec.pred_types
            names = sorted(preds, key=lambda name: (len(preds[name]), name))
            plans = [self._plan_of[spec.index, name] for name in names]
            if (
                self.unit.scalar
                and [plan.is_start for plan in plans] == [True, False]
                and not preds[names[0]]
                and set(preds[names[1]]) == set(names)
            ):
                kleene = counters.setdefault(names[1], _DeferredKleene())
                state = _DeferredClass(armed, plans[0].total_map, plans[1].total_map, kleene)
                self._deferred[spec.index] = state
                prefixed.setdefault(names[0], []).append(state)
            else:
                self._eager.append(_EagerClass(armed))
                for name, plan in zip(names, plans):
                    eager.setdefault(name, []).append((self._eager[-1], plan))
        feeds = self._segment_feeds = {
            name: (counters.get(name), tuple(prefixed.get(name, ())), tuple(eager.get(name, ())))
            for name in self.unit.positive_classes_by_type
        }
        return feeds

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
        if columns:
            # The readout drains canonical columns only: evict every replica
            # column's entry here.
            for state in columns.values():
                for leader, window_map in state.maps.items():
                    if leader and window_map.pop(index, None) is not None:
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
        self,
        spec: QueryClassSpec,
        event_type: EventType,
        shared_names: frozenset,
        burst_size: int,
    ) -> None:
        """Reconfigure the ``(class, type)`` sharing partition for one burst.

        ``shared_names`` (fewer than two names means no sharing) partitions
        the member queries into one shared column plus singletons.  The
        transition is incremental: a newly split column starts as a copy of
        the canonical column (O(live windows), never a replay) and a merge
        simply drops replicas — sound because every column of a pair holds
        bit-identical values at all times.
        """
        if self._unsettled:
            self._settle()
        queries = spec.queries
        count = len(queries)
        shared_positions = [
            position for position, query in enumerate(queries) if query.name in shared_names
        ]
        if len(shared_positions) >= 2:
            shared_set = set(shared_positions)
            leader = shared_positions[0]
            new_leaders = tuple(
                leader if position in shared_set else position for position in range(count)
            )
        else:
            new_leaders = tuple(range(count))
        fully_shared = new_leaders == (0,) * count
        continuing, run_length = self._continuing_run(spec, event_type)
        key = (spec.index, event_type)
        state = self._columns.get(key)
        old_leaders = state.leaders if state is not None else (0,) * count
        if new_leaders != old_leaders:
            self._transition_columns(key, state, old_leaders, new_leaders)
        if fully_shared:
            self._runs[spec.index] = (
                event_type,
                (run_length + burst_size) if continuing else burst_size,
            )
        else:
            self._runs[spec.index] = (event_type, 0)

    def _transition_columns(
        self,
        key: tuple[int, EventType],
        state: Optional[_ColumnState],
        old_leaders: tuple[int, ...],
        new_leaders: tuple[int, ...],
    ) -> None:
        canonical = self._coefficients.window_map(key)
        old_maps = state.maps if state is not None else {0: canonical}
        old_groups: dict[int, set[int]] = {}
        for position, leader in enumerate(old_leaders):
            old_groups.setdefault(leader, set()).add(position)
        new_groups: dict[int, set[int]] = {}
        for position, leader in enumerate(new_leaders):
            new_groups.setdefault(leader, set()).add(position)
        scalar = self.unit.scalar
        new_maps: dict[int, dict] = {}
        for leader, members in new_groups.items():
            if leader == 0:
                # The column containing query position 0 always keeps the
                # canonical map object (predecessor plans reference it).
                new_maps[0] = canonical
            elif old_groups.get(leader) == members:
                new_maps[leader] = old_maps[leader]
            else:
                replica = (
                    dict(canonical)
                    if scalar
                    else {index: value.copy() for index, value in canonical.items()}
                )
                new_maps[leader] = replica
                self._replica_entries += len(replica)
                self._ops += len(replica)
        for leader, window_map in old_maps.items():
            if window_map is canonical or new_maps.get(leader) is window_map:
                continue
            self._replica_entries -= len(window_map)
        self._ops += 1  # the split/merge transition itself
        plan = self._plan_of[key]
        if len(new_maps) == 1:
            self._columns.pop(key, None)
            plan.targets = (canonical,)
        else:
            self._columns[key] = _ColumnState(new_leaders, new_maps)
            plan.targets = (canonical,) + tuple(
                new_maps[leader] for leader in sorted(new_maps) if leader != 0
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
        return sum(
            len(window_map)
            for state in self._columns.values()
            for leader, window_map in state.maps.items()
            if leader
        )

    def sharing_partition(self, spec_index: int, event_type: EventType) -> tuple[int, ...]:
        """Current column of each member query of a ``(class, type)`` pair.

        ``(0, 0, ..., 0)`` is the fully shared default; distinct values mean
        split columns (each named by its smallest member position).
        """
        state = self._columns.get((spec_index, event_type))
        if state is not None:
            return state.leaders
        for spec in self.unit.classes:
            if spec.index == spec_index:
                return (0,) * len(spec.queries)
        raise ExecutionError(f"unknown query class index {spec_index}")

    @property
    def store(self) -> Optional[SharedWindowStore]:
        """The shared event store (None when no class ever scans nodes)."""
        return self._store

    # ------------------------------------------------------------------ #
    # Per-window folds
    # ------------------------------------------------------------------ #
    def _fast_scalar(self, plan: _TypePlan, armed: dict, node_values: Optional[dict]) -> Optional[dict]:
        base = 1.0 if plan.is_start else 0.0
        targets = plan.targets
        pred_maps = plan.pred_maps
        spec_index = plan.spec.index
        store_values = plan.spec.store_values
        entries = 0
        if len(targets) == 1 and len(pred_maps) == 2 and not store_values:
            # The dominant shape (prefix type + Kleene self-loop, fully
            # shared): unrolled.
            total_map = plan.total_map
            first_map, second_map = pred_maps
            first_get, second_get, total_get = first_map.get, second_map.get, total_map.get
            for index in armed:
                value = base
                previous = first_get(index)
                if previous is not None:
                    value += previous
                previous = second_get(index)
                if previous is not None:
                    value += previous
                current = total_get(index)
                if current is None:
                    total_map[index] = value
                    entries += 1
                else:
                    total_map[index] = current + value
        else:
            # One fold per sharing column (targets[0] is the canonical map);
            # a split class genuinely repeats the per-query work, which is
            # what the cost model's non-shared term charges for.
            replica_entries = 0
            canonical = plan.total_map
            for total_map in targets:
                is_canonical = total_map is canonical
                sources = plan.fold_sources(total_map)
                for index in armed:
                    value = base
                    for window_map in sources:
                        previous = window_map.get(index)
                        if previous is not None:
                            value += previous
                    current = total_map.get(index)
                    if current is None:
                        total_map[index] = value
                        if is_canonical:
                            entries += 1
                        else:
                            replica_entries += 1
                    else:
                        total_map[index] = current + value
                    if store_values and is_canonical:
                        if node_values is None:
                            node_values = {}
                        node_values[(spec_index, index)] = value
            self._replica_entries += replica_entries
        self._coeff_entries += entries
        self._ops += len(targets) * len(armed) * (1 + len(pred_maps))
        return node_values

    def _fast_vector(
        self,
        plan: _TypePlan,
        armed: dict,
        contributions: tuple[float, ...],
        node_values: Optional[dict],
    ) -> Optional[dict]:
        dimension = self.unit.dimension
        canonical = plan.total_map
        base = 1.0 if plan.is_start else 0.0
        for total_map in plan.targets:
            is_canonical = total_map is canonical
            sources = plan.fold_sources(total_map)
            if is_canonical and plan.spec.store_values:
                # The stored node keeps its own per-window value, so this
                # column needs the accumulator object the plain fold avoids.
                made = 0
                spec_index = plan.spec.index
                if node_values is None:
                    node_values = {}
                for index in armed:
                    accumulator = MutableAggregate(dimension)
                    accumulator.count = base
                    for window_map in sources:
                        previous = window_map.get(index)
                        if previous is not None:
                            accumulator.add(previous)
                    accumulator.apply_contributions(contributions)
                    node_values[(spec_index, index)] = accumulator.freeze()
                    total = total_map.get(index)
                    if total is None:
                        total_map[index] = accumulator
                        made += 1
                    else:
                        total.add(accumulator)
            else:
                made = _REFERENCE_FOLD.fold_vector_run(
                    total_map, armed, sources, base, (contributions,), dimension
                )
            if is_canonical:
                self._coeff_entries += made
            else:
                self._replica_entries += made
        self._ops += len(plan.targets) * len(armed) * (1 + len(plan.pred_maps))
        return node_values

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
