"""Single-pass streaming workload executor.

The batch :class:`~repro.runtime.executor.WorkloadExecutor` materializes the
whole stream, duplicates every event into each overlapping window partition
and replays each partition from scratch — correct, and kept as the semantics
reference, but its latency, memory and throughput are artifacts of replay.
This module is the online counterpart:

* events are consumed **in timestamp order exactly once**;
* **one window lifecycle**: each live ``(group key, execution unit)`` pair
  is a group — its open window instances plus one
  :class:`~repro.interfaces.MultiWindowEngine`, fed every relevant event
  once with the range of instances covering it and read out instance by
  instance as the stream passes their ends;
* with **shared windows** (the default) that engine is a
  :class:`~repro.runtime.shared_windows.MultiWindowLinearEngine`: the graph
  work of an event is done once for *all* overlapping window instances and
  the running aggregates carry per-window-instance coefficients; a close is
  a coefficient readout plus eviction of events no live instance covers;
* with ``shared_windows=False`` (the semantics reference), and for engines
  without a shared-window implementation (baselines, MIN/MAX units), it is
  an :class:`~repro.runtime.instance_windows.InstanceWindowEngine`: one
  pooled single-window engine per live instance — at most
  ``ceil(size/slide)`` feeds per event, engines reused across instances;
* the moment the stream passes a window's end, its result is emitted through
  a callback as a :class:`WindowResult` and the window's state is
  **evicted**, so peak memory is bounded by the *live* state instead of the
  stream length.

Lazy opening (on by default) skips provably-inert stream prefixes: a window
instance is not opened — and events covering it are not fed to any engine —
until the first event whose type can *start* a trend of one of the unit's
queries arrives inside the instance.  Events preceding every trend-start
event are provably inert: a trend is a time-ordered match beginning with a
start-type event, negation constraints only invalidate edges between stored
positive events, and leading ``NOT`` carries no constraint, so no engine's
result can depend on the skipped prefix.  The shared-window engine propagates
the same invariant per query class: a window is *armed* for a class only
once a class start-type event arrives inside it, and unarmed windows are
skipped by every per-window loop.  The randomized equivalence suite asserts
bit-identical totals across the shared, per-instance and batch evaluations.

With ``optimizer=...`` (a policy name or a
:class:`~repro.optimizer.decisions.SharingOptimizer` factory) the shared
path becomes **adaptive**: each ``(group, unit)`` stream is segmented into
bursts (maximal same-type runs), a per-group optimizer decides per burst
which members of each eligible query class share, and the engine
splits/merges its coefficient columns accordingly — results are
bit-identical to both static extremes by construction (the differential
property suite in ``tests/runtime/test_adaptive_equivalence.py`` pins it),
only the work and memory profiles change.  ``optimizer=None`` (default)
skips the burst machinery entirely.

With ``allowed_lateness=N`` a :class:`~repro.runtime.lateness.Lateness`
stage fronts the ingest paths and this class is the *core* behind it: the
stage buffers, reorders, applies the late policy and owns all of that
state; the core only ever sees an in-order stream, so a stream shuffled
within the horizon is bit-identical to its ordered run.
``allowed_lateness=None`` (default) keeps the strict in-order contract
with zero overhead.

The executor is incremental: ``process(event)`` / ``finish()`` drive it from
a live source, ``run(stream)`` wraps them for replay-style use.
"""

from __future__ import annotations

import pickle
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping, Optional, Sequence, overload

from repro.core.engine import HamletEngine
from repro.errors import CheckpointError
from repro.events.block import EventBlock
from repro.events.event import Event, EventType
from repro.events.stream import EventStream, slice_stream
from repro.greta.engine import GretaEngine
from repro.interfaces import MultiWindowEngine
from repro.optimizer.decisions import OptimizerStatistics, SharingOptimizer
from repro.optimizer.registry import OptimizerSpec
from repro.query.query import Query
from repro.query.workload import Workload
from repro.runtime.executor import (
    EngineFactory,
    ExecutionReport,
    PartitionResult,
    execution_units,
    recombine_decompositions,
    resolve_engine_label,
    unit_is_linear,
    unit_relevant_types,
)
from repro.runtime.instance_windows import EnginePool, InstanceWindowEngine
from repro.runtime.lateness import Lateness
from repro.runtime.partitioner import PartitionSpec, group_sort_key
from repro.runtime.reorder import (
    ensure_block_in_order,
    ensure_in_order,
    validate_stream_options,
)
from repro.runtime.results import ResultLayout, window_totals
from repro.runtime.shared_windows import (
    MultiWindowLinearEngine,
    UnitCompilation,
    shared_window_flavor_of,
)
from repro.template.analysis import analyze_workload
from repro.template.template import compile_pattern

#: Version of the :meth:`StreamingExecutor.snapshot_state` payload schema.
#: Bumped whenever the pickled state shape changes incompatibly; restores
#: reject snapshots from other versions instead of resuming corrupt state.
#: v12: engines pickle no kernel backend and the fingerprint has no
#: ``"kernel"`` / ``"burst_size"`` keys.  (What v2-v11 changed: CHANGES.md.)
SNAPSHOT_VERSION = 12

#: The core's per-run scalars (set by ``_begin_run``), pickled by name.
_CORE_FIELDS = (
    "_clock",
    "_consumed",
    "_engine_feeds",
    "_active_windows",
    "_windows_closed",
    "_next_close",
    "_adaptive_stats",
)


@dataclass(frozen=True)
class WindowResult:
    """One closed window instance, emitted the moment the stream passes it
    (engine seconds: see ``PartitionResult.seconds`` of the same key)."""

    group_key: tuple
    #: Integer window-instance index (instance spans ``[k*slide, k*slide+size)``).
    window_index: int
    window_start: float
    window_end: float
    #: Final aggregate per query of the instance's execution unit: the
    #: report's own read-only row (:class:`~repro.runtime.results.WindowValues`);
    #: ``dict(result.results)`` is a mutable copy.
    results: Mapping[str, float]
    #: Relevant group events that arrived between the instance's opening
    #: and its close.
    events: int
    #: Wall-clock seconds from the arrival of the instance's last contributing
    #: event to the emission of this result.
    emission_latency: float
    #: ``late_policy="retract"`` only: True when this emission *replaces* a
    #: previously emitted result of the same ``(group_key, window_index)``
    #: whose value changed after a late event was folded in.
    retraction: bool = False


@dataclass(slots=True)
class _WindowMeta:
    """Bookkeeping of one open window instance of a group."""

    index: int
    end: float
    #: ``group.fed`` when the window opened (events before it are not ours).
    opened_fed: int
    #: ``group.share_seconds`` when the window opened.
    share_at_open: float


@dataclass(slots=True)
class _Group:
    """One live ``(group key, execution unit)`` pair: its open window
    instances and the engine that evaluates all of them."""

    #: :class:`MultiWindowLinearEngine` (compiled units: the only kind with
    #: bursts or an optimizer), else :class:`InstanceWindowEngine`.
    engine: MultiWindowEngine
    #: True when the engine keeps a node store that needs eviction sweeps.
    evicts: bool
    #: Open window instances in ascending index order (windows open and
    #: close monotonically for an in-order stream).
    metas: dict[int, _WindowMeta] = field(default_factory=dict)
    #: Relevant events fed to the engine so far.
    fed: int = 0
    #: ``time.perf_counter()`` at the arrival of the last fed event.
    last_arrival: float = 0.0
    #: Engine seconds split evenly across the windows open at feed time —
    #: summing per-window attributions recovers the engine wall time once,
    #: instead of multiplying it by the overlap factor.
    share_seconds: float = 0.0
    #: Engine operations already attributed to closed windows.
    ops_reported: int = 0
    #: Adaptive mode only: the group's per-burst sharing optimizer.  Bursts
    #: are segmented per ``(group, unit)`` stream, so decision continuity
    #: (merge/split counting, static plans) is per group — which also keeps
    #: decision counts invariant under sharding, where each group lives
    #: wholly inside one shard.
    optimizer: Optional[SharingOptimizer] = None
    #: The same-type run being buffered for one engine feed, as column rows
    #: ``(time, sequence, lo, hi, contribution row, event)``: the event's
    #: order key, its covering window-instance range, its measure
    #: contributions (``None`` in scalar units) and — for the per-event
    #: replay of a run the engine declines — the :class:`Event` itself,
    #: ``None`` for block rows of a type whose runs are never declined
    #: (``UnitCompilation.columnar_types``).  Adaptive mode keeps it across
    #: ``process``/``process_block`` calls (flushed on the burst schedule:
    #: type change, window close, finish); the static path only within one
    #: block, and not at all for units it folds a segment at a time.  ``burst_type`` is meaningful while ``burst``
    #: is non-empty.
    burst_type: Optional[EventType] = None
    burst: list = field(default_factory=list)


@dataclass(slots=True)
class _BlockUnitColumns:
    """Per-unit columns prepared once per ingested block (block fast path)."""

    #: ``spec.group_key(event)`` per block row (the block's cached column).
    group_keys: Sequence[tuple]
    #: First / last covering window-instance index per block row.
    lows: Sequence[int]
    highs: Sequence[int]
    #: Lazy-open qualification per *type code* of the block's type table.
    qualifies: Sequence[bool]
    #: ``compiled.contributions(event)`` per block row (``None`` per row in
    #: scalar units).
    contributions: Sequence[Optional[tuple[float, ...]]]
    #: ``group key -> highest armed window index`` since the last close sweep.
    #: Between sweeps no window closes, so once a row armed ``lo..hi`` every
    #: later row of the group (``lo`` is non-decreasing) only needs to check
    #: indices above the cached high — the per-event path re-probes the full
    #: covering range on every event.  Cleared whenever a sweep runs.
    armed: dict = field(default_factory=dict)
    #: Segment folding only (``None`` otherwise): ``group key -> block rows
    #: fed since the last close sweep`` — a group's whole segment goes to
    #: its engine in one call.  Emptied by every segment flush.
    rows: Optional[dict] = None


@dataclass(eq=False)
class _Unit:
    """One execution unit: queries sharing a partition set, plus its state.

    ``eq=False`` keeps the default identity equality/hash: units are
    singletons owned by their executor, and the block fast path keys
    per-block state by unit.
    """

    queries: tuple[Query, ...]
    spec: PartitionSpec
    relevant_types: frozenset[EventType]
    #: Types that can start a trend of at least one unit query (lazy-open gate).
    opening_types: frozenset[EventType]
    linear: bool
    #: Idle single-window engines (taken by uncompiled units only).
    pool: EnginePool
    #: The unit's query names in readout order, shared by its rows.
    layout: ResultLayout
    #: Shared-window compilation; ``None``: one pooled engine per instance.
    compiled: Optional[UnitCompilation] = None
    #: One engine + window bookkeeping per live group key.
    groups: dict[tuple, _Group] = field(default_factory=dict)
    #: Earliest end among open instances (``inf`` when none are open).
    next_close: float = float("inf")


class StreamingExecutor:
    """Single-pass, bounded-memory evaluation of a trend aggregation workload."""

    def __init__(
        self,
        workload: Workload | Sequence[Query],
        engine_factory: EngineFactory = HamletEngine,
        *,
        on_window: Optional[Callable[[WindowResult], None]] = None,
        lazy_open: bool = True,
        shared_windows: bool = True,
        optimizer: OptimizerSpec = None,
        allowed_lateness: Optional[float] = None,
        late_policy: str = "raise",
        on_late: Optional[Callable[[Event], None]] = None,
    ) -> None:
        """Create a streaming executor.

        Args:
            workload: The queries to evaluate.
            engine_factory: Zero-argument callable returning the engine used
                for linear-aggregate query units (default: HAMLET).  MIN/MAX
                units run on GRETA, as in the batch executor.
            on_window: Callback invoked with every :class:`WindowResult` the
                moment its window closes, in emission order.
            lazy_open: Open a window instance only when a trend-start-type
                event arrives inside it (skips provably inert prefixes).
                Disable to mirror the batch executor's instance set exactly.
            shared_windows: Evaluate all overlapping window instances of a
                ``(group, unit)`` pair with one shared multi-window engine
                (events processed once, per-window coefficients, see
                :mod:`repro.runtime.shared_windows`).  Disable to evaluate
                one engine per window instance — the semantics reference.
                Engines without a shared-window implementation (baselines,
                MIN/MAX units, ``fast_predecessor_totals=False``) are
                evaluated per instance regardless.
            optimizer: Per-burst sharing policy for the shared-window path:
                ``None`` (the default) keeps the static compile-time plan
                with zero burst overhead; a policy name (``"dynamic"``,
                ``"always"``, ``"never"``, ``"static"``) or a zero-argument
                :class:`~repro.optimizer.decisions.SharingOptimizer` factory
                turns on adaptive mode — each ``(group, unit)`` stream is
                segmented into bursts (maximal same-type runs), the policy
                decides per burst which class members share, and the engine
                splits/merges its coefficient columns accordingly.  Results
                are bit-identical whatever the policy; only the work and
                memory profiles change.  Per-instance units are
                unaffected (their engines keep their own optimizers).
            allowed_lateness: ``None`` (default) keeps the strict in-order
                arrival contract.  A number turns on the lateness stage:
                events within ``allowed_lateness`` of the maximum event
                time seen are buffered and fed to the core in ``(time,
                sequence)`` order, so streams shuffled within the horizon
                reproduce their ordered run bit-identically.
            late_policy: What happens to an event *older* than the
                watermark (``max event time - allowed_lateness``), each
                counted in ``metrics.late_*``: ``"raise"`` (default) raises
                :class:`~repro.errors.OutOfOrderError`; ``"drop"`` discards
                it; ``"side_output"`` hands it to ``on_late``; ``"retract"``
                folds it in by restoring a periodic core snapshot and
                replaying the bounded tail, re-emitting any closed window
                whose result changed with ``WindowResult.retraction=True``.
            on_late: The ``"side_output"`` policy's callback, invoked with
                each late :class:`~repro.events.event.Event` in arrival
                order.
        """
        self.workload = workload if isinstance(workload, Workload) else Workload(workload)
        self.workload.validate()
        self.engine_factory = engine_factory
        self.on_window = on_window
        self.lazy_open = lazy_open
        self.shared_windows = shared_windows
        self._optimizer_factory = validate_stream_options(
            optimizer, allowed_lateness, late_policy, on_late
        )
        #: Adaptive mode buffers maximal same-type runs per shared group for
        #: its per-burst decisions; the static plan feeds per event.
        self._burst_buffering = self._optimizer_factory is not None
        #: The static plan folds a columnar unit's rows one ``(group,
        #: close-sweep segment)`` at a time.
        self._segment_folding = not self._burst_buffering
        self.allowed_lateness = allowed_lateness
        self.late_policy = late_policy
        self.on_late = on_late
        self.analysis = analyze_workload(self.workload)
        self._engine_label, prebuilt = resolve_engine_label(engine_factory)
        flavor: Optional[str] = None
        if shared_windows:
            flavor, prebuilt = shared_window_flavor_of(engine_factory, prebuilt)
        self._units: list[_Unit] = []
        for group in self.analysis.groups:
            for queries in execution_units(group.queries):
                self._units.append(self._build_unit(queries, flavor))
        self._units_by_type: dict[EventType, tuple[_Unit, ...]] = {}
        for unit in self._units:
            for event_type in unit.relevant_types:
                self._units_by_type.setdefault(event_type, []).append(unit)  # type: ignore[arg-type]
        self._units_by_type = {
            event_type: tuple(units) for event_type, units in self._units_by_type.items()
        }
        pools = [unit.pool for unit in self._units if unit.linear and unit.compiled is None]
        if prebuilt is not None and pools:
            # The engine built to probe an opaque factory is the first pooled one.
            pools[0].idle.append(prebuilt)
            pools[0].created = 1
        self._begin_run()

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def run(
        self,
        stream: EventStream | EventBlock | Iterable[Event],
        *,
        start: Optional[float] = None,
        end: Optional[float] = None,
    ) -> ExecutionReport:
        """Consume ``stream`` in one pass and return the final report.

        ``stream`` may be an :class:`~repro.events.block.EventBlock`, which
        is ingested columnar (:meth:`process_block`) without materializing
        per-event objects on the hot path.

        ``start`` / ``end`` replay only the half-open time slice
        ``[start, end)`` of a recorded :class:`EventStream` (or block); the
        slice is cut with the cached timestamp column (binary search, no
        scan — blocks slice zero-copy).
        """
        self._begin_run()
        if isinstance(stream, EventBlock):
            self.process_block(stream.slice_time(start, end))
            return self.finish()
        stream = slice_stream(stream, start, end)
        for event in stream:
            self.process(event)
        return self.finish()

    def process(self, event: Event) -> None:
        """Ingest one event, feeding engines and emitting closed windows.

        With ``allowed_lateness`` set it goes to the lateness stage, which
        feeds the core whatever the advancing watermark releases.
        """
        lateness = self._lateness
        if lateness is None:
            ensure_in_order(event.time, self._clock)
            self._ingest_event(event)
        else:
            lateness.offer(self, event)

    def _ingest_event(self, event: Event) -> None:
        """Feed one in-order event to the core (past the lateness stage)."""
        self._clock = event.time
        self._consumed += 1
        if event.time >= self._next_close:
            self._close_passed_windows(event.time)
        units = self._units_by_type.get(event.event_type)
        if not units:
            return
        arrival = time.perf_counter()
        for unit in units:
            self._feed(unit, event, arrival)

    def process_block(self, block: EventBlock) -> None:
        """Ingest a whole columnar block of events.

        Semantically identical to calling :meth:`process` for every row in
        order — same results, same abstract operation counts, same emission
        order, same sharing decisions (the block differential suites pin
        this) — but on shared-window units no per-row :class:`Event` object
        is built on the way to the fold: covering window ranges come from
        one vectorized pass over the time column
        (:meth:`~repro.query.windows.Window.instance_range_columns`), group
        keys and measure contributions read the block's cached payload
        columns, and the engine folds the rows from columns
        (:meth:`MultiWindowLinearEngine.process_block_run`).

        The static plan hands a unit whose every type is columnar over one
        ``(group, close-sweep segment)`` at a time: between two sweeps no
        window closes, so nothing forces a cut, and the group's mixed-type
        rows go to the engine in one call.  Any other unit buffers maximal
        same-``(group, type)`` runs as column rows for the engine's run
        fold; the static plan folds every pending run by the end of the
        block, while an adaptive optimizer keeps a group's pending run
        across the block boundary and flushes it on the burst schedule
        alone — type change, window close, finish — so bursts, and with
        them the per-burst decisions, are those of the per-event run
        whatever the block cuts.  Row views are materialized only for runs
        the engine declines (negation, local or edge predicates) and for
        units evaluated per instance, whose engines take an :class:`Event`.

        With ``allowed_lateness`` set the block — in any row order — goes
        through the lateness stage as columns and comes back as blocks.
        """
        if self._lateness is not None:
            self._lateness.offer_block(self, block)
            return
        if len(block):
            ensure_block_in_order(block.times, block.start, block.stop, self._clock)
        self._ingest_block(block)

    def _ingest_block(self, block: EventBlock) -> None:
        """Feed one in-order block to the core (past the lateness stage)."""
        count = len(block)
        if count == 0:
            return
        times = block.times
        base = block.start
        stop = block.stop
        if base == 0 and stop == len(times):
            times_col: Sequence[float] = times
            codes_col: Sequence[int] = block.type_codes
            seqs_col: Sequence[int] = block.sequences
        else:
            times_col = times[base:stop]
            codes_col = block.type_codes[base:stop]
            seqs_col = block.sequences[base:stop]
        #: ``(window size, slide) -> (lows, highs)`` — units sharing a window
        #: shape share one covering-range pass over the time column.
        range_cache: dict[tuple[float, float], tuple[list[int], list[int]]] = {}
        #: Compiled-unit states in first-touch order.
        prepared: dict[_Unit, _BlockUnitColumns] = {}
        #: Per type code: the ``_block_code_feeds`` tuples, resolved lazily
        #: on the code's first row.
        feeds_by_code: list[Optional[list]] = [None] * len(block.type_table)
        #: Static path: groups whose run buffer took rows of this block
        #: (repeats allowed).  Buffered bursts flush on their own schedule.
        touched: list[_Group] = []
        #: ``None`` per row: the contribution column of scalar units and the
        #: event column of types whose runs are always folded from columns.
        nones: list[None] = [None] * count
        buffering = self._burst_buffering
        arrival = time.perf_counter()
        clock = self._clock
        consumed = self._consumed
        engine_feeds = 0
        next_close = self._next_close
        columns = (block.type_table, times_col, codes_col, seqs_col)
        for local, event_time, code, sequence in zip(
            range(count), times_col, codes_col, seqs_col
        ):
            clock = event_time
            consumed += 1
            if event_time >= next_close:
                if not buffering:
                    # What the static path holds back precedes the boundary:
                    # fold it before any window it may contribute to is read
                    # out.  (Buffered bursts stay; the sweep flushes those of
                    # closing groups.)
                    self._flush_static(touched, prepared, *columns)
                for state in prepared.values():
                    state.armed.clear()
                self._clock = clock
                self._consumed = consumed
                self._engine_feeds += engine_feeds
                engine_feeds = 0
                self._close_passed_windows(event_time)
                next_close = self._next_close
            feeds = feeds_by_code[code]
            if feeds is None:
                feeds = feeds_by_code[code] = self._block_code_feeds(
                    block, code, codes_col, nones, prepared, range_cache
                )
            if not feeds:
                continue
            event: Optional[Event] = None
            for unit, state, qualifies, event_type, contributions, events in feeds:
                if state is None:
                    # Single-window engines take Events: the scalar feed.
                    if event is None:
                        event = block.event_at(local)
                    self._feed(unit, event, arrival)
                    next_close = self._next_close  # a window may have opened
                    continue
                group_key = state.group_keys[local]
                group = unit.groups.get(group_key)
                if group is None:
                    if not qualifies:
                        continue
                    group = self._open_group(unit, group_key)
                lo = state.lows[local]
                hi = state.highs[local]
                if hi < lo:
                    continue
                if qualifies:
                    cached = state.armed.get(group_key)
                    if cached is None or hi > cached:
                        # Indices up to ``cached`` were armed earlier in this
                        # sweep segment and cannot have closed since.
                        self._open_windows(
                            unit, group, lo if cached is None else max(lo, cached + 1), hi
                        )
                        next_close = self._next_close
                        state.armed[group_key] = hi
                if not group.metas:
                    continue
                pending = state.rows
                if pending is not None:
                    rows = pending.get(group_key)
                    if rows is None:
                        pending[group_key] = [local]
                    else:
                        rows.append(local)
                else:
                    burst = group.burst
                    if burst and group.burst_type != event_type:
                        self._flush_group(group)
                        burst = group.burst
                    if not burst:
                        group.burst_type = event_type
                        if not buffering:
                            touched.append(group)
                    burst.append(
                        (event_time, sequence, lo, hi, contributions[local], events[local])
                    )
                group.fed += 1
                # One stamp covers the whole block: every feed of this
                # group during the block happens at the same arrival.
                group.last_arrival = arrival
                engine_feeds += 1
        if not buffering:
            self._flush_static(touched, prepared, *columns)
        self._clock = clock
        self._consumed = consumed
        self._engine_feeds += engine_feeds

    # ------------------------------------------------------------------ #
    # The core's two neighbours: the lateness stage in front, the output behind
    # ------------------------------------------------------------------ #
    @property
    def lateness(self) -> Optional[Lateness]:
        """The stage in front of this run's core (``None``: strict order);
        its ``buffer`` holds the watermark, its attributes the late counts."""
        return self._lateness

    def _core_state(self) -> bytes:
        """The core's own pickle: a detached copy of its *live* ingest state
        — all it owns except the output rows, which ``windows_closed`` marks."""
        core = {name: getattr(self, name) for name in _CORE_FIELDS}
        core["units"] = [(unit.groups, unit.pool, unit.next_close) for unit in self._units]
        core["metrics"] = self._report.metrics
        return pickle.dumps(core, protocol=pickle.HIGHEST_PROTOCOL)

    def _restore_core(self, payload: bytes, output: Optional[list] = None) -> int:
        """Reattach a :meth:`_core_state` copy and the ``output`` rows —
        ``None``: this run's own, a retraction's rollback in place — cut
        back to the copy's mark, which is returned.  Never touches the
        lateness stage: it lives upstream and survives the rollback."""
        core = pickle.loads(payload)
        if output is None:
            output = self._report.partition_results
        arrival = time.perf_counter()
        for unit, (groups, pool, next_close) in zip(self._units, core["units"]):
            # Factories are never pickled; the restored groups share this pool.
            pool.build = unit.pool.build
            unit.groups = groups
            unit.pool = pool
            unit.next_close = next_close
            # Arrival stamps came from another perf_counter epoch (a dead
            # process, or this run's pre-rollback past); re-anchor them so
            # emission latencies stay non-negative.
            for group in groups.values():
                group.last_arrival = arrival
        for name in _CORE_FIELDS:
            setattr(self, name, core[name])
        self._report.metrics = core["metrics"]
        mark = self._windows_closed
        if len(output) < mark:
            raise CheckpointError(
                f"snapshot marks {mark} emitted windows, got only {len(output)}"
            )
        del output[mark:]
        self._report.partition_results = output
        return mark

    def finish(self) -> ExecutionReport:
        """Close every remaining window and return the report."""
        lateness = self._lateness
        if lateness is not None:
            lateness.flush(self)
        # Everything still open has passed its end now.
        self._close_passed_windows(float("inf"))
        report = self._report
        report.metrics.stream_events = self._consumed
        report.metrics.wall_seconds = time.perf_counter() - self._run_started
        if lateness is not None:
            # The stage's counters (no rollback reaches them) land here.
            report.metrics.late_dropped = lateness.late_dropped
            report.metrics.late_side_output = lateness.late_side_output
            report.metrics.late_retracted = lateness.late_retracted
        report.totals = window_totals(report.partition_results)
        if self._consumed:
            for unit in self._units:
                for name in unit.layout.names:
                    report.totals.setdefault(name, 0.0)
        recombine_decompositions(self.analysis.decompositions, report)
        self._attach_optimizer_statistics(report)
        return report

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def active_window_count(self) -> int:
        """Number of currently open ``(group, window instance)`` states."""
        return self._active_windows

    @property
    def engines_created(self) -> int:
        """Per-instance engines built so far (shared-window engines are one
        per live ``(group, unit)`` pair and are not pooled)."""
        return sum(unit.pool.created for unit in self._units)

    @property
    def shared_group_count(self) -> int:
        """Live shared multi-window engines (one per ``(group, unit)`` pair)."""
        return sum(
            len(unit.groups) for unit in self._units if unit.compiled is not None
        )

    @property
    def engine_feeds(self) -> int:
        """Engine ``process`` calls so far: 1 per (event, unit, group) on the
        shared path versus up to ``ceil(size/slide)`` per event per unit on
        the per-instance path."""
        return self._engine_feeds

    @property
    def peak_active_windows(self) -> int:
        """Peak number of simultaneously open window instances this run."""
        return self._report.metrics.peak_active_windows

    @property
    def windows_closed(self) -> int:
        """Window instances closed (emitted) so far this run."""
        return self._windows_closed

    # ------------------------------------------------------------------ #
    # Checkpointing
    # ------------------------------------------------------------------ #
    def _snapshot_fingerprint(self) -> dict:
        # Everything the snapshot's meaning depends on: restoring into an
        # executor with a different workload or sharing configuration
        # would silently resume the wrong computation.
        return {
            "queries": tuple(query.name for query in self.workload.queries),
            "engine": self._engine_label,
            "lazy_open": self.lazy_open,
            "shared_windows": self.shared_windows,
            "adaptive": self._optimizer_factory is not None,
            "allowed_lateness": self.allowed_lateness,
            "late_policy": self.late_policy,
        }

    @overload
    def snapshot_state(self) -> bytes: ...

    @overload
    def snapshot_state(self, since: int) -> tuple[bytes, bytes]: ...

    def snapshot_state(self, since: Optional[int] = None) -> bytes | tuple[bytes, bytes]:
        """Serialize the full mid-stream execution state.

        Everything :meth:`restore_state` needs to continue the run
        bit-identically on a fresh executor built from the same workload
        and configuration, as ``{version, fingerprint, core, lateness}``.
        ``core`` is the core's own pickle: per-unit groups (engine state,
        window bookkeeping, optimizer statistics and the *unflushed* burst
        buffer: flushing here would force a burst decision the
        uninterrupted run takes later), the units' idle engine pools
        (engines only, never the factory), the run's metrics and the
        stream/close clocks.  ``lateness`` is the stage itself (``None`` in
        strict order), so a restore resumes mid-horizon disorder handling too.

        The output — ``report.partition_results``, one row per closed
        window — rides under ``"output"`` in this self-contained form.
        With ``since`` — ``windows_closed`` at the caller's previous
        snapshot — the result is ``(payload, delta)`` instead: live state
        alone, and ``(start, rows)`` with the output rows from ``since`` on
        (further back when a retraction rewrote rows an earlier delta
        carried), so a snapshot costs the open windows, not the stream's
        history.  The on-disk container (:mod:`repro.runtime.checkpoint`)
        adds the versioned, checksummed header.
        """
        lateness, rows = self._lateness, self._report.partition_results
        state = {
            "version": SNAPSHOT_VERSION,
            "fingerprint": self._snapshot_fingerprint(),
            "core": self._core_state(),
            "lateness": lateness,
        }
        protocol = pickle.HIGHEST_PROTOCOL
        if since is None:
            return pickle.dumps({**state, "output": rows}, protocol=protocol)
        # Before the stage is pickled: the mark it resets is not state.
        start = since if lateness is None else lateness.delta_start(since)
        delta = (start, rows[start:])
        return pickle.dumps(state, protocol=protocol), pickle.dumps(delta, protocol=protocol)

    def restore_state(self, payload: bytes, output: Sequence[bytes] = ()) -> None:
        """Resume from a :meth:`snapshot_state` payload — and, for an
        incremental one, the ``output`` deltas of every snapshot up to it.

        The executor must have been constructed from the same workload and
        configuration as the snapshotting one; mismatches raise
        :class:`~repro.errors.CheckpointError` instead of resuming the
        wrong computation.  After the restore, :meth:`process` continues
        exactly where the snapshot left off — same partition results, same
        totals, same optimizer decisions.
        """
        try:
            state = pickle.loads(payload)
            deltas = [pickle.loads(delta) for delta in output]
        except Exception as error:
            raise CheckpointError(f"undecodable snapshot payload: {error!r}") from error
        if not isinstance(state, dict) or state.get("version") != SNAPSHOT_VERSION:
            raise CheckpointError(
                f"snapshot schema version {state.get('version') if isinstance(state, dict) else '?'} "
                f"does not match this executor's {SNAPSHOT_VERSION}"
            )
        fingerprint = self._snapshot_fingerprint()
        if state["fingerprint"] != fingerprint:
            raise CheckpointError(
                "snapshot was taken for a different workload/configuration: "
                f"snapshot {state['fingerprint']!r} vs executor {fingerprint!r}"
            )
        self._begin_run()
        restored: list = state.get("output") or []
        for start, rows in deltas:
            if start > len(restored):
                raise CheckpointError(
                    f"output delta starts at row {start}, only {len(restored)} came before it"
                )
            restored[start:] = rows
        self._restore_core(state["core"], restored)
        self._lateness = lateness = state["lateness"]
        if lateness is not None:
            lateness.on_late = self.on_late

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _build_unit(self, queries: tuple[Query, ...], flavor: Optional[str]) -> _Unit:
        first = queries[0]
        linear = unit_is_linear(queries)
        relevant = frozenset(unit_relevant_types(queries))
        if linear:
            opening: set[EventType] = set()
            for query in queries:
                opening |= set(compile_pattern(query.pattern).start_types)
        else:
            # The inert-prefix argument relies on linearity (zero starts ==
            # zero aggregate); GRETA's extremum propagation can yield values
            # from start-less predecessor chains, so MIN/MAX instances open
            # on any relevant event to stay batch-identical.
            opening = set(relevant)
        compiled: Optional[UnitCompilation] = None
        if flavor is not None and linear:
            compiled = UnitCompilation(queries, share_classes=flavor == "classes")
        return _Unit(
            queries=queries,
            spec=PartitionSpec(group_by=first.group_by, window=first.window),
            relevant_types=relevant,
            opening_types=frozenset(opening),
            linear=linear,
            pool=EnginePool(self.engine_factory if linear else GretaEngine),
            layout=compiled.layout if compiled else ResultLayout(q.name for q in queries),
            compiled=compiled,
        )

    def _begin_run(self) -> None:
        for unit in self._units:
            for group in unit.groups.values():
                # Interrupted run: a readout returns per-instance engines.
                for index in group.metas:
                    group.engine.close_window(index)
            unit.groups.clear()
            unit.next_close = float("inf")
            # The report's optimizer statistics are per run: pooled engines
            # survive across run() calls (keeping their compiled templates),
            # so their optimizers' counters must restart with the run.
            for engine in unit.pool.idle:
                optimizer = getattr(engine, "optimizer", None)
                if optimizer is not None:
                    optimizer.statistics = OptimizerStatistics()
        self._report = ExecutionReport(engine_name=self._engine_label)
        self._run_started = time.perf_counter()
        self._clock = float("-inf")
        self._consumed = 0
        self._engine_feeds = 0
        #: Adaptive mode: decision statistics of evicted groups, folded in
        #: eviction order (deterministic for a given stream).
        self._adaptive_stats: Optional[OptimizerStatistics] = (
            OptimizerStatistics() if self._optimizer_factory is not None else None
        )
        #: Open window instances, over all groups of all units.
        self._active_windows = 0
        self._next_close = float("inf")
        #: Window instances closed this run — the checkpoint
        #: scheduler's "every N window boundaries" trigger reads this.
        self._windows_closed = 0
        #: The stage in front of the core, built last: under the retract
        #: policy it starts by snapshotting the (now reset) core.
        self._lateness: Optional[Lateness] = (
            Lateness(self, self.allowed_lateness, self.late_policy, self.on_late)
            if self.allowed_lateness is not None
            else None
        )

    # ------------------------------------------------------------------ #
    # Window lifecycle: open, feed, close/emit
    # ------------------------------------------------------------------ #
    def _feed(self, unit: _Unit, event: Event, arrival: float) -> None:
        window = unit.spec.window
        group_key = unit.spec.group_key(event)
        group = unit.groups.get(group_key)
        qualifies = not self.lazy_open or event.event_type in unit.opening_types
        if group is None:
            if not qualifies:
                # The group has never seen an opening event: every window
                # covering this event is unopened, so the event is provably
                # inert — don't even build the group's engine.
                return
            group = self._open_group(unit, group_key)
        indices = window.instance_indices_covering(event.time)
        lo, hi = indices.start, indices.stop - 1
        if hi < lo:
            return
        if qualifies:
            self._open_windows(unit, group, lo, hi)
        metas = group.metas
        if not metas:
            # No window of this group is open: the event precedes every
            # trend-start event of every instance covering it and is
            # provably inert (see the module docstring); it is skipped
            # without touching the engine.
            return
        compiled = unit.compiled
        if compiled is not None and self._burst_buffering:
            # Buffer the burst; decisions (adaptive mode) and engine feeds
            # happen at flush (type change, window close, or finish).
            if group.burst and group.burst_type != event.event_type:
                self._flush_group(group)
            group.burst_type = event.event_type
            group.burst.append(
                (
                    event.time,
                    event.sequence,
                    lo,
                    hi,
                    None if compiled.scalar else compiled.contributions(event),
                    event,
                )
            )
            group.fed += 1
            group.last_arrival = arrival
            self._engine_feeds += 1
            return
        started = time.perf_counter()
        group.engine.process(event, lo, hi)
        duration = time.perf_counter() - started
        group.fed += 1
        group.last_arrival = arrival
        group.share_seconds += duration / len(metas)
        # Per-instance: one feed per live instance (each covers the event).
        self._engine_feeds += 1 if compiled is not None else len(metas)

    def _open_group(self, unit: _Unit, group_key: tuple) -> _Group:
        """Build the engine of a ``(group, unit)`` pair seen anew."""
        if unit.compiled is None:
            opening = unit.opening_types if self.lazy_open else None
            adapter = InstanceWindowEngine(unit.queries, unit.pool, opening, unit.layout)
            group = _Group(engine=adapter, evicts=False)
        else:
            engine = MultiWindowLinearEngine(unit.compiled)
            group = _Group(engine=engine, evicts=engine.store is not None)
            if self._optimizer_factory is not None:
                group.optimizer = self._optimizer_factory()
        unit.groups[group_key] = group
        return group

    def _open_windows(self, unit: _Unit, group: _Group, first: int, last: int) -> None:
        """Open the window instances ``first..last`` of ``group`` not open yet."""
        metas = group.metas
        window = unit.spec.window
        opened = False
        for index in range(first, last + 1):
            if index not in metas:
                end = window.instance_bounds(index)[1]
                metas[index] = _WindowMeta(index, end, group.fed, group.share_seconds)
                opened = True
                self._active_windows += 1
                if end < unit.next_close:
                    unit.next_close = end
                    if end < self._next_close:
                        self._next_close = end
        if opened:
            self._report.metrics.note_active_windows(self.active_window_count())

    def _flush_static(
        self,
        touched: list[_Group],
        prepared: dict[_Unit, _BlockUnitColumns],
        type_table: Sequence[EventType],
        times: Sequence[float],
        codes: Sequence[int],
        sequences: Sequence[int],
    ) -> None:
        """Fold what the static block path holds back: the ``touched``
        groups' pending runs, and what each group of a segment-folded unit
        took since the last close sweep — one engine call per ``(group,
        segment)`` on columns gathered once, no per-row tuple in between."""
        for group in touched:
            if group.burst:
                self._flush_group(group)
        touched.clear()
        for unit, state in prepared.items():
            if not state.rows:
                continue
            lows, highs, contributions = state.lows, state.highs, state.contributions
            for group_key, rows in state.rows.items():
                group = unit.groups[group_key]
                engine = group.engine
                assert isinstance(engine, MultiWindowLinearEngine)  # rows: compiled units only
                vector = not engine.unit.scalar
                started = time.perf_counter()
                engine.process_block_run(
                    [type_table[codes[row]] for row in rows],
                    [times[row] for row in rows],
                    [sequences[row] for row in rows],
                    [lows[row] for row in rows],
                    [highs[row] for row in rows],
                    [contributions[row] for row in rows] if vector else None,
                )
                group.share_seconds += (time.perf_counter() - started) / len(group.metas)
            state.rows.clear()

    def _flush_group(self, group: _Group) -> None:
        """Decide (adaptive mode) and fold the group's buffered run.

        One consultation of the group's optimizer per eligible query class
        (classes with at least two computationally identical members whose
        template is positive for the burst type), mirroring the batch
        engine's per-burst decision; the engine's coefficient columns are
        split or merged before the buffered rows are folded.  The fold is
        one run-level engine feed from the buffered columns; a run the
        engine declines (store writes, local predicates, the scan slow
        path) is replayed through its per-event entry point — the only
        place a buffered block row becomes an :class:`Event`.
        """
        burst = group.burst
        if not burst:
            return
        event_type = group.burst_type
        group.burst = []
        engine = group.engine
        assert isinstance(engine, MultiWindowLinearEngine) and event_type is not None
        compiled = engine.unit
        started = time.perf_counter()
        optimizer = group.optimizer
        if optimizer is not None and event_type in compiled.positive_classes_by_type:
            engine.note_positive_burst(event_type)
            eligible = compiled.adaptive_classes_by_type.get(event_type)
            if eligible:
                size = len(burst)
                # ``n`` of the cost model: events currently relevant to the
                # oldest live window of this group (deterministic counts —
                # identical across re-runs and shard layouts).  Windows open
                # in index order, so the first meta is the oldest.
                events_in_window = group.fed - next(iter(group.metas.values())).opened_fed
                for spec in eligible:
                    decision = optimizer.decide(
                        engine.burst_statistics(spec, event_type, size, events_in_window)
                    )
                    shared = decision.shared_queries if decision.share else frozenset()
                    engine.apply_burst_decision(spec, event_type, shared, size)
        if not engine.process_burst(burst, event_type):
            for _, _, lo, hi, _, event in burst:
                engine.process(event, lo, hi)
        duration = time.perf_counter() - started
        group.share_seconds += duration / max(1, len(group.metas))

    def _block_code_feeds(
        self,
        block: EventBlock,
        code: int,
        codes: Sequence[int],
        nones: Sequence[None],
        prepared: dict[_Unit, _BlockUnitColumns],
        range_cache: dict[tuple[float, float], tuple[list[int], list[int]]],
    ) -> list[tuple]:
        """Resolve who one type code's rows feed, and with which columns.

        One ``(unit, state, qualifies, event type, contributions, events)``
        tuple per unit the type is relevant to, built lazily on the code's
        first row.  Shared-unit states are built once per unit (covering
        ranges shared between units with the same window shape); a ``None``
        state marks a per-instance fallback unit.  ``events`` is the
        per-row :class:`Event` column of the buffered rows: ``nones`` where
        the engine folds every run of the type from columns, the block
        itself (materializing a row view per index) where it declines them.
        """
        event_type = block.type_table[code]
        feeds: list[tuple] = []
        for unit in self._units_by_type.get(event_type, ()):
            compiled = unit.compiled
            if compiled is None:
                feeds.append((unit, None, True, event_type, None, None))
                continue
            state = prepared.get(unit)
            if state is None:
                window = unit.spec.window
                cache_key = (window.size, window.slide)
                ranges = range_cache.get(cache_key)
                if ranges is None:
                    ranges = range_cache[cache_key] = window.instance_range_columns(
                        block.times, block.start, block.stop
                    )
                if self.lazy_open:
                    qualifies_by_code = [
                        name in unit.opening_types for name in block.type_table
                    ]
                else:
                    qualifies_by_code = [True] * len(block.type_table)
                state = prepared[unit] = _BlockUnitColumns(
                    group_keys=block.group_keys(unit.spec.group_by),
                    lows=ranges[0],
                    highs=ranges[1],
                    qualifies=qualifies_by_code,
                    contributions=(
                        nones
                        if compiled.scalar
                        else self._block_contributions(block, compiled, codes)
                    ),
                    rows={} if self._segment_folding and compiled.columnar else None,
                )
            events: Sequence[Optional[Event]] = (
                nones if event_type in compiled.columnar_types else block
            )
            feeds.append(
                (unit, state, bool(state.qualifies[code]), event_type, state.contributions, events)
            )
        return feeds

    @staticmethod
    def _block_contributions(
        block: EventBlock, compiled: UnitCompilation, codes: Sequence[int]
    ) -> Sequence[tuple[float, ...]]:
        """``compiled.contributions(event)`` for every block row, from columns.

        Per measure: a foreign event type contributes 0.0, ``COUNT``-style
        measures (no attribute) contribute 1.0, and attribute measures read
        the block's cached payload column — the same values
        :meth:`Measure.contribution` computes per event.
        """
        count = len(block)
        type_table = block.type_table
        columns: list[list[float]] = []
        for measure in compiled.measures:
            if measure.event_type not in type_table:
                columns.append([0.0] * count)
                continue
            own = type_table.index(measure.event_type)
            if measure.attribute is None:
                columns.append([1.0 if code == own else 0.0 for code in codes])
            else:
                source = block.payload_column(measure.attribute)
                columns.append(
                    [float(value) if code == own else 0.0 for value, code in zip(source, codes)]
                )
        return list(zip(*columns))

    def _close_window(
        self, unit: _Unit, group_key: tuple, group: _Group, meta: _WindowMeta
    ) -> None:
        """Read one window instance out of its group's engine and emit it."""
        self._active_windows -= 1  # the caller popped the meta
        self._windows_closed += 1
        engine = group.engine
        started = time.perf_counter()
        results = engine.close_window(meta.index)
        if group.evicts:
            engine.evict_to(next(iter(group.metas), None))
        if not group.metas:
            # The group's last window closed: evict the group itself so
            # memory tracks *live* state, not every group key ever seen.  A
            # returning key rebuilds its engine from the unit's compilation
            # or pool (cheap — state only).  The group's decision
            # statistics outlive it in the run accumulator.
            if group.optimizer is not None and self._adaptive_stats is not None:
                self._adaptive_stats.merge(group.optimizer.statistics)
            del unit.groups[group_key]
        now = time.perf_counter()
        events = group.fed - meta.opened_fed
        seconds = (group.share_seconds - meta.share_at_open) + (now - started)
        latency = now - group.last_arrival if events else 0.0
        operations = engine.operations()
        ops_delta = operations - group.ops_reported
        group.ops_reported = operations
        window_start, window_end = unit.spec.window.instance_bounds(meta.index)
        metrics = self._report.metrics
        metrics.record_partition(
            seconds=seconds,
            events=events,
            memory_units=engine.memory_units(),
            operations=ops_delta,
        )
        metrics.record_emission(latency)
        # The report and the callback share the one read-only row.
        self._report.partition_results.append(
            PartitionResult(
                group_key=group_key,
                window_index=meta.index,
                window_start=window_start,
                results=results,
                seconds=seconds,
                events=events,
                emission_latency=latency,
            )
        )
        if self.on_window is not None:
            result: Optional[WindowResult] = WindowResult(
                group_key, meta.index, window_start, window_end, results, events, latency
            )
            if self._lateness is not None:
                # A retraction's replay re-closes windows already emitted.
                result = self._lateness.reconcile(result)
            if result is not None:
                self.on_window(result)

    def _close_passed_windows(self, now: float) -> None:
        # Peak memory is the state held *concurrently*; sample the combined
        # open footprint at its local high-water mark — just before a batch
        # of windows is evicted (``finish`` is the last such batch).
        self._report.metrics.note_memory_units(self._open_memory_units())
        self._next_close = float("inf")
        for unit in self._units:
            if now >= unit.next_close:
                self._close_expired(unit, now)
            if unit.next_close < self._next_close:
                self._next_close = unit.next_close

    def _close_expired(self, unit: _Unit, now: float) -> None:
        """Close every window of ``unit`` whose end the stream has passed,
        in ``(end, group, index)`` order."""
        expired = []
        for group_key, group in unit.groups.items():
            if (
                group.burst
                and group.metas
                and next(iter(group.metas.values())).end <= now
            ):
                # A window of this group is about to be read out: fold the
                # pending burst first — its events precede the close.
                self._flush_group(group)
            for meta in group.metas.values():  # ascending index == ascending end
                if meta.end <= now:
                    expired.append((meta.end, group_key, meta.index))
                else:
                    break
        expired.sort(key=lambda item: (item[0], group_sort_key(item[1]), item[2]))
        for _, group_key, index in expired:
            group = unit.groups[group_key]
            self._close_window(unit, group_key, group, group.metas.pop(index))
        unit.next_close = min(
            (
                next(iter(group.metas.values())).end
                for group in unit.groups.values()
                if group.metas
            ),
            default=float("inf"),
        )

    def _open_memory_units(self) -> int:
        """Combined footprint of the live state, counted once.

        Group footprints sum: a shared-window engine holds each event and
        coefficient once, a per-instance one reports its largest instance.
        A pending burst is live state too (one unit per buffered event, like
        the engines' stored events); sampling happens just before close
        sweeps — the buffer's high-water mark — so the cross-plan memory
        comparison stays honest.
        """
        return sum(
            group.engine.memory_units() + len(group.burst)
            for unit in self._units
            for group in unit.groups.values()
        )

    def _attach_optimizer_statistics(self, report: ExecutionReport) -> None:
        merged: Optional[OptimizerStatistics] = None
        if self._adaptive_stats is not None:
            # Adaptive shared-window decisions: evicted groups were folded
            # at eviction; groups that never opened a window still hold
            # their (empty) counters.  Attach even when zero decisions were
            # made so callers can tell "adaptive, nothing eligible" from
            # "not adaptive".
            merged = OptimizerStatistics()
            merged.merge(self._adaptive_stats)
            for unit in self._units:
                for group in unit.groups.values():
                    if group.optimizer is not None:
                        merged.merge(group.optimizer.statistics)
        # Single-window engines' own optimizers: all back in their pools.
        for unit in self._units:
            for pooled in unit.pool.idle:
                optimizer = getattr(pooled, "optimizer", None)
                if optimizer is None:
                    continue
                if merged is None:
                    merged = OptimizerStatistics()
                merged.merge(optimizer.statistics)
        if merged is not None:
            report.optimizer_statistics = merged


def run_streaming(
    workload: Workload | Sequence[Query],
    stream: EventStream | EventBlock | Iterable[Event],
    engine_factory: EngineFactory = HamletEngine,
    **options: Any,
) -> ExecutionReport:
    """One-shot convenience wrapper around :class:`StreamingExecutor`;
    ``options`` are the constructor's keyword-only arguments."""
    return StreamingExecutor(workload, engine_factory, **options).run(stream)
