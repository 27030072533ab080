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
* the moment the stream passes a window's end, its one row, a
  :class:`WindowResult`, goes to **one sink** — the ``on_window`` callback,
  or else the report, which keeps it — folds into the running ``totals``,
  and the window's state is **evicted** (an evicted group's engine, reset,
  serves the next group that opens), so peak memory is bounded by the
  *live* state instead of the stream length.

Windows open lazily, skipping provably-inert stream prefixes: a window
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
bit-identical totals across the shared, per-instance and batch evaluations,
and that every window the batch replay reports but no lazy run opens holds
zero.

With ``optimizer=...`` the shared path becomes **adaptive**: per burst
(maximal same-type run) of a ``(group, unit)`` stream, an optimizer decides
whether each class shares and the engine merges/splits its coefficient
columns — bit-identical to both static extremes.

With ``allowed_lateness=N`` a :class:`~repro.runtime.lateness.Lateness`
stage fronts the ingest paths and this class is the *core* behind it: the
stage buffers, reorders, applies the late policy and owns all of that
state; the core only ever sees an in-order stream, so a stream shuffled
within the horizon is bit-identical to its ordered run.
``allowed_lateness=None`` (default) keeps the strict in-order contract
with zero overhead.

The executor is incremental: ``process(event)`` / ``finish()`` drive it from
a live source, ``run(stream)`` wraps them for replay-style use.  Both ingest
paths share one Cover stage: ``process()`` stages rows for the loop
``process_block`` runs, folded before any window they precede closes; and
one Close/Emit stage (:mod:`repro.runtime.close`) closes what they pass.
"""

from __future__ import annotations

import pickle
import time
from dataclasses import dataclass, field
from itertools import repeat
from typing import Any, Callable, Iterable, Optional, Sequence, overload

from repro.core.engine import HamletEngine
from repro.errors import CheckpointError
from repro.events.block import EventBlock
from repro.events.event import Event, EventType
from repro.events.stream import EventStream
from repro.greta.engine import GretaEngine
from repro.interfaces import MultiWindowEngine
from repro.optimizer.decisions import OptimizerStatistics, SharingOptimizer
from repro.optimizer.registry import OptimizerSpec
from repro.query.query import Query
from repro.query.workload import Workload
from repro.runtime import cover
from repro.runtime.close import CloseStage
from repro.runtime.cover import RowViews, StagedRows, block_contributions
from repro.runtime.executor import (
    EngineFactory,
    ExecutionReport,
    execution_units,
    recombine_decompositions,
    resolve_engine_label,
    unit_is_linear,
    unit_relevant_types,
)
from repro.runtime.instance_windows import EnginePool, InstanceWindowEngine
from repro.runtime.lateness import STAGE_ROWS, Lateness
from repro.runtime.partitioner import PartitionSpec, group_sort_key
from repro.runtime.reorder import ensure_block_in_order, ensure_in_order, validate_stream_options
from repro.runtime.results import ResultLayout, RunningTotals, WindowResult
from repro.runtime.shared_windows import (
    MultiWindowLinearEngine,
    UnitCompilation,
    shared_window_flavor_of,
)
from repro.template.analysis import analyze_workload
from repro.template.merged import MergedTemplate

#: Version of the :meth:`StreamingExecutor.snapshot_state` payload schema.
#: Bumped whenever the pickled state shape changes incompatibly; restores
#: reject snapshots from other versions instead of resuming corrupt state.
#: v21: an engine's split pair pickles as a tuple of replica maps (v2-v20: CHANGES.md).
SNAPSHOT_VERSION = 21

#: The core's per-run scalars (set by ``_begin_run``), pickled by name.
_CORE_FIELDS = ("_clock", "_consumed", "_engine_feeds", "_adaptive_stats", "_totals")
#: The Close/Emit stage's ``state()``, pickled under these names.
_CLOSE_FIELDS = ("_next_close", "_active_windows", "_windows_closed")


@dataclass(slots=True)
class _WindowMeta:
    """Bookkeeping of one open window instance of a group."""

    index: int
    end: float
    #: ``group.fed`` when the window opened (events before it are not ours).
    opened_fed: int


@dataclass(slots=True)
class _Group:
    """One live ``(group key, execution unit)`` pair: its open window
    instances and the engine that evaluates all of them."""

    #: :class:`MultiWindowLinearEngine` (compiled units: the only kind with
    #: bursts or an optimizer), else :class:`InstanceWindowEngine`.
    engine: MultiWindowEngine
    #: True when the engine keeps a node store that needs eviction sweeps.
    evicts: bool
    #: ``group_sort_key`` of the group's key: its place in the close order.
    sort_key: tuple
    #: Open window instances in ascending index order (windows open and
    #: close monotonically for an in-order stream).
    metas: dict[int, _WindowMeta] = field(default_factory=dict)
    #: Relevant events fed to the engine so far.
    fed: int = 0
    #: ``time.perf_counter()`` at the arrival of the last fed event.
    last_arrival: float = 0.0
    #: Engine operations already attributed to closed windows.
    ops_reported: int = 0
    #: Adaptive mode only: the group's per-burst sharing optimizer.  Bursts
    #: are segmented per ``(group, unit)`` stream, so decision continuity
    #: (merge/split counting, static plans) is per group — which also keeps
    #: decision counts invariant under sharding, where each group lives
    #: wholly inside one shard.
    optimizer: Optional[SharingOptimizer] = None
    #: Adaptive mode only: the same-type run buffered for one engine feed,
    #: as rows ``(time, sequence, lo, hi, contribution row, event)``: the
    #: order key, covering range, measure contributions (``None`` in scalar
    #: units) and the :class:`Event` the engine folds a type outside
    #: ``UnitCompilation.columnar_types`` on (else ``None``).  Kept across
    #: ingest calls, flushed on the burst schedule: type change, window
    #: close, finish.  ``burst_type`` is meaningful while ``burst`` is not empty.
    burst_type: Optional[EventType] = None
    burst: list = field(default_factory=list)


@dataclass(slots=True)
class _BlockUnitColumns:
    """Per-unit columns prepared once per block (or fold of staged rows)."""

    #: ``block.group_codes(spec.group_by)``: distinct keys, one code per row.
    table: Sequence[tuple]
    codes: Sequence[int]
    #: First / last covering window-instance index per block row.
    lows: Sequence[int]
    highs: Sequence[int]
    #: Window-opening qualification per *type code* of the block's type table.
    qualifies: Sequence[bool]
    #: ``compiled.contributions(event)`` per block row (``None`` if scalar).
    contributions: Sequence[Optional[tuple[float, ...]]]
    #: ``code -> highest armed window index`` since the last close sweep.
    #: Between sweeps no window closes, so once a row armed ``lo..hi`` every
    #: later row of the group (``lo`` is non-decreasing) only needs to check
    #: indices above the cached high.  Cleared whenever a sweep runs.
    armed: dict = field(default_factory=dict)
    #: ``code -> _Group`` resolved since the last close sweep — cleared with
    #: ``armed``: a sweep may evict a group, and a later row must open anew.
    groups: dict = field(default_factory=dict)
    #: Compiled units on the static plan only (else ``None``): ``code ->
    #: block rows fed since the last close sweep`` — a group's whole segment
    #: goes to its engine in one call.  Emptied by every segment flush.
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
    #: Types that can start a trend of at least one unit query: a window
    #: opens on the first of them inside it.
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
    #: Reset engines of evicted groups, for the groups that open next (at
    #: most the peak of live groups); no snapshot holds them: they are fresh.
    free: list[MultiWindowLinearEngine] = field(default_factory=list)

    def retire(self, engine: MultiWindowEngine) -> None:
        """Reset an evicted group's read-out engine onto the free list."""
        if isinstance(engine, MultiWindowLinearEngine) and engine.recyclable():
            engine.reset()
            self.free.append(engine)


class StreamingExecutor:
    """Single-pass, bounded-memory evaluation of a trend aggregation workload."""

    def __init__(
        self,
        workload: Workload | Sequence[Query],
        engine_factory: EngineFactory = HamletEngine,
        *,
        on_window: Optional[Callable[[WindowResult], None]] = None,
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
                moment its window closes, in emission order — the rows'
                one sink: the report keeps none (``totals`` cover them all).
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
                ``"always"``, ``"never"``, ``"static"``; anything else
                raises :class:`~repro.errors.SharingError`) turns on
                adaptive mode — each ``(group, unit)`` stream is segmented
                into bursts (maximal same-type runs), the policy decides per
                burst whether each eligible class shares, and the engine
                merges or splits its coefficient columns accordingly.
                Results are bit-identical whatever the policy; only the work
                and memory profiles change.  Per-instance units are
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
        #: Each closed window's row goes to one sink: the callback, else the
        #: report (the in-process sharded driver sets it to merge shard rows).
        self._keep_rows = on_window is None
        self.shared_windows = shared_windows
        self._optimizer_factory = validate_stream_options(
            optimizer, allowed_lateness, late_policy, on_late
        )
        #: Adaptive mode buffers maximal same-type runs per shared group for
        #: its per-burst decisions; the static plan folds segments.
        self._burst_buffering = self._optimizer_factory is not None
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
                self._units.append(self._build_unit(queries, group.merged_template, flavor))
        by_type: dict[EventType, list[_Unit]] = {}
        for unit in self._units:
            for name in unit.relevant_types:
                by_type.setdefault(name, []).append(unit)
        self._units_by_type = {name: tuple(units) for name, units in by_type.items()}
        #: The staged rows' type table: relevant types, then ``None`` (code -1).
        self._stage_types = (*self._units_by_type, None)
        self._stage_codes = {name: code for code, name in enumerate(self._units_by_type)}
        self._walk_plan = cover.WalkPlan.of(self._units, self._burst_buffering)
        pools = [unit.pool for unit in self._units if unit.linear and unit.compiled is None]
        if prebuilt is not None and pools:
            # The engine built to probe an opaque factory is the first pooled one.
            pools[0].idle.append(prebuilt)
            pools[0].created = 1
        self._begin_run()

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def run(self, stream: EventStream | EventBlock | Iterable[Event]) -> ExecutionReport:
        """Consume ``stream`` in one pass and return the final report.

        ``stream`` may be an :class:`~repro.events.block.EventBlock`, which
        is ingested columnar (:meth:`process_block`) without materializing
        per-event objects on the hot path.
        """
        self._begin_run()
        if isinstance(stream, EventBlock):
            self.process_block(stream)
            return self.finish()
        for event in stream:
            self.process(event)
        return self.finish()

    def process(self, event: Event) -> None:
        """Ingest one event: staged, with its own arrival stamp, for the
        Cover loop of :meth:`process_block` (a type no unit reads is only
        counted).  The arrival at or past the first window end after the
        first staged row's time folds the stage first, so a window still
        closes — and emits — inside the call that passes it; one finding
        the stage full folds it too.  A per-group ``(time, sequence)``
        violation at equal times surfaces at the fold.  With ``allowed_lateness`` set it
        goes to the lateness stage, which feeds the core in batches.
        """
        lateness = self._lateness
        if lateness is not None:
            lateness.offer(self, event)
            return
        event_time = event.time
        ensure_in_order(event_time, self._clock)
        staged = self._staged
        if event_time >= self._fold_at or len(staged) >= STAGE_ROWS:
            self._fold()
            staged = self._staged
        if not staged and event_time >= self._close.next_close:
            self._close.sweep(event_time)
        self._clock = event_time
        self._consumed += 1
        if event.event_type not in self._stage_codes:
            return
        if not staged:
            # Every open window, and every window a staged row can open, ends
            # after this first staged time: no staged row closes one before
            # the next window end past it.
            self._fold_at = self._edge_after(event_time)
        staged.append(event)
        staged.arrivals.append(time.perf_counter())

    def _fold(self) -> None:
        """Run the staged rows, if any, through the Cover loop.  A fold the
        engine rejects (a per-group ``(time, sequence)`` violation) drops
        the rows staged behind the offending one."""
        staged = self._staged
        if staged:
            self._staged = StagedRows(self._stage_types)
            staged.seal(self._stage_codes)
            self._cover(staged, staged.arrivals)

    def process_block(self, block: EventBlock) -> None:
        """Ingest a whole columnar block of events, after the rows
        :meth:`process` staged.

        Semantically identical to calling :meth:`process` for every row in
        order — same results, operation counts, emission order and sharing
        decisions (pinned by the block differential suites): both paths run
        one Cover loop, on covering ranges, group keys and contributions
        computed from the block's columns.  The static plan folds each
        shared unit one ``(group, close-sweep segment)`` at a time: between
        two sweeps no window closes, so nothing forces a cut.  An
        optimizer's executor buffers maximal same-``(group, type)`` runs
        instead, kept across the block boundary and flushed on the burst
        schedule alone (type change, window close, finish), so its
        decisions are the per-event run's whatever the block cuts.  Row
        views are built only for rows of a type outside
        ``UnitCompilation.columnar_types`` and for units evaluated per
        instance, whose engines take an :class:`Event`.

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
        """Feed one in-order block to the core (past the lateness stage)
        after the staged rows; its rows share one arrival stamp."""
        self._fold()
        if len(block):
            self._clock = block.times[block.stop - 1]
            self._consumed += len(block)
            self._cover(block, time.perf_counter())

    def _ingest_events(self, events: list[Event]) -> None:
        """Feed a run of released events, in key order, as one staged block."""
        staged = StagedRows(self._stage_types, events)
        staged.seal(self._stage_codes)
        self._clock = staged.times[-1]
        self._consumed += len(staged)
        self._cover(staged, time.perf_counter())

    def _edge_after(self, moment: float) -> float:
        """The smallest window end after ``moment`` over the units' windows."""
        return min(unit.spec.window.end_after(moment) for unit in self._units)

    def _settle(self) -> None:
        """Fold what the lateness stage holds below the watermark, then the staged rows."""
        if self._lateness is not None:
            self._lateness.release(self)
        self._fold()

    def _cover(self, block: EventBlock | StagedRows, arrivals: float | list[float]) -> None:
        """The Cover stage: resolve each row's groups and covering window
        range, open groups and windows lazily, skip inert rows, close what
        the stream passed, and hand every fed row on — to the group's
        static segment, its optimizer's burst, or a per-instance engine.
        ``arrivals`` is the block's one stamp or the staged rows' own.

        The compiled walk (:func:`repro.runtime.cover.walk`) takes the
        static plan of compiled units; this loop is its reference."""
        if cover.walk(self, block, arrivals):
            return
        if not isinstance(arrivals, list):
            arrivals = repeat(arrivals)
        count, times, base, stop = len(block), block.times, block.start, block.stop
        times_col, codes_col, seqs_col = times, block.type_codes, block.sequences
        if base or stop != len(times):
            times_col, codes_col, seqs_col = (
                times[base:stop], codes_col[base:stop], seqs_col[base:stop]
            )
        #: ``(window size, slide) -> (lows, highs)`` — units sharing a window
        #: shape share one covering-range pass over the time column.
        range_cache: dict[tuple[float, float], tuple[list[int], list[int]]] = {}
        #: Unit states in first-touch order.
        prepared: dict[_Unit, _BlockUnitColumns] = {}
        #: Per type code: the ``_block_code_feeds`` tuples, resolved lazily
        #: on the code's first row.
        feeds_by_code: list[Optional[list]] = [None] * len(block.type_table)
        #: ``None`` per row: the contribution column of scalar units and the
        #: buffered event column of columnar types.
        nones: list[None] = [None] * count
        buffering = self._burst_buffering
        engine_feeds = 0
        close = self._close
        next_close = close.next_close
        columns = (block, times_col, codes_col, seqs_col)
        try:
            for local, event_time, code, sequence, arrival in zip(
                range(count), times_col, codes_col, seqs_col, arrivals
            ):
                if event_time >= next_close:
                    if not buffering:
                        # What the static path holds back precedes the boundary:
                        # fold it before any window it may contribute to is read
                        # out.  (Buffered bursts stay; the sweep flushes those of
                        # closing groups.)
                        self._flush_static(prepared, *columns)
                    for state in prepared.values():
                        state.armed.clear()
                        state.groups.clear()
                    self._engine_feeds += engine_feeds
                    engine_feeds = 0
                    close.sweep(event_time)
                    next_close = close.next_close
                feeds = feeds_by_code[code]
                if feeds is None:
                    feeds = feeds_by_code[code] = self._block_code_feeds(
                        block, code, codes_col, nones, prepared, range_cache
                    )
                if not feeds:
                    continue
                event: Optional[Event] = None
                for unit, state, qualifies, event_type, contributions, events in feeds:
                    key = state.codes[local]
                    group = state.groups.get(key)
                    if group is None:
                        group = unit.groups.get(state.table[key])
                        if group is None and qualifies:  # keyed by the row's own key
                            row_key = block.group_key_at(unit.spec.group_by, local)
                            group = self._open_group(unit, row_key)
                        if group is None:
                            continue
                        state.groups[key] = group
                    lo = state.lows[local]
                    hi = state.highs[local]
                    if hi < lo:
                        continue
                    if qualifies:
                        state.armed[key] = self._arm(unit, group, lo, hi, state.armed.get(key))
                        next_close = close.next_close
                    metas = group.metas
                    if not metas:
                        # No window of the group is open: the row precedes every
                        # trend-start row of each instance covering it and is
                        # provably inert (module docstring) — skipped.
                        continue
                    pending = state.rows
                    if pending is not None:
                        rows = pending.get(key)
                        if rows is None:
                            pending[key] = [local]
                        else:
                            rows.append(local)
                        engine_feeds += 1
                    elif unit.compiled is None:
                        # Single-window engines take Events, fed at once (also
                        # under an optimizer): one feed per live instance.
                        if event is None:
                            event = block.event_at(local)
                        group.engine.process(event, lo, hi)
                        engine_feeds += len(metas)
                    else:
                        burst = group.burst
                        if burst and group.burst_type != event_type:
                            self._flush_group(group)
                            burst = group.burst
                        group.burst_type = event_type
                        burst.append(
                            (event_time, sequence, lo, hi, contributions[local], events[local])
                        )
                        engine_feeds += 1
                    group.fed += 1
                    # A block's rows share one stamp; staged rows carry their own.
                    group.last_arrival = arrival
            if not buffering:
                self._flush_static(prepared, *columns)
        finally:
            # Also when the engine rejects a row: it holds what came before.
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
        — all it owns except the output rows, which ``windows_closed`` marks
        (staged rows fold first: a copy never holds any)."""
        self._fold()
        core = {name: getattr(self, name) for name in _CORE_FIELDS}
        core["units"] = [(unit.groups, unit.pool, unit.next_close) for unit in self._units]
        core.update(zip(_CLOSE_FIELDS, self._close.state()))
        core["metrics"] = self._report.metrics
        return pickle.dumps(core, protocol=pickle.HIGHEST_PROTOCOL)

    def _restore_core(self, payload: bytes, output: Optional[list] = None) -> int:
        """Reattach a :meth:`_core_state` copy and the ``output`` rows —
        ``None``: this run's own, a retraction's rollback in place — cut
        back (when kept) to the copy's mark, which is returned.  Never
        touches the lateness stage: it lives upstream and survives.  Staged
        rows are dropped: a retraction's replay feeds them again."""
        core = pickle.loads(payload)
        self._staged = StagedRows(self._stage_types)
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
        self._close.rebuild(*(core[name] for name in _CLOSE_FIELDS))
        self._report.metrics = core["metrics"]
        mark = self._close.closed
        if self._keep_rows:
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
        self._fold()
        # Everything still open has passed its end now.
        self._close.sweep(float("inf"))
        report = self._report
        report.metrics.stream_events = self._consumed
        report.metrics.wall_seconds = time.perf_counter() - self._run_started
        if lateness is not None:
            # The stage's counters (no rollback reaches them) land here.
            report.metrics.late_dropped = lateness.late_dropped
            report.metrics.late_side_output = lateness.late_side_output
            report.metrics.late_retracted = lateness.late_retracted
        report.totals = self._totals.totals()
        if self._consumed:
            for unit in self._units:
                for name in unit.layout.names:
                    report.totals.setdefault(name, 0.0)
        recombine_decompositions(self.analysis.decompositions, report, self._totals)
        self._attach_optimizer_statistics(report)
        return report

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def active_window_count(self) -> int:
        """Number of currently open ``(group, window instance)`` states."""
        self._settle()
        return self._close.active

    @property
    def engines_created(self) -> int:
        """Per-instance engines built so far (shared-window engines are one
        per live ``(group, unit)`` pair, recycled through ``_Unit.free``)."""
        self._settle()
        return sum(unit.pool.created for unit in self._units)

    @property
    def shared_group_count(self) -> int:
        """Live shared multi-window engines (one per ``(group, unit)`` pair)."""
        self._settle()
        return sum(len(unit.groups) for unit in self._units if unit.compiled is not None)

    @property
    def engine_feeds(self) -> int:
        """Engine ``process`` calls so far: 1 per (event, unit, group) on the
        shared path versus up to ``ceil(size/slide)`` per event per unit on
        the per-instance path."""
        self._settle()
        return self._engine_feeds

    @property
    def peak_active_windows(self) -> int:
        """Peak number of simultaneously open window instances this run."""
        self._settle()
        return self._report.metrics.peak_active_windows

    @property
    def windows_closed(self) -> int:
        """Window instances closed (emitted) so far this run."""
        return self._close.closed

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
        and configuration, as ``{version, fingerprint, core, lateness}``:
        ``core`` is :meth:`_core_state` (groups with their engines and
        *unflushed* bursts — flushing would force a decision the
        uninterrupted run takes later —, idle pools, metrics, clocks and
        running totals), ``lateness`` the stage itself (``None`` in strict
        order).  The kept rows (none under ``on_window``) ride under
        ``"output"``; with ``since`` — ``windows_closed`` at the caller's
        previous snapshot — the result is ``(payload, delta)``: live state
        alone, and ``(start, rows)`` with the rows from ``since`` on
        (further back when a retraction rewrote rows an earlier delta
        carried).  :mod:`repro.runtime.checkpoint` adds the on-disk header.
        """
        self._settle()
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
        """Resume from a :meth:`snapshot_state` payload and, for an
        incremental one, the ``output`` deltas of every snapshot up to it
        (ignored under ``on_window``: such a run keeps no rows).  A
        different workload or configuration raises
        :class:`~repro.errors.CheckpointError`; otherwise :meth:`process`
        continues exactly where the snapshot left off, totals and all."""
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
        restored: list = (state.get("output") or []) if self._keep_rows else []
        for start, rows in deltas if self._keep_rows else ():
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
    def _build_unit(
        self, queries: tuple[Query, ...], merged: MergedTemplate, flavor: Optional[str]
    ) -> _Unit:
        """``merged``: the analysis' template of the queries' group, which
        holds each query's compiled pattern."""
        first = queries[0]
        linear = unit_is_linear(queries)
        relevant = frozenset(unit_relevant_types(queries))
        templates = {query.name: merged.template(query) for query in queries}
        if linear:
            opening: set[EventType] = set().union(*(t.start_types for t in templates.values()))
        else:
            # The inert-prefix argument relies on linearity (zero starts ==
            # zero aggregate); GRETA's extremum propagation can yield values
            # from start-less predecessor chains, so MIN/MAX instances open
            # on any relevant event to stay batch-identical.
            opening = set(relevant)
        compiled: Optional[UnitCompilation] = None
        if flavor is not None and linear:
            share = flavor == "classes"
            compiled = UnitCompilation(queries, share_classes=share, templates=templates)
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
        self._totals = RunningTotals()
        #: The Close/Emit stage: the next window end, open and closed counts.
        self._close = CloseStage(self)
        #: Rows ``process()`` staged for the Cover loop, and the event time
        #: that folds them.
        self._staged = StagedRows(self._stage_types)
        self._fold_at = float("inf")
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
    def _open_group(self, unit: _Unit, group_key: tuple) -> _Group:
        """Open a ``(group, unit)`` pair seen anew; a compiled unit's engine
        comes off the unit's free list where it holds one."""
        sort_key = group_sort_key(group_key)
        if unit.compiled is None:
            adapter = InstanceWindowEngine(unit.queries, unit.pool, unit.opening_types, unit.layout)
            group = _Group(engine=adapter, evicts=False, sort_key=sort_key)
        else:
            engine = unit.free.pop() if unit.free else MultiWindowLinearEngine(unit.compiled)
            group = _Group(engine=engine, evicts=engine.store is not None, sort_key=sort_key)
            if self._optimizer_factory is not None:
                group.optimizer = self._optimizer_factory()
        unit.groups[group_key] = group
        return group

    def _arm(self, unit: _Unit, group: _Group, lo: int, hi: int, armed: Optional[int]) -> int:
        """Open the windows ``lo..hi`` of a qualifying row above ``armed``,
        the highest index an earlier row of its group code armed (``None``:
        none), and return the new high.  Indices up to ``armed`` were opened
        then; any closed since lie below ``lo``."""
        if armed is not None and hi <= armed:
            return armed
        self._open_windows(unit, group, lo if armed is None else max(lo, armed + 1), hi)
        return hi

    def _open_windows(self, unit: _Unit, group: _Group, first: int, last: int) -> None:
        """Open the window instances ``first..last`` of ``group`` not open yet."""
        metas = group.metas
        window = unit.spec.window
        close = self._close
        opened = False
        for index in range(first, last + 1):
            if index not in metas:
                end = window.instance_bounds(index)[1]
                metas[index] = _WindowMeta(index, end, group.fed)
                opened = True
                close.active += 1
                if end < unit.next_close:
                    unit.next_close = end
                    if end < close.next_close:
                        close.next_close = end
        if opened:
            self._report.metrics.note_active_windows(close.active)

    def _flush_static(
        self,
        prepared: dict[_Unit, _BlockUnitColumns],
        block: EventBlock | StagedRows,
        times: Sequence[float],
        codes: Sequence[int],
        sequences: Sequence[int],
    ) -> None:
        """Fold what the static block path holds back: what each group took
        since the last close sweep — one engine call per ``(group,
        segment)`` on columns gathered once, no per-row tuple in between,
        with row views built only for rows the engine folds per event."""
        type_table = block.type_table
        for state in prepared.values():
            if not state.rows:
                continue
            lows, highs, contributions = state.lows, state.highs, state.contributions
            for key, rows in state.rows.items():
                engine = state.groups[key].engine  # resolved: no sweep since
                assert isinstance(engine, MultiWindowLinearEngine)  # rows: compiled units only
                vector = not engine.unit.scalar
                engine.process_block_run(
                    [type_table[codes[row]] for row in rows],
                    [times[row] for row in rows],
                    [sequences[row] for row in rows],
                    [lows[row] for row in rows],
                    [highs[row] for row in rows],
                    [contributions[row] for row in rows] if vector else None,
                    RowViews(block, rows),
                )
            state.rows.clear()

    def _flush_group(self, group: _Group) -> None:
        """Decide (adaptive mode) and fold the group's buffered run.

        One consultation of the group's optimizer per eligible query class
        (classes with at least two computationally identical members whose
        template is positive for the burst type), mirroring the batch
        engine's per-burst decision; the engine's coefficient columns are
        split or merged before the buffered rows are folded.  The fold is
        one run-level engine feed from the buffered columns (the engine
        folds a type outside ``columnar_types`` on the buffered events).
        """
        burst = group.burst
        if not burst:
            return
        event_type = group.burst_type
        group.burst = []
        engine = group.engine
        assert isinstance(engine, MultiWindowLinearEngine) and event_type is not None
        compiled = engine.unit
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
                    engine.apply_burst_decision(spec, event_type, decision.share, size)
        engine.process_burst(burst, event_type)

    def _block_code_feeds(
        self,
        block: EventBlock | StagedRows,
        code: int,
        codes: Sequence[int],
        nones: Sequence[None],
        prepared: dict[_Unit, _BlockUnitColumns],
        range_cache: dict[tuple[float, float], tuple[list[int], list[int]]],
    ) -> list[tuple]:
        """Resolve who one type code's rows feed, and with which columns.

        One ``(unit, state, qualifies, event type, contributions, events)``
        tuple per unit the type is relevant to, built lazily on the code's
        first row.  Unit states are built once per unit (covering ranges
        shared between units with the same window shape), per-instance
        units' too.  ``events`` is the per-row :class:`Event` column an
        optimizer's executor buffers: ``nones`` where the engine folds the
        type from columns, the block itself (materializing a row view per
        index) where it folds it per event; ``None`` on the static plan,
        whose rows get ``RowViews``, and for per-instance units, which
        take a row view per fed row.
        """
        event_type = block.type_table[code]
        feeds: list[tuple] = []
        for unit in self._units_by_type.get(event_type, ()):
            compiled = unit.compiled
            state = prepared.get(unit)
            if state is None:
                window = unit.spec.window
                cache_key = (window.size, window.slide)
                ranges = range_cache.get(cache_key)
                if ranges is None:
                    ranges = range_cache[cache_key] = window.instance_range_columns(
                        block.times, block.start, block.stop
                    )
                state = prepared[unit] = _BlockUnitColumns(
                    *block.group_codes(unit.spec.group_by),
                    lows=ranges[0],
                    highs=ranges[1],
                    qualifies=[name in unit.opening_types for name in block.type_table],
                    contributions=(
                        nones
                        if compiled is None or compiled.scalar
                        else block_contributions(block, compiled, codes)
                    ),
                    rows=None if compiled is None or self._burst_buffering else {},
                )
            events: Optional[Sequence[Optional[Event]]] = None
            if compiled is not None and self._burst_buffering:
                events = nones if event_type in compiled.columnar_types else block
            feeds.append(
                (unit, state, state.qualifies[code], event_type, state.contributions, events)
            )
        return feeds

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
