"""The Close/Emit stage: read out, evict and emit every window the stream
passed.

The executor's clock reaching :attr:`CloseStage.next_close` — the earliest
end among the open windows — runs :meth:`CloseStage.sweep`.  Per unit whose
earliest end has passed, the sweep closes every expired window of every
group in ``(end, group order, index)`` order, the group order being the
``group_sort_key`` each group caches when it opens.  Closing one window is
the engine's readout and eviction, the group's eviction when its last
window closed (its engine, reset, to the unit's free list), the metrics
(the events the window took, its operations and its emission latency: the
close's one clock read), the fold of its values into the run's
:class:`~repro.runtime.results.RunningTotals`, and its one row — a
:class:`~repro.runtime.results.WindowResult`, built once — to the one
sink: ``emit`` (``on_window``, behind ``Lateness.reconcile`` under
``late_policy="retract"``), else the report; the same object also joins
the recombination of decomposed OR/AND queries that ends a sweep.  No
engine call is timed: engine seconds are the batch executor's.

For a unit whose groups are all store-free scalar shared-window engines
and whose executor runs no optimizer, one fold-core call per unit sweep
(``_foldcore.sweep_unit``) does all of the above on the same state, bit for
bit: readout through ``close_scalar``'s internals, metrics and totals folded
in the same order, the ``perf_counter`` it is handed read once per window,
where this module reads it.  The Python sweep here is the *reference*
(``foldcore.core = None``) and runs every other unit.

An exception from ``emit`` propagates out of the call that swept: the
windows closed before it and the one it was called with are closed and
counted; the rest stay open, ``next_close`` keeps its value, and the next
sweep closes them.  (The arrival whose time swept is not consumed.)
"""

from __future__ import annotations

import time
import weakref
from functools import partial
from operator import itemgetter
from typing import TYPE_CHECKING, Any, Callable, Optional

from repro.runtime import foldcore
from repro.runtime.executor import recombined_partitions
from repro.runtime.results import RunningTotals, WindowResult, WindowValues, window_row
from repro.runtime.shared_windows import MultiWindowLinearEngine

if TYPE_CHECKING:
    from repro.runtime.metrics import ExecutionMetrics
    from repro.runtime.streaming import StreamingExecutor, _Group, _Unit, _WindowMeta

INF = float("inf")
#: Expired windows close in ``(end, group sort key, index)`` order; the sort
#: is stable, so equal keys keep the groups' order.
_ORDER = itemgetter(0, 1, 2)
#: The classes the compiled sweep builds, in its argument order.
_TYPES = (WindowValues, WindowResult)


class CloseStage:
    """The executor's Close/Emit stage: ``sweep(now)``, the ``next_close``
    that schedules it, and the open and closed window counts it keeps (the
    executor's Cover stage opens windows; this stage closes them)."""

    __slots__ = ("_owner", "_compiled", "_recombine", "next_close", "active", "closed")

    def __init__(self, executor: "StreamingExecutor") -> None:
        #: Weak: an executor and its stage form no reference cycle, so a
        #: dropped run is freed by reference count, not a collector pass.
        self._owner = weakref.ref(executor)
        static = executor._optimizer_factory is None
        #: Per unit: the shape the compiled sweep takes (where the core is loaded).
        self._compiled = tuple(
            static
            and unit.compiled is not None
            and unit.compiled.scalar
            and not unit.compiled.needs_store
            for unit in executor._units
        )
        #: Rows of the sweep under way, where OR/AND queries were decomposed:
        #: their halves recombine once it ends.
        self._recombine: Optional[list] = [] if executor.analysis.decompositions else None
        self.rebuild(INF, 0, 0)

    def rebuild(self, next_close: float, active: int, closed: int) -> None:
        """Reset to a run's start or, from :meth:`state`, to a restored core:
        the earliest open end, the open windows and the windows closed."""
        self.next_close = next_close
        #: Open window instances, over all groups of all units.
        self.active = active
        #: Window instances closed this run — the checkpoint scheduler's
        #: "every N window boundaries" trigger reads this.
        self.closed = closed

    def _executor(self) -> "StreamingExecutor":
        executor = self._owner()
        assert executor is not None, "a close stage outlived its executor"
        return executor

    def state(self) -> tuple[float, int, int]:
        """What :meth:`rebuild` takes back (the core pickles it)."""
        return self.next_close, self.active, self.closed

    def open_memory_units(self) -> int:
        """Combined footprint of the live state, counted once.

        Group footprints sum: a shared-window engine holds each event and
        coefficient once, a per-instance one reports its largest instance.
        A pending burst is live state too (one unit per buffered event, like
        the engines' stored events); sampling happens just before close
        sweeps — the buffer's high-water mark — so the cross-plan memory
        comparison stays honest.  One fold-core loop where it is loaded
        (``_foldcore.memory_units``); the sum is its reference.
        """
        units = self._executor()._units
        if foldcore.core is not None:
            return foldcore.core.memory_units(units, MultiWindowLinearEngine)
        return sum(
            group.engine.memory_units() + len(group.burst)
            for unit in units
            for group in unit.groups.values()
        )

    def sweep(self, now: float) -> None:
        """Close every window whose end ``now`` has passed."""
        executor = self._executor()
        report = executor._report
        metrics = report.metrics
        # Peak memory is the state held *concurrently*; sample the combined
        # open footprint at its local high-water mark — just before a batch
        # of windows is evicted (``finish`` is the last such batch).
        metrics.note_memory_units(self.open_memory_units())
        rows = report.partition_results if executor._keep_rows else None
        emit = _emitter(executor)
        clock = time.perf_counter
        core = foldcore.core
        next_close = INF
        for unit, compiled in zip(executor._units, self._compiled):
            if now >= unit.next_close:
                if compiled and core is not None:
                    window = unit.spec.window
                    unit.next_close = core.sweep_unit(
                        unit.groups, now, window.slide, self, metrics, executor._totals,
                        rows, self._recombine, emit, clock, _TYPES, unit.retire,
                    )
                else:
                    self._close_expired(unit, now, metrics, rows, emit, clock)
            if unit.next_close < next_close:
                next_close = unit.next_close
        self.next_close = next_close
        if self._recombine:
            self._fold_recombined()

    def _close_expired(
        self,
        unit: "_Unit",
        now: float,
        metrics: "ExecutionMetrics",
        rows: Optional[list],
        emit: Optional[Callable[[WindowResult], None]],
        clock: Callable[[], float],
    ) -> None:
        """Close every window of ``unit`` whose end ``now`` has passed, in
        ``(end, group, index)`` order."""
        expired = []
        for group_key, group in unit.groups.items():
            metas = group.metas
            if group.burst and metas and next(iter(metas.values())).end <= now:
                # A window of this group is about to be read out: fold the
                # pending burst first — its events precede the close.
                self._executor()._flush_group(group)
            for meta in metas.values():  # ascending index == ascending end
                if meta.end <= now:
                    expired.append((meta.end, group.sort_key, meta.index, group_key, group))
                else:
                    break
        expired.sort(key=_ORDER)
        for _, _, index, group_key, group in expired:
            meta = group.metas.pop(index)
            self._close_window(unit, group_key, group, meta, metrics, rows, emit, clock)
        unit.next_close = min(
            (next(iter(group.metas.values())).end for group in unit.groups.values() if group.metas),
            default=INF,
        )

    def _close_window(
        self,
        unit: "_Unit",
        group_key: tuple,
        group: "_Group",
        meta: "_WindowMeta",
        metrics: "ExecutionMetrics",
        rows: Optional[list],
        emit: Optional[Callable[[WindowResult], None]],
        clock: Callable[[], float],
    ) -> None:
        """Read one window instance (its meta popped) out of its group's
        engine and emit it."""
        self.active -= 1
        self.closed += 1
        engine = group.engine
        results = engine.close_window(meta.index)
        if group.evicts:
            engine.evict_to(next(iter(group.metas), None))
        if not group.metas:
            # The group's last window closed: evict it, so memory tracks
            # *live* state; decision statistics outlive it in the run's.
            stats = self._executor()._adaptive_stats
            if group.optimizer is not None and stats is not None:
                stats.merge(group.optimizer.statistics)
            del unit.groups[group_key]
        ended = clock()
        events = group.fed - meta.opened_fed
        latency = ended - group.last_arrival if events else 0.0
        operations = engine.operations()
        ops_delta = operations - group.ops_reported
        group.ops_reported = operations
        metrics.record_partition(events, engine.memory_units(), ops_delta)
        if not group.metas:  # read out: the next group to open takes the engine
            unit.retire(engine)
        metrics.record_emission(latency)
        self._executor()._totals.add(results)
        window_start, window_end = unit.spec.window.instance_bounds(meta.index)
        row = window_row(group_key, meta.index, window_start, window_end, results, events, latency)
        if self._recombine is not None:
            self._recombine.append(row)
        if rows is not None:
            rows.append(row)
        if emit is not None:
            emit(row)

    def _fold_recombined(self) -> None:
        """Fold the sweep's decomposed OR/AND windows into the totals, in
        first-seen key order: a key's halves share its window and close in
        one sweep."""
        executor = self._executor()
        rows, self._recombine = self._recombine, []
        totals: RunningTotals = executor._totals
        for name, decomposition in executor.analysis.decompositions.items():
            subs = {sub.name for sub in decomposition.sub_queries}
            for (group_key, index), value in recombined_partitions(decomposition, rows).items():
                assert not any(
                    index in getattr(unit.groups.get(group_key), "metas", ())
                    for unit in executor._units if subs & unit.layout.index.keys()
                ), f"{name!r}: half of window {index} of {group_key!r} is still open"
                totals.add_recombined(name, value)


def _emitter(executor: "StreamingExecutor") -> Optional[Callable[[WindowResult], None]]:
    """The one callable a closed window's :class:`WindowResult` goes to:
    ``on_window`` (``None``: the report is the sink), behind the lateness
    stage's ``reconcile`` where a retraction's replay re-closes windows."""
    on_window, lateness = executor.on_window, executor._lateness
    if on_window is None or lateness is None or executor.late_policy != "retract":
        return on_window
    return partial(_reconciled, lateness.reconcile, on_window)


def _reconciled(reconcile: Callable[[Any], Any], on_window: Callable, result: WindowResult) -> None:
    result = reconcile(result)
    if result is not None:
        on_window(result)
