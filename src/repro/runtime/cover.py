"""The Cover stage's rows, and its compiled walk on the static plan.

The executor's Cover stage turns ingested rows (a block's, or those
``process()`` staged: :class:`StagedRows`) into fed rows: per unit the
row's group (opened lazily), its covering window range, the windows it
opens, the inert rows it skips, and for each group one segment per close
sweep.  :meth:`StreamingExecutor._cover
<repro.runtime.streaming.StreamingExecutor._cover>` is that stage in
Python, the *reference*; where every unit is compiled and no optimizer
buffers bursts, :func:`walk` runs it in the fold core instead
(``_foldcore.Walk``), bit for bit the same state.  Tests select the
reference with ``foldcore.core = None``; nothing else does.

The core walks the rows up to the next close.  It skips a type no unit
reads, a non-qualifying row of a code with no group and a range no window
covers; it computes each row's range with :meth:`Window.covering_bounds
<repro.query.windows.Window.covering_bounds>`'s arithmetic, looks a code's
group up in the unit's ``groups`` (again once its cached group has no
window), opens a qualifying row's windows above the code's armed high as
``StreamingExecutor._open_windows`` does, and appends the row to its
group's segment in the executor's ``array('q')`` scratch.  It hands a row
back to Python (:func:`_resolve`) only to open a group, for a qualifying
row whose key has none; and it returns at the next close, where the sweep
folds every segment (``Walk.fold``: a counting sort of the fed rows by
group).  The segment of a scalar unit that reads every row from columns,
whose engine folds every class deferred, folds in place, as
``_fold_segment`` does (order check, cursor, deferred-row loop, books); any
other, or one out of order, goes to the engine's ``process_block_run`` as
the columns ``_flush_static`` gathers.

The per-code caches (group, armed high) survive close sweeps: a sweep at
``now`` closes only windows ending at or before ``now``, and those lie below
the ``lo`` of every later row, so a cached high still covers only open
windows; an evicted group has no window left, which the core sees.
"""

from __future__ import annotations

from array import array
from functools import partial
from typing import TYPE_CHECKING, Any, Callable, NamedTuple, Optional, Sequence

from repro.events.block import EventBlock, GroupCodes, group_codes
from repro.events.event import Event, EventType
from repro.events.event import group_key as group_key_of
from repro.runtime import foldcore
from repro.runtime.shared_windows import UnitCompilation, _OrderPoint

if TYPE_CHECKING:
    from repro.runtime.streaming import StreamingExecutor, _Unit

#: ``Walk.run``'s reasons to return.
DONE, SWEEP, PREPARE, RESOLVE = range(4)
#: An ``armed`` entry of a code no qualifying row has armed in this block.
UNARMED = -(2**63)
#: Every int of smaller magnitude is a double exactly.
EXACT = 2.0**53


class RowViews:
    """``views[i]``: the row view of a segment's ``i``-th block row, built
    when read — the engine reads only rows it folds per event."""

    __slots__ = ("block", "rows")

    def __init__(self, block: "EventBlock | StagedRows", rows: Sequence[int]) -> None:
        self.block = block
        self.rows = rows

    def __getitem__(self, position: int) -> Event:
        return self.block.event_at(self.rows[position])


class StagedRows(list):
    """The events ``process()`` staged since the last fold, read by the
    Cover stage through the reads it makes of an :class:`EventBlock`."""

    __slots__ = ("arrivals", "type_table", "groups", "times", "sequences", "type_codes")

    start = 0
    stop = property(list.__len__)
    event_at = list.__getitem__

    def __init__(self, type_table: tuple, events: Sequence[Event] = ()) -> None:
        super().__init__(events)
        #: ``time.perf_counter()`` at each row's own arrival.
        self.arrivals: list[float] = []
        self.type_table = type_table
        #: ``group_codes`` per attribute tuple, for the one fold.
        self.groups: dict[tuple[str, ...], GroupCodes] = {}

    def seal(self, codes: dict[EventType, int]) -> None:
        """Build the order and type columns, one pass each, at the fold."""
        self.times = [event.time for event in self]
        self.sequences = [event.sequence for event in self]
        self.type_codes = [codes.get(event.event_type, -1) for event in self]

    def payload_column(self, key: str) -> list:
        return [event.payload.get(key) for event in self]

    def group_codes(self, attributes: tuple[str, ...]) -> GroupCodes:
        cached = self.groups.get(attributes)
        if cached is None:
            columns = [self.payload_column(name) for name in attributes]
            cached = self.groups[attributes] = group_codes(attributes, columns, len(self))
        return cached

    def group_key_at(self, attributes: tuple[str, ...], row: int) -> tuple:
        return group_key_of(self[row], attributes)


def block_contributions(
    block: "EventBlock | StagedRows", compiled: UnitCompilation, codes: Sequence[int]
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


class _UnitRecord(NamedTuple):
    """One unit's side of a walk, shared with the core: the block's group
    codes of the unit, and per code the resolved group (``None``:
    unresolved, ``False``: no group) and armed high."""

    #: In order, what ``Walk.attach`` takes between the unit's index and its
    #: window's size, slide and scratch.
    unit: "_Unit"
    groups: dict
    table: Sequence[tuple]
    codes: Sequence[int]
    resolved: list
    armed: "array[int]"
    #: Per type code of the block: the type opens the unit's windows.
    qualifies: bytes
    #: ``compiled.contributions`` per row (``None``: a scalar unit).
    contributions: Optional[Sequence[tuple[float, ...]]]
    #: A segment's rows -> their :class:`RowViews` (``None``: the engine
    #: folds every type the unit reads from columns, and reads no view).
    views: Optional[Callable[[Sequence[int]], RowViews]]
    #: Segments fold in place: the engines' order cursor class (else ``None``).
    cursor: Optional[type]


class WalkPlan:
    """What :func:`walk` keeps of one executor: each unit's index, the
    scratch the core appends fed rows to (one ``array('q')`` per unit, only
    growing), and the bound on times the core takes: below it covering
    indices fit, and every time is a double exactly (under 2**53), so the
    core's comparisons of times as doubles agree with Python's exact ones."""

    __slots__ = ("index", "scratch", "limit", "meta")

    def __init__(self, units: Sequence["_Unit"]) -> None:
        from repro.runtime.streaming import _WindowMeta  # (streaming imports this module)

        self.index = {unit: position for position, unit in enumerate(units)}
        self.scratch = [array("q") for _ in units]
        self.limit = min(EXACT, *(unit.spec.window.index_limit for unit in units))
        #: The class of the window bookkeeping the core opens.
        self.meta = _WindowMeta

    @classmethod
    def of(cls, units: Sequence["_Unit"], buffering: bool) -> Optional["WalkPlan"]:
        """The plan, or ``None`` where the reference loop always runs: a
        unit evaluated per instance, or an optimizer buffering bursts."""
        if buffering or not units or any(unit.compiled is None for unit in units):
            return None
        return cls(units)


def walk(
    executor: "StreamingExecutor",
    block: "EventBlock | StagedRows",
    arrivals: "float | list[float]",
) -> bool:
    """Run ``block``'s rows through the compiled Cover stage; ``False``,
    untouched, where the reference loop must run instead (no core, no
    :class:`WalkPlan`, or a time outside the plan's bound)."""
    plan: Optional[WalkPlan] = executor._walk_plan
    core = foldcore.core
    base, count = block.start, len(block)
    times = block.times
    if core is None or plan is None or not count:
        return False
    if not -plan.limit < times[base] <= times[base + count - 1] < plan.limit:
        return False  # (rows come in time order: the first and last bound them all)
    type_table, type_codes, sequences = block.type_table, block.type_codes, block.sequences
    units = executor._units
    by_code = tuple(
        tuple(plan.index[unit] for unit in executor._units_by_type.get(name, ()))
        for name in type_table
    )
    records: list[Any] = [None] * len(units)  # per unit index, once attached
    close = executor._close
    walker = core.Walk(
        times, sequences, type_codes, type_table, base, count, by_code, arrivals, len(units),
        close, executor._report.metrics, plan.meta,
    )
    row, prepared, fed = 0, -1, 0
    try:
        while True:
            row, reason, index, more = walker.run(row, prepared)
            fed += more
            if reason == DONE:
                break
            if reason == SWEEP:
                walker.fold()
                executor._engine_feeds += fed
                fed = 0
                close.sweep(times[base + row])
            elif reason == PREPARE:
                records[index] = record = _prepare(executor, block, units[index])
                window = record.unit.spec.window
                walker.attach(index, *record, window.size, window.slide, plan.scratch[index])
            else:
                code = type_codes[base + row]
                _resolve(executor, block, row, code, by_code[code], records)
                prepared = row
        walker.fold()
    finally:
        # Also when the engine rejects a row: it holds what came before.
        executor._engine_feeds += fed
        walker.close()
    return True


def _prepare(
    executor: "StreamingExecutor", block: "EventBlock | StagedRows", unit: "_Unit"
) -> _UnitRecord:
    """A unit's record, at the block's first row of a type it reads —
    built, and failing, where the reference builds its columns."""
    window = unit.spec.window
    if block.times[block.start] < 0:  # the reference's range pass raises here
        window.instance_range_columns(block.times, block.start, block.stop)
    table, codes = block.group_codes(unit.spec.group_by)
    qualifies = bytes(name in unit.opening_types for name in block.type_table)
    compiled = unit.compiled
    assert compiled is not None  # a WalkPlan's units are compiled
    contributions = None if compiled.scalar else block_contributions(
        block, compiled, block.type_codes[block.start : block.stop]
    )
    armed = array("q", [UNARMED]) * len(table)
    views = None if unit.relevant_types <= compiled.columnar_types else partial(RowViews, block)
    cursor = _OrderPoint if compiled.scalar and views is None else None
    return _UnitRecord(
        unit, unit.groups, table, codes, [None] * len(table), armed, qualifies, contributions,
        views, cursor,
    )


def _resolve(
    executor: "StreamingExecutor",
    block: "EventBlock | StagedRows",
    row: int,
    code: int,
    indices: tuple[int, ...],
    records: list,
) -> None:
    """The reference's row body where the core cannot run it: open, for
    every unit qualifying row ``row`` feeds, the group its key has none of
    (the core then arms its windows and feeds the row)."""
    for index in indices:
        unit, groups, table, codes, resolved, _, qualifies, *_ = records[index]
        key = codes[row]
        if qualifies[code] and table[key] not in groups:
            # Keyed by the row's own key, not its code's first.
            resolved[key] = executor._open_group(unit, block.group_key_at(unit.spec.group_by, row))
