"""Watermark-driven reorder buffer, lateness options and the order guards.

With ``allowed_lateness=N`` an arrival is *buffered* until the
**watermark** (the maximum event time seen minus ``N``) passes it, then
released in ``(time, sequence)`` order: a stream shuffled within the
horizon replays the ordered stream bit-identically into the executor core.
An arrival behind the watermark is **late**: :class:`~repro.runtime.
lateness.Lateness`, the stage owning the buffer, applies its policy.

A block in any row order is one *segment* (sorted once on entry unless in
key order); scalar arrivals are ``(time, sequence, item)`` entries, filed
at a release as one more sorted *run*, so a release sorts what arrived
since the last one, not the horizon's population.  A release hands back
**one** block and the ready items as ``("events", [...])`` runs.

It is also the one sanctioned home (with :mod:`repro.events.stream`) of raw
"cursor versus event time" order comparisons (RL011): the ``ensure_*`` guards.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from itertools import islice
from math import inf, isfinite
from operator import itemgetter, le
from sys import float_info
from typing import Optional, Sequence, Union

from repro.errors import ExecutionError, OutOfOrderError
from repro.events.block import EventBlock
from repro.optimizer.registry import resolve_optimizer_factory
from repro.runtime import foldcore

__all__ = [
    "LATE_POLICIES", "ReorderBuffer", "ensure_block_in_order", "ensure_in_order",
    "ensure_shared_order", "ensure_shared_run_order", "late_event_error", "sort_by_key",
]

#: The supported late-event policies, in documentation order.
LATE_POLICIES = ("raise", "drop", "side_output", "retract")

#: A release batch, in key order: ``("events", [item, ...])`` or ``("block", EventBlock)``.
Release = tuple[str, Union[list, EventBlock]]

_TIME, _SEQUENCE, _ITEM, _KEY = itemgetter(0), itemgetter(1), itemgetter(2), itemgetter(0, 1)
#: New entries a release files into the newest run one by one (more: a run).
_INSERTS = 16


def _check_horizon(allowed_lateness) -> None:
    # Infinite: a watermark stuck at -inf, which releases nothing before the end.
    if not allowed_lateness >= 0.0:  # also rejects NaN
        raise ExecutionError(f"allowed_lateness must be >= 0, got {allowed_lateness!r}")
    if allowed_lateness == inf:
        raise ExecutionError(f"allowed_lateness must be finite, got {allowed_lateness!r}")


def validate_stream_options(optimizer, allowed_lateness, late_policy, on_late):
    """Fail fast on the options every shard's executor takes, lateness included;
    returns the resolved optimizer factory (both constructors and the CLI run it)."""
    optimizer_factory = resolve_optimizer_factory(optimizer)
    if late_policy not in LATE_POLICIES:
        raise ExecutionError(
            f"late policy must be one of {', '.join(LATE_POLICIES)}, got {late_policy!r}"
        )
    if allowed_lateness is not None:
        _check_horizon(allowed_lateness)
    elif late_policy != "raise":
        raise ExecutionError(
            f"late_policy={late_policy!r} requires allowed_lateness: without a "
            "lateness horizon there is no watermark to be late against"
        )
    elif on_late is not None:
        raise ExecutionError("on_late requires allowed_lateness and late_policy='side_output'")
    if late_policy == "side_output" and on_late is None:
        raise ExecutionError(
            "late_policy='side_output' requires an on_late callback to receive the late events"
        )
    if on_late is not None and late_policy != "side_output":
        raise ExecutionError(
            "on_late is only consumed by late_policy='side_output'; "
            f"got late_policy={late_policy!r}"
        )
    return optimizer_factory


# ---------------------------------------------------------------------- #
# Order guards (the one sanctioned home of raw order comparisons)
# ---------------------------------------------------------------------- #
def non_finite_time_error(time, *, what: str = "streaming executor") -> OutOfOrderError:
    """The admission-edge rejection of a NaN / infinite event time."""
    return OutOfOrderError(f"{what} requires finite event times: got an event at time={time!r}")


def _regression_error(time, clock, what: str) -> OutOfOrderError:
    return OutOfOrderError(
        f"{what} requires in-order arrival: event at {time} arrived after stream "
        f"time {clock}; pass allowed_lateness=... to buffer bounded disorder"
    )


def ensure_finite_times(times: Sequence, *, what: str = "streaming executor") -> None:
    """Reject a time column holding a NaN or an infinity, naming the value:
    one ``sum`` (an overflow walks to no culprit), the reference of the fold
    core's ``time_scan`` / ``late_scan``, which scan a typed column in place."""
    if not isfinite(sum(times)):
        for value in times:
            if not isfinite(value):
                raise non_finite_time_error(value, what=what)


def ascending(column: Sequence) -> bool:
    """Whether ``column`` never decreases (``sorted(column) == column`` never
    holds for an ``array``): one pairwise pass, ``time_scan``'s reference."""
    return all(map(le, column, islice(column, 1, None)))


def ensure_in_order(time, clock, *, what: str = "streaming executor") -> None:
    """Reject an event time regressing behind the stream clock, or not
    finite: the executors' time-only contract (equal times are fine)."""
    if time < clock:
        raise _regression_error(time, clock, what)
    if not isfinite(time):
        raise non_finite_time_error(time, what=what)


def ensure_block_in_order(
    times: Sequence, start: int, stop: int, clock, *, what: str = "streaming executor"
):
    """:func:`ensure_in_order` over ``times[start:stop]`` with an advancing
    clock; returns the new clock.  The fold core's ``time_scan`` (else a C-speed
    probe) clears an in-order column in one pass; the walk only names the culprit."""
    facts = foldcore.core and foldcore.core.time_scan(times, start, stop)
    if facts and facts[1:] == (-1, -1) and (start == stop or not times[start] < clock):
        return times[stop - 1] if start < stop else clock
    window = times[start:stop]
    ensure_finite_times(window, what=what)
    if window and not window[0] < clock and ascending(window):
        return window[-1]
    previous = clock
    for position in range(start, stop):
        value = times[position]
        if value < previous:
            raise _regression_error(value, previous, what)
        previous = value
    return previous


def _shared_order_error(time, sequence, last_time, last_sequence) -> OutOfOrderError:
    # The one message of the strict shared-window contract.
    return OutOfOrderError(
        "shared-window execution requires strictly ordered arrival (by "
        f"time, then sequence); event time={time!r} seq={sequence} does "
        f"not follow time={last_time!r} seq={last_sequence} — use "
        "shared_windows=False for such streams"
    )


def ensure_shared_order(latest, event) -> None:
    """Strict ``(time, sequence)`` guard for one event against the
    engine's cursor ``latest`` (duck-typed like ``Event.__lt__``; ``None``
    at start of stream)."""
    if latest is not None and not latest < event:
        raise _shared_order_error(event.time, event.sequence, latest.time, latest.sequence)


def ensure_shared_run_order(times: Sequence, sequences: Sequence, latest):
    """Strict guard over parallel columns (the engine's column folds);
    returns the run's last ``(time, sequence)``, ``None`` if empty."""
    last_time, last_sequence = (None, -1) if latest is None else (latest.time, latest.sequence)
    for time_value, sequence_value in zip(times, sequences):
        if last_time is not None and not (
            last_time < time_value
            or (last_time == time_value and last_sequence < sequence_value)
        ):
            raise _shared_order_error(time_value, sequence_value, last_time, last_sequence)
        last_time, last_sequence = time_value, sequence_value
    return None if last_time is None else (last_time, last_sequence)


def late_event_error(
    time, sequence, watermark, allowed_lateness, *, what: str = "streaming executor"
) -> OutOfOrderError:
    """The ``"raise"`` late policy's error (also the retract-miss error)."""
    return OutOfOrderError(
        f"{what} received an event at time={time!r} seq={sequence} behind "
        f"the watermark {watermark!r} (allowed_lateness={allowed_lateness!r}); "
        "raise allowed_lateness to buffer it, or pick a late policy "
        "('drop', 'side_output', 'retract')"
    )


def sort_by_key(entries: list) -> None:
    """Sort ``(time, sequence, ...)`` entries in place by their key, exact
    ties in list order: two stable passes over homogeneous keys (one pass
    over ``(time, sequence)`` tuples measured 2.4x slower)."""
    entries.sort(key=_SEQUENCE)
    entries.sort(key=_TIME)


def _in_key_order(block: EventBlock) -> EventBlock:
    """``block`` in key order: itself when both columns already ascend,
    else the two passes of :func:`sort_by_key` as an argsort, one gather."""
    core, start, stop = foldcore.core, block.start, block.stop
    columns = (block.times, block.sequences)
    scans = [core and core.time_scan(column, start, stop) for column in columns]
    if all(scan[2] < 0 if scan else ascending(c[start:stop]) for scan, c in zip(scans, columns)):
        return block
    times, sequences = block.times[start:stop], block.sequences[start:stop]
    order = sorted(range(len(times)), key=sequences.__getitem__)
    order.sort(key=times.__getitem__)
    return block.select(order)


class ReorderBuffer:
    """Buffer-and-resort stage with a bounded lateness horizon: opaque
    items ordered by the ``(time, sequence)`` keys handed in.

    :meth:`observe` advances the watermark; :meth:`late_cuts` finds arrivals
    strictly below it.  :meth:`add` / :meth:`add_segment` buffer an item / a
    block (a stage with its own release schedule appends entries to
    :attr:`pending` itself).  :meth:`release_ready` pops everything strictly
    below the watermark in key order (:meth:`flush`: everything): the block
    rows as one block, the items as runs cut into it (the block row first on a
    key tie, exact-key duplicates in arrival order).  An item at the watermark
    waits until it strictly passes, so a same-time, later-sequence arrival
    never finds its predecessor released.  The instance pickles as-is (it rides
    the executor snapshots) and holds only unreleased items and rows.
    """

    __slots__ = ("allowed_lateness", "_max_time", "floor", "pending", "_runs", "_segments")

    def __init__(self, allowed_lateness: float) -> None:
        _check_horizon(allowed_lateness)
        self.allowed_lateness = allowed_lateness
        self._max_time = -inf
        #: The watermark, or the lowest double before any time: ``floor <=
        #: time < inf`` admits exactly the finite times that are not late.
        self.floor = -float_info.max
        #: ``(time, sequence, item)`` entries added since the last release.
        self.pending: list[tuple] = []
        #: The older entries as runs in key order, oldest arrivals first.
        self._runs: list[list[tuple]] = []
        #: Unreleased rows of the buffered blocks, each in key order.
        self._segments: list[EventBlock] = []

    def __len__(self) -> int:
        """Items currently buffered (block rows count individually)."""
        return len(self.pending) + sum(map(len, self._runs)) + sum(map(len, self._segments))

    @property
    def max_event_time(self) -> float:
        """Maximum event time observed so far (``-inf`` before any)."""
        return self._max_time

    @property
    def watermark(self) -> float:
        """``max_event_time - allowed_lateness`` (``-inf`` before any)."""
        return self._max_time - self.allowed_lateness

    def observe(self, time) -> None:
        """Advance the maximum event time (and the watermark) past ``time``."""
        if time > self._max_time:
            self._max_time = time
            self.floor = time - self.allowed_lateness

    def late_cuts(self, times: Sequence, start: int, stop: int) -> tuple[list[int], list]:
        """Late rows of finite ``times[start:stop]`` (behind the watermark of the rows
        before) and the newest time at each and at the end: ``late_scan``, else this loop."""
        core, newest, lateness = foldcore.core, self._max_time, self.allowed_lateness
        facts = core and core.late_scan(times, start, stop, newest, lateness)
        if facts and facts[0] < 0:
            return facts[1], [newest if top < 0 else times[start + top] for top in facts[2]]
        window = times[start:stop]
        ensure_finite_times(window)
        late, tops, bound = [], [], newest - lateness
        for index, time in enumerate(window):
            if time > newest:
                newest, bound = time, time - lateness
            elif time < bound:
                late.append(index)
                tops.append(newest)
        return late, [*tops, newest]

    def add(self, time, sequence: int, item) -> None:
        """Buffer one item under key ``(time, sequence)``."""
        self.pending.append((time, sequence, item))

    def push(self, time, sequence: int, item) -> list[Release]:
        """``add`` + ``observe`` + :meth:`release_ready`, in one call."""
        self.pending.append((time, sequence, item))
        self.observe(time)
        return self.release_ready()

    def add_segment(self, block: EventBlock) -> None:
        """Buffer the rows of ``block``, in whatever order they arrive."""
        if block:
            self._segments.append(_in_key_order(block))

    def first_at_or_after(self, time) -> float:
        """The earliest buffered time at or after ``time`` (``inf``: none)."""
        heads = [run[bisect_left(run, (time,))][0] for run in self._file() if run[-1][0] >= time]
        for segment in self._segments:
            times, stop = segment.times, segment.stop
            if times[stop - 1] >= time:
                heads.append(times[bisect_left(times, time, segment.start, stop)])
        return min(heads, default=inf)

    def release_ready(self) -> list[Release]:
        """Pop every buffered item strictly below the watermark, in order."""
        return self._release(self._max_time - self.allowed_lateness)

    def flush(self) -> list[Release]:
        """Pop everything (end of stream), in ``(time, sequence)`` order."""
        return self._release(None)

    def _file(self) -> list[list[tuple]]:
        """File the new entries as a sorted run, merged into the newest run
        while that one is at most twice as long (O(log n) runs)."""
        tail, runs = self.pending, self._runs
        if tail:
            self.pending = []
            if runs and len(tail) <= _INSERTS:
                newest = runs[-1]
                for entry in tail:  # after its exact-key twins: arrival order
                    insort(newest, entry, key=_KEY)
            else:
                sort_by_key(tail)
                while runs and len(runs[-1]) <= 2 * len(tail):
                    tail = runs.pop() + tail  # older first: ties keep arrival order
                    sort_by_key(tail)
                runs.append(tail)
        return runs

    def _release(self, bound: Optional[float]) -> list[Release]:
        # An entry compares with a shorter key ``(time,)`` / ``(time,
        # sequence)`` on the key alone (an equal prefix is the smaller tuple):
        # bisects never reach an item; equal-time items wait for the watermark.
        runs = self._file()
        ready: list[tuple] = []
        for run in runs:
            cut = len(run) if bound is None else bisect_left(run, (bound,))
            ready += run[:cut]
            del run[:cut]
        if len(runs) > 1:  # the runs' ready prefixes, merged in run order
            sort_by_key(ready)
        self._runs = [run for run in runs if run]
        block = self._pop_ready_block(bound) if self._segments else None
        count = len(ready)
        if block is None:
            return [("events", list(map(_ITEM, ready)))] if count else []
        releases: list[Release] = []
        rows, row, at = len(block), 0, 0
        while True:
            stop = count
            if row < rows:
                key = (block.times[block.start + row], block.sequences[block.start + row])
                stop = bisect_left(ready, key, at)
            if stop > at:
                releases.append(("events", list(map(_ITEM, ready[at:stop]))))
                at = stop
            if row == rows:
                return releases
            head = ready[at] if at < count else None
            # (At least one row: an exact key tie must not stall the merge.)
            cut = max(self._segment_stop(block, row, head), row + 1)
            releases.append(("block", block.slice(row, cut)))
            row = cut

    def _pop_ready_block(self, bound: Optional[float]) -> Optional[EventBlock]:
        """Pop the segments' rows below ``bound`` as one block in key order."""
        ready, kept = [], []
        for segment in self._segments:
            rows = len(segment)
            cut = rows if bound is None else self._segment_stop(segment, 0, (bound,))
            if cut:
                ready.append(segment.slice(0, cut))
            if cut < rows:
                kept.append(segment.slice(cut, rows))
        if not ready:
            return None
        self._segments = kept
        # Sorted runs: what Timsort merges in near-linear time.
        return ready[0] if len(ready) == 1 else _in_key_order(EventBlock.concat(ready))

    @staticmethod
    def _segment_stop(block: EventBlock, relative: int, limit: Optional[tuple]) -> int:
        """First relative row of ``block`` at or past ``limit`` (len if
        none); ``limit`` is ``(time,)`` or starts ``(time, sequence, ...)``."""
        length = len(block)
        if limit is None:
            return length
        times, base = block.times, block.start
        stop = bisect_left(times, limit[0], base + relative, block.stop) - base
        while len(limit) > 1 and stop < length and times[base + stop] == limit[0]:
            if not block.sequences[base + stop] < limit[1]:
                break
            stop += 1
        return stop
