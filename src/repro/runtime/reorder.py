"""Watermark-driven reorder buffer and the runtime's arrival-order guards.

Every executor used to hard-require strict ``(time, sequence)`` arrival:
one late event raised and killed the whole run, so the real feeds behind
the paper's benchmarks (NYC taxi, stock ticks) only worked as pre-sorted
replays.  This module turns that crash into configurable behaviour:

* a :class:`ReorderBuffer` sits in front of a streaming executor.  With
  ``allowed_lateness=N`` an event is *buffered* until the **watermark** —
  the maximum event time seen so far minus ``N`` — passes its timestamp;
  buffered events are released strictly below the watermark, re-sorted by
  ``(time, sequence)``, so any stream shuffled within the lateness horizon
  replays the fully ordered stream bit-identically into the executor core
  (and window close is automatically deferred until the watermark passes
  the window end, because closes are driven by *released* event times);
* an event older than the watermark is **late** and hits a policy —
  ``"raise"`` (default), ``"drop"``, ``"side_output"`` or ``"retract"`` —
  applied by :class:`~repro.runtime.lateness.Lateness`, the stage that
  owns the buffer, the policies and the retract state.

The buffer is columnar: an :class:`~repro.events.block.EventBlock` in any
row order is buffered as a *segment* (argsorted and gathered once on entry
when it is not already in key order) and every release hands back **one**
block — a zero-copy slice when a single segment has rows under the
watermark, otherwise the ready prefixes of all segments joined, argsorted
and gathered once — so block ingest never builds a per-row object here.
Loose events (scalar ingest) ride an in-order fast-path tail list, falling
back to a heap only when an arrival regresses, and merge against that one
block by ``(time, sequence)``.

This module is also the one sanctioned home (with
:mod:`repro.events.stream`) of raw "cursor versus event time" order
comparisons: reprolint RL011 forbids them everywhere else, so the
executors and shared-window engines call the ``ensure_*`` guards below
instead of inlining the comparison — one exception type
(:class:`~repro.errors.OutOfOrderError`), one message format per
contract, no copy-paste drift.
"""

from __future__ import annotations

import bisect
import heapq
from math import isfinite
from typing import Any, Optional, Sequence, Union

from repro.errors import ExecutionError, OutOfOrderError
from repro.events.block import EventBlock
from repro.optimizer.registry import resolve_optimizer_factory

__all__ = [
    "LATE_POLICIES",
    "ReorderBuffer",
    "ensure_block_in_order",
    "ensure_in_order",
    "ensure_shared_order",
    "ensure_shared_run_order",
    "late_event_error",
    "validate_lateness",
]

#: The supported late-event policies, in documentation order.
LATE_POLICIES = ("raise", "drop", "side_output", "retract")

#: A release batch: loose events in order, or a block in key order.
Release = tuple[str, Union[list, EventBlock]]

#: Shared "nothing released" result of :meth:`ReorderBuffer.push` — callers
#: only iterate releases, so one immutable-by-convention instance avoids an
#: allocation per in-order event.
_NO_RELEASES: list = []


def validate_lateness(allowed_lateness, late_policy, on_late) -> None:
    """Fail fast on an inconsistent lateness configuration.

    Shared by the streaming executor, the sharded driver and the CLI so
    the three surfaces cannot drift on what a valid combination is.
    """
    if late_policy not in LATE_POLICIES:
        raise ExecutionError(
            f"late policy must be one of {', '.join(LATE_POLICIES)}, "
            f"got {late_policy!r}"
        )
    if allowed_lateness is None:
        if late_policy != "raise":
            raise ExecutionError(
                f"late_policy={late_policy!r} requires allowed_lateness: "
                "without a lateness horizon there is no watermark to be "
                "late against"
            )
        if on_late is not None:
            raise ExecutionError(
                "on_late requires allowed_lateness and "
                "late_policy='side_output'"
            )
        return
    if not allowed_lateness >= 0.0:  # also rejects NaN
        raise ExecutionError(
            f"allowed_lateness must be >= 0, got {allowed_lateness!r}"
        )
    if late_policy == "side_output" and on_late is None:
        raise ExecutionError(
            "late_policy='side_output' requires an on_late callback to "
            "receive the late events"
        )
    if on_late is not None and late_policy != "side_output":
        raise ExecutionError(
            "on_late is only consumed by late_policy='side_output'; "
            f"got late_policy={late_policy!r}"
        )


def validate_stream_options(optimizer, allowed_lateness, late_policy, on_late):
    """Fail fast on the options of a :class:`~repro.runtime.streaming.
    StreamingExecutor` that the sharded driver forwards to every shard.

    The one check both constructors and the CLI run, so what the driver
    accepts is what its shards' executors will.  Returns the resolved
    optimizer factory.
    """
    optimizer_factory = resolve_optimizer_factory(optimizer)
    validate_lateness(allowed_lateness, late_policy, on_late)
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
    """Reject a time column holding a NaN or an infinity, naming the value.

    One C-speed pass: a non-finite value makes the sum non-finite.  (So can
    overflow of huge finite times; the walk then finds nothing to name.)
    """
    if not isfinite(sum(times)):
        for value in times:
            if not isfinite(value):
                raise non_finite_time_error(value, what=what)


def ensure_in_order(time, clock, *, what: str = "streaming executor") -> None:
    """Reject an event time regressing behind the stream clock, or not finite.

    The time-only, non-strict contract of the executor boundaries: equal
    times are fine (``(time, sequence)`` strictness is the shared-window
    engines' stricter, separate contract).
    """
    if time < clock:
        raise _regression_error(time, clock, what)
    if not isfinite(time):
        raise non_finite_time_error(time, what=what)


def ensure_block_in_order(
    times: Sequence, start: int, stop: int, clock, *, what: str = "streaming executor"
):
    """Validate a whole block slice against the clock in one pass.

    Checks ``times[start:stop]`` is non-decreasing and does not start
    before ``clock`` — exactly what per-row :func:`ensure_in_order` calls
    with an advancing clock would enforce, hoisted out of the processing
    loop.  Returns the last time of the slice (the new clock), or
    ``clock`` for an empty slice.
    """
    window = times[start:stop]
    ensure_finite_times(window, what=what)
    # The in-order probe runs at C speed (one linear Timsort pass and one
    # list compare, as in ``_in_key_order``); the walk below only names the
    # offending row.
    if window and not window[0] < clock and sorted(window) == window:
        return window[-1]
    previous = clock
    for position in range(start, stop):
        value = times[position]
        if value < previous:
            raise _regression_error(value, previous, what)
        previous = value
    return previous


def _shared_order_error(time, sequence, last_time, last_sequence) -> OutOfOrderError:
    # The single message format of the strict shared-window contract; the
    # three historical call sites each had their own wording (and split
    # between StreamError and ExecutionError for the same condition).
    return OutOfOrderError(
        "shared-window execution requires strictly ordered arrival (by "
        f"time, then sequence); event time={time!r} seq={sequence} does "
        f"not follow time={last_time!r} seq={last_sequence} — use "
        "shared_windows=False for such streams"
    )


def ensure_shared_order(latest, event) -> None:
    """Strict ``(time, sequence)`` guard for one event against a cursor.

    ``latest`` is the engine's order cursor (an ``Event``, an
    ``_OrderPoint``, or ``None`` at start of stream); the comparison is
    duck-typed on ``time``/``sequence`` exactly like ``Event.__lt__``.
    """
    if latest is not None and not latest < event:
        raise _shared_order_error(
            event.time, event.sequence, latest.time, latest.sequence
        )


def ensure_shared_run_order(times: Sequence, sequences: Sequence, latest):
    """Strict guard over parallel scalar columns; returns ``(time, seq)``.

    The run-level guard of the engine's column folds — no per-event
    objects anywhere.  Returns the run's last ``(time, sequence)`` pair, or
    ``None`` for an empty run.
    """
    if latest is not None:
        last_time, last_sequence = latest.time, latest.sequence
    else:
        last_time, last_sequence = None, -1
    for time_value, sequence_value in zip(times, sequences):
        if last_time is not None and not (
            last_time < time_value
            or (last_time == time_value and last_sequence < sequence_value)
        ):
            raise _shared_order_error(
                time_value, sequence_value, last_time, last_sequence
            )
        last_time, last_sequence = time_value, sequence_value
    if last_time is None:
        return None
    return last_time, last_sequence


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


# ---------------------------------------------------------------------- #
# The reorder buffer
# ---------------------------------------------------------------------- #
def _in_key_order(block: EventBlock) -> EventBlock:
    """``block`` with its rows in ``(time, sequence)`` order — the block
    itself when both columns already ascend (the in-order stream's probe:
    two linear Timsort passes and two list compares, all at C speed).

    The argsort is two stable passes over homogeneous keys (ints, then
    floats), which keeps ``list.sort`` on its specialised compares; one
    pass over ``(time, sequence)`` tuples measured 2.4x slower.
    """
    times = block.times[block.start : block.stop]
    sequences = block.sequences[block.start : block.stop]
    if sorted(times) == times and sorted(sequences) == sequences:
        return block
    order = sorted(range(len(times)), key=sequences.__getitem__)
    order.sort(key=times.__getitem__)
    return block.select(order)


class ReorderBuffer:
    """Buffer-and-resort stage with a bounded lateness horizon.

    The buffer never interprets events — it orders opaque items by the
    ``(time, sequence)`` keys the caller hands in — so scalar events and
    columnar block segments coexist on one instance.  The contract:

    * :meth:`observe` advances the maximum event time seen (and with it
      the watermark ``max_time - allowed_lateness``);
    * :meth:`is_late` classifies an arrival against the watermark
      (strictly below: late — exactly the keys :meth:`release_ready`
      would already have released); :meth:`late_rows` does the same for a
      whole arriving time column;
    * :meth:`add` / :meth:`add_segment` buffer an item / a block (any row
      order);
    * :meth:`release_ready` pops everything strictly below the watermark
      in global ``(time, sequence)`` order.  All segment rows among it
      come back as **one** ``("block", ...)`` in key order: a zero-copy
      slice when a single segment holds them, one join + argsort + gather
      otherwise.  Loose events batch into ``("events", [...])`` runs, and
      only where such a run falls between two of the block's rows is the
      block handed back as consecutive zero-copy slices of itself;
    * :meth:`flush` drains everything (end of stream).

    Equal-time safety: an event at exactly the watermark stays buffered
    until the watermark strictly passes it, so a same-time,
    later-sequence arrival can never find its predecessor already
    released.  The instance pickles as-is — buffered state rides the
    executor snapshots into checkpoints — and stays horizon-sized: the
    tail's consumed prefix is dropped whenever it outweighs the live
    suffix and a segment pickles its unreleased rows only
    (``EventBlock.__reduce__``), so neither memory nor the pickle grows
    with the stream.
    """

    __slots__ = (
        "allowed_lateness",
        "_max_time",
        "_tail",
        "_tail_pos",
        "_tail_last_time",
        "_tail_last_seq",
        "_heap",
        "_pushes",
        "_segments",
        "_buffered",
    )

    def __init__(self, allowed_lateness: float) -> None:
        if not allowed_lateness >= 0.0:
            raise ExecutionError(
                f"allowed_lateness must be >= 0, got {allowed_lateness!r}"
            )
        self.allowed_lateness = allowed_lateness
        self._max_time = float("-inf")
        #: In-order fast path: arrivals that do not regress behind the last
        #: buffered key append here (cursor pops, no heap churn) — the
        #: common case, and what keeps fully in-order overhead near zero.
        self._tail: list[tuple[Any, int, Any]] = []
        self._tail_pos = 0
        #: The last tail key, as two scalars: the hot-path order test is
        #: two number compares, no tuple allocation.
        self._tail_last_time: Any = None
        self._tail_last_seq: int = -1
        #: Regressed arrivals: a heap keyed ``(time, sequence, push#)`` —
        #: the push counter breaks exact-key ties without comparing items.
        self._heap: list[tuple] = []
        self._pushes = 0
        #: Unreleased rows of the buffered blocks, each in key order.
        self._segments: list[EventBlock] = []
        self._buffered = 0

    def __len__(self) -> int:
        """Items currently buffered (block rows count individually)."""
        return self._buffered

    @property
    def max_event_time(self) -> float:
        """Maximum event time observed so far (``-inf`` before any)."""
        return self._max_time

    @property
    def watermark(self) -> float:
        """``max_event_time - allowed_lateness`` (``-inf`` before any)."""
        return self._max_time - self.allowed_lateness

    def observe(self, time) -> None:
        """Advance the maximum event time (watermark) past ``time``."""
        if time > self._max_time:
            self._max_time = time

    def is_late(self, time) -> bool:
        """True when ``time`` is strictly behind the watermark."""
        return time < self._max_time - self.allowed_lateness

    def late_rows(self, times: Sequence) -> list[int]:
        """Indices of the late rows of an arriving time column.

        Exactly the per-row ``is_late`` then ``observe`` sequence — a row
        is late against the maximum of everything before it, the column's
        own earlier rows included — without advancing the watermark (a
        late row is below the maximum, so it never would).  Two float
        compares per row; ``itertools.accumulate(times, max)`` measured
        six times slower.
        """
        newest = self._max_time
        lateness = self.allowed_lateness
        bound = newest - lateness
        late: list[int] = []
        for index, time in enumerate(times):
            if time > newest:
                newest = time
                bound = time - lateness
            elif time < bound:
                late.append(index)
        return late

    def add(self, time, sequence: int, item) -> None:
        """Buffer one item under key ``(time, sequence)``."""
        if self._tail_pos == len(self._tail):
            # Tail fully drained: any key restarts it in sorted order.
            if self._tail:
                self._tail.clear()
                self._tail_pos = 0
            self._tail.append((time, sequence, item))
            self._tail_last_time = time
            self._tail_last_seq = sequence
        elif time > self._tail_last_time or (
            time == self._tail_last_time and sequence >= self._tail_last_seq
        ):
            self._tail.append((time, sequence, item))
            self._tail_last_time = time
            self._tail_last_seq = sequence
        else:
            heapq.heappush(self._heap, (time, sequence, self._pushes, item))
            self._pushes += 1
        self._buffered += 1

    def push(self, time, sequence: int, item) -> Optional[list]:
        """``add`` + ``observe`` + a pure-tail release, in one call.

        The scalar hot path: when only the in-order tail is in play (no
        heap, no segments — the steady state of a well-behaved stream) the
        released items come back directly as a list, skipping the k-way
        merge and its per-release wrappers.  Returns ``None`` when the
        buffer fell back to the heap or segments exist; the caller must
        then run :meth:`release_ready` for the full merge.
        """
        if time > self._max_time:
            self._max_time = time
        if self._heap or self._segments:
            self.add(time, sequence, item)
            return None
        tail = self._tail
        position = self._tail_pos
        if position == len(tail):
            if tail:
                tail.clear()
                position = self._tail_pos = 0
            tail.append((time, sequence, item))
            self._tail_last_time = time
            self._tail_last_seq = sequence
        elif time > self._tail_last_time or (
            time == self._tail_last_time and sequence >= self._tail_last_seq
        ):
            tail.append((time, sequence, item))
            self._tail_last_time = time
            self._tail_last_seq = sequence
        else:
            heapq.heappush(self._heap, (time, sequence, self._pushes, item))
            self._pushes += 1
            self._buffered += 1
            return None
        self._buffered += 1
        # Release the tail prefix strictly below the watermark: with only
        # the tail populated, the global (time, sequence) order IS the tail
        # order, and "key < (watermark,)" reduces to "time < watermark".
        bound = self._max_time - self.allowed_lateness
        if tail[position][0] >= bound:
            return _NO_RELEASES
        released = []
        while position < len(tail) and tail[position][0] < bound:
            released.append(tail[position][2])
            position += 1
        if position == len(tail):
            tail.clear()
            position = 0
        elif position > len(tail) - position:
            # Drop the consumed prefix once it outweighs the live suffix:
            # amortised O(1) per release, and the tail (memory and pickle)
            # stays within 2x the lateness horizon's population instead
            # of growing with the stream.
            del tail[:position]
            position = 0
        self._tail_pos = position
        self._buffered -= len(released)
        return released

    def add_segment(self, block: EventBlock) -> None:
        """Buffer the rows of ``block``, in whatever order they arrive."""
        if block:
            self._segments.append(_in_key_order(block))
            self._buffered += len(block)

    # ------------------------------------------------------------------ #
    # Release
    # ------------------------------------------------------------------ #
    def release_ready(self) -> list[Release]:
        """Pop every buffered item strictly below the watermark, in order."""
        if not self._buffered:
            return []
        return self._release((self._max_time - self.allowed_lateness,))

    def flush(self) -> list[Release]:
        """Pop everything (end of stream), in ``(time, sequence)`` order."""
        if not self._buffered:
            return []
        return self._release(None)

    def _loose_head(self) -> Optional[tuple]:
        """Smallest ``(time, sequence)`` among the loose items, if any."""
        head = None
        if self._tail_pos < len(self._tail):
            head = self._tail[self._tail_pos][:2]
        if self._heap and (head is None or self._heap[0][:2] < head):
            head = self._heap[0][:2]
        return head

    def _release(self, bound: Optional[tuple]) -> list[Release]:
        # A bound key ``(time,)`` compares below every same-time ``(time,
        # seq)`` key, which is what keeps equal-time items buffered until
        # the watermark strictly passes them.
        block = self._pop_ready_block(bound) if self._segments else None
        if self._tail_pos == len(self._tail) and not self._heap:
            return [] if block is None else [("block", block)]
        # Loose events in play: alternate their runs with slices of the
        # one ready block, cut where a loose key falls between two rows.
        releases: list[Release] = []
        rows = 0 if block is None else len(block)
        row = 0
        while True:
            limit = bound
            if row < rows:
                position = block.start + row
                limit = (block.times[position], block.sequences[position])
            events = self._pop_loose(limit)
            if events:
                releases.append(("events", events))
            if row == rows:
                return releases
            head = self._loose_head()
            if head is not None and bound is not None and not head < bound:
                head = None
            # (At least one row: an exact key tie must not stall the merge.)
            stop = max(self._segment_stop(block, row, head), row + 1)
            releases.append(("block", block.slice(row, stop)))
            row = stop

    def _pop_ready_block(self, bound: Optional[tuple]) -> Optional[EventBlock]:
        """Pop the segments' rows below ``bound`` as one block in key order."""
        ready: list[EventBlock] = []
        kept: list[EventBlock] = []
        for segment in self._segments:
            rows = len(segment)
            cut = rows if bound is None else self._segment_stop(segment, 0, bound)
            if cut:
                ready.append(segment.slice(0, cut))
            if cut < rows:
                kept.append(segment.slice(cut, rows))
        if not ready:
            return None
        self._segments = kept
        # Several segments: their ready prefixes are sorted runs, which is
        # what Timsort merges in near-linear time.
        block = ready[0] if len(ready) == 1 else _in_key_order(EventBlock.concat(ready))
        self._buffered -= len(block)
        return block

    def _pop_loose(self, limit: Optional[tuple]) -> list:
        """Pop the loose items below ``limit`` (all, if ``None``), in order."""
        events: list = []
        tail, heap = self._tail, self._heap
        while True:
            tail_head = tail[self._tail_pos][:2] if self._tail_pos < len(tail) else None
            heap_head = heap[0][:2] if heap else None
            if heap_head is not None and (tail_head is None or heap_head < tail_head):
                if limit is not None and not heap_head < limit:
                    break
                events.append(heapq.heappop(heap)[3])
            elif tail_head is not None:
                if limit is not None and not tail_head < limit:
                    break
                events.append(tail[self._tail_pos][2])
                self._tail_pos += 1
            else:
                break
        if self._tail_pos > len(tail) - self._tail_pos:
            # Same compaction as push(): consumed prefix dropped once it
            # outweighs the live suffix (all of it, when the tail drained).
            del tail[: self._tail_pos]
            self._tail_pos = 0
        self._buffered -= len(events)
        return events

    @staticmethod
    def _segment_stop(block: EventBlock, relative: int, limit: Optional[tuple]) -> int:
        """First relative row of ``block`` at or past ``limit`` (len if none)."""
        length = len(block)
        if limit is None:
            return length
        times = block.times
        base = block.start
        stop = bisect.bisect_left(times, limit[0], base + relative, block.stop) - base
        if len(limit) == 2:
            sequences = block.sequences
            while (
                stop < length
                and times[base + stop] == limit[0]
                and sequences[base + stop] < limit[1]
            ):
                stop += 1
        return stop
