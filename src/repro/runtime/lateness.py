"""The lateness stage: everything the runtime knows about disorder.

HAMLET's runtime (paper Fig. 2) is *partition -> executor -> results* over
an in-order stream; bounded disorder is this repo's addition, and it lives
here, in front of the executor core, never inside it (``Lateness -> core
-> output``; diagram in docs/DESIGN.md, "Out-of-order ingestion").

With ``allowed_lateness=N`` the executor builds one :class:`Lateness` per
run and hands it every arrival.  The stage owns the
:class:`~repro.runtime.reorder.ReorderBuffer` (arrivals within the horizon
drain into the core in ``(time, sequence)`` order), the late policy for an
arrival behind the watermark with its three counters, and — under
``"retract"`` — the ring of the last two core snapshots, each with the
releases fed since, plus the log of emitted windows that re-closing
windows are reconciled against.  A retraction is an *update* with bounded
work, never a replay of the stream: restore the newest retained snapshot
at or before the late key, merge the late event into the releases logged
since, feed those — at most two rotation intervals of rows — again.  Both
ordering decisions (which snapshot, where in the log) are made by a
scratch ``ReorderBuffer``: this module compares no key itself.

Scalar arrivals wait until the watermark strictly passes the first one at
or after the *edge*, the next window end after the last released row (so a
window closes in the call that lifts the watermark past it), and go to the
core as one run; under ``"retract"`` the edge stays ``-inf``.

The stage pickles itself — it *is* the ``"lateness"`` section of an
executor snapshot — minus the ``on_late`` callback, which its new owner
sets again.  It reaches the core through the calls of :class:`Core`
only and is *handed* the core with every arrival instead of keeping it:
neither object appears in the other's pickle, the executor stays free of
reference cycles (it is reclaimed by reference count, reports and all, not
by a later collector pass), and the tests drive the stage with a scripted
core.
"""

from __future__ import annotations

import sys
from dataclasses import replace
from math import inf, isfinite
from typing import Any, Callable, Optional, Protocol

from repro.errors import OutOfOrderError
from repro.events.block import EventBlock
from repro.events.event import Event
from repro.runtime.reorder import (
    Release,
    ReorderBuffer,
    late_event_error,
    non_finite_time_error,
)

__all__ = ["STAGE_ROWS", "Core", "Lateness"]

#: Rows the core takes at most in one fold: so many arrivals since the last
#: release force one, as do a block, a snapshot, ``finish`` and a live-state
#: reader (and ``process()`` stages no more in strict order).
STAGE_ROWS = 4096

#: Retract policy: a core snapshot is rotated every this many released
#: rows; the last two are retained, bounding both the replay work of one
#: retraction (at most two intervals of rows) and the snapshot memory.
_RETRACT_INTERVAL = 256


class Core(Protocol):
    """What the stage calls on the executor core behind it (package-private
    names: :class:`~repro.runtime.streaming.StreamingExecutor` is one)."""

    def _ingest_events(self, events: list[Event]) -> None:
        """Feed one run of released events in key order."""

    def _ingest_block(self, block: EventBlock) -> None:
        """Feed one block in key order."""

    def _edge_after(self, time: float) -> float:
        """The smallest window end after ``time``, over the core's windows."""

    def _core_state(self) -> Any:
        """An opaque, detached copy of the core's live state."""

    def _restore_core(self, snapshot: Any) -> int:
        """Roll the core (running totals, kept rows; staged events dropped)
        back to a ``_core_state()`` copy; returns its mark: windows closed."""


def _last_key(release: Release) -> tuple:
    """``(time, sequence)`` of the last row of one release."""
    kind, payload = release
    if kind == "events":
        last = payload[-1]
        return last.time, last.sequence
    position = payload.stop - 1
    return payload.times[position], payload.sequences[position]


def _splice(releases: list[Release], event: Event) -> list[Release]:
    """``releases`` (consecutive, each in key order) with ``event`` merged
    in at its ``(time, sequence)`` position — by the reorder buffer's own
    merge, which joins the blocks and cuts the result only where a run of
    events falls between two block rows."""
    merge = ReorderBuffer(0.0)
    for kind, payload in releases:
        if kind == "block":
            merge.add_segment(payload)
        else:
            for item in payload:
                merge.add(item.time, item.sequence, item)
    merge.add(event.time, event.sequence, event)
    return merge.flush()


class Lateness:
    """Reorder buffer + late policy + retraction, in front of one core."""

    def __init__(
        self,
        core: Core,
        allowed_lateness: float,
        late_policy: str = "raise",
        on_late: Optional[Callable[[Event], None]] = None,
    ) -> None:
        self.buffer = ReorderBuffer(allowed_lateness)
        self.late_policy = late_policy
        self.on_late = on_late
        #: Late arrivals by policy (upstream of the core: no rollback reaches them).
        self.late_dropped = 0
        self.late_side_output = 0
        self.late_retracted = 0
        #: Retract policy only (``None`` otherwise): the retained ``[cursor,
        #: core snapshot, releases fed since]`` entries, oldest first — the
        #: cursor is the key of the last row fed before the snapshot.
        self._ring: Optional[list[list]] = None
        if late_policy == "retract":
            self._ring = [[(float("-inf"), float("-inf")), core._core_state(), []]]
        self._since_rotate = 0
        #: ``(group key, window index, unit's names) -> (read-only row,
        #: window end)`` of what went out; a re-close compares slots to it.
        self._emitted: dict = {}
        #: Lowest output mark a retraction rolled back to since the last
        #: :meth:`delta_start` (``sys.maxsize``: none did).
        self._rewound = sys.maxsize
        #: The edge, and the earliest buffered time at or after it: the release is due.
        self._edge = -inf
        self._due = inf

    def __getstate__(self) -> dict:
        # Callbacks never pickle: whoever unpickles the stage sets its own.
        return {**self.__dict__, "on_late": None}

    @property
    def retained_snapshots(self) -> list:
        """The core snapshots a retraction can restore, oldest first."""
        return [snapshot for _, snapshot, _ in self._ring or ()]

    # ------------------------------------------------------------------ #
    # Ingest
    # ------------------------------------------------------------------ #
    def offer(self, core: Core, event: Event) -> None:
        """Take one arrival: buffer it and feed ``core`` the rows below the
        watermark once it passes what can close a window; or apply the late policy."""
        time = event.time
        buffer = self.buffer
        if not buffer.floor <= time < inf:  # late, or not finite (NaN too)
            if not isfinite(time):
                raise non_finite_time_error(time)
            self._late(core, time, event.sequence, lambda: event)
            return
        pending = buffer.pending
        pending.append((time, event.sequence, event))
        if self._edge <= time < self._due:
            self._due = time
        buffer.observe(time)
        if self._due < buffer.floor or len(pending) >= STAGE_ROWS:
            self.release(core)

    def offer_block(self, core: Core, block: EventBlock) -> None:
        """Take one block, rows in any order, as columns.

        The block is cut at its late rows (usually none: one segment, one
        drain).  Late means behind what was *released*, so the releases are
        caught up with the watermark the rows before a late row advanced
        before the policy sees it; only a late row handed to
        ``side_output`` / ``retract`` becomes an :class:`Event`.
        """
        buffer = self.buffer
        count, base, times = len(block), block.start, block.times
        late, newest = buffer.late_cuts(times, base, block.stop)
        cursor = 0
        for index, top in zip((*late, count), newest):
            if index > cursor:
                buffer.add_segment(block.slice(cursor, index))
                buffer.observe(top)
                self._drain(core, buffer.release_ready())
            if index < count:
                self._late(
                    core,
                    times[base + index],
                    block.sequences[base + index],
                    lambda: block.event_at(index),
                )
            cursor = index + 1

    def release(self, core: Core) -> None:
        """Feed the core everything buffered strictly below the watermark."""
        self._drain(core, self.buffer.release_ready())

    def flush(self, core: Core) -> None:
        """End of stream: feed the core everything still buffered."""
        self._drain(core, self.buffer.flush())

    def _drain(self, core: Core, releases: list[Release], replay: bool = False) -> None:
        """Feed the core what the buffer released, schedule the next release;
        under ``"retract"`` log it, rotating a snapshot once an interval of rows
        went through (``replay``: a retraction feeding its log again — neither)."""
        for kind, payload in releases:
            (core._ingest_block if kind == "block" else core._ingest_events)(payload)
        ring = self._ring
        if ring is None:
            if releases:
                self._edge = core._edge_after(_last_key(releases[-1])[0])
        elif releases and not replay:
            ring[-1][2].extend(releases)
            self._since_rotate += sum(len(payload) for _, payload in releases)
            if self._since_rotate >= _RETRACT_INTERVAL:
                self._rotate(core, _last_key(releases[-1]))
        self._due = self.buffer.first_at_or_after(self._edge)

    # ------------------------------------------------------------------ #
    # Late arrivals
    # ------------------------------------------------------------------ #
    def _late(self, core: Core, time: float, sequence: int, view: Callable[[], Event]) -> None:
        """Apply the policy to one arrival behind the watermark; ``view``
        yields its :class:`Event` for the policies that take one."""
        policy = self.late_policy
        if policy == "drop":
            self.late_dropped += 1
        elif policy == "side_output":
            self.late_side_output += 1
            self.on_late(view())  # type: ignore[misc]  # validated non-None
        elif policy == "retract":
            self._retract(core, view())
            self.late_retracted += 1
        else:
            buffer = self.buffer
            raise late_event_error(time, sequence, buffer.watermark, buffer.allowed_lateness)

    def _rotate(self, core: Core, cursor: tuple) -> None:
        """Snapshot the core at ``cursor``; retain the last two entries.

        An entry dropped off the ring takes its releases with it (a replay
        never reaches behind the oldest retained snapshot), and so go the
        emitted windows that closed before it (they can never re-close).
        """
        ring = self._ring
        assert ring is not None
        ring.append([cursor, core._core_state(), []])
        if len(ring) > 2:
            del ring[:-2]
            horizon = ring[0][0][0]
            self._emitted = {
                key: value for key, value in self._emitted.items() if value[1] > horizon
            }
        self._since_rotate = 0

    def _retract(self, core: Core, event: Event) -> None:
        """Fold one arrival behind the watermark into already-fed state;
        windows that re-close during the replay go through :meth:`reconcile`."""
        ring = self._ring
        assert ring is not None
        # Rank the late key among the retained cursors: the newest entry
        # whose cursor does not follow it is the one to restore.
        ranks = ReorderBuffer(0.0)
        for index, entry in enumerate(ring):
            ranks.add(*entry[0], index)
        ranks.add(event.time, event.sequence, None)
        chosen = ranks.flush()[0][1].index(None) - 1
        if chosen < 0:
            raise OutOfOrderError(
                f"retract horizon exceeded: event at time={event.time!r} "
                f"seq={event.sequence} predates the oldest retained engine "
                f"snapshot; raise allowed_lateness to buffer more disorder"
            )
        merged = _splice([release for entry in ring[chosen:] for release in entry[2]], event)
        # Newer snapshots were taken without this event; restoring one
        # later would silently lose it.
        del ring[chosen + 1 :]
        ring[chosen][2] = merged
        self._rewound = min(self._rewound, core._restore_core(ring[chosen][1]))
        self._drain(core, merged, replay=True)

    # ------------------------------------------------------------------ #
    # Output side
    # ------------------------------------------------------------------ #
    def reconcile(self, result: Any) -> Any:
        """What to deliver for one closed window: the result; under
        ``"retract"`` ``None`` for a re-close that changed nothing, and a
        ``retraction=True`` copy for one that did, so downstream consumers
        can overwrite the stale value."""
        if self._ring is None:
            return result
        key = (result.group_key, result.window_index, result.results.layout.names)
        previous = self._emitted.get(key)
        if previous is not None:
            if previous[0] == result.results:
                return None
            result = replace(result, retraction=True)
        self._emitted[key] = (result.results, result.window_end)
        return result

    def delta_start(self, since: int) -> int:
        """First output row an incremental snapshot must carry when its
        predecessor carried rows up to ``since``: further back when a
        retraction rewrote rows that one already handed out.  Resets."""
        start = min(since, self._rewound)
        self._rewound = sys.maxsize
        return start
