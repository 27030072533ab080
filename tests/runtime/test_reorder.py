"""Out-of-order ingestion: the reorder buffer, late policies, differentials.

The contract under test (PR 10): with ``allowed_lateness`` set, any stream
whose events arrive within the lateness horizon of the watermark produces
**bit-identical** results to the fully ordered run — same totals, same
partition results, same emission order — through every ingestion surface
(scalar ``process``, columnar ``process_block``, the sharded driver) and
every backend and shard-count combination.  Events later than the horizon hit
the configured policy: ``raise`` (default), ``drop``, ``side_output`` or
``retract``.

Since PR 15 the block side is columnar whatever the row order: a shuffled
block is sorted, merged and released as a block (one per release), and a
row becomes an ``Event`` only when ``side_output`` / ``retract`` take it.
"""

from __future__ import annotations

import pickle
import random
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import HamletEngine
from repro.errors import ExecutionError, OutOfOrderError
from repro.events import Event, EventStream
from repro.events.block import EventBlock
from repro.query import Query, Window, avg, kleene, seq, sum_of
from repro.runtime import (
    ReorderBuffer,
    ShardedStreamingExecutor,
    StreamingExecutor,
    run_sharded,
    run_streaming,
)
from repro.runtime.checkpoint import CheckpointStore
from repro.runtime.reorder import _in_key_order, ascending
from tests.conftest import PER_INSTANCE_KINDS, decision_counters, per_instance_setup

WINDOW = Window(16.0, 4.0)


def grouped_queries(window: Window = WINDOW) -> list[Query]:
    return [
        Query.build(seq("A", kleene("B")), group_by=("g",), window=window, name="rq1"),
        Query.build(seq("C", kleene("B")), group_by=("g",), window=window, name="rq2"),
    ]


def make_events(seed: int, size: int, groups: int = 4) -> list[Event]:
    rng = random.Random(seed)
    events = []
    clock = 0.0
    for index in range(size):
        clock += rng.random()
        type_name = rng.choices(("A", "B", "C"), weights=(1, 3, 1))[0]
        events.append(
            Event(
                type_name,
                clock,
                {"v": float(rng.randint(0, 5)), "g": float(rng.randint(1, groups))},
                sequence=index,
            )
        )
    return events


def shuffle_within(events: list[Event], horizon: float, seed: int) -> list[Event]:
    """Reorder ``events`` so every arrival stays within ``horizon`` of the
    watermark: sorting by a key displaced at most ``horizon / 2`` keeps any
    event at most ``horizon`` behind the max event time seen on arrival."""
    rng = random.Random(seed)
    return sorted(
        events,
        key=lambda event: (event.time + rng.uniform(-horizon / 2, horizon / 2)),
    )


def emission_trace(results: list) -> list[tuple]:
    """Emission-order fingerprint (latencies excluded: they are wall-clock)."""
    return [
        (
            r.group_key,
            r.window_index,
            r.window_start,
            r.window_end,
            dict(r.results),
            r.events,
            r.retraction,
        )
        for r in results
    ]


def report_fingerprint(report) -> tuple:
    return (
        dict(report.totals),
        [
            (p.group_key, p.window_index, p.window_start, dict(p.results), p.events)
            for p in report.partition_results
        ],
    )


# --------------------------------------------------------------------- #
# ReorderBuffer unit behaviour
# --------------------------------------------------------------------- #
class TestReorderBuffer:
    @staticmethod
    def _drain_keys(releases) -> list[tuple]:
        keys: list[tuple] = []
        for kind, payload in releases:
            if kind == "events":
                keys.extend((item[0], item[1]) for item in payload)
            else:  # an EventBlock slice
                keys.extend(
                    (payload.times[i], payload.sequences[i])
                    for i in range(payload.start, payload.stop)
                )
        return keys

    def test_releases_in_total_order(self):
        buffer = ReorderBuffer(5.0)
        released: list[tuple] = []
        arrivals = [(3.0, 0), (1.0, 1), (6.0, 2), (4.0, 3), (9.0, 4), (7.0, 5)]
        for time, sequence in arrivals:
            buffer.add(time, sequence, (time, sequence))
            buffer.observe(time)
            released.extend(self._drain_keys(buffer.release_ready()))
        released.extend(self._drain_keys(buffer.flush()))
        assert released == sorted((t, s) for t, s in arrivals)
        assert len(buffer) == 0

    def test_equal_time_to_watermark_stays_buffered(self):
        # Releasing events *at* the watermark would lose against a same-time
        # later-sequence arrival still within the horizon.
        buffer = ReorderBuffer(10.0)
        buffer.add(5.0, 0, (5.0, 0))
        buffer.observe(5.0)
        buffer.add(15.0, 1, (15.0, 1))
        buffer.observe(15.0)  # watermark now exactly 5.0
        assert self._drain_keys(buffer.release_ready()) == []
        assert not 5.0 < buffer.watermark  # a same-time arrival is not late
        buffer.add(5.0, 2, (5.0, 2))
        buffer.observe(5.0)
        assert self._drain_keys(buffer.flush()) == [(5.0, 0), (5.0, 2), (15.0, 1)]

    def test_sorted_segments_merge_with_loose_events(self):
        events = make_events(seed=3, size=30)
        block = EventBlock.from_events(events[10:20])
        buffer = ReorderBuffer(1000.0)
        for event in events[:10] + events[20:]:
            buffer.add(event.time, event.sequence, (event.time, event.sequence))
        buffer.add_segment(block)
        keys = self._drain_keys(buffer.flush())
        assert keys == [(event.time, event.sequence) for event in events]

    def test_single_segment_releases_zero_copy_slices(self):
        events = make_events(seed=4, size=12)
        block = EventBlock.from_events(events)
        buffer = ReorderBuffer(2.0)
        buffer.add_segment(block)
        buffer.observe(events[-1].time)
        (kind, ready), = buffer.release_ready()
        assert kind == "block" and 0 < len(ready) < len(block)
        assert ready.times is block.times  # the in-order stream copies nothing
        (kind, rest), = buffer.flush()
        assert rest.times is block.times and len(ready) + len(rest) == len(block)
        assert buffer.flush() == [] and len(buffer) == 0

    def test_shuffled_segments_release_one_block_per_call(self):
        # Frames of a shuffled stream overlap in time — the normal case:
        # every release is still a single block, in key order, strictly
        # below the watermark, and nothing is lost or repeated.
        events = make_events(seed=5, size=400)
        shuffled = shuffle_within(events, horizon=12.0, seed=6)
        buffer = ReorderBuffer(12.0)
        released: list[tuple] = []
        for start in range(0, len(shuffled), 37):
            frame = shuffled[start : start + 37]
            buffer.add_segment(EventBlock.from_events(frame))
            buffer.observe(max(event.time for event in frame))
            releases = buffer.release_ready()
            assert [kind for kind, _ in releases] in ([], ["block"])
            keys = self._drain_keys(releases)
            assert all(time < buffer.watermark for time, _ in keys)
            released.extend(keys)
            assert len(buffer) == start + len(frame) - len(released)
        assert 0 < len(buffer) < 200  # the horizon's population stays behind
        final = buffer.flush()
        assert [kind for kind, _ in final] == ["block"]
        released.extend(self._drain_keys(final))
        assert released == [(event.time, event.sequence) for event in events]

    def test_segments_of_different_producers_merge_in_one_release(self):
        # Independently built blocks: different interned type tables, key
        # tables, and more than one payload shape each.
        first = [
            Event("A", 1.0, {"g": 1.0}, sequence=0),
            Event("B", 4.0, {"g": 1.0, "v": 2.0}, sequence=3),
            Event("A", 6.0, {"w": "x"}, sequence=5),
        ]
        second = [
            Event("C", 5.0, {"v": 1.0, "g": 2.0}, sequence=4),
            Event("B", 3.0, {"g": 2.0}, sequence=2),
            Event("D", 2.0, {}, sequence=1),
        ]
        buffer = ReorderBuffer(100.0)
        buffer.add_segment(EventBlock.from_events(first))
        buffer.add_segment(EventBlock.from_events(second))
        (kind, merged), = buffer.flush()
        assert kind == "block"
        expected = sorted(first + second)
        assert merged.to_events() == expected
        assert [e.payload for e in merged.to_events()] == [e.payload for e in expected]
        table, codes = merged.group_codes(("g",))
        assert [table[code] for code in codes] == [(e.get("g"),) for e in expected]

    def test_equal_time_rows_sequence_shuffled_across_two_blocks(self):
        rows = [Event("B", 2.0, {"g": 1.0}, sequence=index) for index in range(8)]
        rows += [Event("B", 3.0, {"g": 1.0}, sequence=8)]
        buffer = ReorderBuffer(1.0)
        buffer.add_segment(EventBlock.from_events([rows[i] for i in (6, 1, 8, 3)]))
        buffer.add_segment(EventBlock.from_events([rows[i] for i in (7, 0, 5, 2, 4)]))
        buffer.observe(3.0)  # watermark exactly 2.0: equal-time rows stay put
        assert buffer.release_ready() == []
        buffer.observe(3.5)
        (_, merged), = buffer.release_ready()
        assert merged.to_events() == rows[:8]
        assert self._drain_keys(buffer.flush()) == [(3.0, 8)]

    def test_loose_events_interleave_with_slices_of_the_one_block(self):
        events = make_events(seed=7, size=40)
        shuffled = shuffle_within(events, horizon=6.0, seed=8)
        loose = shuffled[::3]
        blocked = [event for event in shuffled if event not in loose]
        buffer = ReorderBuffer(1000.0)
        for event in loose:
            buffer.add(event.time, event.sequence, (event.time, event.sequence))
        buffer.add_segment(EventBlock.from_events(blocked[:15]))
        buffer.add_segment(EventBlock.from_events(blocked[15:]))
        releases = buffer.flush()
        assert self._drain_keys(releases) == [(e.time, e.sequence) for e in events]
        roots = {id(payload.times) for kind, payload in releases if kind == "block"}
        assert len(roots) == 1  # one gather; the rest are slices of it

    def test_late_cuts_is_the_per_row_watermark_then_observe_sequence(self):
        rng = random.Random(9)
        times = [rng.uniform(0.0, 60.0) for _ in range(300)]
        for entry in (float("-inf"), 30.0, 100.0):
            column, reference = ReorderBuffer(5.0), ReorderBuffer(5.0)
            column.observe(entry)
            reference.observe(entry)
            expected, newest = [], []
            for index, time in enumerate(times):
                if time < reference.watermark:
                    expected.append(index)
                    newest.append(reference.max_event_time)
                else:
                    reference.observe(time)
            newest.append(reference.max_event_time)
            # A list takes the Python loop, a typed column the fold core's scan.
            for kind in (list, lambda values: array("d", values)):
                assert column.late_cuts(kind(times), 0, len(times)) == (expected, newest)
            assert column.max_event_time == entry  # classification only
        assert ReorderBuffer(5.0).late_cuts([], 0, 0) == ([], [float("-inf")])

    def test_buffered_segments_pickle_their_unreleased_rows_only(self):
        events = make_events(seed=10, size=3_000)
        block = EventBlock.from_events(events)
        buffer = ReorderBuffer(10.0)
        buffer.add_segment(block)
        buffer.observe(events[-1].time)
        buffer.release_ready()
        assert 0 < len(buffer) < 100
        clone = pickle.loads(pickle.dumps(buffer))
        assert len(pickle.dumps(buffer)) < len(pickle.dumps(block)) / 10
        assert self._drain_keys(clone.flush()) == self._drain_keys(buffer.flush())

    def test_in_order_typed_segment_is_kept_without_a_gather(self, monkeypatch):
        # A decoded block's time/sequence columns are typed arrays: the
        # in-order probe must see that they ascend (``sorted(a) == a`` never
        # does for an array) and keep the block itself — no argsort, no select.
        events = make_events(seed=11, size=200)
        block = EventBlock.from_bytes(EventBlock.from_events(events).to_bytes())
        assert type(block.times).__name__ == "array"
        selects = []
        select = EventBlock.select
        monkeypatch.setattr(
            EventBlock, "select", lambda self, rows: selects.append(rows) or select(self, rows)
        )
        view = block.slice(20, 180)
        assert _in_key_order(block) is block and _in_key_order(view) is view
        buffer = ReorderBuffer(5.0)
        buffer.add_segment(block)
        assert selects == []
        (kind, released), = buffer.flush()
        assert released.times is block.times and len(released) == len(block)  # a slice
        assert selects == []
        # A disordered typed block still gets sorted — and stays typed.
        swapped = block.select([1, 0] + list(range(2, len(block))))
        ordered = _in_key_order(swapped)
        assert ordered.to_events() == events and type(ordered.times).__name__ == "array"

    def test_ascending_probe_matches_the_sorted_compare(self):
        rng = random.Random(12)
        for _ in range(200):
            values = sorted(rng.choice((0.0, 1.0, 2.5)) for _ in range(rng.randint(0, 6)))
            if values and rng.random() < 0.5:
                values[rng.randrange(len(values))] = -1.0
            expected = sorted(values) == values
            assert ascending(values) is expected
            assert ascending(array("d", values)) is expected

    def test_negative_or_nan_lateness_rejected(self):
        with pytest.raises(ExecutionError, match="allowed_lateness"):
            ReorderBuffer(-1.0)
        with pytest.raises(ExecutionError, match="allowed_lateness"):
            ReorderBuffer(float("nan"))


class TestHorizonBoundedState:
    """Buffer memory and its pickle follow the lateness horizon's
    population, not the stream: the pending entries are unreleased items
    only (an earlier in-order tail list once kept every entry ever appended
    while anything at all stayed buffered, i.e. for the whole life of a
    steady stream)."""

    HORIZON = 40.0

    @staticmethod
    def _arrivals(size: int) -> list[tuple]:
        rng = random.Random(size)
        keys = [(float(index), index) for index in range(size)]
        return sorted(keys, key=lambda key: key[0] + rng.uniform(-20.0, 20.0))

    @staticmethod
    def _step(buffer: ReorderBuffer, chunk: list[tuple], scalar: bool) -> list[tuple]:
        """Feed one chunk the way the executor does; returns what it released."""
        drain = TestReorderBuffer._drain_keys
        released: list[tuple] = []
        if scalar:
            for time, sequence in chunk:
                released.extend(drain(buffer.push(time, sequence, (time, sequence))))
        else:  # add + observe per item, one release per chunk
            for time, sequence in chunk:
                buffer.add(time, sequence, (time, sequence))
                buffer.observe(time)
            released.extend(drain(buffer.release_ready()))
        return released

    def _feed(self, size: int, scalar: bool):
        """Returns (released keys, per-chunk ``len(buffer)``, the buffer's
        pickle three quarters into the stream)."""
        buffer = ReorderBuffer(self.HORIZON)
        arrivals = self._arrivals(size)
        released: list[tuple] = []
        depths: list[int] = []
        pickled = b""
        for start in range(0, size, 64):
            released.extend(self._step(buffer, arrivals[start : start + 64], scalar))
            depths.append(len(buffer))
            if start <= size * 3 // 4 < start + 64:
                pickled = pickle.dumps(buffer)
        assert len(buffer) == size - len(released)
        released.extend(TestReorderBuffer._drain_keys(buffer.flush()))
        assert len(buffer) == 0 and not buffer.pending
        return released, depths, pickled

    @pytest.mark.parametrize("scalar", (True, False), ids=("push", "add"))
    def test_pending_segment_and_pickle_follow_the_horizon_not_the_stream(self, scalar):
        small, small_depths, small_pickle = self._feed(20_000, scalar)
        large, large_depths, large_pickle = self._feed(80_000, scalar)
        assert small == sorted(small) and len(small) == 20_000
        assert large == sorted(large) and len(large) == 80_000
        # Depth is the horizon's population either way (~HORIZON + a chunk).
        assert max(large_depths) <= max(small_depths) + 64 <= 4 * self.HORIZON + 128
        # 4x the stream, same pickle (at the parent: ~4x the bytes).
        assert len(large_pickle) <= 1.5 * len(small_pickle)
        clone = pickle.loads(large_pickle)
        assert len(clone.pending) + sum(map(len, clone._runs)) == len(clone) <= max(large_depths)

    @pytest.mark.parametrize("scalar", (True, False), ids=("push", "add"))
    def test_mid_buffer_pickle_round_trip_releases_identically(self, scalar):
        """A buffer pickled mid-stream continues exactly like the one it
        was copied from, wherever the last compaction fell."""
        arrivals = self._arrivals(3_000)
        for split in (1_999, 2_000, 2_017):
            buffer = ReorderBuffer(self.HORIZON)
            released = self._step(buffer, arrivals[:split], scalar)
            clone = pickle.loads(pickle.dumps(buffer))
            assert len(clone) == len(buffer)
            tails = []
            for target in (buffer, clone):
                tail = self._step(target, arrivals[split:], scalar)
                tail.extend(TestReorderBuffer._drain_keys(target.flush()))
                tails.append(tail)
            assert tails[0] == tails[1]
            assert released + tails[0] == sorted(arrivals)


class _SortedListModel:
    """The buffer's contract as a sorted list: everything pending below a
    bound comes out ordered by ``(time, sequence)``, block rows before loose
    items on an exact key tie, and duplicates otherwise in arrival order."""

    BLOCK, LOOSE = 0, 1

    def __init__(self, lateness: float) -> None:
        self.lateness = lateness
        self.max_time = float("-inf")
        self.pending: list[tuple] = []  # (time, sequence, rank, arrival)

    def observe(self, time: float) -> None:
        self.max_time = max(self.max_time, time)

    def release(self, bound) -> list[int]:
        ready = sorted(e for e in self.pending if bound is None or e[0] < bound)
        self.pending = [e for e in self.pending if not (bound is None or e[0] < bound)]
        return [arrival for *_, arrival in ready]


_TIMES = st.integers(0, 24).map(lambda half_seconds: half_seconds / 2)
_KEYS = st.tuples(_TIMES, st.integers(0, 3))  # few sequences: exact-key ties
_OPERATIONS = st.one_of(
    st.tuples(st.sampled_from(("push", "add")), _KEYS),
    # More than the few entries a release files one by one: a sorted run.
    st.tuples(st.just("adds"), st.lists(_KEYS, min_size=17, max_size=40)),
    st.tuples(st.just("segment"), st.lists(_KEYS, min_size=1, max_size=6)),
    st.tuples(st.just("observe"), _TIMES),
    st.tuples(st.sampled_from(("release", "flush")), st.none()),
)


class TestReorderModel:
    """``ReorderBuffer`` against :class:`_SortedListModel` under random
    interleavings of every entry point, pickled and restored once midway."""

    @staticmethod
    def _arrivals(releases) -> list[int]:
        arrivals: list[int] = []
        for kind, payload in releases:
            if kind == "events":
                arrivals.extend(arrival for _, _, arrival in payload)
            else:
                arrivals.extend(event.payload["n"] for event in payload.to_events())
        return arrivals

    @settings(deadline=None, derandomize=True, max_examples=300)
    @given(
        lateness=st.sampled_from((0.0, 1.0, 2.5, 6.0)),
        operations=st.lists(_OPERATIONS, max_size=40),
        pickle_at=st.integers(0, 40),
    )
    def test_buffer_matches_the_sorted_list_model(self, lateness, operations, pickle_at):
        buffer, model = ReorderBuffer(lateness), _SortedListModel(lateness)
        arrival = 0
        for step, (name, argument) in enumerate(operations):
            if step == pickle_at:
                buffer = pickle.loads(pickle.dumps(buffer))
            if name in ("push", "add"):
                time, sequence = argument
                model.pending.append((time, sequence, model.LOOSE, arrival))
                if name == "add":
                    buffer.add(time, sequence, (time, sequence, arrival))
                else:
                    model.observe(time)
                    released = buffer.push(time, sequence, (time, sequence, arrival))
                    assert self._arrivals(released) == model.release(model.max_time - lateness)
                arrival += 1
            elif name == "adds":
                for time, sequence in argument:
                    model.pending.append((time, sequence, model.LOOSE, arrival))
                    buffer.add(time, sequence, (time, sequence, arrival))
                    arrival += 1
            elif name == "segment":
                rows = []
                for time, sequence in argument:
                    model.pending.append((time, sequence, model.BLOCK, arrival))
                    rows.append(Event("A", time, {"n": arrival}, sequence=sequence))
                    arrival += 1
                buffer.add_segment(EventBlock.from_events(rows))
            elif name == "observe":
                buffer.observe(argument)
                model.observe(argument)
            elif name == "release":
                expected = model.release(model.max_time - lateness)
                assert self._arrivals(buffer.release_ready()) == expected
            else:
                assert self._arrivals(buffer.flush()) == model.release(None)
            assert len(buffer) == len(model.pending)
            assert buffer.watermark == model.max_time - lateness
        assert self._arrivals(buffer.flush()) == model.release(None)
        assert len(buffer) == 0 and buffer.flush() == []

    @settings(deadline=None, derandomize=True, max_examples=200)
    @given(
        steps=st.lists(st.tuples(st.booleans(), st.lists(_KEYS, max_size=20)), max_size=8),
        probe=_TIMES,
    )
    def test_first_at_or_after_is_the_earliest_buffered_time_there(self, steps, probe):
        """The release schedule's one query, over pending items (new or
        filed into runs) and block segments alike."""
        buffer = ReorderBuffer(1.0)
        held: list[float] = []
        for as_block, keys in steps:
            if as_block and keys:
                rows = [Event("A", time, {}, sequence=sequence) for time, sequence in keys]
                buffer.add_segment(EventBlock.from_events(rows))
            else:
                for time, sequence in keys:
                    buffer.add(time, sequence, None)
            held.extend(time for time, _ in keys)
            expected = min((time for time in held if time >= probe), default=float("inf"))
            assert buffer.first_at_or_after(probe) == expected

    def test_loose_items_between_the_rows_of_one_ready_block(self):
        """The merge the model test reaches by chance, spelled out: loose
        keys inside, tied with and around one block's rows."""
        buffer, model = ReorderBuffer(0.0), _SortedListModel(0.0)
        rows = [(1.0, 0), (2.0, 1), (2.0, 3), (4.0, 0)]
        model.pending = [(t, s, model.BLOCK, n) for n, (t, s) in enumerate(rows)]
        events = [Event("A", t, {"n": n}, sequence=s) for n, (t, s) in enumerate(rows)]
        buffer.add_segment(EventBlock.from_events(events))
        loose = [(2.0, 2), (0.5, 0), (2.0, 1), (3.0, 0), (2.0, 2)]
        for n, (time, sequence) in enumerate(loose, len(rows)):
            buffer.add(time, sequence, (time, sequence, n))
            model.pending.append((time, sequence, model.LOOSE, n))
        buffer.observe(3.5)
        releases = buffer.release_ready()
        # Rows 0 and 1 come apart: row 1's key ties loose item 6, which waits.
        kinds = [kind for kind, _ in releases]
        assert kinds == ["events", "block", "block", "events", "block", "events"]
        assert self._arrivals(releases) == model.release(3.5) == [5, 0, 1, 6, 4, 8, 2, 7]
        assert self._arrivals(buffer.flush()) == model.release(None) == [3]


# --------------------------------------------------------------------- #
# Config validation
# --------------------------------------------------------------------- #
class TestLatenessConfig:
    @pytest.mark.parametrize(
        ("horizon", "message"),
        ((float("inf"), "finite"), (float("-inf"), ">= 0"), (1e400, "finite")),
        ids=("inf", "-inf", "1e400"),
    )
    def test_non_finite_lateness_rejected(self, horizon, message):
        # An infinite horizon would hold the whole stream until finish().
        for build in (
            lambda: ReorderBuffer(horizon),
            lambda: StreamingExecutor(grouped_queries(), allowed_lateness=horizon),
            lambda: ShardedStreamingExecutor(grouped_queries(), allowed_lateness=horizon),
            lambda: ShardedStreamingExecutor(
                grouped_queries(), workers=2, allowed_lateness=horizon
            ),
        ):
            with pytest.raises(ExecutionError, match=f"allowed_lateness must be {message}"):
                build()

    def test_unknown_policy_rejected(self):
        with pytest.raises(ExecutionError, match="late policy"):
            StreamingExecutor(
                grouped_queries(), HamletEngine, allowed_lateness=1.0, late_policy="defer"
            )

    def test_policy_without_lateness_rejected(self):
        with pytest.raises(ExecutionError, match="allowed_lateness"):
            StreamingExecutor(grouped_queries(), HamletEngine, late_policy="drop")

    def test_side_output_requires_on_late(self):
        with pytest.raises(ExecutionError, match="on_late"):
            StreamingExecutor(
                grouped_queries(),
                HamletEngine,
                allowed_lateness=1.0,
                late_policy="side_output",
            )

    def test_on_late_requires_side_output_policy(self):
        with pytest.raises(ExecutionError, match="side_output"):
            StreamingExecutor(
                grouped_queries(),
                HamletEngine,
                allowed_lateness=1.0,
                late_policy="drop",
                on_late=lambda event: None,
            )

    def test_sharded_on_late_requires_workers_zero(self):
        with pytest.raises(ExecutionError, match="workers=0"):
            ShardedStreamingExecutor(
                grouped_queries(),
                HamletEngine,
                workers=2,
                allowed_lateness=1.0,
                late_policy="side_output",
                on_late=print,
            )

    def test_sharded_validates_policy_fail_fast(self):
        with pytest.raises(ExecutionError, match="late policy"):
            ShardedStreamingExecutor(
                grouped_queries(), HamletEngine, allowed_lateness=1.0, late_policy="bogus"
            )


# --------------------------------------------------------------------- #
# Within-horizon differential: shuffled == ordered, bit for bit
# --------------------------------------------------------------------- #
@st.composite
def _stream_and_horizon(draw):
    seed = draw(st.integers(min_value=0, max_value=10_000))
    size = draw(st.integers(min_value=0, max_value=120))
    horizon = draw(st.floats(min_value=0.5, max_value=30.0, allow_nan=False))
    events = make_events(seed=seed, size=size)
    return events, shuffle_within(events, horizon, seed=seed + 1), horizon


class TestWithinHorizonDifferential:
    @settings(deadline=None, derandomize=True, max_examples=40)
    @given(data=_stream_and_horizon())
    def test_scalar_process_matches_ordered_run(self, data):
        events, shuffled, horizon = data
        queries = grouped_queries()
        ordered_emissions: list = []
        ordered = run_streaming(
            queries, list(events), HamletEngine, on_window=ordered_emissions.append
        )
        buffered_emissions: list = []
        buffered = run_streaming(
            queries,
            shuffled,
            HamletEngine,
            allowed_lateness=horizon,
            on_window=buffered_emissions.append,
        )
        assert report_fingerprint(buffered) == report_fingerprint(ordered)
        assert emission_trace(buffered_emissions) == emission_trace(ordered_emissions)

    @settings(deadline=None, derandomize=True, max_examples=25)
    @given(data=_stream_and_horizon())
    def test_block_ingest_matches_ordered_run(self, data):
        events, shuffled, horizon = data
        queries = grouped_queries()
        ordered = run_streaming(queries, list(events), HamletEngine)
        executor = StreamingExecutor(queries, HamletEngine, allowed_lateness=horizon)
        buffered = executor.run(EventBlock.from_events(shuffled))
        assert report_fingerprint(buffered) == report_fingerprint(ordered)

    @settings(deadline=None, derandomize=True, max_examples=15)
    @given(
        data=_stream_and_horizon(),
        shards=st.sampled_from((1, 2, 4)),
    )
    def test_sharded_in_process_matches_ordered_run(self, data, shards):
        events, shuffled, horizon = data
        queries = grouped_queries()
        ordered = run_streaming(queries, list(events), HamletEngine)
        sharded = run_sharded(
            queries,
            shuffled,
            HamletEngine,
            workers=0,
            shards=shards,
            allowed_lateness=horizon,
        )
        assert report_fingerprint(sharded) == report_fingerprint(ordered)

    def test_in_order_stream_with_buffer_is_identical(self):
        # The buffer must be a pure pass-through on ordered input: same
        # report, same emission order, nothing dropped or retracted.
        events = make_events(seed=11, size=150)
        queries = grouped_queries()
        strict_emissions: list = []
        strict = run_streaming(
            queries, list(events), HamletEngine, on_window=strict_emissions.append
        )
        buffered_emissions: list = []
        buffered = run_streaming(
            queries,
            list(events),
            HamletEngine,
            allowed_lateness=5.0,
            on_window=buffered_emissions.append,
        )
        assert report_fingerprint(buffered) == report_fingerprint(strict)
        assert emission_trace(buffered_emissions) == emission_trace(strict_emissions)
        assert buffered.metrics.late_dropped == 0
        assert buffered.metrics.late_retracted == 0


# --------------------------------------------------------------------- #
# Shuffled blocks, cut anywhere, == the ordered scalar run (PR 15)
# --------------------------------------------------------------------- #
def adaptive_queries() -> list[Query]:
    """Two 2-member classes on one vector unit: per-burst decisions are
    taken, so the decision counters are part of the comparison."""
    return [
        Query.build(
            seq(prefix, kleene("B")),
            aggregate=aggregate,
            group_by=("g",),
            window=WINDOW,
            name=f"{prefix}_{tag}",
        )
        for prefix in ("A", "C")
        for aggregate, tag in ((sum_of("B", "v"), "sum"), (avg("B", "v"), "avg"))
    ]


def run_traced(queries, feed, **options):
    """``feed(executor)`` then finish: everything deterministic about a run
    — report, emission order, abstract operations, decision counters."""
    emitted: list = []
    executor = StreamingExecutor(queries, HamletEngine, on_window=emitted.append, **options)
    feed(executor)
    report = executor.finish()
    return (
        report_fingerprint(report),
        emission_trace(emitted),
        report.metrics.operations,
        decision_counters(report),
    )


def spy_on_event_at(monkeypatch) -> list[int]:
    """Record every ``EventBlock.event_at`` call (the row view edge)."""
    calls: list[int] = []
    event_at = EventBlock.event_at
    monkeypatch.setattr(
        EventBlock, "event_at", lambda self, index: calls.append(index) or event_at(self, index)
    )
    return calls


def cut_into_frames(arrivals: list[Event], sizes: list[int]) -> list[list[Event]]:
    """``arrivals`` cut at the drawn frame sizes (zeros are empty frames),
    the remainder as one last frame."""
    frames, start = [], 0
    for size in sizes:
        frames.append(arrivals[start : start + size])
        start += size
    frames.append(arrivals[start:])
    return frames


@st.composite
def _framed_shuffle(draw):
    events, shuffled, horizon = draw(_stream_and_horizon())
    sizes = draw(st.lists(st.sampled_from((0, 1, 1, 2, 5, 17, 64)), max_size=40))
    return events, cut_into_frames(shuffled, sizes), horizon


class TestShuffledBlockDifferential:
    @staticmethod
    def _ordered(queries, events, optimizer):
        def feed(executor):
            for event in events:
                executor.process(event)

        return run_traced(queries, feed, optimizer=optimizer)

    @settings(deadline=None, derandomize=True, max_examples=40)
    @given(data=_framed_shuffle(), optimizer=st.sampled_from((None, "dynamic")))
    def test_process_block_alone(self, data, optimizer):
        events, frames, horizon = data
        queries = adaptive_queries()

        def feed(executor):
            # Every frame its own block: own interned tables, as frames of
            # independent producers would have.
            for frame in frames:
                executor.process_block(EventBlock.from_events(frame))

        assert run_traced(
            queries, feed, optimizer=optimizer, allowed_lateness=horizon
        ) == self._ordered(queries, events, optimizer)

    @settings(deadline=None, derandomize=True, max_examples=40)
    @given(data=_framed_shuffle(), optimizer=st.sampled_from((None, "dynamic")))
    def test_process_block_interleaved_with_scalar_process(self, data, optimizer):
        events, frames, horizon = data
        queries = adaptive_queries()

        def feed(executor):
            for index, frame in enumerate(frames):
                if index % 2:
                    for event in frame:
                        executor.process(event)
                else:
                    executor.process_block(EventBlock.from_events(frame))

        assert run_traced(
            queries, feed, optimizer=optimizer, allowed_lateness=horizon
        ) == self._ordered(queries, events, optimizer)

    @pytest.mark.parametrize("rows", (1, 64, 10_000))
    def test_no_row_becomes_an_event_without_late_rows(self, monkeypatch, rows):
        events = make_events(seed=71, size=600)
        block = EventBlock.from_events(shuffle_within(events, horizon=8.0, seed=72))
        calls = spy_on_event_at(monkeypatch)
        executor = StreamingExecutor(grouped_queries(), HamletEngine, allowed_lateness=8.0)
        for start in range(0, len(block), rows):
            executor.process_block(block.slice(start, start + rows))
        report = executor.finish()
        assert calls == []
        monkeypatch.undo()
        assert report_fingerprint(report) == report_fingerprint(
            run_streaming(grouped_queries(), events, HamletEngine)
        )


# --------------------------------------------------------------------- #
# Shard-count matrix (pool mode)
# --------------------------------------------------------------------- #
class TestShardedMatrixDifferential:
    EVENTS = make_events(seed=21, size=150)
    SHUFFLED = shuffle_within(EVENTS, horizon=8.0, seed=22)

    def _ordered(self):
        return run_streaming(grouped_queries(), list(self.EVENTS), HamletEngine)

    def test_pool_workers_match_ordered_run(self):
        sharded = run_sharded(
            grouped_queries(),
            list(self.SHUFFLED),
            HamletEngine,
            workers=2,
            allowed_lateness=8.0,
        )
        assert report_fingerprint(sharded) == report_fingerprint(self._ordered())

    @pytest.mark.parametrize("workers", (1, 4))
    def test_pool_shard_counts_match_ordered_run(self, workers):
        sharded = run_sharded(
            grouped_queries(),
            list(self.SHUFFLED),
            HamletEngine,
            workers=workers,
            allowed_lateness=8.0,
        )
        assert report_fingerprint(sharded) == report_fingerprint(self._ordered())

    def test_pool_block_ingest_matches_ordered_run(self):
        executor = ShardedStreamingExecutor(
            grouped_queries(), HamletEngine, workers=2, allowed_lateness=8.0
        )
        sharded = executor.run(EventBlock.from_events(self.SHUFFLED))
        assert report_fingerprint(sharded) == report_fingerprint(self._ordered())


# --------------------------------------------------------------------- #
# Equal-time events across shards
# --------------------------------------------------------------------- #
class TestEqualTimeInterleavings:
    @staticmethod
    def _equal_time_events() -> list[Event]:
        rng = random.Random(31)
        events = []
        sequence = 0
        for burst_time in (2.0, 2.0, 6.0, 6.0, 10.0):
            for _ in range(8):
                events.append(
                    Event(
                        rng.choice(("A", "B", "C")),
                        burst_time,
                        {"g": float(rng.randint(1, 4))},
                        sequence=sequence,
                    )
                )
                sequence += 1
        return events

    @pytest.mark.parametrize("shards", (2, 4))
    def test_equal_time_cross_shard_interleavings(self, shards):
        # Whole equal-time bursts arrive sequence-shuffled: the (time,
        # sequence) total order must be restored identically on every
        # shard layout.
        events = self._equal_time_events()
        ordered = run_streaming(grouped_queries(), list(events), HamletEngine)
        rng = random.Random(32)
        shuffled = sorted(events, key=lambda event: (event.time, rng.random()))
        sharded = run_sharded(
            grouped_queries(),
            shuffled,
            HamletEngine,
            workers=0,
            shards=shards,
            allowed_lateness=1.0,
        )
        assert report_fingerprint(sharded) == report_fingerprint(ordered)


# --------------------------------------------------------------------- #
# Late policies
# --------------------------------------------------------------------- #
class TestLatePolicies:
    @staticmethod
    def _with_stragglers() -> tuple[list[Event], list[Event]]:
        """An in-order core plus two stragglers far behind the horizon."""
        core = make_events(seed=41, size=80)
        anchor = max(event.time for event in core)
        late = [
            Event("B", 1.0, {"g": 1.0}, sequence=1001),
            Event("A", 2.0, {"g": 2.0}, sequence=1002),
        ]
        assert anchor - 5.0 > 2.0  # both are behind the watermark
        arrivals = core + late
        return arrivals, late

    def test_raise_is_the_default_and_names_the_watermark(self):
        arrivals, _ = self._with_stragglers()
        with pytest.raises(OutOfOrderError, match="behind the watermark"):
            run_streaming(
                grouped_queries(), arrivals, HamletEngine, allowed_lateness=5.0
            )

    def test_raise_error_is_catchable_as_both_families(self):
        # OutOfOrderError must satisfy pre-existing except clauses for both
        # StreamError and ExecutionError call sites.
        from repro.errors import StreamError

        arrivals, _ = self._with_stragglers()
        for family in (StreamError, ExecutionError):
            with pytest.raises(family):
                run_streaming(
                    grouped_queries(), arrivals, HamletEngine, allowed_lateness=5.0
                )

    def test_drop_counts_and_excludes_late_events(self):
        arrivals, late = self._with_stragglers()
        report = run_streaming(
            grouped_queries(),
            arrivals,
            HamletEngine,
            allowed_lateness=5.0,
            late_policy="drop",
        )
        clean = run_streaming(
            grouped_queries(),
            [event for event in arrivals if event not in late],
            HamletEngine,
        )
        assert report.metrics.late_dropped == len(late)
        assert report.metrics.late_side_output == 0
        assert report_fingerprint(report) == report_fingerprint(clean)
        # Dropped events never reached the core: not in stream_events.
        assert report.metrics.stream_events == len(arrivals) - len(late)

    def test_drop_counts_block_prefixes_without_materializing(self):
        arrivals, late = self._with_stragglers()
        executor = StreamingExecutor(
            grouped_queries(), HamletEngine, allowed_lateness=5.0, late_policy="drop"
        )
        report = executor.run(EventBlock.from_events(arrivals))
        assert report.metrics.late_dropped == len(late)

    def test_side_output_receives_the_late_events(self):
        arrivals, late = self._with_stragglers()
        side: list[Event] = []
        report = run_streaming(
            grouped_queries(),
            arrivals,
            HamletEngine,
            allowed_lateness=5.0,
            late_policy="side_output",
            on_late=side.append,
        )
        assert side == late
        assert report.metrics.late_side_output == len(late)
        assert report.metrics.late_dropped == 0

    def test_retract_matches_fully_ordered_run(self):
        arrivals, late = self._with_stragglers()
        ordered = run_streaming(
            grouped_queries(),
            sorted(arrivals, key=lambda event: (event.time, event.sequence)),
            HamletEngine,
        )
        report = run_streaming(
            grouped_queries(),
            arrivals,
            HamletEngine,
            allowed_lateness=5.0,
            late_policy="retract",
        )
        assert report.metrics.late_retracted == len(late)
        assert report_fingerprint(report) == report_fingerprint(ordered)

    @pytest.mark.parametrize("rows", (1, 7, 64, 240))
    def test_retract_of_rows_late_to_their_own_blocks_watermark(self, rows):
        """A block whose earlier rows push the watermark past one of its
        later rows: the late row splices into the *release* log, so what
        the watermark already allows must be released before it, exactly
        as the per-event path does.  (Deferred to the end of the block,
        the release came out behind the late row: ``OutOfOrderError``.)"""
        events = make_events(seed=61, size=240)
        arrivals = list(events)
        for index in range(20, 200, 20):
            arrivals.insert(index + 30, arrivals.pop(index))  # ~15 time units late
        ordered = run_streaming(grouped_queries(), events, HamletEngine)
        executor = StreamingExecutor(
            grouped_queries(), HamletEngine, allowed_lateness=5.0, late_policy="retract"
        )
        block = EventBlock.from_events(arrivals)
        for start in range(0, len(block), rows):
            executor.process_block(block.slice(start, min(start + rows, len(block))))
        report = executor.finish()
        assert report.metrics.late_retracted == 9
        assert report_fingerprint(report) == report_fingerprint(ordered)

    def test_retract_reemits_changed_windows_flagged(self):
        window = Window(60.0, 30.0)
        queries = [Query.build(seq("A", kleene("B")), window=window, name="rw")]
        events = [
            Event("A", 10.0, sequence=0),
            Event("B", 20.0, sequence=1),
            Event("B", 70.0, sequence=2),
            Event("B", 130.0, sequence=3),
            Event("B", 25.0, sequence=4),  # late: changes window 0's count
            Event("B", 140.0, sequence=5),
        ]
        emitted: list = []
        report = run_streaming(
            queries,
            events,
            HamletEngine,
            allowed_lateness=50.0,
            late_policy="retract",
            on_window=emitted.append,
        )
        ordered = run_streaming(
            queries, sorted(events, key=lambda e: (e.time, e.sequence)), HamletEngine
        )
        # The callback is the rows' one sink; a callback-less twin keeps them.
        assert report.partition_results == [] and report.totals == ordered.totals
        twin = run_streaming(
            queries, events, HamletEngine, allowed_lateness=50.0, late_policy="retract"
        )
        assert report_fingerprint(twin) == report_fingerprint(ordered)
        retractions = [r for r in emitted if r.retraction]
        assert len(retractions) == 1
        assert retractions[0].window_index == 0
        # The re-emission carries the corrected result.
        assert retractions[0].results == {"rw": 3.0}

    def test_retract_suppresses_unchanged_reemissions(self):
        window = Window(60.0, 30.0)
        queries = [Query.build(seq("A", kleene("B")), window=window, name="rw")]
        events = [
            Event("A", 10.0, sequence=0),
            Event("B", 20.0, sequence=1),
            Event("B", 70.0, sequence=2),
            Event("B", 130.0, sequence=3),
            Event("A", 25.0, sequence=4),  # late but changes nothing in [0, 60)
            Event("B", 140.0, sequence=5),
        ]
        emitted: list = []
        report = run_streaming(
            queries,
            events,
            HamletEngine,
            allowed_lateness=50.0,
            late_policy="retract",
            on_window=emitted.append,
        )
        assert report.metrics.late_retracted == 1
        assert [r for r in emitted if r.retraction] == []
        closes = [(r.group_key, r.window_index) for r in emitted]
        assert len(closes) == len(set(closes))  # each window emitted once

    def test_sharded_drop_counts_surface_in_merged_metrics(self):
        arrivals, late = self._with_stragglers()
        report = run_sharded(
            grouped_queries(),
            arrivals,
            HamletEngine,
            workers=0,
            shards=2,
            allowed_lateness=5.0,
            late_policy="drop",
        )
        # Per-shard watermarks trail per-shard maxima, so a shard can be
        # *more* tolerant than the global clock — never less.  Both
        # stragglers are behind every shard's horizon here.
        assert report.metrics.late_dropped == len(late)


# --------------------------------------------------------------------- #
# Late rows inside unsorted blocks == the same arrivals through process()
# --------------------------------------------------------------------- #
class TestLateRowsInsideUnsortedBlocks:
    """The scalar path is the definition: a row is late against the
    watermark everything before it advanced, the block's own rows
    included, and everything releasable is released before the policy
    sees it.  The block path must be indistinguishable, however the
    arrivals are cut into blocks."""

    HORIZON = 5.0
    LATE = 9

    @classmethod
    def _arrivals(cls) -> tuple[list[Event], list[Event]]:
        """A stream shuffled within the horizon, plus rows held back ~15
        time units: late on arrival, inside otherwise unsorted blocks."""
        events = make_events(seed=81, size=260)
        arrivals = shuffle_within(events, cls.HORIZON, seed=82)
        held_back = [arrivals[index] for index in range(20, 200, 20)]
        for event in held_back:
            position = arrivals.index(event)
            arrivals.insert(position + 30, arrivals.pop(position))
        return events, arrivals

    def _run(self, arrivals, rows, policy, callback=True):
        """Returns the interleaved callback log, the report and the error;
        ``callback=False`` runs without ``on_window``: the report keeps the rows."""
        log: list[tuple] = []
        options = dict(allowed_lateness=self.HORIZON, late_policy=policy)
        if policy == "side_output":
            options["on_late"] = lambda event: log.append(("late", event, event.payload))
        executor = StreamingExecutor(
            grouped_queries(),
            HamletEngine,
            on_window=(lambda r: log.append(("window", *emission_trace([r])[0])))
            if callback
            else None,
            **options,
        )
        try:
            if rows is None:
                for event in arrivals:
                    executor.process(event)
            else:
                for start in range(0, len(arrivals), rows):
                    executor.process_block(
                        EventBlock.from_events(arrivals[start : start + rows])
                    )
            report = executor.finish()
        except OutOfOrderError as error:
            return log, None, str(error)
        return log, report, None

    @pytest.mark.parametrize("rows", (1, 7, 64, 1_000))
    @pytest.mark.parametrize("policy", ("raise", "drop", "side_output", "retract"))
    def test_block_path_is_the_scalar_path(self, policy, rows):
        events, arrivals = self._arrivals()
        scalar_log, scalar_report, scalar_error = self._run(arrivals, None, policy)
        block_log, block_report, block_error = self._run(arrivals, rows, policy)
        assert block_error == scalar_error
        assert block_log == scalar_log  # windows and late rows, interleaved
        if policy == "raise":
            # The first late row in arrival order, and the watermark at it.
            times = [event.time for event in arrivals]
            late, _ = ReorderBuffer(self.HORIZON).late_cuts(times, 0, len(times))
            assert len(late) == self.LATE
            first = arrivals[late[0]]
            assert f"time={first.time!r} seq={first.sequence} " in block_error
            assert f"watermark {max(times[: late[0]]) - self.HORIZON!r}" in block_error
            return
        # The callback is the rows' one sink; callback-less twins keep them.
        assert block_report.partition_results == scalar_report.partition_results == []
        _, scalar_rows, _ = self._run(arrivals, None, policy, callback=False)
        _, block_rows, _ = self._run(arrivals, rows, policy, callback=False)
        assert report_fingerprint(block_rows) == report_fingerprint(scalar_rows)
        assert block_rows.totals == block_report.totals == scalar_report.totals
        for counter in ("late_dropped", "late_side_output", "late_retracted", "operations"):
            assert getattr(block_report.metrics, counter) == getattr(
                scalar_report.metrics, counter
            ), counter
        late = {
            "drop": block_report.metrics.late_dropped,
            "side_output": block_report.metrics.late_side_output,
            "retract": block_report.metrics.late_retracted,
        }[policy]
        assert late == self.LATE
        if policy == "side_output":
            side = [entry[1] for entry in block_log if entry[0] == "late"]
            assert side == [e for e in arrivals if e in side]  # arrival order
        if policy == "retract":
            ordered = run_streaming(grouped_queries(), events, HamletEngine)
            assert report_fingerprint(block_rows) == report_fingerprint(ordered)

    @pytest.mark.parametrize("rows", (None, 7, 1_000), ids=("scalar", "rows7", "rows1000"))
    @pytest.mark.parametrize("kind", PER_INSTANCE_KINDS)
    def test_retract_over_per_instance_units_matches_the_ordered_run(self, kind, rows):
        """A retraction restores a pickled core state and replays: over
        units that hold one pooled engine per live instance the restored
        groups must keep drawing from the restored pool, and the pickle
        must not need the (lambda) engine factory."""
        events, arrivals = self._arrivals()
        queries, options = per_instance_setup(kind, grouped_queries())
        ordered = run_streaming(queries, events, **options)
        executor = StreamingExecutor(
            queries, allowed_lateness=self.HORIZON, late_policy="retract", **options
        )
        if rows is None:
            for event in arrivals:
                executor.process(event)
        else:
            for start in range(0, len(arrivals), rows):
                executor.process_block(EventBlock.from_events(arrivals[start : start + rows]))
        report = executor.finish()
        assert report.metrics.late_retracted == self.LATE
        assert report_fingerprint(report) == report_fingerprint(ordered)
        assert executor.active_window_count() == 0
        # Every engine is back in its pool: restores lose none, replays leak none.
        assert executor.engines_created == sum(len(u.pool.idle) for u in executor._units)

    @pytest.mark.parametrize("policy", ("drop", "side_output", "retract"))
    def test_only_rows_a_policy_takes_become_events(self, monkeypatch, policy):
        _, arrivals = self._arrivals()
        calls = spy_on_event_at(monkeypatch)
        _, report, _ = self._run(arrivals, 64, policy)
        assert len(calls) == (0 if policy == "drop" else self.LATE)
        assert report.metrics.stream_events == len(arrivals) - (
            0 if policy == "retract" else self.LATE
        )


# --------------------------------------------------------------------- #
# Checkpoints carry the buffer
# --------------------------------------------------------------------- #
class TestCheckpointWithBufferedEvents:
    @pytest.mark.parametrize("late_policy", ("raise", "retract"))
    def test_snapshot_restore_mid_buffer_resumes_identically(self, late_policy):
        events = make_events(seed=51, size=120)
        shuffled = shuffle_within(events, horizon=6.0, seed=52)
        queries = grouped_queries()
        reference = run_streaming(
            queries,
            list(shuffled),
            HamletEngine,
            allowed_lateness=6.0,
            late_policy=late_policy,
        )
        split = len(shuffled) // 2
        first = StreamingExecutor(
            queries, HamletEngine, allowed_lateness=6.0, late_policy=late_policy
        )
        for event in shuffled[:split]:
            first.process(event)
        payload = first.snapshot_state()
        second = StreamingExecutor(
            queries, HamletEngine, allowed_lateness=6.0, late_policy=late_policy
        )
        second.restore_state(payload)
        for event in shuffled[split:]:
            second.process(event)
        resumed = second.finish()
        assert report_fingerprint(resumed) == report_fingerprint(reference)

    @pytest.mark.parametrize("late_policy", ("raise", "retract"))
    def test_restore_in_the_middle_of_a_buffered_block_through_a_store(
        self, tmp_path, late_policy
    ):
        """Shuffled frames, a checkpoint written while rows of several of
        them are still buffered, and a successor restored from the files:
        the continuation is bit-identical — report, operations, and the
        windows emitted after the restore."""
        events = make_events(seed=54, size=400)
        shuffled = shuffle_within(events, horizon=20.0, seed=55)
        frames = [
            EventBlock.from_events(shuffled[start : start + 24])
            for start in range(0, len(shuffled), 24)
        ]
        queries = grouped_queries()
        options = dict(allowed_lateness=20.0, late_policy=late_policy)

        def executor_into(emitted):
            return StreamingExecutor(queries, HamletEngine, on_window=emitted.append, **options)

        reference_emitted: list = []
        reference = executor_into(reference_emitted)
        for frame in frames:
            reference.process_block(frame)
        expected = reference.finish()

        first_emitted: list = []
        first = executor_into(first_emitted)
        for frame in frames[:8]:
            first.process_block(frame)
        # More rows than one frame holds: several frames' segments are buffered.
        assert len(first.lateness.buffer) > 24
        payload, delta = first.snapshot_state(0)
        CheckpointStore(tmp_path, shard_id=0).write(0, 8, payload, delta)

        checkpoint = CheckpointStore(tmp_path, shard_id=0).latest()
        assert checkpoint.seq == 8
        second_emitted: list = []
        second = executor_into(second_emitted)
        second.restore_state(checkpoint.payload, checkpoint.output)
        assert len(second.lateness.buffer) == len(first.lateness.buffer)
        for frame in frames[8:]:
            second.process_block(frame)
        resumed = second.finish()
        assert report_fingerprint(resumed) == report_fingerprint(expected)
        assert resumed.metrics.operations == expected.metrics.operations
        assert emission_trace(first_emitted + second_emitted) == emission_trace(
            reference_emitted
        )
        # The callback is the rows' one sink; a callback-less chain carries
        # its rows through the checkpoint's output delta, bit for bit.
        assert resumed.partition_results == []

        def run_frames(executor, chunk):
            for frame in chunk:
                executor.process_block(frame)
            return executor

        keeper = run_frames(StreamingExecutor(queries, HamletEngine, **options), frames[:8])
        store = CheckpointStore(tmp_path / "rows", shard_id=0)
        store.write(0, 8, *keeper.snapshot_state(0))
        successor = StreamingExecutor(queries, HamletEngine, **options)
        successor.restore_state(store.latest().payload, store.latest().output)
        kept = run_frames(successor, frames[8:]).finish()
        twin = run_frames(StreamingExecutor(queries, HamletEngine, **options), frames).finish()
        assert report_fingerprint(kept) == report_fingerprint(twin)
        assert {k: v.hex() for k, v in kept.totals.items()} == {
            k: v.hex() for k, v in resumed.totals.items()
        }

    def test_snapshot_fingerprint_pins_lateness_config(self):
        events = make_events(seed=53, size=40)
        source = StreamingExecutor(grouped_queries(), HamletEngine, allowed_lateness=4.0)
        for event in events[:20]:
            source.process(event)
        payload = source.snapshot_state()
        mismatched = StreamingExecutor(
            grouped_queries(), HamletEngine, allowed_lateness=9.0
        )
        from repro.errors import CheckpointError

        with pytest.raises(CheckpointError):
            mismatched.restore_state(payload)


# --------------------------------------------------------------------- #
# Strict mode is unchanged
# --------------------------------------------------------------------- #
class TestStrictModeUnchanged:
    def test_streaming_rejects_disorder_without_lateness(self):
        executor = StreamingExecutor(grouped_queries(), HamletEngine)
        executor.process(Event("A", 5.0, {"g": 1.0}, sequence=0))
        with pytest.raises(OutOfOrderError, match="allowed_lateness"):
            executor.process(Event("B", 4.0, {"g": 1.0}, sequence=1))

    def test_sharded_driver_rejects_disorder_without_lateness(self):
        executor = ShardedStreamingExecutor(
            grouped_queries(), HamletEngine, workers=0, shards=2
        )
        executor.process(Event("A", 5.0, {"g": 1.0}, sequence=0))
        with pytest.raises(OutOfOrderError, match="sharded executor"):
            executor.process(Event("B", 4.0, {"g": 1.0}, sequence=1))

    def test_block_order_guard_names_the_offending_row(self):
        # The in-order case is a C-speed probe; the walk only names the row.
        from repro.runtime.reorder import ensure_block_in_order

        times = [0.0, 1.0, 1.0, 4.0, 3.5, 9.0]
        assert ensure_block_in_order(times, 0, 4, float("-inf")) == 4.0
        assert ensure_block_in_order(times, 1, 4, 1.0) == 4.0
        assert ensure_block_in_order(times, 2, 2, 7.0) == 7.0  # empty slice
        with pytest.raises(OutOfOrderError) as error:
            ensure_block_in_order(times, 0, 6, float("-inf"))
        assert str(error.value) == (
            "streaming executor requires in-order arrival: event at 3.5 arrived "
            "after stream time 4.0; pass allowed_lateness=... to buffer bounded disorder"
        )
        with pytest.raises(OutOfOrderError, match="event at 1.0 arrived after stream time 2.0"):
            ensure_block_in_order(times, 1, 4, 2.0, what="sharded executor")

    def test_block_order_guard_rejects_non_finite_times(self):
        # NaN compares false either way, so it used to pass the walk (and
        # hide a regression across it); now the guard names the value.
        from repro.runtime.reorder import ensure_block_in_order

        nan, inf = float("nan"), float("inf")
        for times, named in (
            ([1.0, 5.0, nan, 3.0, 4.0], "nan"),
            ([nan, 2.0], "nan"),
            ([1.0, inf], "inf"),
            ([-inf, 1.0], "-inf"),
            ([nan] * 70 + [2.0, 1.0], "nan"),
        ):
            with pytest.raises(OutOfOrderError, match=f"finite event times.*time={named}"):
                ensure_block_in_order(times, 0, len(times), 0.0)
        # Huge finite times overflow the one-pass sum; the walk clears them.
        assert ensure_block_in_order([1e308, 1.5e308], 0, 2, 0.0) == 1.5e308

    @pytest.mark.parametrize("bad", (float("nan"), float("inf")))
    @pytest.mark.parametrize("ingest", ("process", "process_block"))
    @pytest.mark.parametrize("lateness", (None, 4.0))
    def test_non_finite_time_is_rejected_before_any_state_changes(self, bad, ingest, lateness):
        """All four admission edges: a typed error naming the value, and the
        executor exactly as it was — the run continues as if never offered."""
        events = make_events(seed=61, size=60)
        poisoned = Event("B", bad, {"g": 1.0, "v": 1.0})

        def run(poison_at=None):
            executor = StreamingExecutor(grouped_queries(), HamletEngine, allowed_lateness=lateness)
            for start in range(0, len(events), 10):
                chunk = events[start : start + 10]
                if start == poison_at:
                    before = executor.snapshot_state()
                    with pytest.raises(OutOfOrderError, match="finite event times.*time="):
                        if ingest == "process":
                            executor.process(poisoned)
                        else:
                            executor.process_block(
                                EventBlock.from_events(chunk[:5] + [poisoned] + chunk[5:])
                            )
                    assert executor.snapshot_state() == before
                if ingest == "process":
                    for event in chunk:
                        executor.process(event)
                else:
                    executor.process_block(EventBlock.from_events(chunk))
            return executor.finish()

        assert report_fingerprint(run(poison_at=30)) == report_fingerprint(run())

    def test_sharded_watermark_is_min_over_shards(self):
        executor = ShardedStreamingExecutor(
            grouped_queries(), HamletEngine, workers=0, shards=2, allowed_lateness=2.0
        )
        assert executor.watermark is None
        fed = []
        for sequence, time in enumerate((1.0, 2.0, 5.0, 9.0)):
            event = Event("B", time, {"g": float(sequence % 2 + 1)}, sequence=sequence)
            executor.process(event)
            fed.append(event)
        marks = [shard.max_time for shard in executor._shards]
        expected = min(mark for mark in marks if mark != float("-inf")) - 2.0
        assert executor.watermark == expected
        executor.finish()
