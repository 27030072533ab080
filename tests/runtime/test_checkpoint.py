"""Checkpoint container, store, output log and snapshot round-trip tests.

Four layers, matching `repro/runtime/checkpoint.py`'s split:

* the **RPCP container** — pack/unpack round-trips, and every corruption
  mode (bad magic, wrong version, truncation at either end, payload
  digest mismatch) raises :class:`CheckpointError` instead of returning
  garbage;
* the **CheckpointStore** — atomic write + last-good pointer semantics:
  a crash-shaped corruption of the newest file falls back to the
  previous one, pruning keeps the footprint bounded, orphaned temp files
  are collected;
* the **output log** — one checksummed record per snapshot, appended
  before the snapshot is renamed in: a torn or uncovered last record is
  ignored by readers and cut off by the next writer, a record that fails
  inside the covered prefix is a :class:`CheckpointError`, and the
  fallback to an older snapshot file takes exactly that file's records;
* the **snapshot round trip** (hypothesis, derandomized like every other
  deterministic gate in this repo) — snapshot a
  :class:`StreamingExecutor` at an arbitrary mid-stream point (including
  mid-burst, which is where the adaptive optimizer's unflushed buffer
  lives, and mid-block, between two ``process_block`` slices of one
  burst), restore into a *fresh* executor of the same workload, feed the
  tail, and demand the finished report be **bit-identical** to an
  uninterrupted run.  The property quantifies over the workload shapes
  the equivalence suites care about: all sharing policies, GROUP BY on
  and off, negation patterns, fractional slides.  The incremental form
  (``snapshot_state(since)`` + the store's log) goes through the same
  property, and its bytes are pinned to follow the open windows, not the
  stream's length.
"""

from __future__ import annotations

import dataclasses
import pickle
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from faultline import canonical_report
from repro.errors import CheckpointError
from repro.events import Event
from repro.events.block import EventBlock
from repro.query import Query, Window, kleene, parse_pattern, seq, sum_of
from repro.runtime import StreamingExecutor
from repro.runtime.executor import PartitionResult
from repro.runtime.results import WindowValues
from repro.runtime.checkpoint import (
    MAGIC,
    TEMP_SUFFIX,
    VERSION,
    AsyncCheckpointWriter,
    Checkpoint,
    CheckpointStore,
    pack_checkpoint,
    pack_log_record,
    unpack_checkpoint,
)
from tests.conftest import PER_INSTANCE_KINDS, decision_counters, per_instance_setup

SETTINGS = settings(
    deadline=None,
    derandomize=True,
    max_examples=40,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)


# --------------------------------------------------------------------- #
# RPCP container
# --------------------------------------------------------------------- #
class TestContainer:
    def test_round_trip(self):
        blob = pack_checkpoint(3, 17, b"payload bytes")
        checkpoint = unpack_checkpoint(blob)
        assert checkpoint == Checkpoint(epoch=3, seq=17, payload=b"payload bytes")

    def test_empty_payload_round_trip(self):
        assert unpack_checkpoint(pack_checkpoint(0, 0, b"")).payload == b""

    def test_magic_is_in_the_header(self):
        assert pack_checkpoint(1, 1, b"x")[:4] == MAGIC

    def test_bad_magic_rejected(self):
        blob = b"XXXX" + pack_checkpoint(1, 1, b"x")[4:]
        with pytest.raises(CheckpointError, match="magic"):
            unpack_checkpoint(blob)

    def test_unknown_version_rejected(self):
        blob = bytearray(pack_checkpoint(1, 1, b"x"))
        blob[4] = VERSION + 1
        with pytest.raises(CheckpointError, match="version"):
            unpack_checkpoint(bytes(blob))

    def test_truncated_header_rejected(self):
        with pytest.raises(CheckpointError, match="truncated"):
            unpack_checkpoint(pack_checkpoint(1, 1, b"x")[:10])

    def test_truncated_payload_rejected(self):
        blob = pack_checkpoint(1, 1, b"a longer payload")
        with pytest.raises(CheckpointError, match="truncated"):
            unpack_checkpoint(blob[:-3])

    def test_flipped_payload_bit_rejected(self):
        blob = bytearray(pack_checkpoint(1, 1, b"a longer payload"))
        blob[-1] ^= 0x01
        with pytest.raises(CheckpointError, match="digest"):
            unpack_checkpoint(bytes(blob))


# --------------------------------------------------------------------- #
# CheckpointStore
# --------------------------------------------------------------------- #
class TestStore:
    def test_write_then_latest(self, tmp_path):
        store = CheckpointStore(tmp_path, shard_id=0)
        nbytes = store.write(0, 5, b"state five")
        assert nbytes > len(b"state five")  # container framing included
        latest = store.latest()
        assert latest == Checkpoint(epoch=0, seq=5, payload=b"state five", output=(b"",))

    def test_latest_prefers_newest(self, tmp_path):
        store = CheckpointStore(tmp_path, shard_id=0)
        store.write(0, 5, b"old")
        store.write(0, 9, b"new")
        assert store.latest().seq == 9

    def test_empty_store_has_no_latest(self, tmp_path):
        assert CheckpointStore(tmp_path, shard_id=0).latest() is None

    def test_corrupt_newest_falls_back_to_previous(self, tmp_path):
        """The last-good guarantee: a torn newest file is skipped."""
        store = CheckpointStore(tmp_path, shard_id=0, keep=2)
        store.write(0, 5, b"good")
        store.write(0, 9, b"about to be torn")
        newest = max(tmp_path.glob("shard000-e*.ckpt"), key=lambda p: p.name)
        newest.write_bytes(newest.read_bytes()[:-4])  # simulate a torn write
        assert store.latest() == Checkpoint(epoch=0, seq=5, payload=b"good", output=(b"",))

    def test_stale_pointer_falls_back_to_scan(self, tmp_path):
        store = CheckpointStore(tmp_path, shard_id=0)
        store.write(0, 5, b"good")
        (tmp_path / "shard000.latest").write_text("no-such-file.ckpt", encoding="utf-8")
        assert store.latest().seq == 5

    def test_prune_bounds_the_footprint(self, tmp_path):
        store = CheckpointStore(tmp_path, shard_id=0, keep=2)
        for seq in range(6):
            store.write(0, seq, b"s%d" % seq)
        remaining = sorted(p.name for p in tmp_path.glob("*.ckpt"))
        assert len(remaining) == 2
        assert store.latest().seq == 5

    def test_shards_are_isolated(self, tmp_path):
        zero = CheckpointStore(tmp_path, shard_id=0)
        one = CheckpointStore(tmp_path, shard_id=1)
        zero.write(0, 1, b"zero")
        one.write(0, 2, b"one")
        assert zero.latest().payload == b"zero"
        assert one.latest().payload == b"one"

    def test_clean_temporaries(self, tmp_path):
        store = CheckpointStore(tmp_path, shard_id=0)
        (tmp_path / f"shard000-junk{TEMP_SUFFIX}").write_bytes(b"crash debris")
        other = tmp_path / f"shard001-junk{TEMP_SUFFIX}"
        other.write_bytes(b"someone else's debris")
        assert store.clean_temporaries() == 1
        assert not list(tmp_path.glob(f"shard000*{TEMP_SUFFIX}"))
        assert other.exists()  # other shards' files are not ours to delete

    def test_clear_removes_this_shards_files_only(self, tmp_path):
        zero = CheckpointStore(tmp_path, shard_id=0)
        one = CheckpointStore(tmp_path, shard_id=1)
        zero.write(0, 1, b"zero", b"delta")
        one.write(0, 2, b"one", b"delta")
        (tmp_path / f"shard000-junk{TEMP_SUFFIX}").write_bytes(b"crash debris")
        zero.clear()
        assert not list(tmp_path.glob("shard000*"))
        assert CheckpointStore(tmp_path, shard_id=0).latest() is None
        assert one.latest().payload == b"one"

    def test_keep_must_be_positive(self, tmp_path):
        with pytest.raises(CheckpointError, match="keep"):
            CheckpointStore(tmp_path, shard_id=0, keep=0)


class TestOutputLog:
    """The append-only per-shard log beside the snapshot files."""

    @staticmethod
    def _store_with_two(tmp_path) -> CheckpointStore:
        store = CheckpointStore(tmp_path, shard_id=0, keep=2)
        store.write(0, 3, b"state three", b"delta-a")
        store.write(0, 7, b"state seven", b"delta-bb")
        return store

    def test_latest_returns_the_covered_deltas_in_order(self, tmp_path):
        store = self._store_with_two(tmp_path)
        nbytes = store.write(0, 9, b"state nine")
        assert nbytes == len(pack_checkpoint(0, 9, b"state nine")) + len(
            pack_log_record(0, 9, b"")
        )
        latest = CheckpointStore(tmp_path, shard_id=0).latest()
        assert (latest.seq, latest.payload) == (9, b"state nine")
        assert latest.output == (b"delta-a", b"delta-bb", b"")  # one per record
        assert CheckpointStore(tmp_path, shard_id=0).latest_seq() == 9
        assert CheckpointStore(tmp_path, shard_id=1).latest_seq() is None

    def test_seq_must_advance(self, tmp_path):
        store = self._store_with_two(tmp_path)
        with pytest.raises(CheckpointError, match="does not advance"):
            store.write(0, 7, b"again", b"delta")

    def test_torn_or_uncovered_tail_is_ignored_then_cut_back(self, tmp_path):
        """Death between the log append and the snapshot rename, with the
        append torn at every possible byte: readers see seq 7 and its two
        deltas, and the next incarnation's first write cuts the tail off
        before appending its own record for the same seq."""
        self._store_with_two(tmp_path)
        log = tmp_path / "shard000.log"
        covered = log.read_bytes()
        orphan = pack_log_record(0, 11, b"never covered")
        for cut in range(len(orphan) + 1):
            log.write_bytes(covered + orphan[:cut])
            resumed = CheckpointStore(tmp_path, shard_id=0)
            latest = resumed.latest()
            assert (latest.seq, latest.output) == (7, (b"delta-a", b"delta-bb"))
        resumed.write(1, 11, b"state eleven", b"delta-ccc")
        assert log.read_bytes() == covered + pack_log_record(1, 11, b"delta-ccc")
        final = CheckpointStore(tmp_path, shard_id=0).latest()
        assert (final.epoch, final.seq) == (1, 11)
        assert final.output == (b"delta-a", b"delta-bb", b"delta-ccc")

    def test_corrupt_covered_record_is_a_typed_error(self, tmp_path):
        """One flipped byte anywhere in a covered record — header, tags,
        length, digest or payload — and the store refuses: a report that
        silently lost a delta would still look like a report."""
        self._store_with_two(tmp_path)
        log = tmp_path / "shard000.log"
        intact = log.read_bytes()
        for position in range(len(intact)):
            damaged = bytearray(intact)
            damaged[position] ^= 0x20
            log.write_bytes(bytes(damaged))
            with pytest.raises(CheckpointError, match="output log of shard 0"):
                CheckpointStore(tmp_path, shard_id=0).latest()
        log.write_bytes(intact[:-1])  # the covered record itself torn
        with pytest.raises(CheckpointError, match="before the record of checkpoint seq 7"):
            CheckpointStore(tmp_path, shard_id=0).latest()
        log.unlink()
        with pytest.raises(CheckpointError, match="at byte 0"):
            CheckpointStore(tmp_path, shard_id=0).latest()

    def test_fallback_snapshot_takes_exactly_its_own_records(self, tmp_path):
        store = self._store_with_two(tmp_path)
        newest = max(tmp_path.glob("shard000-e*.ckpt"), key=lambda p: p.name)
        newest.write_bytes(newest.read_bytes()[:-4])  # torn newest snapshot
        fallback = store.latest()
        assert (fallback.seq, fallback.payload) == (3, b"state three")
        assert fallback.output == (b"delta-a",)  # seq 7's record is not its
        # The owner resumed from seq 3, so its next write drops seq 7's record.
        store.write(1, 5, b"state five", b"delta-x")
        assert CheckpointStore(tmp_path, shard_id=0).latest().output == (
            b"delta-a",
            b"delta-x",
        )

    def test_death_on_the_first_checkpoint_leaves_nothing_behind(self, tmp_path):
        """The kill point between the log append and the snapshot rename,
        hit on a shard's very first checkpoint: no snapshot to restore, and
        the resumed writer's first write cuts the orphan record off."""

        class Died(Exception):
            pass

        def die(point):
            assert point == "post-log-pre-snapshot"
            raise Died

        first = CheckpointStore(tmp_path, shard_id=0)
        first.fault = die
        with pytest.raises(Died):
            first.write(0, 4, b"never renamed in", b"orphan")
        log = tmp_path / "shard000.log"
        assert log.read_bytes() == pack_log_record(0, 4, b"orphan")
        assert not list(tmp_path.glob("shard000-e*"))
        resumed = CheckpointStore(tmp_path, shard_id=0)
        assert resumed.latest() is None and resumed.latest_seq() is None
        resumed.write(1, 4, b"state four", b"delta-new")
        assert log.read_bytes() == pack_log_record(1, 4, b"delta-new")


class TestAsyncWriter:
    def test_writes_are_durable_and_acked(self, tmp_path):
        acks = []

        class Ack:
            def send(self, item):
                acks.append(item)

        store = CheckpointStore(tmp_path, shard_id=0)
        writer = AsyncCheckpointWriter(store, ack=Ack())
        writer.submit(0, 3, b"three", b"delta-3")
        writer.submit(0, 7, b"seven", b"delta-7")
        writer.close()
        latest = store.latest()
        assert (latest.seq, latest.output) == (7, (b"delta-3", b"delta-7"))
        assert [(epoch, seq) for epoch, seq, _ in acks] == [(0, 3), (0, 7)]
        # The acked size is the honest total: snapshot container + log record.
        assert [nbytes for _, _, nbytes in acks] == [
            len(pack_checkpoint(0, seq, payload)) + len(pack_log_record(0, seq, delta))
            for seq, payload, delta in ((3, b"three", b"delta-3"), (7, b"seven", b"delta-7"))
        ]

    def test_store_failure_surfaces_on_close(self, tmp_path):
        store = CheckpointStore(tmp_path, shard_id=0)
        writer = AsyncCheckpointWriter(store)
        store.directory = tmp_path / "deleted" / "nested"  # force write errors
        writer.submit(0, 1, b"x")
        with pytest.raises(CheckpointError, match="checkpoint writer failed"):
            writer.close()

    def test_abort_never_raises(self, tmp_path):
        writer = AsyncCheckpointWriter(CheckpointStore(tmp_path, shard_id=0))
        writer.abort()
        writer.abort()  # idempotent


# --------------------------------------------------------------------- #
# Snapshot round trip (hypothesis)
# --------------------------------------------------------------------- #
WINDOWS = (Window(32.0), Window(32.0, 8.0), Window(16.0, 3.2))  # incl. fractional

PATTERNS = (
    ("pa", lambda: seq("A", kleene("B"))),
    ("pn", lambda: parse_pattern("SEQ(A, NOT X, B+)")),
)

OPTIMIZERS = (None, "dynamic", "always", "never")


def _workload(window: Window, group_by: tuple, with_negation: bool) -> list[Query]:
    queries = [
        Query.build(seq("A", kleene("B")), group_by=group_by, window=window, name="ckq1"),
        Query.build(
            seq("A", kleene("B")),
            aggregate=sum_of("B", "v"),
            group_by=group_by,
            window=window,
            name="ckq2",
        ),
    ]
    if with_negation:
        queries.append(
            Query.build(
                parse_pattern("SEQ(A, NOT X, B+)"),
                group_by=group_by,
                window=window,
                name="ckq3",
            )
        )
    return queries


@st.composite
def round_trip_cases(draw, kinds=("shared",)):
    """``(queries, events, split, executor options)``; ``kinds`` other than
    ``"shared"`` put units on per-instance engines (``per_instance_setup``)."""
    kind = draw(st.sampled_from(kinds))
    window = draw(st.sampled_from(WINDOWS))
    group_by = draw(st.sampled_from(((), ("g",))))
    with_negation = draw(st.booleans())
    optimizer = draw(st.sampled_from(OPTIMIZERS))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    size = draw(st.integers(min_value=40, max_value=160))
    split = draw(st.integers(min_value=1, max_value=size - 1))
    rng = random.Random(seed)
    events = []
    clock = 0.0
    # Same-type runs so `split` can land mid-burst: the snapshot must
    # carry the optimizer's unflushed burst buffer, not flush it early.
    while len(events) < size:
        type_name = rng.choice("ABXB")  # B-heavy: longer kleene runs
        for _ in range(rng.randint(1, 5)):
            events.append(
                Event(
                    type_name,
                    clock,
                    {"v": float(rng.randint(0, 6)), "g": float(rng.randint(1, 3))},
                )
            )
            clock += rng.choice((0.5, 1.0))
    events = events[:size]
    queries, options = _workload(window, group_by, with_negation), {}
    if kind != "shared":
        queries, options = per_instance_setup(kind, queries)
    return queries, events, split, {"optimizer": optimizer, **options}


def _fresh(queries, optimizer=None, **options) -> StreamingExecutor:
    return StreamingExecutor(queries, optimizer=optimizer, **options)


#: The wall-clock fields of an output row; every other one is deterministic.
_WALL_CLOCK = {"seconds", "emission_latency"}


def _rows(report) -> list[tuple]:
    """The report's output, row for row, on every field but the wall-clock ones."""
    names = [f.name for f in dataclasses.fields(PartitionResult) if f.name not in _WALL_CLOCK]
    assert len(names) == len(dataclasses.fields(PartitionResult)) - len(_WALL_CLOCK)
    return [tuple(getattr(row, name) for name in names) for row in report.partition_results]


@SETTINGS
@given(case=round_trip_cases())
def test_snapshot_round_trip_is_bit_identical(case):
    queries, events, split, options = case
    uninterrupted = _fresh(queries, **options)
    for event in events:
        uninterrupted.process(event)
    expected = canonical_report(uninterrupted.finish())

    first = _fresh(queries, **options)
    for event in events[:split]:
        first.process(event)
    payload = first.snapshot_state()

    second = _fresh(queries, **options)
    second.restore_state(payload)
    for event in events[split:]:
        second.process(event)
    assert canonical_report(second.finish()) == expected


@SETTINGS
@given(case=round_trip_cases())
def test_snapshot_survives_the_disk_container(case, tmp_path_factory):
    """Incremental snapshots -> RPCP containers + output log on disk ->
    restore from the newest: still bit-identical, latencies included in
    the count (the worker loop's path: every snapshot passes the mark of
    the previous one and the store keeps the deltas)."""
    queries, events, split, options = case
    uninterrupted = _fresh(queries, **options)
    for event in events:
        uninterrupted.process(event)
    expected = uninterrupted.finish()

    first = _fresh(queries, **options)
    store = CheckpointStore(tmp_path_factory.mktemp("ckpt"), shard_id=0)
    marked = 0
    for position, event in enumerate(events[:split], start=1):
        first.process(event)
        if position % 16 == 0 or position == split:
            store.write(0, position, *first.snapshot_state(marked))
            marked = first.windows_closed

    latest = CheckpointStore(store.directory, shard_id=0).latest()
    assert latest.seq == split
    second = _fresh(queries, **options)
    second.restore_state(latest.payload, latest.output)
    assert second.windows_closed == marked
    for event in events[split:]:
        second.process(event)
    resumed = second.finish()
    assert canonical_report(resumed) == canonical_report(expected)
    assert resumed.metrics.partitions == expected.metrics.partitions
    assert resumed.metrics.emissions == expected.metrics.emissions
    assert _rows(resumed) == _rows(expected)


@SETTINGS
@given(case=round_trip_cases(), rows=st.sampled_from((2, 5, 16)))
def test_snapshot_between_block_slices_is_bit_identical(case, rows):
    """The split point taken mid-block: ``split`` cuts one block in two
    (mid-burst whenever it lands inside a same-type run), the snapshot is
    taken between the two ``process_block`` slices, and the resumed run must
    reproduce the per-event run — results *and* decision counters — with the
    rest fed as further slices of ``rows`` rows."""
    queries, events, split, options = case
    uninterrupted = _fresh(queries, **options)
    for event in events:
        uninterrupted.process(event)
    expected = uninterrupted.finish()

    block = EventBlock.from_events(events)
    first = _fresh(queries, **options)
    first.process_block(block.slice(0, split))
    payload = first.snapshot_state()

    second = _fresh(queries, **options)
    second.restore_state(payload)
    for start in range(split, len(block), rows):
        second.process_block(block.slice(start, min(start + rows, len(block))))
    resumed = second.finish()
    assert canonical_report(resumed) == canonical_report(expected)
    assert resumed.metrics.operations == expected.metrics.operations
    assert decision_counters(resumed) == decision_counters(expected)


PER_INSTANCE_CASES = round_trip_cases(kinds=PER_INSTANCE_KINDS)


@SETTINGS
@given(case=PER_INSTANCE_CASES)
def test_snapshot_round_trip_over_per_instance_units(case):
    """The three properties above, over units whose groups hold one pooled
    engine per live window instance: the snapshot ships those engines and
    the idle pool — never the (lambda) factory — and the restored groups
    keep drawing from the restored pool.  With an ``optimizer`` the burst
    buffer is on for the executor and must bypass these groups."""
    test_snapshot_round_trip_is_bit_identical.hypothesis.inner_test(case)


@SETTINGS
@given(case=PER_INSTANCE_CASES)
def test_snapshot_of_per_instance_units_survives_the_disk_container(case, tmp_path_factory):
    test_snapshot_survives_the_disk_container.hypothesis.inner_test(case, tmp_path_factory)


@SETTINGS
@given(case=PER_INSTANCE_CASES, rows=st.sampled_from((2, 5, 16)))
def test_snapshot_of_per_instance_units_between_block_slices(case, rows):
    test_snapshot_between_block_slices_is_bit_identical.hypothesis.inner_test(case, rows)


def test_snapshot_carries_the_pending_burst_as_column_rows():
    """Pinned shape: a snapshot taken mid-burst holds the unflushed rows."""
    window = Window(16.0, 4.0)
    queries = [
        Query.build(seq("A", kleene("B")), aggregate=sum_of("B", "v"), window=window, name="s1"),
        Query.build(seq("A", kleene("B")), aggregate=sum_of("B", "v"), window=window, name="s2"),
    ]
    events = [Event("A", 0.0, {"v": 1.0, "g": 1.0})] + [
        Event("B", float(t), {"v": 2.0, "g": 1.0}) for t in range(1, 5)
    ]
    block = EventBlock.from_events(events)
    first = _fresh(queries, "dynamic")
    first.process_block(block.slice(0, 3))
    (unit,) = first._units
    (group,) = unit.groups.values()
    assert group.burst_type == "B" and len(group.burst) == 2
    time_, sequence, lo, hi, contributions, event = group.burst[0]
    assert (time_, sequence) == (1.0, events[1].sequence) and lo <= hi
    assert contributions == (2.0,) and event is None  # no row view on this path
    second = _fresh(queries, "dynamic")
    second.restore_state(first.snapshot_state())
    (restored,) = second._units[0].groups.values()
    assert restored.burst == group.burst


def test_snapshot_splits_output_from_live_state():
    """Pinned shape (v10): ``{version, fingerprint, core, lateness}``; the
    core is its own pickle and carries the run's scalar metrics, no report
    and no totals (``finish`` sums those from the rows); the output — one
    list, one compact row per closed window, addressed by the one
    ``windows_closed`` mark — rides under ``"output"`` in the self-contained
    form and outside the payload in the incremental one."""
    executor = _fresh(_workload(Window(8.0), ("g",), False), None)
    for index in range(60):
        executor.process(Event("AB"[index % 2], float(index), {"v": 1.0, "g": 1.0}))
    closed = executor.windows_closed
    assert closed > 2
    state = pickle.loads(executor.snapshot_state())
    assert sorted(state) == ["core", "fingerprint", "lateness", "output", "version"]
    assert state["lateness"] is None  # strict order: no stage
    core = pickle.loads(state["core"])
    assert "_report" not in core and b"totals" not in state["core"]
    metrics = core["metrics"]
    assert metrics.partitions == metrics.emissions == closed
    # No per-window list on the metrics: the rows are the only O(windows) state.
    assert not [
        f.name for f in dataclasses.fields(metrics)
        if isinstance(getattr(metrics, f.name), (list, tuple, dict, set))
    ]
    assert len(state["output"]) == closed
    assert all(isinstance(row, PartitionResult) for row in state["output"])
    assert all(isinstance(row.results, WindowValues) for row in state["output"])
    payload, delta = executor.snapshot_state(closed - 2)
    assert "output" not in pickle.loads(payload)
    start, rows = pickle.loads(delta)  # a delta names the row it starts at: one list
    assert start == closed - 2 and rows == state["output"][-2:]
    # The live report still owns its lists: snapshotting detached nothing.
    assert len(executor.finish().partition_results) >= closed


def test_restore_refuses_an_incremental_snapshot_without_its_output():
    """The typed error behind "never a silently shorter report"."""
    executor = _fresh(_workload(Window(8.0), ("g",), False), None)
    for index in range(60):
        executor.process(Event("AB"[index % 2], float(index), {"v": 1.0, "g": 1.0}))
    payload, delta = executor.snapshot_state(0)
    fresh = _fresh(_workload(Window(8.0), ("g",), False), None)
    with pytest.raises(CheckpointError, match="emitted windows"):
        fresh.restore_state(payload)
    with pytest.raises(CheckpointError, match="undecodable"):
        fresh.restore_state(payload, [b"not a delta"])
    gap = pickle.dumps((3, []))  # starts past the rows restored so far
    with pytest.raises(CheckpointError, match="starts at row 3"):
        fresh.restore_state(payload, [gap, delta])
    fresh.restore_state(payload, [delta])
    assert fresh.windows_closed == executor.windows_closed


def _steady_events(size: int) -> list[Event]:
    rng = random.Random(size)
    return [
        Event(rng.choice("ABB"), index * 0.5, {"v": 1.0, "g": float(rng.randint(1, 3))})
        for index in range(size)
    ]


def test_incremental_snapshot_bytes_follow_the_window_not_the_history():
    """An incremental snapshot 90% into a steady stream is within 1.5x the
    bytes of one 10% in (deterministic: bytes, not seconds), while the
    self-contained form — which carries the history by design — grows."""
    events = _steady_events(4_000)
    executor = _fresh(_workload(Window(16.0, 4.0), ("g",), False), None)
    sizes = {}
    marked = 0
    for position, event in enumerate(events, start=1):
        executor.process(event)
        if position % 100 == 0:
            payload, delta = executor.snapshot_state(marked)
            marked = executor.windows_closed
            sizes[position] = (len(payload) + len(delta), len(executor.snapshot_state()))
    early, late = sizes[400], sizes[3_600]
    assert late[0] <= 1.5 * early[0]
    assert late[1] > 4 * early[1]  # what every checkpoint used to cost


@pytest.mark.parametrize("ingest", ("scalar", "block"))
def test_retract_rotation_payload_is_flat_in_stream_length(ingest):
    """``late_policy="retract"`` rotates a core snapshot every 256 releases
    through the same function: its payload must not grow with the stream
    either (at the parent: the whole accumulated report, every rotation)."""
    queries = _workload(Window(16.0, 4.0), ("g",), False)

    def rotation_bytes(size: int) -> int:
        executor = StreamingExecutor(queries, allowed_lateness=4.0, late_policy="retract")
        events = _steady_events(size)
        if ingest == "scalar":
            for event in events:
                executor.process(event)
        else:
            block = EventBlock.from_events(events)
            for start in range(0, size, 128):
                executor.process_block(block.slice(start, min(start + 128, size)))
        snapshots = executor.lateness.retained_snapshots
        assert len(snapshots) == 2
        assert executor.windows_closed > size // 40
        return len(snapshots[-1])

    assert rotation_bytes(6_000) <= 1.25 * rotation_bytes(1_500)


def _retract_stream(size: int, seed: int, late_until: int) -> list[Event]:
    """Ordered events, every 37th of the first ``late_until`` delivered 40
    positions (10 time units) late: beyond ``allowed_lateness=4`` each one
    retracts, rewriting windows that closed — and were logged — before it."""
    rng = random.Random(seed)
    events = [
        Event(rng.choice("ABB"), index * 0.25, {"v": 1.0, "g": float(rng.randint(1, 3))})
        for index in range(size)
    ]
    for index in range(37, late_until, 37):
        events.insert(index + 40, events.pop(index))
    return events


def _retracting(queries) -> StreamingExecutor:
    return StreamingExecutor(queries, allowed_lateness=4.0, late_policy="retract")


def test_retraction_restarts_the_output_delta_at_the_rolled_back_row():
    """A retraction truncates the output below the previous snapshot's mark
    and re-closes those windows: the next delta starts at the lowest row
    reached, not at ``since``, and says so — and a restore from the payload
    plus both deltas equals the uninterrupted run row for row."""
    queries = _workload(Window(16.0, 4.0), ("g",), False)
    events = _retract_stream(400, seed=5, late_until=300)
    executor = _retracting(queries)
    late = [i for i in range(1, len(events)) if events[i].time < events[i - 1].time][4]
    for event in events[:late]:
        executor.process(event)
    marked = executor.windows_closed
    assert marked > 4
    _, first_delta = executor.snapshot_state(0)  # the previous checkpoint: rows [0, marked)
    executor.process(events[late])
    assert executor.lateness.late_retracted == 5
    payload, second_delta = executor.snapshot_state(marked)
    state = pickle.loads(payload)
    assert state["lateness"].late_retracted == 5  # the stage rides the payload ...
    assert b"lateness" not in state["core"]  # ... and the core's pickle knows no stage
    start, rows = pickle.loads(second_delta)
    assert start < marked  # rewound: rows an earlier delta carried are re-sent
    assert start + len(rows) == executor.windows_closed
    # ... once: the next delta is back to starting at its caller's mark.
    marked = executor.windows_closed
    assert pickle.loads(executor.snapshot_state(marked)[1])[0] == marked

    resumed = _retracting(queries)
    resumed.restore_state(payload, [first_delta, second_delta])
    uninterrupted = _retracting(queries)
    for event in events[: late + 1]:
        uninterrupted.process(event)
    for event in events[late + 1 :]:
        resumed.process(event)
        uninterrupted.process(event)
    resumed_report, expected = resumed.finish(), uninterrupted.finish()
    assert _rows(resumed_report) == _rows(expected)
    assert resumed_report.metrics.late_retracted == expected.metrics.late_retracted > 5


@SETTINGS
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    size=st.integers(min_value=300, max_value=900),
    late_share=st.sampled_from((0.3, 0.6, 1.0)),
    split_share=st.floats(min_value=0.05, max_value=0.98),
    every=st.sampled_from((5, 16, 50)),
)
def test_retract_survives_the_disk_container(
    seed, size, late_share, split_share, every, tmp_path_factory
):
    """The disk round trip under ``late_policy="retract"``: late events land
    after checkpoints that already logged the windows they rewrite, and a
    restore from the store's chain still finishes with the uninterrupted
    report.  (With ``late_share < 1`` the late events stop early, so no
    later retraction can paper over a stale row.)"""
    queries = _workload(Window(16.0, 4.0), ("g",), False)
    events = _retract_stream(size, seed, late_until=int(size * late_share) - 40)
    split = max(1, int(size * split_share))
    uninterrupted = _retracting(queries)
    for event in events:
        uninterrupted.process(event)
    expected = uninterrupted.finish()
    assert expected.metrics.late_retracted > 0

    first = _retracting(queries)
    store = CheckpointStore(tmp_path_factory.mktemp("ckpt"), shard_id=0)
    marked = 0
    for position, event in enumerate(events[:split], start=1):
        first.process(event)
        if position % every == 0 or position == split:
            store.write(0, position, *first.snapshot_state(marked))
            marked = first.windows_closed
    latest = CheckpointStore(store.directory, shard_id=0).latest()
    second = _retracting(queries)
    second.restore_state(latest.payload, latest.output)
    for event in events[split:]:
        second.process(event)
    resumed = second.finish()
    assert canonical_report(resumed) == canonical_report(expected)
    assert resumed.metrics.late_retracted == expected.metrics.late_retracted
    assert _rows(resumed) == _rows(expected)


def test_restore_refuses_a_snapshot_of_the_previous_schema():
    """A v11 snapshot (engines pickling a kernel backend, a fingerprint
    naming the backend and the burst cap) is refused with a typed error
    instead of being resumed."""
    import pickle

    from repro.runtime.streaming import SNAPSHOT_VERSION

    executor = _fresh(_workload(Window(16.0, 4.0), ("g",), False), "dynamic")
    for index in range(40):
        executor.process(Event("AB"[index % 2], float(index), {"v": 1.0, "g": 1.0}))
    state = pickle.loads(executor.snapshot_state())
    assert state["version"] == SNAPSHOT_VERSION == 12
    assert "kernel" not in state["fingerprint"] and "burst_size" not in state["fingerprint"]
    (group,) = pickle.loads(state["core"])["units"][0][0].values()
    assert not hasattr(group.engine, "_backend")
    layout = state["output"][0].results.layout
    assert layout.__reduce__() == (type(layout), (layout.names, layout.slot_of))
    state["version"] = 11
    with pytest.raises(CheckpointError, match="schema version 11"):
        executor.restore_state(pickle.dumps(state))


def test_restore_refuses_a_different_workload():
    window = Window(16.0, 4.0)
    source = StreamingExecutor(_workload(window, ("g",), False))
    payload = source.snapshot_state()
    other = StreamingExecutor(_workload(window, ("g",), True))  # extra query
    with pytest.raises(CheckpointError, match="different workload"):
        other.restore_state(payload)


def test_restore_refuses_garbage_payloads():
    executor = StreamingExecutor(_workload(Window(16.0, 4.0), ("g",), False))
    with pytest.raises(CheckpointError, match="undecodable"):
        executor.restore_state(b"not a snapshot")


def test_windows_closed_counts_closed_windows():
    executor = StreamingExecutor(_workload(Window(8.0), (), False))
    assert executor.windows_closed == 0
    for index in range(40):
        executor.process(Event("A", float(index), {"v": 1.0, "g": 1.0}))
    executor.finish()
    assert executor.windows_closed > 0
