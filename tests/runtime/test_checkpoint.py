"""Checkpoint container, store, and snapshot round-trip tests.

Three layers, matching `repro/runtime/checkpoint.py`'s split:

* the **RPCP container** — pack/unpack round-trips, and every corruption
  mode (bad magic, wrong version, truncation at either end, payload
  digest mismatch) raises :class:`CheckpointError` instead of returning
  garbage;
* the **CheckpointStore** — atomic write + last-good pointer semantics:
  a crash-shaped corruption of the newest file falls back to the
  previous one, pruning keeps the footprint bounded, orphaned temp files
  are collected;
* the **snapshot round trip** (hypothesis, derandomized like every other
  deterministic gate in this repo) — snapshot a
  :class:`StreamingExecutor` at an arbitrary mid-stream point (including
  mid-burst, which is where the adaptive optimizer's unflushed buffer
  lives, and mid-block, between two ``process_block`` slices of one
  burst), restore into a *fresh* executor of the same workload, feed the
  tail, and demand the finished report be **bit-identical** to an
  uninterrupted run.  The property quantifies over the workload shapes
  the equivalence suites care about: all sharing policies, GROUP BY on
  and off, negation patterns, fractional slides.
"""

from __future__ import annotations

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
from repro.runtime.checkpoint import (
    MAGIC,
    TEMP_SUFFIX,
    VERSION,
    AsyncCheckpointWriter,
    Checkpoint,
    CheckpointStore,
    pack_checkpoint,
    unpack_checkpoint,
)
from tests.conftest import decision_counters

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
        assert latest == Checkpoint(epoch=0, seq=5, payload=b"state five")

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
        assert store.latest() == Checkpoint(epoch=0, seq=5, payload=b"good")

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

    def test_keep_must_be_positive(self, tmp_path):
        with pytest.raises(CheckpointError, match="keep"):
            CheckpointStore(tmp_path, shard_id=0, keep=0)


class TestAsyncWriter:
    def test_writes_are_durable_and_acked(self, tmp_path):
        acks = []

        class Ack:
            def send(self, item):
                acks.append(item)

        store = CheckpointStore(tmp_path, shard_id=0)
        writer = AsyncCheckpointWriter(store, ack=Ack())
        writer.submit(0, 3, b"three")
        writer.submit(0, 7, b"seven")
        writer.close()
        assert store.latest().seq == 7
        assert [(epoch, seq) for epoch, seq, _ in acks] == [(0, 3), (0, 7)]
        assert all(nbytes > 0 for _, _, nbytes in acks)

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
def round_trip_cases(draw):
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
    return _workload(window, group_by, with_negation), events, split, optimizer


def _fresh(queries, optimizer) -> StreamingExecutor:
    return StreamingExecutor(queries, optimizer=optimizer)


@SETTINGS
@given(case=round_trip_cases())
def test_snapshot_round_trip_is_bit_identical(case):
    queries, events, split, optimizer = case
    uninterrupted = _fresh(queries, optimizer)
    for event in events:
        uninterrupted.process(event)
    expected = canonical_report(uninterrupted.finish())

    first = _fresh(queries, optimizer)
    for event in events[:split]:
        first.process(event)
    payload = first.snapshot_state()

    second = _fresh(queries, optimizer)
    second.restore_state(payload)
    for event in events[split:]:
        second.process(event)
    assert canonical_report(second.finish()) == expected


@SETTINGS
@given(case=round_trip_cases())
def test_snapshot_survives_the_disk_container(case, tmp_path_factory):
    """Snapshot -> RPCP container on disk -> restore: still bit-identical."""
    queries, events, split, optimizer = case
    uninterrupted = _fresh(queries, optimizer)
    for event in events:
        uninterrupted.process(event)
    expected = canonical_report(uninterrupted.finish())

    first = _fresh(queries, optimizer)
    for event in events[:split]:
        first.process(event)
    store = CheckpointStore(tmp_path_factory.mktemp("ckpt"), shard_id=0)
    store.write(0, split, first.snapshot_state())

    second = _fresh(queries, optimizer)
    second.restore_state(store.latest().payload)
    for event in events[split:]:
        second.process(event)
    assert canonical_report(second.finish()) == expected


@SETTINGS
@given(case=round_trip_cases(), rows=st.sampled_from((2, 5, 16)))
def test_snapshot_between_block_slices_is_bit_identical(case, rows):
    """The split point taken mid-block: ``split`` cuts one block in two
    (mid-burst whenever it lands inside a same-type run), the snapshot is
    taken between the two ``process_block`` slices, and the resumed run must
    reproduce the per-event run — results *and* decision counters — with the
    rest fed as further slices of ``rows`` rows."""
    queries, events, split, optimizer = case
    uninterrupted = _fresh(queries, optimizer)
    for event in events:
        uninterrupted.process(event)
    expected = uninterrupted.finish()

    block = EventBlock.from_events(events)
    first = _fresh(queries, optimizer)
    first.process_block(block.slice(0, split))
    payload = first.snapshot_state()

    second = _fresh(queries, optimizer)
    second.restore_state(payload)
    for start in range(split, len(block), rows):
        second.process_block(block.slice(start, min(start + rows, len(block))))
    resumed = second.finish()
    assert canonical_report(resumed) == canonical_report(expected)
    assert resumed.metrics.operations == expected.metrics.operations
    assert decision_counters(resumed) == decision_counters(expected)


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
    (group,) = unit.shared_groups.values()
    assert group.burst_type == "B" and len(group.burst) == 2
    time_, sequence, lo, hi, contributions, event = group.burst[0]
    assert (time_, sequence) == (1.0, events[1].sequence) and lo <= hi
    assert contributions == (2.0,) and event is None  # no row view on this path
    second = _fresh(queries, "dynamic")
    second.restore_state(first.snapshot_state())
    (restored,) = second._units[0].shared_groups.values()
    assert restored.burst == group.burst


def test_restore_refuses_a_snapshot_of_the_previous_schema():
    """A pre-PR-13 snapshot (``(Event, lo, hi)`` burst tuples) is refused
    with a typed error instead of resuming a mis-shaped buffer."""
    import pickle

    from repro.errors import ExecutionError
    from repro.runtime.streaming import SNAPSHOT_VERSION

    executor = _fresh(_workload(Window(16.0, 4.0), ("g",), False), "dynamic")
    state = pickle.loads(executor.snapshot_state())
    assert state["version"] == SNAPSHOT_VERSION == 3
    state["version"] = 2
    with pytest.raises(ExecutionError, match="schema version 2"):
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
