"""The lateness stage on its own, in front of a scripted core.

``Lateness`` reaches the executor through the calls of ``Core`` only
(and is handed the core with every arrival), so everything it owns —
release order, the late policies and their counters, the retract ring and
its bounded replay, its own pickle — is checked here without an executor:
the core below records the keys it is fed and snapshots by list copy.
"""

from __future__ import annotations

import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import OutOfOrderError
from repro.events import Event
from repro.events.block import EventBlock
from repro.runtime.lateness import _RETRACT_INTERVAL, Lateness, _splice


class ScriptedCore:
    """An in-memory core: its whole state is the list of keys it was fed."""

    def __init__(self, edge: float = float("-inf")) -> None:
        #: What ``_edge_after`` answers: ``-inf`` makes every row one that can
        #: close a window (a release at every watermark advance), ``inf`` none.
        self.edge = edge
        self.fed: list[tuple] = []
        #: One entry per ingest call: ``("events" | "block", rows)``.
        self.calls: list[tuple] = []
        #: Marks handed back by ``restore`` (one per retraction).
        self.restores: list[int] = []

    def _ingest_events(self, events) -> None:
        self.fed.extend((event.time, event.sequence) for event in events)
        self.calls.append(("events", len(events)))

    def _edge_after(self, time) -> float:
        return self.edge

    def _ingest_block(self, block) -> None:
        self.fed.extend(
            zip(block.times[block.start : block.stop], block.sequences[block.start : block.stop])
        )
        self.calls.append(("block", len(block)))

    def _core_state(self) -> list:
        return list(self.fed)

    def _restore_core(self, snapshot: list) -> int:
        self.fed = list(snapshot)
        self.calls.clear()
        self.restores.append(len(snapshot))
        return len(snapshot)  # every row "closed a window": the output mark

    def __reduce__(self):
        raise AssertionError("the core must never ride a stage's pickle")


def make_events(seed: int, size: int, step: float = 0.5) -> list[Event]:
    rng = random.Random(seed)
    return [
        Event(rng.choice("AB"), index * step, {"v": 1.0}, sequence=index) for index in range(size)
    ]


def shuffled(events: list[Event], horizon: float, seed: int) -> list[Event]:
    rng = random.Random(seed)
    return sorted(events, key=lambda e: e.time + rng.uniform(-horizon / 2, horizon / 2))


def keys(events) -> list[tuple]:
    return [(event.time, event.sequence) for event in events]


def offer_mixed(stage: Lateness, core, arrivals: list[Event], seed: int, mode: str) -> None:
    """Feed ``arrivals`` as scalars, blocks, or a seeded interleaving."""
    rng = random.Random(seed)
    position = 0
    while position < len(arrivals):
        as_block = mode == "block" or (mode == "mixed" and rng.random() < 0.5)
        count = rng.randint(1, 40)
        chunk = arrivals[position : position + count]
        if as_block:
            stage.offer_block(core, EventBlock.from_events(chunk))
        else:
            for event in chunk:
                stage.offer(core, event)
        position += count


# --------------------------------------------------------------------- #
# Release order
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("mode", ("scalar", "block", "mixed"))
@pytest.mark.parametrize("policy", ("raise", "retract"))
def test_core_is_fed_in_key_order_whatever_the_offers(mode, policy):
    events = make_events(seed=1, size=600)
    core = ScriptedCore()
    stage = Lateness(core, 8.0, policy)
    offer_mixed(stage, core, shuffled(events, horizon=8.0, seed=2), seed=3, mode=mode)
    assert core.fed == sorted(core.fed) and 0 < len(core.fed) < len(events)
    assert all(time < stage.buffer.watermark for time, _ in core.fed)
    assert len(core.fed) + len(stage.buffer) == len(events)
    stage.flush(core)
    assert core.fed == keys(events) and len(stage.buffer) == 0
    if mode == "block":
        assert {kind for kind, _ in core.calls} == {"block"}  # columns in, columns out
    assert (stage.late_dropped, stage.late_side_output, stage.late_retracted) == (0, 0, 0)


def test_non_finite_times_are_refused_before_anything_is_buffered():
    core = ScriptedCore()
    stage = Lateness(core, 4.0)
    events = make_events(seed=4, size=20)
    for event in events[:10]:
        stage.offer(core, event)
    buffered, fed = len(stage.buffer), list(core.fed)
    for bad in (float("nan"), float("inf")):
        poisoned = Event("B", bad, {"v": 1.0})
        with pytest.raises(OutOfOrderError, match="finite event times"):
            stage.offer(core, poisoned)
        with pytest.raises(OutOfOrderError, match="finite event times"):
            stage.offer_block(core, EventBlock.from_events(events[10:15] + [poisoned]))
    assert (len(stage.buffer), core.fed) == (buffered, fed)
    assert stage.buffer.max_event_time == events[9].time


# --------------------------------------------------------------------- #
# Late policies
# --------------------------------------------------------------------- #
def _with_one_late(policy: str, on_late=None):
    events = make_events(seed=5, size=80)
    late = events.pop(10)  # time 5.0, offered when the watermark is far past it
    core = ScriptedCore()
    stage = Lateness(core, 4.0, policy, on_late)
    for event in events[:60]:
        stage.offer(core, event)
    return stage, core, events, late


@pytest.mark.parametrize("ingest", ("offer", "offer_block"))
def test_each_late_policy_and_its_counter(ingest):
    def deliver(stage, late, events):
        if ingest == "offer":
            stage.offer(core, late)
        else:  # a late row in the middle of an otherwise fine block
            stage.offer_block(core, EventBlock.from_events([events[60], late, events[61]]))
        for event in events[60 if ingest == "offer" else 62 :]:
            stage.offer(core, event)
        stage.flush(core)

    stage, core, events, late = _with_one_late("raise")
    with pytest.raises(OutOfOrderError, match=r"time=5\.0 seq=10 behind the watermark"):
        stage.offer(core, late)

    stage, core, events, late = _with_one_late("drop")
    deliver(stage, late, events)
    assert (stage.late_dropped, stage.late_side_output, stage.late_retracted) == (1, 0, 0)
    assert core.fed == keys(events)  # the late row never reached the core

    handed: list = []
    stage, core, events, late = _with_one_late("side_output", handed.append)
    deliver(stage, late, events)
    assert (stage.late_dropped, stage.late_side_output, stage.late_retracted) == (0, 1, 0)
    assert keys(handed) == keys([late]) and core.fed == keys(events)

    stage, core, events, late = _with_one_late("retract")
    deliver(stage, late, events)
    assert (stage.late_dropped, stage.late_side_output, stage.late_retracted) == (0, 0, 1)
    assert core.fed == sorted(keys(events + [late]))  # folded in at its position
    assert core.restores == [0]  # rolled back to the initial snapshot, once


# --------------------------------------------------------------------- #
# Retraction: bounded replay, the horizon, reconciliation
# --------------------------------------------------------------------- #
def test_retraction_replays_at_most_two_rotation_intervals():
    events = make_events(seed=6, size=6 * _RETRACT_INTERVAL)
    core = ScriptedCore()
    stage = Lateness(core, 2.0, "retract")
    for event in events:
        stage.offer(core, event)
    assert len(stage.retained_snapshots) == 2  # the ring, however long the stream
    fed_before = list(core.fed)
    oldest, newest = (len(snapshot) for snapshot in stage.retained_snapshots)
    assert newest - oldest == _RETRACT_INTERVAL and len(fed_before) - newest < _RETRACT_INTERVAL

    # Just behind the newest snapshot: the older one is restored.
    time, sequence = fed_before[newest - 3]
    late = Event("B", time, {"v": 1.0}, sequence=sequence + 10_000)
    stage.offer(core, late)
    replayed = sum(rows for _, rows in core.calls)
    assert core.restores == [oldest]
    assert replayed == len(fed_before) - oldest + 1 <= 2 * _RETRACT_INTERVAL
    assert core.fed == sorted(fed_before + [(late.time, late.sequence)])
    assert len(stage.retained_snapshots) == 1  # the newer one lacked the late row
    assert stage.late_retracted == 1

    # Behind the oldest retained snapshot: past the horizon, nothing changes.
    fed = list(core.fed)
    with pytest.raises(OutOfOrderError, match="retract horizon exceeded"):
        stage.offer(core, Event("B", fed[oldest - 5][0], {"v": 1.0}, sequence=20_000))
    assert core.fed == fed and core.restores == [oldest] and stage.late_retracted == 1


@pytest.mark.parametrize("policy", ("raise", "retract"))
def test_scalar_rows_wait_for_the_edge_except_under_retract(policy):
    # No window end ahead of the first release (edge +inf): the rows below
    # the watermark wait, except under retract, which releases at every
    # watermark advance past a buffered row.
    events = make_events(seed=12, size=200)
    core = ScriptedCore(edge=float("inf"))
    stage = Lateness(core, 3.0, policy)
    for event in shuffled(events, horizon=3.0, seed=13):
        stage.offer(core, event)
        below = [key for key in keys(events) if key[0] < stage.buffer.watermark]
        assert core.fed == below if policy == "retract" else len(core.calls) <= 1
    assert policy == "retract" or len(core.fed) < len(below) // 2
    stage.release(core)
    assert core.fed == below
    stage.flush(core)
    assert core.fed == keys(events)


def test_rewound_mark_restarts_the_next_delta_once():
    stage, core, events, late = _with_one_late("retract")
    assert stage.delta_start(40) == 40
    stage.offer(core, late)
    assert stage.delta_start(40) == 0  # the rollback reached row 0 ...
    assert stage.delta_start(40) == 40  # ... and is reported once


def test_reconcile_suppresses_unchanged_and_flags_changed_windows():
    from array import array

    from repro.runtime.results import ResultLayout, WindowValues
    from repro.runtime.streaming import WindowResult

    layout = ResultLayout(("q", "q_twin"), (0, 0))  # two names, one slot

    def result(total: float, layout: ResultLayout = layout) -> WindowResult:
        row = WindowValues(layout, array("d", [total]))
        return WindowResult(("g",), 3, 12.0, 28.0, row, 5, 0.0)

    passthrough = Lateness(ScriptedCore(), 4.0, "drop")
    first = result(7.0)
    assert passthrough.reconcile(first) is first and passthrough.reconcile(first) is first

    stage = Lateness(ScriptedCore(), 4.0, "retract")
    assert stage.reconcile(result(7.0)) == result(7.0)
    assert stage.reconcile(result(7.0)) is None  # a re-close that changed nothing
    # ... also when it comes from a restored engine's (equal, distinct) layout.
    assert stage.reconcile(result(7.0, pickle.loads(pickle.dumps(layout)))) is None
    changed = stage.reconcile(result(9.0))
    assert changed.retraction and changed.results == {"q": 9.0, "q_twin": 9.0}
    assert stage.reconcile(result(9.0)) is None
    # The stage logs the row itself and pickles it with the rest of its state.
    restored = pickle.loads(pickle.dumps(stage))
    assert restored.reconcile(result(9.0)) is None
    assert restored.reconcile(result(-0.0)).retraction


@pytest.mark.parametrize("ingest", ("events", "block"))
def test_reconcile_keeps_the_units_of_one_window_apart(ingest):
    """COUNT(*) and MAX run in two units, so each window closes one row per
    unit.  Under ``retract`` no first emission is a retraction, and a replay
    that re-closes a window without changing its row emits nothing: every
    repeat of a ``(group, window, unit)`` row is a flagged, changed one."""
    from repro.query import Query, Window, kleene, max_of, seq
    from repro.runtime import StreamingExecutor

    window = Window(5.0, 2.5)
    pattern = seq("A", kleene("B"))
    queries = [
        Query.build(pattern, group_by=("g",), window=window, name="cnt"),
        Query.build(pattern, group_by=("g",), window=window, aggregate=max_of("B", "v"), name="mx"),
    ]
    rng = random.Random(5)
    events = [
        Event(rng.choice("AB"), index * 0.25, {"v": float(rng.randint(1, 9)), "g": index % 2},
              sequence=index)
        for index in range(240)
    ]
    arrivals = [*events]
    for index in (120, 200):  # each arrives 3 time units behind the watermark
        arrivals.remove(events[index])
        arrivals.insert(arrivals.index(events[index + 16]) + 1, events[index])
    emitted: list = []
    executor = StreamingExecutor(
        queries, on_window=emitted.append, allowed_lateness=1.0, late_policy="retract"
    )
    if ingest == "block":
        for first in range(0, len(arrivals), 10):
            executor.process_block(EventBlock.from_events(arrivals[first : first + 10]))
    else:
        for event in arrivals:
            executor.process(event)
    report = executor.finish()
    assert report.metrics.late_retracted == 2
    seen: dict = {}
    for result in emitted:
        key = (result.group_key, result.window_index, tuple(result.results))
        assert result.retraction == (key in seen), key
        assert seen.get(key) != result.results, key
        seen[key] = result.results
    assert len(seen) < len(emitted)  # a retraction rewrote some window
    assert {name for _, _, names in seen for name in names} == {"cnt", "mx"}


# --------------------------------------------------------------------- #
# The stage pickles itself
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("policy", ("side_output", "retract"))
def test_pickle_round_trip_mid_horizon_resumes_identically(policy):
    events = make_events(seed=7, size=900)
    arrivals = shuffled(events, horizon=6.0, seed=8)
    for index in range(100, 800, 90):  # far behind the watermark on arrival
        arrivals.insert(index + 50, arrivals.pop(index))
    handed_a: list = []
    handed_b: list = []
    core_a = ScriptedCore()
    stage_a = Lateness(core_a, 6.0, policy, handed_a.append if policy == "side_output" else None)
    offer_mixed(stage_a, core_a, arrivals[:450], seed=9, mode="mixed")
    assert len(stage_a.buffer) > 0  # mid-horizon: rows are buffered

    stage_b = pickle.loads(pickle.dumps(stage_a))  # ScriptedCore refuses to pickle
    assert stage_b.on_late is None  # callbacks never pickle
    core_b = ScriptedCore()
    core_b.fed = list(core_a.fed)  # the core restores itself, separately
    stage_b.on_late = handed_b.append if policy == "side_output" else None
    handed_before = len(handed_a)

    offer_mixed(stage_a, core_a, arrivals[450:], seed=10, mode="mixed")
    offer_mixed(stage_b, core_b, arrivals[450:], seed=10, mode="mixed")
    stage_a.flush(core_a)
    stage_b.flush(core_b)
    assert core_b.fed == core_a.fed
    assert keys(handed_b) == keys(handed_a[handed_before:])
    counters = ("late_dropped", "late_side_output", "late_retracted")
    assert [getattr(stage_b, name) for name in counters] == [
        getattr(stage_a, name) for name in counters
    ]
    assert sum(getattr(stage_a, name) for name in counters) >= 7
    if policy == "retract":
        assert core_a.fed == keys(events)
        assert core_b.restores == core_a.restores[-len(core_b.restores) :] != []


@pytest.mark.parametrize("lateness", (None, 4.0))
def test_executor_and_stage_form_no_reference_cycle(lateness):
    """Why the stage is handed the core per call instead of keeping it: an
    executor dropped after a run — reports, rows and all — is reclaimed by
    reference count, not by a later collector pass (a stored handle cost the
    e2e passes 5-10% in gen-2 collections of ~700k objects)."""
    import gc
    import weakref

    from repro.query import Query, Window, kleene, seq
    from repro.runtime import StreamingExecutor

    queries = [Query.build(seq("A", kleene("B")), window=Window(8.0, 2.0), name="q")]
    executor = StreamingExecutor(
        queries,
        on_window=lambda result: None,
        allowed_lateness=lateness,
        late_policy="raise" if lateness is None else "retract",
    )
    for event in make_events(seed=11, size=400):
        executor.process(event)
    report = executor.finish()
    alive = weakref.ref(executor)
    gc.disable()
    try:
        del executor
        assert alive() is None
    finally:
        gc.enable()
    assert report.metrics.partitions > 0 and report.totals["q"] > 0


# --------------------------------------------------------------------- #
# Splice by merge
# --------------------------------------------------------------------- #
def release_keys(releases) -> list[tuple]:
    found: list[tuple] = []
    for kind, payload in releases:
        if kind == "events":
            found.extend(keys(payload))
        else:
            found.extend(
                zip(
                    payload.times[payload.start : payload.stop],
                    payload.sequences[payload.start : payload.stop],
                )
            )
    return found


@st.composite
def release_logs(draw):
    """A release log — consecutive entries, each in key order, mixing loose
    runs and blocks (adjacent blocks: the several segments of one drain),
    with few distinct times so equal-time rows span entry boundaries —
    and one late event whose key is not in it."""
    size = draw(st.integers(min_value=1, max_value=60))
    times = sorted(draw(st.lists(st.integers(0, 12), min_size=size + 1, max_size=size + 1)))
    sequences = draw(st.permutations(range(size + 1)))
    rows = sorted(zip(map(float, times), sequences))
    late_time, late_sequence = rows.pop(draw(st.integers(0, size)))
    log, position = [], 0
    while position < len(rows):
        count = draw(st.integers(min_value=1, max_value=12))
        chunk = [
            Event("A", time, {"v": 1.0}, sequence=sequence)
            for time, sequence in rows[position : position + count]
        ]
        if draw(st.booleans()):
            log.append(("block", EventBlock.from_events(chunk)))
        else:
            log.append(("events", chunk))
        position += count
    return log, Event("A", late_time, {"v": 1.0}, sequence=late_sequence)


@settings(max_examples=200, deadline=None)
@given(case=release_logs())
def test_splice_by_merge_is_a_sorted_insert_that_barely_grows_the_log(case):
    log, late = case
    before = release_keys(log)
    assert before == sorted(before)
    merged = _splice(log, late)
    assert release_keys(merged) == sorted(before + [(late.time, late.sequence)])
    assert len(merged) <= len(log) + 2
    assert all(len(payload) for _, payload in merged)
