"""Compiled-vs-reference differential for the Cover stage.

Where every unit is compiled and no optimizer buffers bursts, the fold core
walks each block (``runtime/cover.py``: ``_foldcore.Walk``) in place of the
Python loop ``StreamingExecutor._cover``, which stays the reference; a test
selects it with ``foldcore.core = None``.  The walk keeps each group code's
group and armed high across close sweeps and hands a row back to the Python
row body only to resolve a code or open windows, so the cases here aim at
what that could get wrong: groups evicted and reopened inside one block,
groups that never open, NaN keys and int/float keys a dict merges,
two units with different window shapes, a type no unit
reads, Unix-epoch times on and a few ulps off window boundaries, random
block cuts and ``process()``/``process_block()`` interleavings.  After
every step the two runs must agree on emissions with value bits, totals
``float.hex``, operation counts, engine feeds, peak memory units and
active windows, and the bytes of ``snapshot_state()``; an equal-time
sequence violation must raise at the same row with the same counters.
"""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.workloads import kleene_sharing_workload
from repro.datasets import RidesharingGenerator
from repro.errors import ExecutionError
from repro.events import Event
from repro.events.block import EventBlock
from repro.query import Query, Window, kleene, seq, sum_of
from repro.runtime import StreamingExecutor, close, foldcore
from tests.runtime.test_foldcore import _Counting, cut_steps, fold

needs_core = pytest.mark.skipif(foldcore.core is None, reason=foldcore.reason)

#: ``Window(0.3, 0.1)``: ``k * 0.1`` drifts from the decimal grid, so each
#: ``_WindowMeta.end`` the walk builds must be ``instance_bounds``' own float.
SHAPES = (Window(10.0, 4.0), Window(12.0, 4.0), Window(16.0, 3.2), Window(8.0), Window(0.3, 0.1))
#: Group values: ``1``/``1.0`` and ``2``/``2.0`` are one dict key each;
#: ``"nan"`` stands for a fresh float NaN per row (one group on every path).
KEYS = (1, 1.0, 2, 2.0, 3.5, "nan", 7)
EPOCH = 1.7e9


def workload(kind: str, first: Window, second: Window) -> list[Query]:
    """Two units (one per window shape).  ``deferred``: every class is a
    scalar ``SEQ(P, K+)``, so segments fold in the core; ``mixed`` adds an
    eager class and a vector unit, whose segments the core hands to the
    reference gather.  ``X`` is read by no unit."""
    queries = [
        Query.build(seq("A", kleene("B")), group_by=("g",), window=first, name="cv_ab"),
        Query.build(seq("C", kleene("B")), group_by=("g",), window=first, name="cv_cb"),
        Query.build(seq("D", kleene("E")), group_by=("g",), window=second, name="cv_de"),
    ]
    if kind == "mixed":
        queries.append(
            Query.build(seq("A", kleene("B"), "C"), group_by=("g",), window=first, name="cv_abc")
        )
        queries.append(
            Query.build(seq("D", kleene("B")), aggregate=sum_of("B", "v"), group_by=("g",),
                        window=second, name="cv_sum")
        )
    return queries


def stream(seed: int, size: int, base: float, keys: int, whole: bool = False) -> list[Event]:
    """In-order rows from ``base`` on: bursts of equal times, quiet gaps
    long enough to close a group's every window (evicting it), times on
    slide multiples and nudged an ulp either side of them (``whole``:
    int times instead)."""
    rng = random.Random(seed)
    types, weights = "ABCDEX", (1.0, 4.0, 1.0, 1.0, 2.0, 0.5)
    pool = KEYS[:keys]
    clock = base
    events = []
    for _ in range(size):
        step = 19.0 if rng.random() < 0.03 else rng.choice((0.0, 0.25, 0.25, 0.5, 0.8, 2.0))
        moment = clock + step
        if step and rng.random() < 0.2:
            moment = math.nextafter(moment, rng.choice((math.inf, -math.inf)))
        clock = max(clock, moment)
        key = rng.choice(pool)
        value = float("nan") if key == "nan" else key
        name = rng.choices(types, weights=weights)[0]
        moment = int(clock) if whole else clock
        events.append(Event(name, moment, {"g": value, "v": float(rng.randint(0, 6))}))
    return events


def observe(queries, steps, options, core, introspect=False) -> tuple:
    """Feed ``steps`` to one executor; what it showed after every step
    (``introspect``: reading each engine's coefficients settles the
    deferred cells, so the next segment resumes deferral over full maps)."""
    emitted: list = []

    def record(r) -> None:
        values = tuple((name, float(value).hex()) for name, value in r.results.items())
        emitted.append((repr(r.group_key), r.window_index, r.events, values))

    seen = []
    with fold(core):
        executor = StreamingExecutor(queries, on_window=record, **options)
        for kind, rows in steps:
            if kind == "events":
                for event in rows:
                    executor.process(event)
            else:
                block = EventBlock.from_events(rows)
                if kind == "frame":  # decoded: typed columns, not lists
                    block = EventBlock.from_bytes(block.to_bytes())
                executor.process_block(block)
            if introspect:
                for unit in executor._units:
                    for group in unit.groups.values():
                        group.engine.coefficients
            seen.append(
                (
                    len(emitted),
                    executor.engine_feeds,
                    executor.peak_active_windows,
                    executor.active_window_count(),
                    executor.snapshot_state(),
                )
            )
        report = executor.finish()
    metrics = report.metrics
    totals = {name: value.hex() for name, value in report.totals.items()}
    return emitted, totals, metrics.operations, metrics.peak_memory_units, seen


def assert_same_on_both_covers(queries, steps, options, introspect) -> tuple[int, int]:
    """The reference and the compiled Cover agree; returns the walk's
    ``(rows walked, rows handed back)``."""
    before = foldcore.core.cover_counts()
    compiled = observe(queries, steps, options, _Counting(foldcore.core), introspect)
    walked, handed = (now - then for now, then in zip(foldcore.core.cover_counts(), before))
    reference = observe(queries, steps, options, None, introspect)
    assert compiled[:-1] == reference[:-1]
    assert len(compiled[-1]) == len(reference[-1])
    for step, (got, expected) in enumerate(zip(compiled[-1], reference[-1])):
        assert got == expected, f"after step {step}"
    return walked, handed


@needs_core
@settings(deadline=None, derandomize=True, max_examples=200)
@given(
    seed=st.integers(min_value=0, max_value=10**6),
    kind=st.sampled_from(("deferred", "mixed")),
    shapes=st.tuples(st.sampled_from(SHAPES), st.sampled_from(SHAPES)),
    base=st.sampled_from((0.0, EPOCH)),
    keys=st.integers(min_value=1, max_value=len(KEYS)),
    size=st.integers(min_value=10, max_value=260),
    cuts=st.lists(st.integers(min_value=1, max_value=259), max_size=6),
    kinds=st.lists(st.sampled_from(("block", "frame", "events")), min_size=1, max_size=4),
    introspect=st.booleans(),
    whole=st.booleans(),
)
def test_cover_strategy_on_both_loops(
    seed, kind, shapes, base, keys, size, cuts, kinds, introspect, whole
):
    events = stream(seed, size, base, keys, whole)
    walked, handed = assert_same_on_both_covers(
        workload(kind, *shapes), cut_steps(events, cuts, kinds), {}, introspect
    )
    relevant = sum(event.event_type != "X" for event in events)
    assert walked >= relevant and handed <= walked


@needs_core
@pytest.mark.parametrize("ingest", ("block", "events"))
@pytest.mark.parametrize("kind", ("deferred", "mixed"))
def test_an_equal_time_sequence_violation_raises_at_the_same_row(kind, ingest):
    events = stream(5, 120, EPOCH, 3)
    moment = events[60].time
    late, early = Event("A", moment, {"g": 1.0}), Event("C", moment, {"g": 1.0})
    events[60:61] = [early, late]  # ``late`` was created first: out of sequence
    queries = workload(kind, Window(10.0, 4.0), Window(8.0))
    seen = []
    for core in (foldcore.core, None):
        with fold(core):
            executor = StreamingExecutor(queries)
            with pytest.raises(ExecutionError) as error:
                if ingest == "block":
                    executor.process_block(EventBlock.from_events(events))
                else:
                    for event in events:
                        executor.process(event)
                    executor.finish()
            seen.append(
                (
                    str(error.value),
                    executor._consumed,
                    executor._clock,
                    executor._engine_feeds,
                    [
                        (key, engine._ops, engine._coeff_entries, engine._armed_entries)
                        for unit in executor._units
                        for key, group in sorted(unit.groups.items(), key=repr)
                        if (engine := group.engine) is not None
                    ],
                    executor.snapshot_state(),
                )
            )
    assert seen[0] == seen[1]


@needs_core
@pytest.mark.parametrize("ingest", ("block", "events"))
def test_epoch_stream_block_scalar_and_per_instance_runs_agree(ingest):
    # At base time 1.7e9 the shared engines, on both Cover loops, must
    # reproduce the per-instance semantics reference window for window.
    events = stream(3, 400, EPOCH, 3)
    queries = workload("deferred", Window(10.0, 2.0), Window(8.0))

    def rows(core, **options):
        emitted = []
        with fold(core):
            executor = StreamingExecutor(queries, on_window=emitted.append, **options)
            if ingest == "block":
                executor.process_block(EventBlock.from_events(events))
            else:
                for event in events:
                    executor.process(event)
            executor.finish()
        return sorted(
            (repr(r.group_key), r.window_index, r.window_start, dict(r.results)) for r in emitted
        )

    expected = rows(None, shared_windows=False)
    assert expected
    assert rows(foldcore.core) == expected
    assert rows(None) == expected


@needs_core
@pytest.mark.parametrize(
    "shape",
    (
        # The bench's ingest shape (20 districts, 10,000 events a minute).
        dict(count=10, prefix_types=("Surge", "Breakdown"), window=Window(10.0, 2.0)),
        # fig9-50q's: 50 queries sharing Travel+.
        dict(count=50, prefix_types=(), window=Window(10.0, 2.0)),
    ),
    ids=("ingest", "fig9"),
)
def test_the_walk_hands_rows_back_only_to_open_groups(shape, monkeypatch):
    # The walk resolves codes, finds evicted groups' returns and arms
    # windows itself: the Python row body runs only where a qualifying row
    # opens a group, so no more rows come back than groups open.
    block = RidesharingGenerator(
        events_per_minute=10_000.0, seed=7, districts=20
    ).generate_block(240.0)
    block = EventBlock.from_bytes(block.to_bytes())  # typed columns, as decoded
    queries = list(
        kleene_sharing_workload(
            shape["count"], kleene_type="Travel", prefix_types=shape["prefix_types"],
            window=shape["window"], name="cv_handback",
        )
    )
    opened = []
    open_group = StreamingExecutor._open_group

    def opening(executor, unit, key):
        opened.append(key)
        return open_group(executor, unit, key)

    monkeypatch.setattr(StreamingExecutor, "_open_group", opening)
    before = foldcore.core.cover_counts()
    executor = StreamingExecutor(queries)
    for start in range(0, len(block), 4096):
        executor.process_block(block.slice(start, start + 4096))
    walked, handed = (now - then for now, then in zip(foldcore.core.cover_counts(), before))
    assert walked == len(block)
    assert 0 < handed <= len(opened)
    twin = StreamingExecutor(queries)
    with fold(None):
        twin.process_block(block)
    assert twin.finish().totals == executor.finish().totals


def sweeps(monkeypatch) -> list:
    """Every close sweep's ``now``, as the executor calls it."""
    seen: list = []
    sweep = close.CloseStage.sweep

    def recording(stage, now):
        seen.append(now)
        return sweep(stage, now)

    monkeypatch.setattr(close.CloseStage, "sweep", recording)
    return seen


@needs_core
@pytest.mark.parametrize("ingest", ("block", "frame"))
def test_a_group_evicted_and_reopened_in_one_block_on_both_folds(ingest, monkeypatch):
    # Group 1 opens, passes every window end (a sweep evicts it), takes a
    # non-qualifying row (no group: cached as none) and opens anew, all in
    # one block; group 2 stays open throughout.
    rows = [("A", 0.0, 1), ("B", 0.5, 1), ("D", 0.5, 2), ("E", 1.0, 2), ("B", 2.0, 1)]
    rows += [("E", 12.0 + step, 2) for step in range(6)]
    rows += [("B", 30.0, 1), ("E", 30.5, 2), ("A", 31.0, 1), ("B", 31.5, 1), ("B", 45.0, 1)]
    events = [Event(name, moment, {"g": key, "v": 1.0}) for name, moment, key in rows]
    queries = workload("deferred", Window(10.0, 4.0), Window(8.0))
    seen = sweeps(monkeypatch)
    walked, handed = assert_same_on_both_covers(queries, [(ingest, events)], {}, False)
    compiled, reference = seen[: len(seen) // 2], seen[len(seen) // 2 :]
    assert compiled == reference
    assert walked == len(events) and handed == 3  # group 1 twice, group 2 once


@needs_core
def test_a_qualifying_row_with_an_empty_covering_range_on_both_folds():
    # At these times a tumbling 0.1 s window's edges snap apart: no instance
    # covers the row.  The first qualifying ``A`` opens the group with no
    # window; later rows find the group, inert until an ``A`` with a range
    # arms it.  At the second such time the window armed just before (ending
    # an ulp-scale step later) is still open, and its rows, ``A`` too, are
    # fed nowhere.
    window = Window(0.1)
    moment, later = 5612394.099999997, 5612394.599999997
    for at in (moment, later):
        lo, hi = window.covering_bounds(at)
        assert hi < lo
    rows = [("A", moment, 1), ("B", moment, 1), ("C", moment, 1), ("B", moment + 0.01, 1)]
    rows += [("A", moment + 0.02, 1), ("B", moment + 0.03, 1), ("A", later - 0.05, 1)]
    rows += [("B", later, 1), ("A", later, 1), ("B", later, 1), ("B", later + 0.01, 1)]
    events = [Event(name, at, {"g": key, "v": 1.0}) for name, at, key in rows]
    queries = workload("deferred", window, Window(8.0))
    walked, handed = assert_same_on_both_covers(queries, [("frame", events)], {}, False)
    assert walked == len(events) and handed == 2


@needs_core
@pytest.mark.parametrize("ingest", ("block", "events"))
def test_next_close_lowered_mid_block_sweeps_at_the_same_row_on_both_folds(ingest, monkeypatch):
    # The 16 s unit opens first (next close 16); a row of the 8 s unit then
    # opens a window ending at 8, lowering it mid-block: the sweep must fire
    # at the first row past 8, not 16, on both Cover loops.
    rows = [("A", 0.0, 1), ("B", 0.5, 1), ("D", 1.0, 2), ("E", 2.0, 2)]
    rows += [("B", 3.0 + step, 1) for step in range(10)]
    events = [Event(name, at, {"g": key, "v": 1.0}) for name, at, key in rows]
    queries = workload("deferred", Window(16.0, 3.2), Window(8.0))
    seen = sweeps(monkeypatch)
    assert_same_on_both_covers(queries, [(ingest, events)], {}, False)
    compiled, reference = seen[: len(seen) // 2], seen[len(seen) // 2 :]
    assert compiled == reference
    assert compiled[0] == 8.0


@needs_core
def test_peak_active_windows_on_both_folds():
    # Ten groups arm their windows in one block, then half of them pass
    # their ends: the peak is the walk's count mid-block, above the open
    # count at the end, and the same on both folds.
    rows = [("A", 8.0 + 0.1 * key, key) for key in range(10)]
    rows += [("B", 9.5, key) for key in range(10)]
    rows += [("A", 20.0, key) for key in range(5)]
    events = [Event(name, at, {"g": key, "v": 1.0}) for name, at, key in rows]
    queries = workload("deferred", Window(10.0, 4.0), Window(8.0))
    compiled = observe(queries, [("frame", events)], {}, foldcore.core)
    reference = observe(queries, [("frame", events)], {}, None)
    assert compiled == reference
    _, _, peak, active, _ = compiled[-1][-1]
    assert peak > active > 0


@needs_core
def test_int_window_numbers_keep_int_window_ends_on_both_folds():
    # A window of int size and slide: ``index * slide + size`` is an int,
    # and so is each _WindowMeta.end the walk opens (the snapshots compare).
    events = stream(4, 200, 0.0, 3, whole=True)
    walked, handed = assert_same_on_both_covers(
        workload("deferred", Window(10, 4), Window(8)), [("frame", events)], {}, False
    )
    assert walked and handed


@needs_core
def test_optimizer_and_per_instance_executors_keep_the_reference_loop():
    events = stream(1, 200, 0.0, 3)
    queries = workload("deferred", Window(10.0, 4.0), Window(8.0))
    for options in ({"optimizer": "dynamic"}, {"shared_windows": False}):
        before = foldcore.core.cover_counts()
        StreamingExecutor(queries, **options).run(EventBlock.from_events(events))
        assert foldcore.core.cover_counts() == before


@needs_core
def test_times_past_the_index_limit_keep_the_reference_loop():
    # Past 2**52 slides a double no longer holds every index and its
    # successor: the walk declines such a block and the Python loop runs.
    window = Window(10.0, 2.0)
    events = stream(2, 60, window.index_limit, 2)
    queries = workload("deferred", window, Window(8.0))
    before = foldcore.core.cover_counts()
    compiled = observe(queries, [("block", events)], {}, foldcore.core)
    assert foldcore.core.cover_counts() == before
    assert compiled == observe(queries, [("block", events)], {}, None)
    assert compiled[0]


@needs_core
@pytest.mark.parametrize("ingest", ("block", "events"))
def test_integer_nanosecond_epoch_times_keep_the_reference_loop(ingest, hard_deadline):
    # Past 2**53 an int time has no double of its own: one 100 ns below a
    # window end rounds up onto the end, where the Python close sweep,
    # comparing ints exactly, closes nothing.  The walk declines such a
    # block and the Python loop runs, on both ingest paths, and returns.
    second = 10**9
    window = Window(10 * second, 2 * second)
    end = 850_000_000 * 2 * second + 10 * second  # a window end at ~1.7e18 ns
    assert end > 2**53 and float(end - 100) == end
    moments = (end - 7 * second, end - 3 * second, end - 100, end - 100, end - 1, end, end + 5)
    events = [
        Event(name, moment, {"g": key, "v": 1.0})
        for moment in moments
        for name, key in (("A", 1), ("B", 1), ("D", 2), ("E", 2))
    ]
    queries = workload("deferred", window, Window(8 * second))
    before = foldcore.core.cover_counts()
    compiled = observe(queries, [(ingest, events)], {}, foldcore.core)
    assert foldcore.core.cover_counts() == before
    assert compiled == observe(queries, [(ingest, events)], {}, None)
    assert compiled[0]
