"""Compiled-vs-reference differential for the fold core.

``runtime/foldcore.py`` loads ``_foldcore.c``, which runs the segment fold
of a unit whose classes all defer (scalar ``SEQ(P, K+)``), the run fold of
every other class (``fold_run``, scalar and vector columns) and the readout
of a scalar unit with no split column and no event store.  The Python
loops in ``shared_windows`` stay the reference; a test selects them with
``foldcore.core = None``.  Both run on the same dict state, so everything
observable must be identical, whatever mixes the ingest paths: emission
order and value bits, totals ``float.hex``, operation counts, peak memory
units and active windows, late and decision counters — and the bytes of
``snapshot_state()`` after every feed step, so even the dicts' insertion
order is pinned.  (The executor's and the optimizer's wall clocks are
replaced by counters: arrival stamps and timings ride in the snapshot.)

Then the run fold call by call: ``fold_run`` against the reference
``PythonKernelBackend``, column by column, to the bit.

The loader cases at the end: an unwritable cache, a corrupt cached
artifact and a missing compiler each leave the reference fold in place
with a reason, never a crash.
"""

from __future__ import annotations

import gc
import itertools
import math
import random
import struct
import tracemalloc
from array import array
from collections import Counter
from contextlib import contextmanager
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.workloads import kleene_sharing_workload
from repro.core.kernels import MutableAggregate, PythonKernelBackend
from repro.datasets import RidesharingGenerator
from repro.errors import ExecutionError, OutOfOrderError
from repro.events import Event
from repro.events.block import EventBlock
from repro.optimizer import decisions
from repro.query import Query, Window, avg, kleene, seq, sum_of
from repro.runtime import StreamingExecutor, close, cover, foldcore, streaming
from repro.runtime.close import CloseStage
from repro.runtime.metrics import ExecutionMetrics
from repro.runtime.shared_windows import MultiWindowLinearEngine, UnitCompilation, _OrderPoint
from tests.conftest import decision_counters
from tests.core.test_vector_fold import SELF_LOOP_POSITIONS, bits, clone, random_map

needs_core = pytest.mark.skipif(foldcore.core is None, reason=foldcore.reason)

WINDOWS = (Window(10.0, 4.0), Window(12.0, 4.0), Window(16.0, 3.2), Window(8.0))
LATE = {"allowed_lateness": 2.0, "late_policy": "retract"}


def deferred_workload(window: Window) -> list[Query]:
    """COUNT(*) prefix + Kleene classes only, on two Kleene types (two
    deferred counters), one class with twin members."""
    patterns = (
        ("ab", seq("A", kleene("B"))),
        ("ab_twin", seq("A", kleene("B"))),
        ("cb", seq("C", kleene("B"))),
        ("db", seq("D", kleene("B"))),
        ("ce", seq("C", kleene("E"))),
    )
    return [
        Query.build(pattern, group_by=("g",), window=window, name=f"fc_{name}")
        for name, pattern in patterns
    ]


def mixed_workload(window: Window) -> list[Query]:
    """Deferred classes beside an eager one: the reference folds the
    segment, the core still reads the windows out."""
    eager = Query.build(seq("A", kleene("B"), "C"), group_by=("g",), window=window, name="fc_abc")
    return [*deferred_workload(window), eager]


def vector_workload(window: Window) -> list[Query]:
    """SUM and AVG classes: the core folds their runs, the reference reads
    them out.  A prefix's SUM and AVG are one class of two members, which
    an optimizer splits into two columns and merges back."""
    return [
        Query.build(seq(p, kleene("B")), aggregate=aggregate("B", "v"), group_by=("g",),
                    window=window, name=f"fc_{name}_{p}")
        for p in "AC"
        for name, aggregate in (("sum", sum_of), ("avg", avg))
    ]


def fig9_workload(window: Window) -> list[Query]:
    return list(
        kleene_sharing_workload(
            12, kleene_type="B", prefix_types=("A", "C", "D", "E"), window=window,
            group_by=("g",), name="fc_fig9",
        )
    )


WORKLOADS = {
    "deferred": deferred_workload,
    "fig9": fig9_workload,
    "mixed": mixed_workload,
    "vector": vector_workload,
}


def stream(seed: int, size: int, *, groups: int = 2, spacing: float = 0.25) -> list[Event]:
    """In-order rows; some share a time (distinct sequences, in order)."""
    rng = random.Random(seed)
    types, weights = "ABCDEX", (1.0, 4.0, 1.0, 1.0, 1.5, 0.3)
    clock = 0.0
    events = []
    for _ in range(size):
        clock += spacing * rng.choice((0, 1, 1, 2))
        events.append(
            Event(
                rng.choices(types, weights=weights)[0],
                clock,
                {"v": float(rng.randint(0, 6)), "g": float(rng.randint(1, groups))},
            )
        )
    return events


def late_arrivals(events: list[Event]) -> list[Event]:
    """A row moved 30 rows later every 50: behind the 2.0 horizon."""
    arrivals = list(events)
    for index in range(40, len(arrivals) - 40, 50):
        arrivals.insert(index + 30, arrivals.pop(index))
    return arrivals


class _Clock:
    """A deterministic stand-in for the executor's ``time`` module."""

    def __init__(self) -> None:
        self._ticks = itertools.count()
        self.reads = 0

    def perf_counter(self) -> float:
        self.reads += 1
        return next(self._ticks) * 1e-3


class _Counting:
    """The core, counting the calls of each of its functions."""

    def __init__(self, core) -> None:
        self.core = core
        self.calls: Counter = Counter()

    def __getattr__(self, name):
        function = getattr(self.core, name)

        def counted(*args):
            self.calls[name] += 1
            return function(*args)

        return counted


@contextmanager
def fold(core):
    """Run with ``core`` as the fold (``None``: the reference) and a
    deterministic executor clock."""
    clock = _Clock()  # one clock: the Cover and Close stages read it in turn
    with mock.patch.object(foldcore, "core", core), \
            mock.patch.object(streaming, "time", clock), \
            mock.patch.object(close, "time", clock), \
            mock.patch.object(decisions, "time", _Clock()):
        yield


def outcome(queries, steps, options, core) -> tuple:
    """Feed ``steps`` (``("events" | "block", rows)``) to one executor."""
    emitted: list = []

    def record(r) -> None:
        values = tuple((name, float(value).hex()) for name, value in r.results.items())
        emitted.append((r.group_key, r.window_index, r.events, r.retraction, values))

    snapshots = []
    with fold(core):
        executor = StreamingExecutor(queries, on_window=record, **options)
        for kind, rows in steps:
            if kind == "block":
                executor.process_block(EventBlock.from_events(rows))
            else:
                for event in rows:
                    executor.process(event)
            snapshots.append(executor.snapshot_state())
        report = executor.finish()
    metrics_ = report.metrics
    return (
        emitted,
        {name: value.hex() for name, value in report.totals.items()},
        metrics_.operations,
        metrics_.peak_memory_units,
        metrics_.peak_active_windows,
        metrics_.late_retracted,
        decision_counters(report),
        snapshots,
    )


def assert_same_on_both_folds(queries, steps, options=None) -> Counter:
    """The reference and the compiled run agree; returns the core's calls."""
    options = options or {}
    counting = _Counting(foldcore.core)
    compiled = outcome(queries, steps, options, counting)
    reference = outcome(queries, steps, options, None)
    assert compiled[:-1] == reference[:-1]
    assert len(compiled[-1]) == len(reference[-1])
    for step, (got, expected) in enumerate(zip(compiled[-1], reference[-1])):
        assert got == expected, f"snapshot after step {step} differs"
    return counting.calls


def cut_steps(events, cuts, kinds) -> list[tuple[str, list[Event]]]:
    bounds = [0, *sorted(set(cuts)), len(events)]
    return [
        (kinds[i % len(kinds)], events[start:stop])
        for i, (start, stop) in enumerate(zip(bounds, bounds[1:]))
        if stop > start
    ]


@needs_core
@settings(deadline=None, derandomize=True, max_examples=200)
@given(
    seed=st.integers(min_value=0, max_value=10**6),
    workload=st.sampled_from(sorted(WORKLOADS)),
    window=st.sampled_from(WINDOWS),
    size=st.integers(min_value=10, max_value=240),
    cuts=st.lists(st.integers(min_value=1, max_value=239), max_size=6),
    kinds=st.lists(st.sampled_from(("block", "events")), min_size=1, max_size=4),
)
def test_segment_fold_strategy_on_both_folds(seed, workload, window, size, cuts, kinds):
    # The segment-fold differential's shape: random cuts, each slice a
    # block or per-event rows (the staged path).
    queries = WORKLOADS[workload](window)
    before = foldcore.core.segment_counts()
    calls = assert_same_on_both_folds(queries, cut_steps(stream(seed, size), cuts, kinds))
    in_place, handed = (now - then for now, then in zip(foldcore.core.segment_counts(), before))
    if workload in ("deferred", "fig9") and size >= 40:
        # The walk folds every segment of a deferred unit in place.
        assert in_place > 0 and handed == calls["fold_deferred"] == 0
    if workload != "vector" and size >= 40:
        # Scalar store-free units with no optimizer: the compiled sweep reads
        # them out (close_scalar's internals, one call per unit sweep).
        assert calls["sweep_unit"] > 0
    if workload in ("mixed", "vector") and size >= 40:
        assert calls["fold_run"] > 0  # the eager and vector classes' runs


@needs_core
@settings(deadline=None, derandomize=True, max_examples=100)
@given(
    seed=st.integers(min_value=0, max_value=10**6),
    workload=st.sampled_from(("deferred", "fig9", "mixed", "vector")),
    cut=st.integers(min_value=0, max_value=240),
    width=st.integers(min_value=0, max_value=80),
    late=st.booleans(),
    dynamic=st.booleans(),
)
def test_staged_ingest_strategy_on_both_folds(seed, workload, cut, width, late, dynamic):
    # The staged-ingest differential's shape: process() before ``cut``, one
    # block of ``width`` rows, process() again — with rows behind the
    # lateness horizon (retractions roll back unsettled cells) and under an
    # optimizer's bursts (which split the vector workload's columns).
    events = stream(seed, 240)
    options = dict(LATE) if late else {}
    if late:
        events = late_arrivals(events)
    if dynamic:
        options["optimizer"] = "dynamic"
    steps = [
        ("events", events[:cut]),
        ("block", events[cut : cut + width]),
        ("events", events[cut + width :]),
    ]
    assert_same_on_both_folds(WORKLOADS[workload](Window(10.0, 4.0)), steps, options)


@needs_core
def test_fig9_shape_and_counts_past_two_to_the_53rd():
    # The benchmark's query shape at a few thousand rows, and a dense Kleene
    # stream whose counts pass 2**53 (the settle then iterates).
    generator = RidesharingGenerator(events_per_minute=6_000.0, seed=7, districts=6)
    block = generator.generate_block(40.0)
    queries = list(
        kleene_sharing_workload(50, kleene_type="Travel", window=Window(10.0, 2.0), name="f9")
    )
    events = [block.event_at(row) for row in range(len(block))]
    before = foldcore.core.segment_counts()
    calls = assert_same_on_both_folds(queries, cut_steps(events, (900, 1700, 2500), ("block",)))
    in_place, handed = (now - then for now, then in zip(foldcore.core.segment_counts(), before))
    assert in_place > 0 and handed == 0 and calls["sweep_unit"] > 0
    dense = stream(11, 400, groups=1, spacing=0.05)
    steps = cut_steps(dense, (57, 58, 211), ("block", "events"))
    assert_same_on_both_folds(deferred_workload(Window(10.0, 5.0)), steps)
    reference = outcome(deferred_workload(Window(10.0, 5.0)), steps, {}, None)
    assert max(float.fromhex(total) for total in reference[1].values()) > 2.0**53


def engine_counters(executor) -> list:
    return [
        (key, engine._ops, engine._coeff_entries, engine._armed_entries, engine._armed)
        for unit in executor._units
        for key, group in sorted(unit.groups.items())
        if (engine := getattr(group, "engine", None)) is not None
    ]


@needs_core
def test_an_equal_time_sequence_violation_leaves_the_same_counters():
    events = stream(2, 60, groups=1)
    late, early = Event("A", 100.0, {"g": 1.0}), Event("C", 100.0, {"g": 1.0})
    seen = []
    for core in (foldcore.core, None):
        with fold(core):
            executor = StreamingExecutor(deferred_workload(Window(10.0, 4.0)))
            executor.process_block(EventBlock.from_events(events))
            executor.process(early)
            executor.process(late)  # created before ``early``: out of sequence
            with pytest.raises(ExecutionError):
                executor.active_window_count()
            seen.append(
                (
                    executor._consumed,
                    executor._clock,
                    executor._engine_feeds,
                    engine_counters(executor),
                    executor.snapshot_state(),
                )
            )
    assert seen[0] == seen[1]


@needs_core
def test_split_vector_columns_on_both_folds():
    # The optimizer splits the vector classes into per-member columns: the
    # core folds each replica with the self-loop substituted.
    steps = cut_steps(stream(3, 240), (60, 61, 150), ("events", "block"))
    options = {"optimizer": "dynamic"}
    calls = assert_same_on_both_folds(vector_workload(Window(10.0, 4.0)), steps, options)
    assert calls["fold_run"] > 0
    *_, splits = outcome(vector_workload(Window(10.0, 4.0)), steps, options, None)[6]
    assert splits > 0


# --------------------------------------------------------------------- #
# The direct segment fold, call by call: Walk.fold in place vs the reference
# --------------------------------------------------------------------- #
def fold_in_walk(engine, window: Window, types, times, sequences) -> None:
    """Fold one segment of one group through the core's walk, as the
    Cover stage hands it over: the group's windows open, its ranges armed."""
    table = tuple(sorted(set(types)))
    codes = array("q", map(table.index, types))
    group = streaming._Group(engine=engine, evicts=False, sort_key=(), metas={0: None})
    stage = CloseStage.__new__(CloseStage)
    stage.rebuild(math.inf, 1, 0)
    walker = foldcore.core.Walk(
        list(times), list(sequences), codes, table, 0, len(times), ((0,),) * len(table), 0.0, 1,
        stage, ExecutionMetrics(), streaming._WindowMeta,
    )
    try:
        walker.attach(
            0, None, {}, ((),), array("q", bytes(8 * len(times))), [group], array("q", [2**62]),
            bytes(len(table)), None, None, _OrderPoint, window.size, window.slide, array("q"),
        )
        assert walker.run(0, -1)[:2] == (len(times), cover.DONE)
        walker.fold()
    finally:
        walker.close()


def fold_by_reference(engine, window: Window, types, times, sequences) -> None:
    bounds = [window.covering_bounds(moment) for moment in times]
    with mock.patch.object(foldcore, "core", None):
        engine.process_block_run(
            list(types), list(times), list(sequences), [lo for lo, _ in bounds],
            [hi for _, hi in bounds],
        )


def deferred_state(engine) -> tuple:
    """The engine's books, cursor and maps, every value as its bits."""
    latest = engine._latest_event
    return (
        engine._ops, engine._coeff_entries, engine._armed_entries, engine._unsettled,
        None if latest is None else (type(latest), repr(latest.time), repr(latest.sequence)),
        [list(armed.items()) for armed in engine._armed],
        [(s.kleene.rows, s.kleene.cells, s.kleene.entries) for s in engine._deferred.values()],
        {key: [(i, float(v).hex()) for i, v in window_map.items()]
         for key, window_map in engine._coefficients._maps.items()},
    )


def direct_segments(rng: random.Random, types: str, count: int):
    """Segments of a few rows each, in (time, sequence) order; equal times
    and int times included, and rows of one type only."""
    clock, sequence = 0.0, 0
    for _ in range(count):
        rows = []
        for _ in range(rng.choice((1, 1, 2, 5, 12, 30))):
            clock += rng.choice((0.0, 0.5, 1.0, 3.0)) * rng.choice((0.0, 1.0))
            sequence += rng.randint(1, 3)
            rows.append((rng.choice(types), int(clock) if clock.is_integer() else clock, sequence))
        yield [list(column) for column in zip(*rows)]


@needs_core
@pytest.mark.parametrize("workload", ("deferred", "fig9"))
@pytest.mark.parametrize("seed", range(6))
def test_direct_segment_fold_is_the_reference_call_by_call(workload, seed):
    # Segments resuming from settled and unsettled states, into empty armed
    # sets, cells disarmed by a close and armed again, ranges arming new
    # windows; then a first row behind the cursor, refused on both paths.
    rng = random.Random(seed)
    window = rng.choice(WINDOWS)
    compiled = UnitCompilation(WORKLOADS[workload](window), share_classes=True)
    direct, reference = MultiWindowLinearEngine(compiled), MultiWindowLinearEngine(compiled)
    types = "".join(sorted(compiled.columnar_types))
    for types_, times, sequences in direct_segments(rng, types, 40):
        before = foldcore.core.segment_counts()
        fold_in_walk(direct, window, types_, times, sequences)
        fold_by_reference(reference, window, types_, times, sequences)
        assert foldcore.core.segment_counts()[0] == before[0] + 1
        assert deferred_state(direct) == deferred_state(reference)
        move = rng.random()
        if move < 0.2:  # settle: the next segment resumes the deferral
            direct.coefficients, reference.coefficients
        elif move < 0.6:  # close the oldest windows, at times all of them
            armed = sorted({index for cells in reference._armed for index in cells})
            for index in armed[: rng.choice((1, 2, len(armed)))]:
                got, expected = direct.close_window(index), reference.close_window(index)
                assert [v.hex() for v in got.slots] == [v.hex() for v in expected.slots]
        assert deferred_state(direct) == deferred_state(reference)
    assert direct.operations() > 0 and direct._armed_entries >= 0
    latest = reference._latest_event
    for behind in ((latest.time - 1.0, latest.sequence + 1), (latest.time, latest.sequence)):
        state = deferred_state(reference)
        errors = []
        for engine, fold_one in ((direct, fold_in_walk), (reference, fold_by_reference)):
            with pytest.raises(OutOfOrderError) as raised:
                fold_one(engine, window, [types[0]] * 2, [behind[0], latest.time + 5.0],
                         [behind[1], latest.sequence + 9])
            errors.append(str(raised.value))
        assert errors[0] == errors[1] and "strictly ordered" in errors[0]
        assert deferred_state(direct) == deferred_state(reference) == state


@needs_core
def test_direct_segment_fold_holds_no_memory_across_calls():
    window = Window(10.0, 4.0)
    compiled = UnitCompilation(deferred_workload(window), share_classes=True)
    engine = MultiWindowLinearEngine(compiled)
    segments = list(direct_segments(random.Random(4), "ABCDE", 400))

    def run() -> None:
        engine.reset()
        for types_, times, sequences in segments:
            fold_in_walk(engine, window, types_, times, sequences)
            for index in sorted({i for cells in engine._armed for i in cells})[:-3]:
                engine.close_window(index)
        with pytest.raises(OutOfOrderError):  # the refused path too
            fold_in_walk(engine, window, ["A"], [0.0], [0])

    run()
    gc.collect()
    tracemalloc.start()
    try:
        run()
        gc.collect()
        first = tracemalloc.get_traced_memory()[0]
        for _ in range(3):
            run()
        gc.collect()
        assert tracemalloc.get_traced_memory()[0] - first < 4096
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("shape", ("ingest", "fig9"))
@pytest.mark.parametrize("ingest", ("events", "block"))
def test_the_walk_never_hands_ingest_or_fig9_segments_over(shape, ingest, monkeypatch):
    # A spy on process_block_run: the compiled walk folds every segment of
    # the benchmark's two deferred shapes in place; the reference hands
    # each one over.
    calls = Counter()
    process_block_run = MultiWindowLinearEngine.process_block_run

    def counted(engine, *args):
        calls[foldcore.core is not None] += 1
        return process_block_run(engine, *args)

    monkeypatch.setattr(MultiWindowLinearEngine, "process_block_run", counted)
    prefixes = ("Surge", "Breakdown") if shape == "ingest" else ()
    queries = kleene_sharing_workload(
        10 if shape == "ingest" else 50, kleene_type="Travel", prefix_types=prefixes,
        window=Window(10.0, 2.0),
    )
    block = RidesharingGenerator(events_per_minute=3_000.0, seed=7, districts=6).generate_block(
        60.0
    )
    totals = []
    for core in (foldcore.core, None):
        with fold(core):
            executor = StreamingExecutor(queries)
            if ingest == "block":
                for start in range(0, len(block), 512):
                    executor.process_block(block.slice(start, min(len(block), start + 512)))
            else:
                for row in range(len(block)):
                    executor.process(block.event_at(row))
            totals.append(executor.finish().totals)
    assert totals[0] == totals[1]
    assert calls[False] > 0
    assert calls[True] == 0 or foldcore.core is None


# --------------------------------------------------------------------- #
# The run fold, call by call: fold_run vs PythonKernelBackend
# --------------------------------------------------------------------- #
SPECIALS = (-0.0, math.nan, math.inf, -math.inf, 1e308, -1e308)


def odd_value(rng: random.Random) -> float:
    """A value that shows a changed operation: special, or a 0.1-multiple."""
    return rng.choice((*SPECIALS, rng.randint(-90, 90) * 0.1))


def vector_map(rng: random.Random, windows: range, dimension: int, density: float) -> dict:
    window_map = random_map(rng, windows, dimension, density)
    for entry in window_map.values():
        if rng.random() < 0.3:
            entry.count = odd_value(rng)
        entry.measures = [odd_value(rng) if rng.random() < 0.3 else m for m in entry.measures]
    return window_map


def scalar_map(rng: random.Random, windows: range, density: float) -> dict:
    values = (0.0, 1.0, 3.0, 2.0**53)
    return {
        w: rng.choice(values) if rng.random() < 0.7 else odd_value(rng)
        for w in windows
        if rng.random() < density
    }


def run_case(seed: int, dimension, self_loop):
    """One ``fold_run`` argument tuple, built afresh from ``seed``: a
    canonical map with replica columns (or replicas only, as the stored
    fold hands them), predecessor maps with the self-loop at ``self_loop``,
    list or dict indices that may miss every map, and ``count`` rows
    (``dimension`` ``None``: scalar) -- zero included."""
    rng = random.Random(seed)
    windows = range(3, 3 + rng.randint(0, 6))
    density = rng.choice((0.0, 0.5, 1.0))

    def new_map(density):
        if dimension is None:
            return scalar_map(rng, windows, density)
        return vector_map(rng, windows, dimension, density)

    canonical = new_map(density)
    replicas = [
        (dict(canonical) if dimension is None else clone(canonical))
        if rng.random() < 0.5 else new_map(rng.random())
        for _ in range(rng.randint(0, 2))
    ]
    targets = (canonical, *replicas)
    if replicas and rng.random() < 0.2:
        targets = tuple(replicas)
    pred_maps = [new_map(0.7) for _ in range(rng.randint(0, 2))]
    if self_loop is not None:
        pred_maps.insert(min(self_loop, len(pred_maps)), canonical)
    picked = [w for w in range(2, 11) if rng.random() < 0.6]
    indices = dict.fromkeys(picked, 0) if rng.random() < 0.5 else picked
    base = rng.choice((0.0, 1.0))
    count = rng.randint(0, 6)
    rows = None
    if dimension is not None:
        rows = [
            tuple(rng.choice((0.0, 1.0, odd_value(rng))) for _ in range(dimension))
            for _ in range(count)
        ]
    maps = [*targets, *(m for m in pred_maps if m is not canonical)]
    return (targets, canonical, tuple(pred_maps), indices, base, count, rows), maps


def reference_run(targets, canonical, pred_maps, indices, base, count, rows, dimension):
    """``_fold_run``'s reference branch: column by column, the self-loop
    substituted by ``_TypePlan.fold_sources``."""
    backend = PythonKernelBackend()
    made = [0, 0]
    for target in targets:
        sources = tuple(target if m is canonical else m for m in pred_maps)
        if rows is None:
            fresh = backend.fold_scalar_run(target, indices, sources, base, count)
        else:
            fresh = backend.fold_vector_run(target, indices, sources, base, rows, dimension)
        made[target is not canonical] += fresh
    return tuple(made)


def map_bits(window_map: dict) -> list:
    if all(isinstance(value, float) for value in window_map.values()):
        return [(index, struct.pack("<d", value)) for index, value in window_map.items()]
    return bits(window_map)


@needs_core
@pytest.mark.parametrize("dimension", (None, 0, 1, 2, 3, 4), ids=lambda d: f"dim{d}")
@pytest.mark.parametrize("self_loop", SELF_LOOP_POSITIONS)
def test_fold_run_is_the_reference_fold_to_the_bit(dimension, self_loop):
    for seed in range(60):
        args, ours = run_case(seed, dimension, self_loop)
        reference_args, theirs = run_case(seed, dimension, self_loop)
        made = foldcore.core.fold_run(*args, max(dimension or 0, 0), MutableAggregate)
        expected = reference_run(*reference_args, dimension)
        assert made == expected, seed
        assert [map_bits(m) for m in ours] == [map_bits(m) for m in theirs], seed


@needs_core
def test_fold_run_refuses_what_the_reference_cannot_fold():
    fold_run = foldcore.core.fold_run
    total: dict = {1: 2.0}
    with pytest.raises(TypeError):  # a vector entry of another type
        fold_run((total,), total, (), [1], 0.0, 1, [(1.0,)], 1, MutableAggregate)
    with pytest.raises(ValueError):  # a contribution row short of the dimension
        fold_run(({},), None, (), [1], 0.0, 1, [()], 1, MutableAggregate)
    with pytest.raises(TypeError):  # a source that is not a map
        fold_run(({},), None, ([],), [1], 0.0, 1, None, 0, MutableAggregate)
    assert total == {1: 2.0}


@needs_core
def test_fold_run_holds_no_memory_across_calls():
    fold_run = foldcore.core.fold_run
    cases = [run_case(seed, dimension, 1)[0] for seed in range(4) for dimension in (None, 2)]

    def loop() -> None:
        for targets, canonical, pred_maps, indices, base, count, rows in cases:
            fresh = tuple(dict(target) for target in targets)  # entries come and go
            fold_run(fresh, fresh[0], pred_maps, indices, base, count, rows, 2, MutableAggregate)
        with pytest.raises(TypeError):  # the error path releases what it holds
            fold_run(({1: 1.0},), None, (), [1], 0.0, 1, [(1.0, 2.0)], 2, MutableAggregate)

    for _ in range(50):  # warm caches and free lists
        loop()
    gc.collect()
    tracemalloc.start()
    try:
        loop()
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(1250):  # ~10k calls
            loop()
        gc.collect()
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    # A leak of one object per call would be hundreds of kilobytes.
    assert after - before < 8 * 1024, after - before


# --------------------------------------------------------------------- #
# The loader
# --------------------------------------------------------------------- #
def test_a_fresh_cache_builds_a_working_core_and_drops_stale_ones(tmp_path):
    target = foldcore.artifact_path(tmp_path)
    stale = tmp_path / ("_foldcore.0123456789abcdef." + target.name.split(".", 2)[2])
    stale.write_bytes(b"built from an older source")
    core, reason = foldcore.load(tmp_path)
    if core is None:
        pytest.skip(reason)
    assert reason == ""
    assert core.settle_kleene(1.0, 0.0, 3) == 7.0
    assert [path.name for path in tmp_path.iterdir()] == [target.name]


def test_an_unwritable_cache_falls_back_with_a_reason(tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("not a directory")
    core, reason = foldcore.load(blocker / "cache")
    assert core is None and "reference fold" in reason


def test_a_corrupt_artifact_falls_back_and_is_removed(tmp_path):
    artifact = foldcore.artifact_path(tmp_path)
    artifact.write_bytes(b"\x7fELF but not really")
    core, reason = foldcore.load(tmp_path)
    assert core is None and "reference fold" in reason
    assert not artifact.exists()  # the next import builds a fresh one


def test_a_missing_compiler_falls_back_with_a_reason(tmp_path):
    core, reason = foldcore.load(tmp_path, compiler=str(tmp_path / "no-such-cc"))
    assert core is None and "no-such-cc" in reason
    assert list(tmp_path.iterdir()) == []  # no temporary file left behind


def test_a_failing_compiler_reports_its_exit(tmp_path):
    core, reason = foldcore.load(tmp_path, compiler="false")
    assert core is None and "exited with" in reason
    assert list(tmp_path.iterdir()) == []
