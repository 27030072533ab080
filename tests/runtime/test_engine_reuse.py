"""A returning group reuses its unit's engine.

When a group's last window closes, its shared-window engine goes onto its
unit's free list (``_Unit.retire``: reset, unless split columns rewired its
plans), from both close sweeps — the Python reference and the core's
``sweep_unit``.  The next group of the unit that opens takes an engine off
that list before it builds one.  Three things must hold:

* a reset engine *is* a fresh engine: every map, armed set, deferred
  counter, book and the cursor, down to its pickle bytes;
* results do not notice: streams whose keys go idle and return, under the
  retract policy and across a snapshot taken while the list holds engines,
  emit the rows, operations and peak memory of the reference fold, and the
  values of the batch replay;
* the build count is the peak of live groups, not the count of reopens.
"""

from __future__ import annotations

import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.workloads import kleene_sharing_workload
from repro.datasets import RidesharingGenerator
from repro.events import Event
from repro.events.block import EventBlock
from repro.query import Query, Window, avg, kleene, seq, sum_of
from repro.runtime import StreamingExecutor, foldcore, run_workload, streaming
from repro.runtime.shared_windows import MultiWindowLinearEngine
from tests.conftest import on_both_folds, selected_fold

WINDOW = Window(6.0, 2.0)


def deferred_queries(window: Window = WINDOW) -> list[Query]:
    """Scalar ``SEQ(P, B+)`` classes: every class folds deferred."""
    return [
        Query.build(seq(prefix, kleene("B")), group_by=("g",), window=window, name=f"er_{prefix}")
        for prefix in "AC"
    ]


def mixed_queries(window: Window = WINDOW) -> list[Query]:
    """A deferred class beside an eager one (``SEQ(A, B+, C)``)."""
    eager = Query.build(seq("A", kleene("B"), "C"), group_by=("g",), window=window, name="er_abc")
    return [*deferred_queries(window), eager]


def vector_queries(window: Window = WINDOW) -> list[Query]:
    """One class of a SUM and an AVG: an optimizer splits its columns."""
    return [
        Query.build(seq("A", kleene("B")), aggregate=aggregate("B", "v"), group_by=("g",),
                    window=window, name=f"er_{name}")
        for name, aggregate in (("sum", sum_of), ("avg", avg))
    ]


WORKLOADS = {"deferred": deferred_queries, "mixed": mixed_queries, "vector": vector_queries}


def churn_stream(seed: int, keys: int = 3, returns: int = 4, window: Window = WINDOW) -> list[Event]:
    """Per key, ``returns`` bursts a window apart, each opening with an
    ``A`` (a start type of every workload): each key's group opens in every
    burst and is evicted before the next, while the other keys' bursts
    interleave."""
    rng = random.Random(seed)
    rows = []
    for key in range(keys):
        start = rng.uniform(0.0, window.size)
        for _ in range(returns):
            moment = start
            for position in range(rng.randint(3, 12)):
                moment += rng.choice((0.0, 0.25, 0.5, 1.0))
                kind = rng.choices("ABCX", weights=(2.0, 4.0, 1.0, 0.5))[0] if position else "A"
                rows.append((moment, key, kind, float(rng.randint(0, 5))))
            start = moment + window.size + window.slide + rng.uniform(0.5, 4.0)
    rows.sort()
    return [Event(kind, moment, {"g": float(key), "v": v}) for moment, key, kind, v in rows]


def engine_state(engine: MultiWindowLinearEngine) -> tuple:
    """Everything observable of an engine, its pickle included."""
    maps = {key: list(window_map.items()) for key, window_map in engine._coefficients._maps.items()}
    return (
        engine.memory_units(),
        engine.operations(),
        [list(armed.items()) for armed in engine._armed],
        maps,
        [(s.kleene.rows, s.kleene.cells, s.kleene.entries) for s in engine._deferred.values()],
        [(collector.plan, list(collector.rows)) for collector in engine._eager],
        (engine._latest_event, engine._unsettled, dict(engine._runs), engine._columns),
        (engine._coeff_entries, engine._replica_entries, engine._armed_entries),
        pickle.dumps(engine, protocol=pickle.HIGHEST_PROTOCOL),
    )


class RetireSpy:
    """Checks every engine ``_Unit.retire`` puts on a free list against a
    fresh build, and records each evicted group with its ``fed`` count."""

    def __init__(self, monkeypatch) -> None:
        self.recycled = self.dropped = 0
        self.owner: dict[int, streaming._Group] = {}  # id(engine) -> its group now
        self.keys: dict[int, list] = {}  # id(engine) -> the keys that held it
        self.evicted: list[tuple[streaming._Group, int]] = []
        retire, open_group = streaming._Unit.retire, streaming.StreamingExecutor._open_group

        def checked(unit, engine) -> None:
            free = len(unit.free)
            retire(unit, engine)
            group = self.owner.get(id(engine))
            if group is not None:
                assert not group.metas
                self.evicted.append((group, group.fed))
            if len(unit.free) == free:
                assert isinstance(engine, MultiWindowLinearEngine) and engine._columns
                self.dropped += 1
                return
            assert unit.free[-1] is engine
            assert engine_state(engine) == engine_state(MultiWindowLinearEngine(unit.compiled))
            self.recycled += 1

        def opening(executor, unit, key):
            group = open_group(executor, unit, key)
            self.owner[id(group.engine)] = group
            self.keys.setdefault(id(group.engine), []).append(key)
            return group

        monkeypatch.setattr(streaming._Unit, "retire", checked)
        monkeypatch.setattr(streaming.StreamingExecutor, "_open_group", opening)

    def check_evicted_stay_empty(self) -> None:
        """No row reached a group after its eviction."""
        for group, fed in self.evicted:
            assert not group.metas and group.fed == fed


@on_both_folds
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("ingest", ("events", "block"))
def test_a_reset_engine_is_a_fresh_engine(fold, workload, ingest, monkeypatch):
    spy = RetireSpy(monkeypatch)
    events = churn_stream(3)
    with selected_fold(fold):
        executor = StreamingExecutor(WORKLOADS[workload]())
        if ingest == "block":
            executor.process_block(EventBlock.from_events(events))
        else:
            for event in events:
                executor.process(event)
        executor.finish()
    assert spy.recycled > 0 and spy.dropped == 0
    spy.check_evicted_stay_empty()
    # Some key took an engine another key held first.
    assert any(len(set(keys)) > 1 for keys in spy.keys.values())


@on_both_folds
def test_a_split_engine_is_dropped_not_recycled(fold, monkeypatch):
    spy = RetireSpy(monkeypatch)
    with selected_fold(fold):
        executor = StreamingExecutor(vector_queries(), optimizer="always")
        for event in churn_stream(5, keys=2, returns=5):
            executor.process(event)
        report = executor.finish()
    assert report.optimizer_statistics.splits == 0  # always shares: engines come back whole
    assert spy.recycled > 0 and spy.dropped == 0
    spy = RetireSpy(monkeypatch)
    with selected_fold(fold):
        executor = StreamingExecutor(vector_queries(), optimizer="never")
        for event in churn_stream(5, keys=2, returns=5):
            executor.process(event)
        executor.finish()
    assert spy.dropped > 0  # a never-shared class keeps its replica columns


def churn_run(queries, arrivals, fold, *, snapshot_at=None, **options) -> tuple:
    """Emitted rows (value bits), totals, ops and peak memory of one run;
    with ``snapshot_at``, restored there into a fresh executor, whose free
    list starts empty while the snapshotted one held engines."""
    emitted: list = []

    def record(row) -> None:
        values = tuple((name, float(value).hex()) for name, value in row.results.items())
        emitted.append((repr(row.group_key), row.window_index, row.retraction, values))

    with selected_fold(fold):
        executor = StreamingExecutor(queries, on_window=record, **options)
        for position, event in enumerate(arrivals):
            if position == snapshot_at:
                executor.shared_group_count  # a live-state reader folds what is staged
                assert any(unit.free for unit in executor._units)
                payload = executor.snapshot_state()
                executor = StreamingExecutor(queries, on_window=record, **options)
                executor.restore_state(payload)
                assert not any(unit.free for unit in executor._units)
            executor.process(event)
        report = executor.finish()
    totals = {name: float(value).hex() for name, value in report.totals.items()}
    return emitted, totals, report.metrics.operations, report.metrics.peak_memory_units


def first_free_position(queries, arrivals, fold, options) -> int:
    """How many arrivals it takes for a free list to hold an engine."""
    with selected_fold(fold):
        executor = StreamingExecutor(queries, **options)
        for position, event in enumerate(arrivals):
            executor.process(event)
            executor.shared_group_count  # a live-state reader folds what is staged
            if any(unit.free for unit in executor._units):
                return position + 1
    raise AssertionError("no group was evicted")


@settings(deadline=None, derandomize=True, max_examples=25)
@given(
    seed=st.integers(min_value=0, max_value=10**6),
    keys=st.integers(min_value=2, max_value=4),
    workload=st.sampled_from(sorted(WORKLOADS)),
    late=st.booleans(),
)
def test_group_churn_is_invisible(seed, keys, workload, late):
    events = churn_stream(seed, keys=keys, returns=3)
    queries = WORKLOADS[workload]()
    arrivals, options = list(events), {}
    if late:
        # A row every 9 arrives 12 rows late: some behind the 1.0 horizon.
        options = {"allowed_lateness": 1.0, "late_policy": "retract"}
        for index in range(5, len(arrivals) - 12, 9):
            arrivals.insert(index + 12, arrivals.pop(index))
    reference = churn_run(queries, arrivals, "reference", **options)
    folds = ("reference",) if foldcore.core is None else ("compiled", "reference")
    for fold in folds:
        assert churn_run(queries, arrivals, fold, **options) == reference
        # Restored where the free list first holds an engine: the same run.
        cut = first_free_position(queries, arrivals, fold, options)
        assert churn_run(queries, arrivals, fold, snapshot_at=cut, **options) == reference
    # The values of the batch replay, which shares nothing between windows.
    batch = {name: float(value).hex() for name, value in run_workload(queries, events).totals.items()}
    assert reference[1] == batch


def test_engines_built_never_exceed_the_peak_of_live_groups(monkeypatch):
    # The ingest shape (10 queries, 20 districts, 10 s / 2 s windows) at a
    # tiny scale: groups close and reopen hundreds of times.
    built = []
    live = [0]
    init, open_group = MultiWindowLinearEngine.__init__, StreamingExecutor._open_group

    def building(engine, unit) -> None:
        built.append(engine)
        init(engine, unit)

    def opening(executor, unit, key):
        group = open_group(executor, unit, key)
        live[0] = max(live[0], sum(len(u.groups) for u in executor._units))
        opening.count += 1
        return group

    opening.count = 0
    monkeypatch.setattr(MultiWindowLinearEngine, "__init__", building)
    monkeypatch.setattr(StreamingExecutor, "_open_group", opening)
    queries = kleene_sharing_workload(
        10, kleene_type="Travel", prefix_types=("Surge", "Breakdown"), window=Window(10.0, 2.0)
    )
    block = RidesharingGenerator(events_per_minute=3_000.0, seed=7, districts=20).generate_block(
        240.0
    )
    executor = StreamingExecutor(queries)
    for start in range(0, len(block), 1024):
        executor.process_block(block.slice(start, min(len(block), start + 1024)))
    executor.finish()
    assert opening.count > 4 * live[0]  # groups reopened many times over
    assert 0 < len(built) <= live[0]
