"""Per-instance window evaluation behind ``MultiWindowEngine``.

Two things live here.  **Pinned numbers**: what three seeded per-instance
configurations reported at the commit *before* the per-instance path became
an adapter inside the one window lifecycle (PR 17's parent) — the code that
produced them is deleted, so they are literals, not a differential.  And a
**contract test** of the adapter itself against
:class:`repro.interfaces.MultiWindowEngine`.
"""

from __future__ import annotations

import hashlib
import pickle
import random

import pytest

from repro.baselines import TwoStepEngine
from repro.core import HamletEngine
from repro.events import Event, EventStream
from repro.interfaces import MultiWindowEngine, TrendAggregationEngine
from repro.query import Query, Window, count_events, kleene, max_of, min_of, seq, sum_of
from repro.runtime import StreamingExecutor
from repro.runtime.instance_windows import EnginePool, InstanceWindowEngine


def _stream(seed: int, size: int) -> list[Event]:
    rng = random.Random(seed)
    return [
        Event(
            rng.choices(("A", "B", "C", "D"), weights=(1.0, 3.0, 1.0, 1.0))[0],
            float(index),
            {"v": float(rng.randint(0, 6)), "g": float(rng.randint(1, 3))},
        )
        for index in range(size)
    ]


def _linear(window: Window, group_by=()) -> list[Query]:
    return [
        Query.build(seq("A", kleene("B")), group_by=group_by, window=window, name="iw_q1"),
        Query.build(seq("C", kleene("B")), group_by=group_by, window=window, name="iw_q2"),
        Query.build(
            seq("C", kleene("B"), "D"),
            aggregate=sum_of("B", "v"),
            group_by=group_by,
            window=window,
            name="iw_q3",
        ),
        Query.build(
            seq("D", kleene("B")),
            aggregate=count_events("B"),
            group_by=group_by,
            window=window,
            name="iw_q4",
        ),
    ]


def _extrema(window: Window) -> list[Query]:
    group_by = ("g",)
    return [
        Query.build(
            seq("A", kleene("B")), aggregate=max_of("B", "v"), group_by=group_by, window=window, name="iw_max"
        ),
        Query.build(
            seq("A", kleene("B")), aggregate=min_of("B", "v"), group_by=group_by, window=window, name="iw_min"
        ),
        Query.build(seq("C", kleene("B")), group_by=group_by, window=window, name="iw_cnt"),
    ]


#: name -> (queries, engine factory, executor options, stream seed, stream size)
CONFIGURATIONS = {
    "hamlet-instances-sliding-groupby": (
        _linear(Window(32.0, 8.0), group_by=("g",)),
        HamletEngine,
        {"shared_windows": False},
        11,
        400,
    ),
    "greta-extrema-unit": (
        _extrema(Window(24.0, 6.0)),
        HamletEngine,
        {},
        12,
        300,
    ),
    "two-step-baseline-eager": (
        _linear(Window(12.0, 4.0)),
        TwoStepEngine,
        {"lazy_open": False},
        13,
        160,
    ),
}

#: Measured on the parent commit (the last one with a per-instance lifecycle
#: of its own), scalar ``process()`` ingest; ``process_block`` read the same.
PINNED = {
    "greta-extrema-unit": {
        "operations": 6122,
        "windows": 415,
        "digest": "6a180a915c2457a5",
        "peak_memory_units": 113,
        "peak_active_windows": 34,
        "engine_feeds": 1716,
        "engines_created": 24,
    },
    "hamlet-instances-sliding-groupby": {
        "operations": 6146,
        "windows": 286,
        "digest": "59eaba672fd47380",
        "peak_memory_units": 179,
        "peak_active_windows": 24,
        "engine_feeds": 2115,
        "engines_created": 24,
    },
    "two-step-baseline-eager": {
        "operations": 5173,
        "windows": 80,
        "digest": "e25ffa45482cbc75",
        "peak_memory_units": 1051,
        "peak_active_windows": 6,
        "engine_feeds": 765,
        "engines_created": 6,
    },
}


def measure(name: str, *, block: bool) -> dict:
    queries, factory, options, seed, size = CONFIGURATIONS[name]
    emitted = []
    executor = StreamingExecutor(queries, factory, on_window=emitted.append, **options)
    events = _stream(seed, size)
    report = executor.run(EventStream(events).to_block() if block else events)
    digest = hashlib.blake2b(digest_size=8)
    for result in emitted:
        digest.update(
            repr(
                (result.group_key, result.window_index, result.events, sorted(result.results.items()))
            ).encode()
        )
    partitions = [(p.group_key, p.window_index, p.events) for p in report.partition_results]
    assert partitions == [(r.group_key, r.window_index, r.events) for r in emitted]
    return {
        "operations": report.metrics.operations,
        "windows": len(emitted),
        "digest": digest.hexdigest(),
        "peak_memory_units": report.metrics.peak_memory_units,
        "peak_active_windows": report.metrics.peak_active_windows,
        "engine_feeds": executor.engine_feeds,
        "engines_created": executor.engines_created,
    }


@pytest.mark.parametrize("block", (False, True), ids=("scalar", "block"))
@pytest.mark.parametrize("name", sorted(CONFIGURATIONS))
def test_per_instance_reports_what_the_parent_reported(name, block):
    assert measure(name, block=block) == PINNED[name]


def test_an_opaque_factory_is_called_once_per_engine_probe_included():
    """The engine built to probe a lambda factory seeds the pool: the
    factory runs exactly ``engines_created`` times, the pinned count."""
    name = "hamlet-instances-sliding-groupby"
    queries, _, options, seed, size = CONFIGURATIONS[name]
    built = []

    def factory():
        built.append(HamletEngine())
        return built[-1]

    executor = StreamingExecutor(queries, factory, **options)
    executor.run(_stream(seed, size))
    assert len(built) == executor.engines_created == PINNED[name]["engines_created"]


def test_an_interrupted_run_hands_its_live_engines_back():
    name = "hamlet-instances-sliding-groupby"
    queries, factory, options, seed, size = CONFIGURATIONS[name]
    executor = StreamingExecutor(queries, factory, **options)
    events = _stream(seed, size)
    for event in events[: size // 2]:
        executor.process(event)
    live = executor.active_window_count()
    created = executor.engines_created
    assert live > 0 and sum(len(unit.pool.idle) for unit in executor._units) == created - live
    report = executor.run(events)  # no finish(): the run above was abandoned
    assert sum(len(unit.pool.idle) for unit in executor._units) == executor.engines_created
    assert executor.engines_created == PINNED[name]["engines_created"]
    assert report.metrics.operations == PINNED[name]["operations"]


# --------------------------------------------------------------------- #
# The adapter against the MultiWindowEngine contract
# --------------------------------------------------------------------- #
class _Recorder(TrendAggregationEngine):
    """Counts what it is fed; footprint = events held, one op per event."""

    name = "recorder"

    def __init__(self, log: list) -> None:
        self.log = log
        self.fed = 0

    def start(self, queries):
        self.log.append(("start", id(self)))
        self.fed = 0

    def process(self, event):
        self.fed += 1

    def results(self):
        return {"fed": float(self.fed)}

    def memory_units(self):
        return self.fed

    def operations(self):
        return self.fed

    def close(self):
        self.log.append(("close", id(self)))
        self.fed = 0


def _adapter(opening_types):
    log: list = []
    pool = EnginePool(lambda: _Recorder(log))
    # One query named after the recorder's one result: an engine reports a
    # value per unit query, and the adapter reads them out by name.
    queries = [Query.build(seq("A", kleene("B")), window=Window(8.0, 2.0), name="fed")]
    return InstanceWindowEngine(queries, pool, opening_types), pool, log


def test_adapter_is_a_multi_window_engine():
    adapter, _, _ = _adapter(None)
    assert isinstance(adapter, MultiWindowEngine)
    assert adapter.memory_units() == 0 and adapter.operations() == 0


def test_adapter_opens_lazily_only_on_an_opening_type():
    adapter, pool, _ = _adapter(frozenset({"A"}))
    adapter.process(Event("B", 0.0), 0, 2)  # nothing open, not an opening type
    assert pool.created == 0 and adapter.memory_units() == 0
    adapter.process(Event("A", 1.0), 0, 1)  # opens 0 and 1, not 2
    adapter.process(Event("B", 2.0), 0, 2)  # feeds the open ones only
    assert pool.created == 2
    assert adapter.close_window(0) == {"fed": 2.0}
    assert adapter.close_window(1) == {"fed": 2.0}
    with pytest.raises(KeyError):
        adapter.close_window(2)  # never opened: the executor holds no meta for it


def test_adapter_opens_eagerly_without_opening_types():
    adapter, pool, _ = _adapter(None)  # lazy_open=False
    adapter.process(Event("B", 0.0), 3, 5)
    assert pool.created == 3 and sorted(adapter._live) == [3, 4, 5]


def test_adapter_closes_ascending_with_monotone_operations_and_pooled_engines():
    adapter, pool, log = _adapter(None)
    adapter.process(Event("A", 0.0), 0, 0)
    adapter.process(Event("B", 1.0), 0, 1)
    adapter.process(Event("B", 2.0), 0, 2)
    assert adapter.memory_units() == 3  # the largest live instance, not the sum (6)
    assert adapter.operations() == 0  # nothing closed yet
    closed_operations = 0
    for index, fed in ((0, 3), (1, 2), (2, 1)):
        before = adapter.operations()
        assert adapter.close_window(index) == {"fed": float(fed)}
        closed_operations += fed
        assert before < adapter.operations() == closed_operations
        # The readout's footprint shows in the next sample, once.
        assert adapter.memory_units() == fed
        assert adapter.memory_units() == max(0, fed - 1)
    assert adapter.memory_units() == 0 and not adapter._live
    # Each engine went back exactly once, closed, and is reused before a
    # new one is built.
    assert len(pool.idle) == pool.created == 3
    assert len({id(engine) for engine in pool.idle}) == 3
    assert [kind for kind, _ in log].count("close") == 3
    adapter.process(Event("A", 9.0), 4, 5)
    assert pool.created == 3 and len(pool.idle) == 1


def test_a_pickled_pool_ships_its_engines_without_the_factory():
    adapter, pool, _ = _adapter(None)
    adapter.process(Event("A", 0.0), 0, 1)
    adapter.close_window(0)
    restored_adapter, restored_pool = pickle.loads(pickle.dumps((adapter, pool)))
    assert restored_adapter.pool is restored_pool  # one pool, as before
    assert restored_pool.created == 2 and len(restored_pool.idle) == 1
    assert not hasattr(restored_pool, "build")  # the restoring executor brings its own


if __name__ == "__main__":  # pragma: no cover - re-measure: python tests/runtime/test_instance_windows.py
    for name in sorted(CONFIGURATIONS):
        scalar = measure(name, block=False)
        assert measure(name, block=True) == scalar
        print(f"    {name!r}: {scalar!r},")
