"""The allocation-free vector fold is the per-event fold, to the bit.

``PythonKernelBackend.fold_vector_run`` folds a run window by window with
the count and measures hoisted into locals; the reference here is the loop
it replaced — one :class:`MutableAggregate` per (row, window), folded with
``add`` / ``apply_contributions`` in per-event order — kept in the tests so
the arithmetic order stays pinned.  Values are deliberately *not* integers:
with 0.1-multiples any reassociation shows up in the last bits.
"""

from __future__ import annotations

import random
import struct

import pytest

from repro.core.kernels import MutableAggregate, PythonKernelBackend
from repro.events import Event
from repro.events.block import EventBlock
from repro.query import Query, Window, avg, kleene, parse_pattern, seq, sum_of
from repro.runtime import MultiWindowLinearEngine, StreamingExecutor, UnitCompilation


def reference_fold(total_map, indices, sources, base, contribution_rows, dimension) -> int:
    """The fold as it was: row by row, an accumulator object per window."""
    created = 0
    for contributions in contribution_rows:
        for index in indices:
            accumulator = MutableAggregate(dimension)
            accumulator.count = base
            for window_map in sources:
                previous = window_map.get(index)
                if previous is not None:
                    accumulator.add(previous)
            accumulator.apply_contributions(contributions)
            total = total_map.get(index)
            if total is None:
                total_map[index] = accumulator
                created += 1
            else:
                total.add(accumulator)
    return created


def bits(window_map) -> list:
    """Key order plus the IEEE-754 bit pattern of every component."""
    return [
        (index, struct.pack("<d", entry.count), struct.pack(f"<{len(entry.measures)}d", *entry.measures))
        for index, entry in window_map.items()
    ]


def random_entry(rng: random.Random, dimension: int) -> MutableAggregate:
    entry = MutableAggregate(dimension)
    entry.count = rng.choice((0.0, 1.0, 3.0, rng.random() * 1e6, rng.random() * 1e-6))
    entry.measures = [rng.choice((0.0, -0.0, rng.uniform(-50.0, 50.0) * 0.1)) for _ in range(dimension)]
    return entry


def random_map(rng: random.Random, windows: range, dimension: int, density: float) -> dict:
    return {w: random_entry(rng, dimension) for w in windows if rng.random() < density}


def clone(window_map: dict) -> dict:
    return {index: entry.copy() for index, entry in window_map.items()}


#: Where the Kleene self-loop sits among the fold's sources (None: absent).
SELF_LOOP_POSITIONS = (None, 0, 1, 2)


@pytest.mark.parametrize("dimension", range(5))
@pytest.mark.parametrize("self_loop", SELF_LOOP_POSITIONS)
@pytest.mark.parametrize("base", (0.0, 1.0))
def test_fold_vector_run_matches_the_per_event_fold_bit_for_bit(dimension, self_loop, base):
    backend = PythonKernelBackend()
    for seed in range(40):
        rng = random.Random(1000 * dimension + seed)
        windows = range(3, 3 + rng.randint(1, 6))
        # Sparse totals: some entries exist, the others are created by the run.
        totals = random_map(rng, windows, dimension, density=rng.choice((0.0, 0.5, 1.0)))
        others = [random_map(rng, windows, dimension, 0.7) for _ in range(rng.randint(0, 2))]
        rows = [
            tuple(rng.choice((0.0, 1.0, rng.randint(-9, 60) * 0.1)) for _ in range(dimension))
            for _ in range(rng.randint(1, 9))
        ]
        indices = [w for w in windows if rng.random() < 0.8] or [windows[0]]
        ours, theirs = clone(totals), clone(totals)

        def sources_for(total_map):
            sources = list(others)
            if self_loop is not None:
                sources.insert(min(self_loop, len(sources)), total_map)
            return tuple(sources)

        created = backend.fold_vector_run(
            ours, indices, sources_for(ours), base, rows, dimension
        )
        expected = reference_fold(theirs, indices, sources_for(theirs), base, rows, dimension)
        assert created == expected
        assert bits(ours) == bits(theirs), (seed, rows)


def test_an_empty_run_creates_nothing():
    total_map: dict = {}
    assert PythonKernelBackend().fold_vector_run(total_map, [1, 2], (total_map,), 1.0, [], 2) == 0
    assert total_map == {}


# --------------------------------------------------------------------- #
# Engine level: the per-event ``_fast_vector`` sequence vs one run fold
# --------------------------------------------------------------------- #
WINDOW = Window(8.0, 2.0)


def vector_queries(pattern_factory, tag: str) -> list[Query]:
    return [
        Query.build(pattern_factory(), aggregate=sum_of("B", "v"), window=WINDOW, name=f"{tag}_sum"),
        Query.build(pattern_factory(), aggregate=avg("B", "v"), window=WINDOW, name=f"{tag}_avg"),
    ]


def fractional_stream(seed: int, size: int) -> list[Event]:
    rng = random.Random(seed)
    events = [Event("A", 0.0, {"v": 0.3})]
    for index in range(1, size):
        type_name = rng.choices("AB", weights=(1, 5))[0]
        events.append(Event(type_name, index * 0.25, {"v": rng.randint(1, 70) * 0.1}))
    return events


def coefficient_bits(engine: MultiWindowLinearEngine) -> list:
    table = engine.coefficients
    return [
        (key, bits(table.window_map(key)))
        for key in sorted(
            (spec.index, event_type)
            for spec in engine.unit.classes
            for event_type in sorted(spec.template.event_types)
        )
    ]


@pytest.mark.parametrize("seed", range(6))
def test_run_fold_equals_the_fast_vector_sequence_in_one_engine_pair(seed):
    events = fractional_stream(seed, 60)
    unit = UnitCompilation(
        vector_queries(lambda: seq("A", kleene("B")), "fv"), share_classes=True
    )
    assert unit.dimension >= 2 and not unit.scalar
    per_event, by_run = MultiWindowLinearEngine(unit), MultiWindowLinearEngine(unit)
    block = EventBlock.from_events(events)
    lows, highs = WINDOW.instance_range_columns(block.times)
    position = 0
    while position < len(events):
        stop = position
        while stop < len(events) and events[stop].event_type == events[position].event_type:
            stop += 1
        run = range(position, stop)
        for row in run:
            per_event.process(events[row], lows[row], highs[row])  # -> _fast_vector
        assert by_run.process_block_run(
            events[position].event_type,
            [events[row].time for row in run],
            [events[row].sequence for row in run],
            [lows[row] for row in run],
            [highs[row] for row in run],
            [unit.contributions(events[row]) for row in run],
        )
        position = stop
    assert coefficient_bits(by_run) == coefficient_bits(per_event)
    assert by_run.operations() == per_event.operations()
    assert by_run.live_coefficient_entries() == per_event.live_coefficient_entries()


@pytest.mark.parametrize("seed", range(4))
def test_stored_value_fold_agrees_with_the_plain_fold(seed):
    """``SEQ(A, NOT X, B+)`` keeps per-node values (the accumulator branch
    of ``_fast_vector``); with no ``X`` in the stream it must land on the
    bits of the same pattern without the negation, folded run by run."""
    events = fractional_stream(seed, 80)
    negated = StreamingExecutor(
        vector_queries(lambda: parse_pattern("SEQ(A, NOT X, B+)"), "nx")
    ).run(events)
    plain = StreamingExecutor(vector_queries(lambda: seq("A", kleene("B")), "nx")).run(
        EventBlock.from_events(events)
    )
    assert {name: struct.pack("<d", value) for name, value in negated.totals.items()} == {
        name: struct.pack("<d", value) for name, value in plain.totals.items()
    }
