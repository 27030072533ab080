"""Sharded block ingest vs per-event sharded and single-process runs.

The routing invariant extends to columns: :meth:`ShardRouter.route_block`
must select exactly the rows :meth:`ShardRouter.route` would ship, and a
sharded run fed one :class:`EventBlock` must merge to the same report as
the per-event sharded run and the single-process streaming run — across
shard counts, workers=0 / pool mode and kernel backends.
Pool-mode workers rebuild blocks from the shipped columnar bytes and
ingest them without constructing events; these tests pin that the whole
chain stays bit-identical.
"""

from __future__ import annotations

import random
from collections import Counter

import pytest

from repro.core import HamletEngine
from repro.events import Event
from repro.events.block import EventBlock
from repro.query import Query, Window, kleene, seq, sum_of
from repro.runtime import ShardedStreamingExecutor, StreamingExecutor, run_sharded
from repro.runtime.sharding import ShardRouter

WINDOW = Window(32.0, 8.0)


def make_stream(seed: int, size: int) -> list[Event]:
    rng = random.Random(seed)
    events = []
    for index in range(size):
        type_name = rng.choices(("A", "B", "C"), weights=(1.0, 3.0, 1.0))[0]
        events.append(
            Event(
                type_name,
                float(index),
                {"v": float(rng.randint(0, 6)), "g": float(rng.randint(1, 4))},
            )
        )
    return events


def grouped_workload() -> list[Query]:
    return [
        Query.build(
            seq("A", kleene("B")), group_by=("g",), window=WINDOW, name="sb_q1"
        ),
        Query.build(
            seq("A", kleene("B")),
            aggregate=sum_of("B", "v"),
            group_by=("g",),
            window=WINDOW,
            name="sb_q2",
        ),
        Query.build(
            seq("C", kleene("B")), group_by=("g",), window=WINDOW, name="sb_q3"
        ),
    ]


def ungrouped_workload() -> list[Query]:
    return [
        Query.build(seq("A", kleene("B")), window=WINDOW, name="sb_u1"),
        Query.build(seq("C", kleene("B")), window=WINDOW, name="sb_u2"),
    ]


def fingerprint(report):
    """Exact ordered fingerprint — for comparing sharded runs to each other."""
    return (
        report.totals,
        [
            (p.group_key, p.window_index, dict(p.results), p.events)
            for p in report.partition_results
        ],
    )


def multiset(report):
    """Order-free fingerprint — single-process reports interleave units
    differently from the merged shard order (same convention as the
    sharding suite)."""
    return (
        report.totals,
        Counter(
            (p.group_key, p.window_index, tuple(sorted(p.results.items())), p.events)
            for p in report.partition_results
        ),
    )


@pytest.mark.parametrize("shards", (1, 2, 4))
@pytest.mark.parametrize("mode", ("group", "unit"))
def test_route_block_matches_per_event_route(shards, mode):
    queries = grouped_workload() if mode == "group" else ungrouped_workload()
    router = ShardRouter(queries, shards)
    assert router.mode == mode
    events = make_stream(3, 300)
    block = EventBlock.from_events(events)
    expected: list[list[int]] = [[] for _ in range(router.shards)]
    for local, event in enumerate(events):
        for shard in router.route(event):
            expected[shard].append(local)
    assert [list(sel) for sel in router.route_block(block)] == expected


@pytest.mark.parametrize("shards", (1, 2, 4))
def test_sharded_block_matches_single_process(shards):
    queries = grouped_workload()
    events = make_stream(7, 400)
    block = EventBlock.from_events(events)
    reference = StreamingExecutor(queries, HamletEngine).run(events)
    sharded = run_sharded(queries, block, HamletEngine, workers=0, shards=shards)
    assert multiset(sharded) == multiset(reference)


@pytest.mark.parametrize("shards", (1, 2))
def test_sharded_block_matches_sharded_events(shards):
    queries = grouped_workload()
    events = make_stream(11, 400)
    block = EventBlock.from_events(events)
    per_event = run_sharded(queries, events, HamletEngine, workers=0, shards=shards)
    per_block = run_sharded(queries, block, HamletEngine, workers=0, shards=shards)
    assert fingerprint(per_block) == fingerprint(per_event)


def test_sharded_block_pool_workers():
    queries = grouped_workload()
    events = make_stream(13, 400)
    block = EventBlock.from_events(events)
    reference = StreamingExecutor(queries, HamletEngine).run(events)
    sharded = run_sharded(
        queries,
        block,
        HamletEngine,
        workers=2,
        shards=2,
        batch_size=64,
    )
    assert multiset(sharded) == multiset(reference)


def test_sharded_block_in_process_matches_per_event():
    queries = grouped_workload()
    events = make_stream(17, 400)
    block = EventBlock.from_events(events)
    per_event = run_sharded(queries, events, HamletEngine, workers=0, shards=2)
    per_block = run_sharded(queries, block, HamletEngine, workers=0, shards=2)
    assert fingerprint(per_block) == fingerprint(per_event)


def test_sharded_block_unit_routing():
    queries = ungrouped_workload()
    events = make_stream(19, 300)
    block = EventBlock.from_events(events)
    reference = StreamingExecutor(queries, HamletEngine).run(events)
    assert ShardRouter(queries, 2).mode == "unit"
    sharded = run_sharded(queries, block, HamletEngine, workers=0, shards=2)
    assert multiset(sharded) == multiset(reference)


def test_sharded_block_interleaved_with_events():
    # Blocks and loose events may interleave on one driver; per-shard
    # arrival order is preserved across the mixed feeds.
    from repro.runtime.sharding import ShardedStreamingExecutor

    queries = grouped_workload()
    events = make_stream(23, 300)
    block = EventBlock.from_events(events)
    reference = StreamingExecutor(queries, HamletEngine).run(events)
    driver = ShardedStreamingExecutor(queries, HamletEngine, workers=0, shards=2)
    for event in events[:100]:
        driver.process(event)
    driver.process_block(block.slice(100, 220))
    for event in events[220:]:
        driver.process(event)
    assert multiset(driver.finish()) == multiset(reference)


def test_sharded_block_out_of_order_block_rejected():
    from repro.errors import ExecutionError
    from repro.runtime.sharding import ShardedStreamingExecutor

    queries = grouped_workload()
    events = make_stream(29, 100)
    block = EventBlock.from_events(events)
    driver = ShardedStreamingExecutor(queries, HamletEngine, workers=0, shards=2)
    driver.process(Event("A", 500.0, {"v": 1.0, "g": 1.0}))
    with pytest.raises(ExecutionError):
        driver.process_block(block)


@pytest.mark.parametrize("lateness", (None, 6.0))
@pytest.mark.parametrize("workers", (1, 2, 4))
def test_pool_scalar_ingest_equals_block_ingest_equals_single_process(workers, lateness):
    # One worker loop: scalar process() calls are batched into the same
    # framed blocks process_block() ships, so results, partitions, their
    # merged emission order and the abstract op counts cannot depend on
    # the ingest method — with or without the
    # shard reorder buffers in front.
    queries = grouped_workload()
    events = make_stream(23, 400)
    if lateness is not None:
        rng = random.Random(29)
        events.sort(key=lambda e: e.time + rng.uniform(-lateness / 2, lateness / 2))
    single = StreamingExecutor(
        queries, HamletEngine, allowed_lateness=lateness
    ).run(list(events))

    def pool() -> ShardedStreamingExecutor:
        return ShardedStreamingExecutor(
            queries,
            HamletEngine,
            workers=workers,
            batch_size=64,
            allowed_lateness=lateness,
        )

    scalar_run = pool()
    for event in events:
        scalar_run.process(event)
    scalar = scalar_run.finish()
    block_run = pool()
    block_run.process_block(EventBlock.from_events(events))
    block = block_run.finish()

    assert fingerprint(scalar) == fingerprint(block)
    assert multiset(scalar) == multiset(single)
    assert (
        scalar.metrics.operations
        == block.metrics.operations
        == single.metrics.operations
    )
    # 400 events in batches of 64: scalar ingest really crossed the boundary
    # in several frames per shard, block ingest in at most one.
    assert sum(shard.batches for shard in scalar.shards) > workers
    assert max(shard.batches for shard in block.shards) == 1
