"""Randomized streaming-vs-batch equivalence.

The strongest correctness statement of the streaming runtime: over
randomized integer-valued streams, the single-pass
:class:`~repro.runtime.StreamingExecutor` produces totals **bit-identical**
to the batch replay :class:`~repro.runtime.WorkloadExecutor` — across
HAMLET (every sharing policy), GRETA and the two-step / SHARON-style
baselines, for tumbling and overlapping (including fractional-slide)
windows, GROUP BY, negation and decomposed OR queries, with lazy opening on
and off, and on **both** streaming execution paths: the shared multi-window
engine (``shared_windows=True``, the default — one engine per ``(group,
unit)`` pair, per-window-instance coefficients) and the per-instance
reference pool (``shared_windows=False``), up to 600-event streams.

The sharded driver joins the same equivalence class: in-process shards
(1/2/4, both routing modes) and real multi-process workers must reproduce
the single-process totals *and* per-partition results bit-identically.

All event attributes are small integers, so per-partition sums stay exact in
float64 (windows keep partitions small enough that trend counts remain below
2**53) and exact ``==`` comparison is meaningful; see ``docs/DESIGN.md``.
"""

from __future__ import annotations

import random

import pytest

from repro.baselines import FlatSequenceEngine, TwoStepEngine
from repro.core import HamletEngine
from repro.greta import GretaEngine
from repro.optimizer import AlwaysShareOptimizer, DynamicSharingOptimizer, NeverShareOptimizer
from repro.query import (
    Query,
    Window,
    avg,
    count_events,
    kleene,
    parse_pattern,
    seq,
    sum_of,
)
from repro.query.predicates import attr_less
from repro.events import Event, EventBlock
from repro.runtime import StreamingExecutor, run_sharded, run_streaming, run_workload

TYPE_NAMES = ("A", "B", "C", "D", "X")

#: Sliding window with slide = size/4: at one event per time unit a partition
#: holds <= 32 events, so every count (< 2**33) stays exactly representable.
SLIDING = Window(32.0, 8.0)
TUMBLING = Window(32.0)
#: Fractional slide: ``k * 3.2`` accumulates float error, exercising the
#: integer window-index arithmetic end to end.
FRACTIONAL = Window(16.0, 3.2)


def make_stream(seed: int, size: int, *, negative_weight: float = 0.08) -> list[Event]:
    """A random in-order stream with integer-valued attributes."""
    rng = random.Random(seed)
    weights = [1.0, 3.0, 1.0, 1.0, negative_weight]
    events = []
    for index in range(size):
        type_name = rng.choices(TYPE_NAMES, weights=weights)[0]
        events.append(
            Event(
                type_name,
                float(index),
                {"v": float(rng.randint(0, 6)), "g": float(rng.randint(1, 2))},
            )
        )
    return events


def workload(window: Window, *, with_negation: bool = True, group_by=()) -> list[Query]:
    """Shared-Kleene workload mixing COUNT(*) / COUNT(E) / SUM / AVG and NOT."""
    queries = [
        Query.build(seq("A", kleene("B")), group_by=group_by, window=window, name="sq_q1"),
        Query.build(seq("C", kleene("B")), group_by=group_by, window=window, name="sq_q2"),
        Query.build(
            seq("A", kleene("B")),
            predicates=[attr_less("v", 4.0, event_type="B")],
            group_by=group_by,
            window=window,
            name="sq_q3",
        ),
        Query.build(
            seq("C", kleene("B"), "D"),
            aggregate=sum_of("B", "v"),
            group_by=group_by,
            window=window,
            name="sq_q4",
        ),
        Query.build(
            seq("A", kleene("B")), aggregate=avg("B", "v"), group_by=group_by, window=window, name="sq_q5"
        ),
        Query.build(
            seq("D", kleene("B")),
            aggregate=count_events("B"),
            group_by=group_by,
            window=window,
            name="sq_q6",
        ),
    ]
    if with_negation:
        queries.append(
            Query.build(
                parse_pattern("SEQ(A, NOT X, B+)"), group_by=group_by, window=window, name="sq_q7"
            )
        )
        queries.append(
            Query.build(
                parse_pattern("SEQ(C, B+, NOT X)"), group_by=group_by, window=window, name="sq_q8"
            )
        )
    return queries


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("size", (150, 300, 600))
@pytest.mark.parametrize("window", (TUMBLING, SLIDING), ids=("tumbling", "sliding"))
@pytest.mark.parametrize(
    "optimizer_factory",
    (DynamicSharingOptimizer, AlwaysShareOptimizer, NeverShareOptimizer),
    ids=("dynamic", "always-share", "never-share"),
)
def test_streaming_bit_identical_to_batch_hamlet(seed, size, window, optimizer_factory):
    events = make_stream(seed, size)
    queries = workload(window)
    factory = lambda: HamletEngine(optimizer_factory())  # noqa: E731
    batch = run_workload(queries, events, factory)
    shared = run_streaming(queries, events, factory)
    instances = run_streaming(queries, events, factory, shared_windows=False)
    assert shared.totals == batch.totals  # exact — integer-valued streams
    assert instances.totals == batch.totals


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("size", (150, 600))
@pytest.mark.parametrize("window", (TUMBLING, SLIDING, FRACTIONAL), ids=("tumbling", "sliding", "fractional"))
def test_streaming_bit_identical_to_batch_greta(seed, size, window):
    events = make_stream(seed, size)
    queries = workload(window)
    batch = run_workload(queries, events, GretaEngine)
    shared = run_streaming(queries, events, GretaEngine)
    instances = run_streaming(queries, events, GretaEngine, shared_windows=False)
    assert shared.totals == batch.totals
    assert instances.totals == batch.totals


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("shared_windows", (True, False), ids=("shared", "instances"))
@pytest.mark.parametrize("lazy_open", (True, False), ids=("lazy", "eager"))
def test_streaming_matches_batch_with_group_by(seed, lazy_open, shared_windows):
    events = make_stream(seed, 400)
    queries = workload(SLIDING, group_by=("g",))
    factory = lambda: HamletEngine(DynamicSharingOptimizer())  # noqa: E731
    batch = run_workload(queries, events, factory)
    streaming = run_streaming(
        queries, events, factory, lazy_open=lazy_open, shared_windows=shared_windows
    )
    assert streaming.totals == batch.totals


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("shared_windows", (True, False), ids=("shared", "instances"))
def test_streaming_matches_batch_on_negation_dense_streams(seed, shared_windows):
    events = make_stream(seed, 300, negative_weight=2.0)
    queries = workload(SLIDING)
    for factory in (
        lambda: HamletEngine(AlwaysShareOptimizer()),
        lambda: HamletEngine(NeverShareOptimizer()),
        GretaEngine,
    ):
        batch = run_workload(queries, events, factory)
        streaming = run_streaming(queries, events, factory, shared_windows=shared_windows)
        assert streaming.totals == batch.totals


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("shared_windows", (True, False), ids=("shared", "instances"))
def test_streaming_matches_batch_fractional_slide(seed, shared_windows):
    """Fractional slides exercise the integer instance arithmetic end to end."""
    events = make_stream(seed, 300)
    queries = workload(FRACTIONAL)
    factory = lambda: HamletEngine(DynamicSharingOptimizer())  # noqa: E731
    batch = run_workload(queries, events, factory)
    streaming = run_streaming(queries, events, factory, shared_windows=shared_windows)
    assert streaming.totals == batch.totals


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("size", (150, 400))
def test_shared_windows_per_window_results_match_per_instance(seed, size):
    """Beyond totals: every emitted ``(group, window)`` partition agrees.

    The shared multi-window engine must reproduce the per-instance engines'
    per-window results exactly — including which windows are emitted at all
    (lazy opening) — not just the workload-level sums.
    """
    events = make_stream(seed, size)
    queries = workload(SLIDING, group_by=("g",))
    factory = lambda: HamletEngine(DynamicSharingOptimizer())  # noqa: E731
    shared = run_streaming(queries, events, factory)
    instances = run_streaming(queries, events, factory, shared_windows=False)
    shared_map = {p.key: dict(p.results) for p in shared.partition_results}
    instance_map = {p.key: dict(p.results) for p in instances.partition_results}
    assert shared_map == instance_map


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize(
    "engine_factory", (TwoStepEngine, FlatSequenceEngine), ids=("two-step", "sharon-flat")
)
def test_streaming_matches_batch_baselines(seed, engine_factory):
    # Small windows keep the enumeration-based baselines tractable; the
    # flattened baseline supports neither negation nor COUNT(E)/SUM bodies
    # beyond its model, so the workload is restricted accordingly.
    window = Window(8.0, 2.0)
    events = make_stream(seed, 300, negative_weight=0.0)
    queries = [
        Query.build(seq("A", kleene("B")), window=window, name="bl_q1"),
        Query.build(seq("C", kleene("B")), window=window, name="bl_q2"),
    ]
    batch = run_workload(queries, events, engine_factory)
    streaming = run_streaming(queries, events, engine_factory)
    assert streaming.totals == batch.totals


# --------------------------------------------------------------------- #
# Sharded == single-process == batch
# --------------------------------------------------------------------- #
def partition_multiset(report):
    """Every emitted partition as a multiset entry.

    Partitions of *different execution units* share the ``(group, window
    index)`` key, so a dict keyed by ``p.key`` would silently drop all but
    one unit's partition per key; the Counter keeps them all.
    """
    from collections import Counter

    return Counter(
        (p.key, tuple(sorted(p.results.items()))) for p in report.partition_results
    )


def assert_sharded_matches(queries, events, factory, **sharded_kwargs):
    """Totals AND per-(group, window, unit) partition results must agree exactly."""
    batch = run_workload(queries, events, factory)
    streaming = run_streaming(queries, events, factory)
    sharded = run_sharded(queries, events, factory, **sharded_kwargs)
    assert sharded.totals == streaming.totals == batch.totals
    assert partition_multiset(sharded) == partition_multiset(streaming)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("shards", (1, 2, 4))
@pytest.mark.parametrize("routing", ("group", "unit"))
@pytest.mark.parametrize(
    "window", (TUMBLING, SLIDING, FRACTIONAL), ids=("tumbling", "sliding", "fractional")
)
def test_sharded_bit_identical_to_streaming_and_batch(seed, shards, routing, window):
    """Sharded (1/2/4 shards, both routing modes) == streaming == batch.

    GROUP BY workloads admit both routing modes: hash-on-group-key and
    by-execution-unit.  Shard executors run in-process (``workers=0``) so
    the suite exercises router + merge on every parametrization without
    paying fork startup 36 times; the multiprocess transport is covered by
    ``test_sharding.py`` and the 4-worker case below.
    """
    events = make_stream(seed, 400)
    queries = workload(window, group_by=("g",))
    factory = lambda: HamletEngine(DynamicSharingOptimizer())  # noqa: E731
    assert_sharded_matches(
        queries, events, factory, workers=0, shards=shards, routing=routing
    )


@pytest.mark.parametrize("seed", range(2))
@pytest.mark.parametrize("workers", (2, 4))
def test_sharded_multiprocess_bit_identical(seed, workers):
    """Real worker processes (batched transport) reproduce the same bits."""
    events = make_stream(seed, 400)
    queries = workload(SLIDING, group_by=("g",))
    assert_sharded_matches(
        queries,
        events,
        lambda: HamletEngine(DynamicSharingOptimizer()),  # noqa: E731
        workers=workers,
        batch_size=64,
    )


@pytest.mark.parametrize("shards", (2, 4))
def test_sharded_without_group_by_shards_by_unit(shards):
    """GROUP-BY-less workloads fall back to unit routing, same results."""
    events = make_stream(1, 400)
    queries = workload(SLIDING, group_by=())
    factory = lambda: HamletEngine(DynamicSharingOptimizer())  # noqa: E731
    assert_sharded_matches(queries, events, factory, workers=0, shards=shards)


@pytest.mark.parametrize("seed", range(2))
def test_sharded_matches_on_negation_dense_streams(seed):
    events = make_stream(seed, 300, negative_weight=2.0)
    queries = workload(SLIDING, group_by=("g",))
    assert_sharded_matches(queries, events, GretaEngine, workers=0, shards=3)


def test_sharded_recombines_decomposed_or_queries():
    window = Window(60.0)
    or_query = Query.build(
        seq("A", kleene("B")) | seq("C", kleene("D")), window=window, name="shor_q"
    )
    stream = [Event("A", 0.0), Event("B", 1.0), Event("C", 2.0), Event("D", 3.0), Event("D", 4.0)]
    batch = run_workload([or_query], stream)
    # The unit router deliberately co-locates all sub-queries of one
    # decomposition (clusters are transitive over decompositions), so the
    # requested 2 shards collapse to 1 and the shard recombines locally.
    sharded = run_sharded([or_query], stream, workers=0, shards=2)
    assert sharded.result_for("shor_q") == batch.result_for("shor_q") == 4.0


def test_sharded_recombines_decomposed_or_queries_across_group_shards():
    window = Window(60.0)
    or_query = Query.build(
        seq("A", kleene("B")) | seq("C", kleene("D")),
        group_by=("g",),
        window=window,
        name="shorg_q",
    )
    stream = [
        Event("A", 0.0, {"g": g}) for g in (1.0, 2.0, 3.0)
    ] + [
        Event("B", 1.0, {"g": g}) for g in (1.0, 2.0, 3.0)
    ] + [
        Event("C", 2.0, {"g": 1.0}),
        Event("D", 3.0, {"g": 1.0}),
        Event("D", 4.0, {"g": 2.0}),
    ]
    batch = run_workload([or_query], stream)
    streaming = run_streaming([or_query], stream)
    # Group routing spreads the groups over shards; the driver rebuilds
    # totals from the merged partitions, so it must re-run the OR
    # recombination itself — per (group, window) partition — on the
    # multi-shard merge path (a missing-branch partition must combine with
    # an explicit 0.0, not vanish).
    for shards in (2, 3):
        sharded = run_sharded([or_query], stream, workers=0, shards=shards)
        assert sharded.totals == streaming.totals == batch.totals


@pytest.mark.parametrize("lazy_open", (True, False), ids=("lazy", "eager"))
def test_streaming_recombines_decomposed_or_queries(lazy_open):
    window = Window(60.0)
    or_query = Query.build(
        seq("A", kleene("B")) | seq("C", kleene("D")), window=window, name="sor_q"
    )
    stream = [Event("A", 0.0), Event("B", 1.0), Event("C", 2.0), Event("D", 3.0), Event("D", 4.0)]
    batch = run_workload([or_query], stream)
    streaming = run_streaming([or_query], stream, lazy_open=lazy_open)
    assert streaming.result_for("sor_q") == batch.result_for("sor_q") == 4.0


DEGENERATE_GEOMETRY = pytest.mark.parametrize(
    ("window", "lateness"),
    (
        (Window(1000.0, 1000.0), None),
        (Window(1000.0, 7.0), None),
        (Window(10.0, 2.0), 1000.0),
        (Window(1e-300), None),
    ),
    ids=("tumbling-past-stream", "sliding-past-stream", "lateness-past-stream", "sub-ulp"),
)


def degenerate_case(window: Window, lateness):
    """A 50 s stream (one event per second), its workload, and the arrival
    order: shuffled when a lateness horizon is set (every row inside it)."""
    events = make_stream(5, 50)
    queries = workload(window, group_by=("g",))
    arrivals = list(events)
    if lateness is not None:
        random.Random(6).shuffle(arrivals)
    return events, queries, arrivals


def hexed(report) -> dict[str, str]:
    return {name: float(value).hex() for name, value in report.totals.items()}


@DEGENERATE_GEOMETRY
def test_degenerate_window_geometry_agrees_on_every_path(window, lateness):
    """Windows longer than the stream, a lateness horizon longer than the
    stream, and a window far below one ulp of the event times: batch,
    scalar ``process()``, ``process_block()`` and two in-process shards
    agree bit for bit.  With lateness set the streaming paths read the
    stream shuffled (every row inside the horizon); the batch replay reads
    it in order."""
    events, queries, arrivals = degenerate_case(window, lateness)
    reference = hexed(run_workload(queries, events))
    scalar = StreamingExecutor(queries, HamletEngine, allowed_lateness=lateness)
    for event in arrivals:
        scalar.process(event)
    block = StreamingExecutor(queries, HamletEngine, allowed_lateness=lateness)
    block.process_block(EventBlock.from_events(arrivals))
    sharded = run_sharded(
        queries, arrivals, HamletEngine, workers=0, shards=2, allowed_lateness=lateness
    )
    assert hexed(scalar.finish()) == reference
    assert hexed(block.finish()) == reference
    assert hexed(sharded) == reference


@DEGENERATE_GEOMETRY
def test_degenerate_window_geometry_survives_pool_workers(window, lateness):
    """The same geometry through two worker processes: every batch crosses
    the process boundary as a framed queue message and the totals still
    match the batch replay bit for bit."""
    events, queries, arrivals = degenerate_case(window, lateness)
    reference = hexed(run_workload(queries, events))
    pooled = run_sharded(
        queries, arrivals, HamletEngine, workers=2, batch_size=8, allowed_lateness=lateness
    )
    assert hexed(pooled) == reference
