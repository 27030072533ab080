"""Property-based differential suite for adaptive burst-driven sharing.

The adaptive streaming runtime (``StreamingExecutor(optimizer=...)``) makes
a per-burst sharing decision for every eligible query class and splits or
merges the multi-window engine's coefficient columns mid-stream.  Its
correctness contract is *differential*: whatever the policy decides, the
results must be **bit-identical** to both static extremes (always share /
never share), to the non-adaptive static plan, and to the batch replay
reference — including the per-window partition results, for GROUP BY,
negation (leading and trailing NOT), tumbling / sliding / fractional
windows, and 1/2/4 shards.

Hypothesis generates the workloads (query classes of 1–4 computationally
identical members mixing COUNT(*) / SUM / AVG / COUNT(E), optionally with
negation classes riding along) and the bursty streams (same-type runs of
varying length separated by varying gaps — the regime where per-burst
decisions actually flip).  Attribute values are small integers so float64
sums are exact and ``==`` is meaningful (see ``docs/DESIGN.md``).

The suite is derandomized: like every other deterministic gate in this
repo, a CI run must not be flaky — failures found here reproduce locally.
"""

from __future__ import annotations

import random
from collections import Counter

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import HamletEngine
from repro.events import Event
from repro.events.block import EventBlock
from repro.optimizer import DynamicSharingOptimizer
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
from repro.runtime import (
    ShardedStreamingExecutor,
    StreamingExecutor,
    run_sharded,
    run_streaming,
    run_workload,
)
from tests.conftest import decision_counters

SETTINGS = settings(
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)

WINDOWS = (Window(32.0), Window(32.0, 8.0), Window(16.0, 3.2))

#: Pattern catalog: the first two are computationally identical up to the
#: aggregate (one class of up to 4 members each); the negation patterns
#: exercise the slow path and the trailing-NOT readout inside classes.
PATTERNS = (
    ("pa", lambda: seq("A", kleene("B"))),
    ("pc", lambda: seq("C", kleene("B"))),
    ("pn", lambda: parse_pattern("SEQ(A, NOT X, B+)")),
    ("pt", lambda: parse_pattern("SEQ(C, B+, NOT X)")),
)

AGGREGATES = (
    ("count", lambda: None),
    ("sum", lambda: sum_of("B", "v")),
    ("avg", lambda: avg("B", "v")),
    ("events", lambda: count_events("B")),
)


@st.composite
def workloads(draw):
    """A workload of 1–4 query classes with 1–4 identical members each."""
    window = draw(st.sampled_from(WINDOWS))
    group_by = draw(st.sampled_from(((), ("g",))))
    queries = []
    for key, pattern_factory in PATTERNS:
        members = draw(st.integers(min_value=0, max_value=4))
        for position in range(members):
            name, aggregate_factory = AGGREGATES[position]
            aggregate = aggregate_factory()
            queries.append(
                Query.build(
                    pattern_factory(),
                    **({"aggregate": aggregate} if aggregate is not None else {}),
                    group_by=group_by,
                    window=window,
                    name=f"adp_{key}_{name}",
                )
            )
    if not queries:
        queries.append(
            Query.build(seq("A", kleene("B")), group_by=group_by, window=window, name="adp_only")
        )
    return queries


@st.composite
def bursty_streams(draw):
    """Same-type runs of drawn lengths with drawn inter-run gaps."""
    runs = draw(
        st.lists(
            st.tuples(
                st.sampled_from("ABCX"),
                st.integers(min_value=1, max_value=10),  # run length
                st.integers(min_value=1, max_value=6),  # gap before the run
            ),
            min_size=4,
            max_size=30,
        )
    )
    seed = draw(st.integers(min_value=0, max_value=2**16))
    rng = random.Random(seed)
    events = []
    clock = 0.0
    for type_name, length, gap in runs:
        clock += float(gap)
        for _ in range(length):
            events.append(
                Event(
                    type_name,
                    clock,
                    {"v": float(rng.randint(0, 6)), "g": float(rng.randint(1, 2))},
                )
            )
            clock += 1.0
    return events


def partition_multiset(report) -> Counter:
    """Every emitted partition (units of one key kept apart via Counter)."""
    return Counter(
        (p.key, tuple(sorted(p.results.items()))) for p in report.partition_results
    )


def engine_factory():
    return HamletEngine(DynamicSharingOptimizer())


@SETTINGS
@given(queries=workloads(), events=bursty_streams())
def test_adaptive_matches_static_extremes_and_batch(queries, events):
    """adaptive == always-share == never-share == static plan == batch."""
    batch = run_workload(queries, events, engine_factory)
    reference = run_streaming(queries, events, engine_factory)
    assert reference.totals == batch.totals
    reference_partitions = partition_multiset(reference)
    for policy in ("dynamic", "always", "never", "static"):
        report = run_streaming(queries, events, engine_factory, optimizer=policy)
        assert report.totals == batch.totals, policy
        assert partition_multiset(report) == reference_partitions, policy
        # Adaptive runs always carry decision statistics (possibly empty).
        assert report.optimizer_statistics is not None


@SETTINGS
@given(queries=workloads(), events=bursty_streams())
def test_adaptive_on_per_instance_fallback_is_inert(queries, events):
    """``shared_windows=False`` has no burst path; policies change nothing."""
    reference = run_streaming(queries, events, engine_factory, shared_windows=False)
    for policy in ("dynamic", "never"):
        report = run_streaming(
            queries, events, engine_factory, shared_windows=False, optimizer=policy
        )
        assert report.totals == reference.totals
        assert partition_multiset(report) == partition_multiset(reference)


@SETTINGS
@given(
    queries=workloads(),
    events=bursty_streams(),
    shards=st.sampled_from((1, 2, 4)),
    policy=st.sampled_from(("dynamic", "never")),
)
def test_sharded_adaptive_bit_identical_and_decision_invariant(
    queries, events, shards, policy
):
    """1/2/4 shards reproduce the single-process bits *and* decisions.

    Bursts are segmented per ``(group, unit)`` stream and every such stream
    lives wholly inside one shard, so the merged decision counts must be
    identical whatever the shard count — not just the results.
    """
    single = run_streaming(queries, events, engine_factory, optimizer=policy)
    sharded = run_sharded(
        queries, events, engine_factory, workers=0, shards=shards, optimizer=policy
    )
    assert sharded.totals == single.totals
    assert partition_multiset(sharded) == partition_multiset(single)
    assert decision_counters(sharded) == decision_counters(single)


@SETTINGS
@given(
    queries=workloads(),
    events=bursty_streams(),
    policy=st.sampled_from(("dynamic", "always", "never", "static")),
    rows=st.sampled_from((1, 3, 8, 64)),
    lateness=st.sampled_from((None, 4.0)),
    shards=st.sampled_from((None, 1, 2)),
)
def test_block_fed_adaptive_reproduces_the_per_event_run(
    queries, events, policy, rows, lateness, shards
):
    """Blocks of any size: the per-event bits, operations *and* decisions.

    A group's pending burst survives the block boundary, so block cuts never
    segment a burst: the decision counters equal the per-event run's — with
    a reorder buffer in front, and sharded (each shard ingests sub-blocks).
    """
    options = dict(optimizer=policy, allowed_lateness=lateness)
    per_event = run_streaming(queries, events, engine_factory, **options)
    if shards is None:
        executor = StreamingExecutor(queries, engine_factory, **options)
    else:
        executor = ShardedStreamingExecutor(
            queries, engine_factory, workers=0, shards=shards, **options
        )
    block = EventBlock.from_events(events)
    for start in range(0, len(block), rows):
        executor.process_block(block.slice(start, min(start + rows, len(block))))
    report = executor.finish()
    assert report.totals == per_event.totals
    assert partition_multiset(report) == partition_multiset(per_event)
    assert report.metrics.operations == per_event.metrics.operations
    assert decision_counters(report) == decision_counters(per_event)


@settings(deadline=None, derandomize=True, max_examples=25)
@given(events=bursty_streams(), workers=st.sampled_from((1, 2)))
def test_multiprocess_adaptive_bit_identical(events, workers):
    """Real worker processes reproduce the adaptive bits (fixed workload)."""
    window = Window(32.0, 8.0)
    queries = [
        Query.build(seq("A", kleene("B")), group_by=("g",), window=window, name="mp_count"),
        Query.build(
            seq("A", kleene("B")),
            aggregate=sum_of("B", "v"),
            group_by=("g",),
            window=window,
            name="mp_sum",
        ),
    ]
    single = run_streaming(queries, events, engine_factory, optimizer="dynamic")
    sharded = run_sharded(
        queries,
        events,
        engine_factory,
        workers=workers,
        batch_size=32,
        optimizer="dynamic",
    )
    assert sharded.totals == single.totals
    assert partition_multiset(sharded) == partition_multiset(single)
    # Workers ingest framed sub-blocks through ``process_block``.
    assert decision_counters(sharded) == decision_counters(single)
