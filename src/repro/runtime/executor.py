"""The multi-query workload executor (batch/replay reference path).

The executor glues the pieces of Figure 2 together:

1. the *static* workload analysis groups queries into sets of sharable
   queries and builds their merged templates (compile time);
2. the stream is partitioned by grouping attributes and window instances;
3. every partition is evaluated by an aggregation engine (HAMLET by default;
   any :class:`~repro.interfaces.TrendAggregationEngine` can be plugged in,
   which is how the benchmark harness runs GRETA, the two-step baseline and
   the SHARON-style baseline over identical inputs);
4. latency / throughput / memory metrics are collected per partition;
5. results of decomposed OR/AND queries are recombined (Section 5).

MIN/MAX queries are routed to a GRETA engine instance even when the workload
is otherwise executed by HAMLET, because extremum propagation is not linear
and therefore cannot ride on shared snapshot expressions (see
``docs/DESIGN.md``).

Each execution unit sees only the events whose type its queries reference
(positively or under NOT): the stream is filtered once per unit before
partitioning, so partitions never store or replay events an engine would
ignore anyway.

This module also hosts the unit-splitting, engine-selection and
OR/AND-recombination logic shared with the single-pass
:class:`~repro.runtime.streaming.StreamingExecutor`: the two executors differ
in *when* events reach the engines (materialized replay vs incremental
feeding), not in what is evaluated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence

from repro.core.engine import HamletEngine
from repro.errors import ExecutionError
from repro.events.event import Event, EventType
from repro.events.stream import EventStream
from repro.greta.engine import GretaEngine
from repro.interfaces import TrendAggregationEngine
from repro.query.query import Query
from repro.query.workload import Workload
from repro.runtime.metrics import ExecutionMetrics, Stopwatch
from repro.runtime.partitioner import GroupWindowPartitioner, PartitionKey
from repro.runtime.results import RunningTotals, WindowResult, window_row
from repro.template.analysis import WorkloadAnalysis, analyze_workload
from repro.template.decompose import DecomposedQuery

#: Factory producing a fresh (or reusable) engine for a set of queries.
EngineFactory = Callable[[], TrendAggregationEngine]


@dataclass
class ExecutionReport:
    """Everything a benchmark needs from one workload execution."""

    metrics: ExecutionMetrics = field(default_factory=ExecutionMetrics)
    #: One row per closed window, in emission order — when the report is
    #: the rows' sink.  A streaming run with an ``on_window`` callback hands
    #: each row to the callback instead and keeps none here.
    partition_results: list[WindowResult] = field(default_factory=list)
    #: Final aggregate per query, summed over groups and windows (counts/sums)
    #: — a convenient scalar for correctness checks across engines.
    totals: dict[str, float] = field(default_factory=dict)
    #: Optimizer statistics when the run used HAMLET with a sharing optimizer.
    optimizer_statistics: Optional[object] = None
    engine_name: str = ""
    #: Per-shard sub-reports when the run went through the sharded driver
    #: (:class:`~repro.runtime.sharding.ShardedStreamingExecutor`): one
    #: :class:`~repro.runtime.sharding.ShardReport` per shard, in shard
    #: order.  Empty for single-process runs.
    shards: list = field(default_factory=list)
    #: Checkpoint/restart counters
    #: (:class:`~repro.runtime.metrics.RecoveryStats`) when the sharded
    #: driver ran with checkpointing enabled; None otherwise.
    recovery: Optional[object] = None
    #: The decomposed OR/AND queries recombined into ``totals`` (Section 5).
    decompositions: Mapping[str, DecomposedQuery] = field(default_factory=dict)

    def result_for(self, query: Query | str) -> float:
        """Total result of one query across all groups and windows."""
        name = query if isinstance(query, str) else query.name
        return self.totals.get(name, 0.0)

    def results_by_partition(self, query: Query | str) -> dict[PartitionKey, float]:
        """Per-partition results of one query, keyed by ``(group, window index)``:
        the partitions whose rows hold it — recombined from its sub-queries'
        rows for a decomposed OR/AND query.  Raises
        :class:`~repro.errors.ExecutionError` when windows closed but their
        rows went to an ``on_window`` callback instead of this report."""
        if self.metrics.partitions and not self.partition_results:
            raise ExecutionError(
                f"{self.metrics.partitions} windows closed but the report kept no rows: "
                "they went to the on_window callback"
            )
        name = query if isinstance(query, str) else query.name
        decomposition = self.decompositions.get(name)
        if decomposition is not None:
            return recombined_partitions(decomposition, self.partition_results)
        return {
            (row.group_key, row.window_index): row.results[name]
            for row in self.partition_results
            if name in row.results
        }


# ---------------------------------------------------------------------- #
# Logic shared between the batch and streaming executors
# ---------------------------------------------------------------------- #
def execution_units(queries: Sequence[Query]) -> Iterator[tuple[Query, ...]]:
    """Split a sharable group into units sharing one engine partition set.

    Queries must agree on the window spec to share a partition set; MIN /
    MAX queries form their own units (they run on GRETA).
    """
    units: dict[tuple, list[Query]] = {}
    for query in queries:
        linear = query.aggregate.kind.is_linear
        key = (query.window.size, query.window.slide, linear)
        units.setdefault(key, []).append(query)
    # Numeric key order (size, slide, linear) — a repr-keyed sort would
    # order 10.0 before 2.0 lexicographically.
    for (_, _, linear), unit_queries in sorted(units.items(), key=lambda item: item[0]):
        if linear:
            yield tuple(unit_queries)
        else:
            # Extremum queries are evaluated per query on GRETA.
            for query in unit_queries:
                yield (query,)


def unit_relevant_types(queries: Sequence[Query]) -> set[EventType]:
    """Event types the unit's queries reference, positively or under NOT."""
    types: set[EventType] = set()
    for query in queries:
        types |= query.event_types()
    return types


def unit_is_linear(queries: Sequence[Query]) -> bool:
    """True if every query of the unit computes a linear aggregate."""
    return all(query.aggregate.kind.is_linear for query in queries)


def recombined_partitions(
    decomposition: DecomposedQuery, rows: Sequence[WindowResult]
) -> dict[PartitionKey, float]:
    """The value of one decomposed OR/AND query per partition (Section 5).

    Type-disjoint sub-queries land in *different* execution units, so the two
    halves of one window instance arrive as separate rows that share the
    ``(group, window index)`` key.  Every key's bucket is
    initialized with an explicit 0.0 for each sub-query before the observed
    results are merged in: a sub-query with no matches in a window (e.g. a
    stream matching only one OR branch) must enter ``combine`` as exactly
    0.0, never be silently dropped — for AND queries a dropped operand would
    silently turn a product into a partial result.
    """
    sub_names = tuple(sub.name for sub in decomposition.sub_queries)
    per_partition: dict[PartitionKey, dict[str, float]] = {}
    for row in rows:
        present = {name: row.results[name] for name in sub_names if name in row.results}
        if not present:
            continue
        bucket = per_partition.setdefault(
            (row.group_key, row.window_index), {name: 0.0 for name in sub_names}
        )
        bucket.update(present)
    return {key: decomposition.combine(bucket) for key, bucket in per_partition.items()}


def recombine_decompositions(
    decompositions: Mapping[str, DecomposedQuery],
    report: ExecutionReport,
    totals: Optional[RunningTotals] = None,
) -> None:
    """Total each decomposed OR/AND query of ``report``: the sums ``totals``
    folded as its rows were emitted, else folded here over the report's
    rows — per query, one ``combine`` per partition in first-seen order."""
    report.decompositions = decompositions
    if totals is None:
        totals = RunningTotals()
        for name, decomposition in decompositions.items():
            for value in recombined_partitions(decomposition, report.partition_results).values():
                totals.add_recombined(name, value)
    for name in decompositions:
        report.totals[name] = totals.recombined.get(name, 0.0)


def resolve_engine_label(engine_factory: EngineFactory) -> tuple[str, Optional[TrendAggregationEngine]]:
    """Resolve the display name of an engine factory.

    Engine classes expose ``name`` as a class attribute, so the common case
    needs no instantiation.  For opaque factories (lambdas) one engine is
    built; it is returned alongside the name so callers can keep it instead
    of discarding it.
    """
    name = getattr(engine_factory, "name", None)
    if isinstance(name, str):
        return name, None
    try:
        engine = engine_factory()
    except Exception:  # pragma: no cover - defensive
        return "engine", None
    return getattr(engine, "name", "engine"), engine


class WorkloadExecutor:
    """Evaluates a workload of trend aggregation queries over a stream."""

    def __init__(
        self,
        workload: Workload | Sequence[Query],
        engine_factory: EngineFactory = HamletEngine,
    ) -> None:
        """Create an executor.

        Args:
            workload: The queries to evaluate.
            engine_factory: Zero-argument callable returning the engine used
                for linear-aggregate query groups (default: HAMLET).  One
                engine serves every partition (``start()`` resets it), so
                its optimizer's statistics cover the whole run.
        """
        self.workload = workload if isinstance(workload, Workload) else Workload(workload)
        self.workload.validate()
        self.engine_factory = engine_factory
        self.analysis: WorkloadAnalysis = analyze_workload(self.workload)
        self._engine_label, self._shared_engine = resolve_engine_label(engine_factory)

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def run(self, stream: EventStream | Iterable[Event]) -> ExecutionReport:
        """Evaluate the workload over ``stream`` and return the report."""
        indexed: Optional[EventStream] = stream if isinstance(stream, EventStream) else None
        events = stream if isinstance(stream, list) else list(stream)
        report = ExecutionReport(engine_name=self._engine_label)
        report.metrics.stream_events = len(events)

        with Stopwatch() as run_watch:
            for group in self.analysis.groups:
                for queries in execution_units(group.queries):
                    self._run_unit(queries, events, report, indexed)

            recombine_decompositions(self.analysis.decompositions, report)
        report.metrics.wall_seconds = run_watch.elapsed
        self._attach_optimizer_statistics(report)
        return report

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _engine_for(self, queries: Sequence[Query]) -> TrendAggregationEngine:
        if not unit_is_linear(queries):
            return GretaEngine()
        if self._shared_engine is None:
            self._shared_engine = self.engine_factory()
        return self._shared_engine

    def _run_unit(
        self,
        queries: tuple[Query, ...],
        events: list[Event],
        report: ExecutionReport,
        indexed: Optional[EventStream] = None,
    ) -> None:
        # Filter the stream to the unit's relevant types before partitioning:
        # engines ignore other types anyway, and partitions of overlapping
        # windows would otherwise store and replay every irrelevant event.
        # A recorded EventStream answers the selection from its per-type
        # index instead of a full scan per execution unit.
        relevant = unit_relevant_types(queries)
        if indexed is not None:
            unit_events = indexed.of_types(relevant)
        else:
            unit_events = [event for event in events if event.event_type in relevant]
        partitioner = GroupWindowPartitioner.for_queries(queries)
        partitioner.add_all(unit_events)
        window = partitioner.spec.window
        engine = self._engine_for(queries)
        if events:
            # A unit whose types never occur in a non-empty stream produces
            # no partitions; keep the explicit zero entries consumers of
            # report.totals rely on (an empty stream yields no entries).
            for query in queries:
                report.totals.setdefault(query.name, 0.0)
        for key, partition_events in partitioner.partitions():
            group_key, window_index = key
            with Stopwatch() as watch:
                engine.start(queries)
                for event in partition_events:
                    engine.process(event)
                results = engine.results()
            report.metrics.record_partition(
                seconds=watch.elapsed,
                events=len(partition_events),
                memory_units=engine.memory_units(),
                operations=engine.operations(),
            )
            window_start, window_end = window.instance_bounds(window_index)
            report.partition_results.append(
                window_row(
                    group_key, window_index, window_start, window_end, dict(results),
                    len(partition_events), 0.0,
                )
            )
            for name, value in results.items():
                report.totals[name] = report.totals.get(name, 0.0) + value

    def _attach_optimizer_statistics(self, report: ExecutionReport) -> None:
        engine = self._shared_engine
        if engine is not None and hasattr(engine, "optimizer"):
            report.optimizer_statistics = engine.optimizer.statistics


def run_workload(
    workload: Workload | Sequence[Query],
    stream: EventStream | Iterable[Event],
    engine_factory: EngineFactory = HamletEngine,
) -> ExecutionReport:
    """One-shot convenience wrapper around :class:`WorkloadExecutor`."""
    return WorkloadExecutor(workload, engine_factory).run(stream)
