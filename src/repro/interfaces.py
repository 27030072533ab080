"""Common engine interface.

Every aggregation engine (HAMLET, GRETA, the two-step MCEP-style baseline,
the SHARON-style flattened-sequence baseline, and the brute-force oracle)
implements :class:`TrendAggregationEngine`.  An engine instance evaluates a
*partition*: the sub-stream of events belonging to one group-by key and one
window instance of a set of queries.  Routing events into partitions is the
job of :mod:`repro.runtime`.

The interface is deliberately small:

* :meth:`TrendAggregationEngine.start` resets the engine for a set of queries,
* :meth:`TrendAggregationEngine.process` ingests one event,
* :meth:`TrendAggregationEngine.results` returns the final aggregate per query,
* :meth:`TrendAggregationEngine.memory_units` reports an abstract memory
  footprint (number of stored events, intermediate aggregates, snapshot
  entries, ...) used for the paper's memory figures.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Iterable, Mapping, Protocol, Sequence, runtime_checkable

from repro.events.event import Event
from repro.query.query import Query

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (runtime imports us)
    from repro.runtime.executor import ExecutionReport
    from repro.runtime.results import WindowValues

#: Result type: final aggregate value per query name.
ResultMap = Mapping[str, float]


@runtime_checkable
class StreamProcessor(Protocol):
    """The worker-facing runtime interface: feed events, then flush.

    This is the contract the sharded driver
    (:class:`~repro.runtime.sharding.ShardedStreamingExecutor`) programs
    against: a shard worker is *any* object that accepts in-order events one
    at a time and produces an
    :class:`~repro.runtime.executor.ExecutionReport` when the stream ends.
    The single-process :class:`~repro.runtime.streaming.StreamingExecutor`
    satisfies it unchanged — which is exactly what lets an unmodified
    streaming executor run as a shard worker — and the sharded driver
    satisfies it too, so drivers nest.
    """

    def process(self, event: Event) -> None:
        """Ingest one event (events arrive in non-decreasing time order)."""
        ...

    def finish(self) -> "ExecutionReport":
        """Close all remaining state and return the final report."""
        ...


class TrendAggregationEngine(abc.ABC):
    """Abstract base class of all trend aggregation engines."""

    #: Human-readable engine name used in benchmark reports.
    name: str = "engine"

    #: How this engine's work can be shared across overlapping window
    #: instances by the streaming runtime (see
    #: :mod:`repro.runtime.shared_windows`):
    #:
    #: * ``None`` — no shared-window implementation; the runtime falls back
    #:   to one engine instance per ``(group, window instance)`` partition;
    #: * ``"classes"`` — linear aggregation whose per-event work may be done
    #:   once per *query class* (queries with identical template + predicates)
    #:   and tagged with per-window coefficients (the HAMLET flavour);
    #: * ``"per-query"`` — linear aggregation evaluated independently per
    #:   query but still sharing the event graph across window instances
    #:   (the GRETA flavour; no cross-query sharing).
    shared_window_flavor: str | None = None

    @abc.abstractmethod
    def start(self, queries: Sequence[Query]) -> None:
        """Reset the engine and prepare to evaluate ``queries`` over one partition."""

    @abc.abstractmethod
    def process(self, event: Event) -> None:
        """Ingest one event of the partition (events arrive in time order)."""

    @abc.abstractmethod
    def results(self) -> dict[str, float]:
        """Return the final aggregate of every query over the ingested events."""

    @abc.abstractmethod
    def memory_units(self) -> int:
        """Approximate memory footprint in abstract units.

        Units count stored events, per-event intermediate aggregates, snapshot
        table entries and per-query bookkeeping, mirroring how the paper
        measures "peak memory" across approaches.
        """

    def close(self) -> None:
        """Release the per-partition state built since :meth:`start`.

        Called by the streaming executor when a window instance is evicted:
        the engine must drop the graph/table state of the finished partition
        (so pooled idle engines hold no window state) while *keeping* compiled
        artifacts that are pure functions of the query set (templates, sharing
        analysis), which makes restarting a pooled engine cheap.  The default
        is a no-op; engines that hold per-partition state override it.
        """

    # ------------------------------------------------------------------ #
    # Convenience
    # ------------------------------------------------------------------ #
    def evaluate(self, queries: Sequence[Query], events: Iterable[Event]) -> dict[str, float]:
        """Evaluate ``queries`` over ``events`` in one go and return the results."""
        self.start(queries)
        for event in events:
            self.process(event)
        return self.results()

    def operations(self) -> int:
        """Abstract count of work units performed since :meth:`start`.

        Engines increment an internal counter for every predecessor access,
        snapshot evaluation and aggregate update.  The benchmark harness uses
        this as a machine-independent cost signal alongside wall-clock time.
        """
        return 0


class MultiWindowEngine(abc.ABC):
    """One engine evaluating *all* overlapping window instances of a unit.

    Where a :class:`TrendAggregationEngine` instance evaluates a single
    ``(group key, window instance)`` partition, a multi-window engine holds
    the state of one ``(group key, execution unit)`` pair across **every**
    live window instance at once: :meth:`process` does the graph work of an
    event exactly once and tags the per-window aggregates with
    window-instance coefficients, and :meth:`close_window` turns a window's
    close into an O(window) coefficient readout plus eviction.

    The contract mirrors the streaming executor's driving loop:

    * events arrive in timestamp order; every call passes the inclusive
      range ``[lo, hi]`` of window-instance indices covering the event —
      which, for an in-order stream, is exactly the set of live instances;
    * :meth:`close_window` is called once per instance, in ascending index
      order, the moment the stream passes the instance's end; it returns
      the final aggregate per query as one compact row
      (:class:`~repro.runtime.results.WindowValues`: a slot per distinct
      value, which queries computing the same value share) and evicts the
      instance's coefficients;
    * :meth:`evict_to` drops stored events that fall outside every window
      instance at or after ``oldest`` (``None`` empties the store).
    """

    @abc.abstractmethod
    def process(self, event: Event, lo: int, hi: int) -> None:
        """Ingest one event covered by window instances ``lo..hi`` (inclusive)."""

    @abc.abstractmethod
    def close_window(self, index: int) -> "WindowValues":
        """Read out the final aggregates of instance ``index`` and evict it."""

    @abc.abstractmethod
    def memory_units(self) -> int:
        """Abstract footprint of the shared state (see the engine variant)."""

    def evict_to(self, oldest: int | None) -> None:
        """Drop stored events not covered by any instance ``>= oldest``."""

    def operations(self) -> int:
        """Abstract work units performed so far (monotone counter)."""
        return 0
