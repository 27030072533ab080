"""Execution metrics.

The paper reports three metrics (Section 6.1):

* **latency** — average time between a query's aggregation result output and
  the arrival of the last event contributing to it.  In the replayed batch
  setting this is approximated by the time to process a window partition and
  extract its result; the streaming executor measures it directly as the
  wall-clock span from the arrival of a window's last contributing event to
  the emission of that window's result (``PartitionResult.emission_latency``,
  aggregated here as ``average_`` / ``max_emission_latency``);
* **throughput** — average number of events processed by all queries per
  second;
* **peak memory** — the maximum amount of state held at any point in time
  (expressed here in abstract units: stored events, intermediate aggregates,
  snapshot-table entries and DP cells).
"""

from __future__ import annotations

import time
from dataclasses import dataclass


class Stopwatch:
    """A tiny wall-clock stopwatch around :func:`time.perf_counter`."""

    def __init__(self) -> None:
        self._start: float | None = None
        self.elapsed = 0.0

    def __enter__(self) -> "Stopwatch":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        assert self._start is not None
        self.elapsed = time.perf_counter() - self._start


@dataclass
class ExecutionMetrics:
    """Aggregate metrics collected over an execution run."""

    #: Total wall-clock seconds spent inside engines (feeding + results).
    #: Summed over engines, so parallel shards contribute additively — this
    #: measures *work*, not elapsed time.
    total_seconds: float = 0.0
    #: Elapsed wall-clock seconds of the whole run (stream start to final
    #: flush).  Unlike ``total_seconds`` this does not grow with the number
    #: of parallel workers; it is what end-to-end throughput divides by.
    wall_seconds: float = 0.0
    #: Number of window partitions evaluated.
    partitions: int = 0
    #: Number of events fed into engines, counted once per partition they
    #: belong to (an event in two overlapping windows counts twice).
    events_processed: int = 0
    #: Number of distinct stream events consumed.
    stream_events: int = 0
    #: Worst per-partition latency (``PartitionResult.seconds``) in seconds;
    #: their sum and count are ``total_seconds`` and ``partitions``.
    max_latency: float = 0.0
    #: True event-arrival-to-emission latencies (streaming executor): seconds
    #: between the arrival of a window's last contributing event and the
    #: emission of that window's result — ``PartitionResult.emission_latency``
    #: row by row; here their count, sum and maximum.
    emissions: int = 0
    emission_seconds: float = 0.0
    max_emission_latency: float = 0.0
    #: Maximum state held at any sampled point, in abstract units.  The batch
    #: executor samples one engine per partition; the streaming executor
    #: samples the live state summed over engines with each piece of state
    #: counted *once* — overlapping per-instance engines of the same
    #: ``(unit, group)`` pair duplicate a shared event suffix, so only the
    #: largest instance per pair enters the sample, while shared-window
    #: engines hold each event and coefficient once by construction.
    peak_memory_units: int = 0
    #: Maximum number of simultaneously open window instances (streaming
    #: executor); the batch executor leaves it at 0.
    peak_active_windows: int = 0
    #: Total abstract work units reported by engines.
    operations: int = 0
    #: Seconds the sharded driver spent *waiting* on its workers: full
    #: input queues (backpressure), liveness polls and
    #: recovery backoff.  Separates "the driver was slow" from "the driver
    #: was idle behind a slow (or dead) worker"; single-process runs leave
    #: it at 0.
    driver_wait_seconds: float = 0.0
    #: Events behind the allowed-lateness watermark discarded by the
    #: ``"drop"`` late policy.  Dropped (and side-output) events are not
    #: part of ``stream_events``: they never reached the core.
    late_dropped: int = 0
    #: Late events handed to the ``on_late`` callback (``"side_output"``).
    late_side_output: int = 0
    #: Late events folded into already-processed state by the ``"retract"``
    #: policy (snapshot restore + bounded replay).
    late_retracted: int = 0

    def record_partition(
        self, seconds: float, events: int, memory_units: int, operations: int
    ) -> None:
        """Record the evaluation of one partition."""
        self.total_seconds += seconds
        self.partitions += 1
        self.events_processed += events
        if seconds > self.max_latency:
            self.max_latency = seconds
        self.peak_memory_units = max(self.peak_memory_units, memory_units)
        self.operations += operations

    def record_emission(self, latency_seconds: float) -> None:
        """Record one window result's event-arrival-to-emission latency."""
        self.emissions += 1
        self.emission_seconds += latency_seconds
        if latency_seconds > self.max_emission_latency:
            self.max_emission_latency = latency_seconds

    def note_active_windows(self, count: int) -> None:
        """Track the peak number of simultaneously open window instances."""
        if count > self.peak_active_windows:
            self.peak_active_windows = count

    def note_memory_units(self, units: int) -> None:
        """Fold a sampled concurrent memory footprint into the peak."""
        if units > self.peak_memory_units:
            self.peak_memory_units = units

    @property
    def average_latency(self) -> float:
        """Average per-partition latency in seconds."""
        return self.total_seconds / self.partitions if self.partitions else 0.0

    @property
    def average_emission_latency(self) -> float:
        """Average arrival-to-emission latency in seconds (streaming runs)."""
        return self.emission_seconds / self.emissions if self.emissions else 0.0

    @property
    def throughput_engine(self) -> float:
        """Events processed per second of summed *engine* time.

        Engine seconds add up across parallel shard workers, so this ratio
        deliberately ignores parallelism: it measures per-event engine cost,
        not end-to-end speed.  Use :attr:`throughput_wall` for the latter.
        """
        if self.total_seconds <= 0:
            return 0.0
        return self.events_processed / self.total_seconds

    @property
    def throughput_wall(self) -> float:
        """Distinct stream events per second of elapsed run time.

        This is the end-to-end number: parallel shards shorten the wall
        clock, so — unlike :attr:`throughput_engine` — speedups from
        sharding are visible here.
        """
        if self.wall_seconds <= 0:
            return 0.0
        return self.stream_events / self.wall_seconds

    def merge(self, other: "ExecutionMetrics") -> None:
        """Fold another metrics object into this one.

        Additive counters sum, worst-case latencies take the maximum, and
        so does ``wall_seconds`` — merged metrics describe runs that happened
        *concurrently* (shards), whose elapsed time is the slowest member.
        """
        self.total_seconds += other.total_seconds
        self.wall_seconds = max(self.wall_seconds, other.wall_seconds)
        self.partitions += other.partitions
        self.events_processed += other.events_processed
        self.stream_events += other.stream_events
        self.max_latency = max(self.max_latency, other.max_latency)
        self.emissions += other.emissions
        self.emission_seconds += other.emission_seconds
        self.max_emission_latency = max(self.max_emission_latency, other.max_emission_latency)
        self.peak_memory_units = max(self.peak_memory_units, other.peak_memory_units)
        self.peak_active_windows = max(self.peak_active_windows, other.peak_active_windows)
        self.operations += other.operations
        self.driver_wait_seconds += other.driver_wait_seconds
        self.late_dropped += other.late_dropped
        self.late_side_output += other.late_side_output
        self.late_retracted += other.late_retracted


@dataclass
class RecoveryStats:
    """Checkpoint/recovery counters of one sharded run.

    Attached to :class:`~repro.runtime.executor.ExecutionReport` whenever
    checkpointing is enabled (``checkpoint_dir`` set), so "zero restarts"
    is distinguishable from "recovery was off".
    """

    #: Worker processes respawned after dying without a report.
    restarts: int = 0
    #: Batches re-shipped from the driver's replay buffer after restores.
    replayed_batches: int = 0
    #: Events contained in those replayed batches.
    replayed_events: int = 0
    #: Checkpoints durably written (acked by the async writers).
    checkpoints: int = 0
    #: Total container bytes of those checkpoints.
    checkpoint_bytes: int = 0
