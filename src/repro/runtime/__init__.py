"""Runtime: stream partitioning, execution and metrics.

Two executors evaluate a workload over a stream:

* :class:`~repro.runtime.executor.WorkloadExecutor` — the batch/replay
  reference path: materializes the stream, partitions it per group and
  window instance, replays each partition through an engine;
* :class:`~repro.runtime.streaming.StreamingExecutor` — the single-pass
  online path: consumes events in timestamp order exactly once, emits each
  :class:`~repro.runtime.results.WindowResult` — the one row type of every
  sink: callback, report, recombination and sharded merge — the moment its
  window closes and evicts the closed state, so peak memory is bounded by the
  *live* state.  By default overlapping window instances share one
  :class:`~repro.runtime.shared_windows.MultiWindowLinearEngine` per
  ``(group, unit)`` pair (events processed once, per-window-instance
  coefficients); ``shared_windows=False`` falls back to one engine per
  instance — the semantics reference.

Both analyse the workload the same way (Definitions 4–5), drive the same
engines and produce the same totals — property-tested bit-identically.

On top of the streaming runtime,
:class:`~repro.runtime.sharding.ShardedStreamingExecutor` shards the stream
across worker processes (hash-routed by group key, or by execution unit for
GROUP-BY-less workloads) and merges the per-shard reports
deterministically — same totals again, for any worker count.  With a
``checkpoint_dir`` the sharded runtime becomes fault-tolerant: workers
snapshot their executors at window boundaries into versioned, checksummed
checkpoints (:mod:`repro.runtime.checkpoint`) and the driver supervises —
a worker that dies mid-stream is respawned with capped backoff, restored
from its last good checkpoint and fed the post-checkpoint tail from a
bounded replay buffer, with the merged report bit-identical to an
uninterrupted run.

Streams need not arrive perfectly ordered: with ``allowed_lateness`` set,
a watermark-driven :class:`~repro.runtime.reorder.ReorderBuffer` in front
of each executor (one per shard in the sharded runtime) buffers and
re-sorts events within the lateness horizon — results are bit-identical
to the fully ordered run — while events later than the horizon hit a
configurable policy: ``raise`` (default), ``drop``, ``side_output`` or
``retract`` (fold into already-emitted windows via snapshot rollback).
"""

from repro.runtime.checkpoint import AsyncCheckpointWriter, Checkpoint, CheckpointStore
from repro.runtime.executor import (
    ExecutionReport,
    WorkloadExecutor,
    run_workload,
)
from repro.runtime.metrics import ExecutionMetrics, RecoveryStats, Stopwatch
from repro.runtime.partitioner import GroupWindowPartitioner, PartitionKey, group_sort_key
from repro.runtime.reorder import LATE_POLICIES, ReorderBuffer
from repro.runtime.results import ResultLayout, WindowResult, WindowValues
from repro.runtime.routing import ShardRouter, stable_shard_hash
from repro.runtime.shared_windows import MultiWindowLinearEngine, UnitCompilation
from repro.runtime.sharding import ShardReport, ShardedStreamingExecutor, run_sharded
from repro.runtime.streaming import StreamingExecutor, run_streaming

__all__ = [
    "AsyncCheckpointWriter",
    "Checkpoint",
    "CheckpointStore",
    "ExecutionMetrics",
    "ExecutionReport",
    "GroupWindowPartitioner",
    "LATE_POLICIES",
    "MultiWindowLinearEngine",
    "PartitionKey",
    "RecoveryStats",
    "ReorderBuffer",
    "ResultLayout",
    "ShardReport",
    "ShardRouter",
    "ShardedStreamingExecutor",
    "UnitCompilation",
    "Stopwatch",
    "StreamingExecutor",
    "WindowResult",
    "WindowValues",
    "WorkloadExecutor",
    "group_sort_key",
    "run_sharded",
    "run_streaming",
    "run_workload",
    "stable_shard_hash",
]
