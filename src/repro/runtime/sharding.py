"""Sharded streaming execution: one executor per shard behind one router.

HAMLET partitions the stream by grouping attributes before anything else
(Section 3.1), and ``(group key, window instance)`` partitions are
independent by construction.  The single-process
:class:`~repro.runtime.streaming.StreamingExecutor` nevertheless evaluates
every partition on one core.  This module turns the partition independence
into parallelism:

* a :class:`~repro.runtime.routing.ShardRouter` (re-exported here) maps
  every event to the shard(s) that must see it, keeping every ``(group,
  window instance)`` partition wholly inside one shard, so the per-shard
  engines work unchanged and no cross-shard coordination is ever needed;
* a :class:`ShardedStreamingExecutor` drives one
  :class:`~repro.runtime.streaming.StreamingExecutor` per shard — unmodified;
  anything satisfying :class:`~repro.interfaces.StreamProcessor` would do —
  either in-process (``workers=0``, the testable-without-fork mode) or in a
  ``multiprocessing`` pool.  **A shard is one object**
  (:class:`_LocalShard`, :class:`_WorkerShard`) holding everything the
  driver knows about it, and every driver method takes the shard.  Events
  cross process boundaries as framed columnar
  :class:`~repro.events.block.EventBlock` bytes, one queue message per
  batch; the per-shard input queues are bounded (:data:`MAX_INFLIGHT`
  batches) so a slow shard back-pressures the router instead of
  buffering the stream, and the per-shard reports are merged
  **deterministically**: partition results are ordered by ``(window end,
  execution unit, group key)`` using the same
  :func:`~repro.runtime.partitioner.group_sort_key` total order as the
  single-process paths, metrics fold through
  :meth:`~repro.runtime.metrics.ExecutionMetrics.merge`, and the totals
  fold from the merged rows — identical whatever the shard count.

Everything a worker tells the driver travels on **one private pipe per
worker incarnation** whose only write end the worker holds: checkpoint
acks, then its report or its traceback (re-raised in the driver as
:class:`~repro.errors.ExecutionError`).  A worker that dies — crash,
``os._exit``, SIGKILL, halfway through a message or not — is an
end-of-file on that pipe, so the driver never waits on a message nobody
will finish.
"""

from __future__ import annotations

import multiprocessing
import os
import random
import signal
import time
import traceback
from collections import deque
from dataclasses import dataclass
from multiprocessing.connection import wait as wait_for_pipes
from queue import Full
from typing import Any, Callable, Iterable, Mapping, Optional, Sequence

from repro.core.engine import HamletEngine
from repro.errors import ExecutionError, OutOfOrderError, WorkerCrashError
from repro.events.block import EventBlock
from repro.events.event import Event
from repro.events.stream import EventStream
from repro.optimizer.decisions import OptimizerStatistics
from repro.optimizer.registry import OptimizerSpec
from repro.query.query import Query
from repro.query.workload import Workload
from repro.runtime.executor import (
    EngineFactory,
    ExecutionReport,
    execution_units,
    recombine_decompositions,
)
from repro.runtime.checkpoint import AsyncCheckpointWriter, CheckpointStore
from repro.runtime.faultpoints import resolve_fault_hook, tear_message
from repro.runtime.metrics import RecoveryStats
from repro.runtime.partitioner import group_sort_key
from repro.runtime.reorder import ensure_in_order, validate_stream_options
from repro.runtime.results import RunningTotals, WindowResult
from repro.runtime.routing import ShardRouter, stable_shard_hash
from repro.runtime.streaming import StreamingExecutor

__all__ = [
    "ShardReport",
    "ShardRouter",
    "ShardedStreamingExecutor",
    "run_sharded",
    "stable_shard_hash",
]

#: Jittered-exponential-backoff geometry of the driver's liveness-polling
#: waits (full queue, stalled round-robin): start microscopic so a healthy
#: worker costs almost nothing, double to a cap low enough that worker
#: death is noticed promptly.
_BACKOFF_BASE_SECONDS = 0.001
_BACKOFF_CAP_SECONDS = 0.25
#: Capped exponential backoff between respawns of one shard (recovery):
#: a worker dying instantly in a loop must not busy-respawn.
_RESTART_BACKOFF_BASE_SECONDS = 0.05
_RESTART_BACKOFF_CAP_SECONDS = 2.0
#: Per-shard restart backoff stops doubling past this exponent.
_RESTART_BACKOFF_MAX_EXPONENT = 6
#: The routes of every event when there is nothing to route between: a
#: single in-process shard is fed the stream as it comes (its own per-type
#: dispatch drops irrelevant events as fast as the router would).
_UNROUTED = (0,)
#: Undelivered batches per shard queue: a full queue back-pressures
#: :meth:`ShardedStreamingExecutor.process` instead of buffering the stream.
MAX_INFLIGHT = 8
#: Per-shard replay buffer bound, in batches.  A shard whose checkpoint acks
#: lag this far behind back-pressures ``process`` — the buffer is what makes
#: recovery lossless, so it is never silently dropped from — and workers
#: checkpoint every ``REPLAY_LIMIT // 2`` batches regardless of window
#: closes, keeping the replayed tail short through window droughts.
REPLAY_LIMIT = 64


class _Backoff:
    """Jittered exponential backoff for the driver's liveness-poll waits.

    Replaces the old fixed-interval sleep loops: waits start at ``base``
    (a healthy worker unblocks in microseconds, so the first re-check must
    be nearly free), double up to ``cap``, and are jittered by a *seeded*
    RNG (reprolint RL006: no global-RNG draws on runtime paths) so
    N shards backing off together do not re-poll in lockstep.  ``sleep``
    returns the seconds actually slept — callers accumulate them into
    :attr:`ExecutionMetrics.driver_wait_seconds`.
    """

    __slots__ = ("_rng", "_base", "_cap", "_delay")

    def __init__(
        self,
        rng: random.Random,
        *,
        base: float = _BACKOFF_BASE_SECONDS,
        cap: float = _BACKOFF_CAP_SECONDS,
    ) -> None:
        self._rng = rng
        self._base = base
        self._cap = cap
        self._delay = base

    def sleep(self) -> float:
        delay = self._delay * (0.5 + self._rng.random())
        time.sleep(delay)
        self._delay = min(self._cap, self._delay * 2.0)
        return delay

    def reset(self) -> None:
        self._delay = self._base


class _WorkerRecovered(Exception):
    """Internal control-flow signal: a dead shard worker was respawned.

    Raised by the liveness check after a successful recovery (respawn +
    checkpoint restore + tail replay) so the interrupted driver operation
    unwinds: whatever batch it was trying to deliver is already in the
    replay buffer and has been re-shipped to the new incarnation.  Never
    escapes the driver.
    """


class _Shard:
    """What the driver books for a shard in either mode."""

    #: With checkpointing on: the shard's checkpoint files.
    store: CheckpointStore

    def __init__(self, shard_id: int) -> None:
        self.shard_id = shard_id
        #: Distinct stream events the router sent here so far this run.
        self.events = 0
        #: Max event time routed here (drives the merged watermark; the
        #: shard's own reorder buffer tracks the same max).
        self.max_time = float("-inf")
        #: Batches shipped across the process boundary (0 in-process).
        self.batches = 0

    def retire(self, *, terminate: bool = True) -> None:
        """Release what the shard holds outside the driver: nothing, here."""


class _LocalShard(_Shard):
    """An in-process shard (``workers=0``)."""

    #: Built when the run's first event arrives (``_start_shards``).
    executor: StreamingExecutor
    #: The executor's windows-closed count at its last checkpoint.
    marked = 0


class _WorkerShard(_Shard):
    """A shard evaluated by a worker process.

    The *channels* belong to one worker incarnation: :meth:`retire` closes
    them and a respawn opens fresh ones, so nothing a dead incarnation
    wrote can be read once it is replaced.  The *books* outlive it: a
    respawn continues the batch numbering from the same replay buffer.
    """

    def __init__(self, shard_id: int) -> None:
        super().__init__(shard_id)
        self.process = None
        #: Bounded driver -> worker queue of batch messages.
        self.in_queue = None
        #: Read end of the incarnation's private worker -> driver pipe; the
        #: worker holds the only write end, so its death is an EOF here.
        self.pipe = None
        #: Last driver-assigned batch sequence number.  Global across
        #: incarnations, so checkpoint seq tags stay monotonic.
        self.seq = 0
        #: Worker incarnation — equally the shard's respawn count, which
        #: drives its restart backoff.
        self.epoch = 0
        #: ``(seq, frame bytes, events)`` of every batch shipped but not yet
        #: covered by an acked checkpoint.
        self.replay: deque = deque()
        #: End of stream: the sentinel is due, so a respawn from here on
        #: ends its replay with it.
        self.ended = False
        #: Events of scalar ``process()`` calls awaiting the next batch.
        self.buffer: list[Event] = []
        #: The worker's final report, once it has arrived.
        self.report: Optional[ExecutionReport] = None

    def retire(self, *, terminate: bool = True) -> None:
        """Reap the worker and close its channels (idempotent)."""
        if self.process is not None:
            if terminate and self.process.is_alive():
                self.process.terminate()
            self.process.join(timeout=1.0)
        if self.in_queue is not None:
            self.in_queue.close()
            self.in_queue.cancel_join_thread()
        if self.pipe is not None:
            self.pipe.close()
        self.process = self.in_queue = self.pipe = None


@dataclass
class ShardReport:
    """One shard's contribution to a sharded run."""

    shard_id: int
    #: Distinct stream events the router sent to this shard.  The single
    #: in-process shard (``workers=0``, one shard) is fed the stream
    #: unfiltered — the shard's own per-type dispatch does the dropping —
    #: so there this counts every consumed event, not just relevant ones.
    events: int
    #: Event batches shipped across the process boundary (0 in-process).
    batches: int
    #: The shard worker's own :class:`ExecutionReport`.
    report: ExecutionReport


def _shard_worker_main(
    shard_id: int,
    queries: tuple[Query, ...],
    engine_factory: EngineFactory,
    options: Mapping[str, Any],
    in_queue,
    up,
    recovery: Optional[tuple[str, int, int, int, bool]] = None,
) -> None:
    """Entry point of one shard worker process.

    Drives an unmodified :class:`StreamingExecutor` (built from
    ``options``, the one mapping the driver forwards to every shard) over
    the batches the router ships until the ``None`` sentinel arrives, then
    returns the shard's report.  The adaptive-sharing policy crosses the
    process boundary as its name (or ``None``); each shard resolves
    its own optimizer instances, whose decision counts are shard-placement
    invariant because bursts are segmented per ``(group, unit)`` stream and
    every such stream lives wholly inside one shard.

    Every queue item ``(seq, payload)`` carries one framed columnar
    batch.  The driver-assigned ``seq`` tags identify batches across
    worker incarnations (checkpoint bookkeeping and post-restore replay).

    ``recovery`` enables checkpointing: ``(checkpoint dir, window
    interval, batch cadence, epoch, resume)``.  The worker snapshots its
    executor after a batch whenever ``interval`` windows closed since the
    last snapshot — or, as a replay-buffer bound, every ``cadence``
    batches — and a background writer lands each snapshot atomically.
    With ``resume`` the worker restores the shard's last good checkpoint
    before consuming anything.

    ``up`` is the only write end of this incarnation's private pipe to the
    driver.  It carries the writer's ``(epoch, seq, nbytes)`` ack of each
    durable checkpoint and then — only after that thread has stopped, so
    the two never interleave — one last message: ``("ok", report)``, or
    ``("error", traceback)`` for any failure (the driver re-raises it)
    rather than dying silently.
    """
    writer: Optional[AsyncCheckpointWriter] = None
    epoch = recovery[3] if recovery is not None else 0
    try:
        fault = resolve_fault_hook(shard_id, epoch)
        executor = StreamingExecutor(list(queries), engine_factory, **options)
        interval = cadence = 0
        if recovery is not None:
            directory, interval, cadence, _, resume = recovery
            store = CheckpointStore(directory, shard_id)
            store.fault = fault  # post-log-pre-snapshot, on the writer thread
            if resume:
                latest = store.latest()
                if latest is not None:
                    executor.restore_state(latest.payload, latest.output)
            writer = AsyncCheckpointWriter(store, up)
        windows_marked = executor.windows_closed
        batches_since = 0
        while True:
            message = in_queue.get()
            if message is None:
                break
            seq, payload = message
            block = EventBlock.from_bytes(payload)
            if fault is not None:
                fault("mid-batch-decode")
                fault("pre-fold")
            executor.process_block(block)
            if writer is not None:
                batches_since += 1
                if (
                    executor.windows_closed - windows_marked >= interval
                    or batches_since >= cadence
                ):
                    # Snapshot synchronously (the state must hold still),
                    # write + fsync on the background thread.
                    writer.submit(epoch, seq, *executor.snapshot_state(windows_marked))
                    windows_marked = executor.windows_closed
                    batches_since = 0
            if fault is not None:
                fault("post-close-pre-ack")
        if writer is not None:
            # Drain pending checkpoint writes (and surface any write
            # failure as this worker's error) before reporting.
            writer.close()
            writer = None
        if fault is not None:
            fault("pre-report")
        last = ("ok", executor.finish())
        if fault is not None:
            fault("mid-report", lambda: tear_message(up, last))
        up.send(last)
    except BaseException:
        if writer is not None:
            # Stop the writer first: its ack must not cut into the traceback.
            writer.abort()
            writer = None
        up.send(("error", traceback.format_exc()))


class ShardedStreamingExecutor:
    """Multi-process (or in-process) sharded single-pass execution.

    The driver satisfies :class:`~repro.interfaces.StreamProcessor` itself
    (``process`` / ``finish``), so it is a drop-in replacement for a
    :class:`StreamingExecutor` wherever one is fed incrementally.

    Args:
        workload: The queries to evaluate.
        engine_factory: Engine factory for linear units (default HAMLET).
            With ``workers > 0`` it crosses a process boundary: under the
            ``fork`` start method (Linux) any callable works; under
            ``spawn`` it must be picklable.
        workers: Shard worker *processes*.  ``0`` runs every shard executor
            inside the driver process — same router, same merge, no fork
            semantics — which is also the mode that keeps ``on_window``
            callbacks possible.  ``workers >= 1`` spawns one process per
            shard.
        shards: Router fan-out for ``workers=0`` (defaults to 1).  With
            ``workers > 0`` the shard count *is* the worker count.  The
            router picks its mode (:attr:`routing_mode`) from the workload.
        batch_size: Events per batch :meth:`process` ships to a worker.
        shared_windows: Forwarded to every shard's
            :class:`StreamingExecutor`.
        optimizer: Adaptive per-burst sharing policy name (or ``None``;
            else :class:`~repro.errors.SharingError`), forwarded to every
            shard's :class:`StreamingExecutor`.  Each shard resolves its own
            optimizer instances; the driver merges the per-shard
            :class:`~repro.optimizer.decisions.OptimizerStatistics` in shard
            order; the merged decision counts are shard-count invariant (each
            ``(group, unit)`` stream, whose bursts they count, is in one shard).
        on_window: Per-window callback; only available with ``workers=0``
            (results cross process boundaries only at :meth:`finish`).
        allowed_lateness / late_policy: Bounded out-of-order tolerance,
            forwarded to every shard's :class:`StreamingExecutor` — each
            shard runs its own watermark-driven reorder buffer over the
            rows routed to it.  With lateness set the driver stops
            enforcing arrival order itself (its clock becomes the max
            event time seen) and exposes the conservative fleet-wide
            :attr:`watermark` as the minimum over per-shard watermarks.
            A shard-local watermark trails the *shard's* max event time,
            which is at most the global one — so per-shard lateness is
            never stricter than a single-process run's, though which
            events a non-``"raise"`` policy catches can differ with the
            shard count (each shard judges lateness against its own
            clock).  Within the horizon, results are shard-count
            invariant exactly like in-order runs.
        on_late: Side-output callback for the ``"side_output"`` policy;
            like ``on_window`` it requires ``workers=0`` (late events
            would otherwise surface in a worker process).
        checkpoint_dir: Directory for per-shard checkpoints (see
            :mod:`repro.runtime.checkpoint`).  ``None`` (the default)
            disables checkpointing *and* recovery: a dead worker is fatal,
            exactly the pre-checkpoint behaviour.  With a directory set,
            pool-mode workers snapshot their executors at window
            boundaries and the driver supervises: a worker that dies
            without reporting is respawned (capped exponential backoff),
            restored from its shard's last good checkpoint, and fed the
            post-checkpoint tail from the driver's bounded replay buffer.
            With ``workers=0`` the driver itself checkpoints the local
            shard executors on the same schedule (crash-restart coverage
            for external supervision; no respawn, there is no process to
            respawn).
        checkpoint_interval: Checkpoint after a batch once this many
            windows closed since the shard's previous checkpoint.
        max_restarts: Total worker respawns the driver will perform per
            run before declaring the crash fatal
            (:class:`~repro.errors.WorkerCrashError`).
    """

    def __init__(
        self,
        workload: Workload | Sequence[Query],
        engine_factory: EngineFactory = HamletEngine,
        *,
        workers: int = 0,
        shards: Optional[int] = None,
        batch_size: int = 512,
        shared_windows: bool = True,
        optimizer: OptimizerSpec = None,
        on_window: Optional[Callable[[WindowResult], None]] = None,
        allowed_lateness: Optional[float] = None,
        late_policy: str = "raise",
        on_late: Optional[Callable[[Event], None]] = None,
        checkpoint_dir: Optional[str] = None,
        checkpoint_interval: int = 16,
        max_restarts: int = 3,
    ) -> None:
        if workers < 0:
            raise ExecutionError(f"workers must be >= 0, got {workers}")
        if batch_size < 1:
            raise ExecutionError(f"batch size must be >= 1, got {batch_size}")
        if checkpoint_interval < 1:
            raise ExecutionError(
                f"checkpoint interval must be >= 1, got {checkpoint_interval}"
            )
        if max_restarts < 0:
            raise ExecutionError(f"max_restarts must be >= 0, got {max_restarts}")
        if workers > 0 and shards is not None and shards != workers:
            raise ExecutionError(
                f"with worker processes the shard count is the worker count "
                f"(workers={workers}, shards={shards})"
            )
        if workers > 0 and on_window is not None:
            raise ExecutionError(
                "on_window callbacks require workers=0: window results cross "
                "process boundaries only at finish()"
            )
        if workers > 0 and on_late is not None:
            raise ExecutionError(
                "on_late callbacks require workers=0: late events surface "
                "inside shard worker processes, not the driver"
            )
        # What every shard's StreamingExecutor is built from, in both modes:
        # validated as that constructor will (fail fast, not in a worker)
        # and forwarded as given, so each shard resolves its own instances.
        validate_stream_options(optimizer, allowed_lateness, late_policy, on_late)
        self._options: dict[str, Any] = dict(
            on_window=on_window, shared_windows=shared_windows,
            optimizer=optimizer, allowed_lateness=allowed_lateness,
            late_policy=late_policy, on_late=on_late,
        )
        self.workload = workload if isinstance(workload, Workload) else Workload(workload)
        self.workers = workers
        self.batch_size = batch_size
        self.allowed_lateness = allowed_lateness
        self.checkpoint_dir = os.fspath(checkpoint_dir) if checkpoint_dir else None
        self.checkpoint_interval = checkpoint_interval
        self.max_restarts = max_restarts
        #: Seeded driver RNG for backoff jitter (reprolint RL006: runtime
        #: paths draw no global-RNG randomness; determinism of *results*
        #: never depends on these timings).
        self._rng = random.Random(0x52504350)
        #: Start method of the worker pool, respawns included.
        methods = multiprocessing.get_all_start_methods()
        self._context = multiprocessing.get_context("fork" if "fork" in methods else "spawn")
        self.engine_factory = engine_factory
        self.router = ShardRouter(
            self.workload,
            workers if workers > 0 else (shards if shards is not None else 1),
        )
        #: One in-process shard: nothing to route between (see _UNROUTED).
        self._unrouted = workers == 0 and self.router.shards == 1
        self.analysis = self.router.analysis
        # Driver-side unit enumeration for the deterministic merge: every
        # (post-decomposition) query name -> unit index.  Shard modes agree
        # on this order because it is derived from the full workload's
        # analysis, not from any shard's slice of it.
        self._unit_of_name: dict[str, int] = {}
        unit_index = 0
        for group in self.analysis.groups:
            for unit in execution_units(group.queries):
                for query in unit:
                    self._unit_of_name[query.name] = unit_index
                unit_index += 1
        self._unit_count = unit_index
        self._shards: list = []
        self._begin_run()

    # ------------------------------------------------------------------ #
    # Lifecycle (StreamProcessor)
    # ------------------------------------------------------------------ #
    def run(self, stream: EventStream | EventBlock | Iterable[Event]) -> ExecutionReport:
        """Consume ``stream`` in one pass and return the merged report.

        ``stream`` may be an :class:`~repro.events.block.EventBlock`: the
        whole block is ingested columnar (:meth:`process_block`).
        """
        self._begin_run()
        try:
            if isinstance(stream, EventBlock):
                self.process_block(stream)
            else:
                process = self.process
                for event in stream:
                    process(event)
        except BaseException:
            # A failing stream iterable (process() cleans up after itself)
            # must not orphan a live worker pool.
            self._shutdown()
            raise
        return self.finish()

    def process(self, event: Event) -> None:
        """Route one event to its shard(s), shipping full batches."""
        event_time = event.time
        if self.allowed_lateness is None:
            try:
                ensure_in_order(event_time, self._clock, what="sharded executor")
            except OutOfOrderError:
                # Driver-side rejection: shut a live pool down before
                # re-raising so a caller that catches the error and drops
                # the executor does not leak worker processes blocked on
                # their input queues.
                self._shutdown()
                raise
            self._clock = event_time
        else:
            # Bounded disorder: the shard executors' reorder buffers enforce
            # the lateness horizon; the driver's clock just tracks the max.
            self._clock = max(self._clock, event_time)
        self._consumed += 1
        if not self._started:
            self._start_shards()
        for shard_id in _UNROUTED if self._unrouted else self.router.route(event):
            shard = self._shards[shard_id]
            shard.events += 1
            if event_time > shard.max_time:
                shard.max_time = event_time
            if self.workers == 0:
                shard.executor.process(event)
            else:
                shard.buffer.append(event)
                if len(shard.buffer) >= self.batch_size:
                    self._ship(shard)
        if self._ckpt_countdown:
            # workers=0 checkpoint scheduling: poll the window-interval
            # condition once per batch_size consumed events, mirroring the
            # per-batch cadence of pool-mode workers.
            self._ckpt_countdown -= 1
            if not self._ckpt_countdown:
                self._checkpoint_local()

    def process_block(self, block: EventBlock) -> None:
        """Route one in-order :class:`EventBlock`, keeping rows columnar.

        The block counterpart of :meth:`process`: the router partitions the
        block in one vectorized pass (:meth:`ShardRouter.route_block`), and
        each shard's rows stay columns end to end — in-process shards ingest
        a gathered sub-block directly, pool workers receive its framed
        columnar bytes and rebuild a block without constructing per-event
        objects.  Results are bit-identical to feeding the block's events
        through :meth:`process` one by one.

        Internal ordering of the block is enforced by the shard executors
        (in-process: immediately; pool mode: the worker's error surfaces at
        the next driver interaction), the driver only rejects a block that
        starts before the stream clock.
        """
        count = len(block)
        if count == 0:
            return
        ordered = self.allowed_lateness is None
        if ordered:
            try:
                ensure_in_order(
                    block.times[block.start], self._clock, what="sharded executor"
                )
            except OutOfOrderError:
                self._shutdown()
                raise
            self._clock = block.times[block.stop - 1]
        else:
            # The block may be internally disordered (the shard buffers
            # re-sort it); the driver clock tracks the max over its rows.
            self._clock = max(self._clock, max(block.times[block.start : block.stop]))
        self._consumed += count
        if not self._started:
            self._start_shards()
        selections: Sequence[Sequence[int]] = (
            (range(count),) if self._unrouted else self.router.route_block(block)
        )
        for shard, indices in zip(self._shards, selections):
            if not indices:
                continue
            shard.events += len(indices)
            shard_block = block if len(indices) == count else block.select(indices)
            shard_times = shard_block.times
            if ordered:
                # Sorted block: the selection is ascending, so its last
                # row holds the shard's max — no scan needed.
                shard_max = shard_times[shard_block.stop - 1]
            else:
                shard_max = max(shard_times[shard_block.start : shard_block.stop])
            if shard_max > shard.max_time:
                shard.max_time = shard_max
            if self.workers == 0:
                shard.executor.process_block(shard_block)
                continue
            # Preserve arrival order with any per-event process() calls
            # buffered ahead of this block.
            if shard.buffer:
                self._ship(shard)
            self._send(shard, *self._frame(shard, shard_block))
        if self._ckpt_countdown:
            self._ckpt_countdown -= count
            if self._ckpt_countdown <= 0:
                self._checkpoint_local()

    def finish(self) -> ExecutionReport:
        """Flush every shard, merge the per-shard reports and return."""
        if not self._started:
            self._start_shards()
        wall_started = self._run_started
        if self.workers == 0:
            shard_reports = [shard.executor.finish() for shard in self._shards]
        else:
            shard_reports = self._finish_workers()
        report = self._merge(shard_reports, time.perf_counter() - wall_started)
        # Full reset: the driver is an incrementally-fed StreamProcessor, so
        # a process()/finish() cycle after this one must start a fresh run
        # (fresh clock, counters and shard state), exactly like run() does.
        self._begin_run()
        return report

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def shard_count(self) -> int:
        """Effective number of shards (see :class:`ShardRouter`)."""
        return self.router.shards

    @property
    def routing_mode(self) -> str:
        """The router's mode: ``"group"`` or ``"unit"``."""
        return self.router.mode

    @property
    def shard_event_counts(self) -> tuple[int, ...]:
        """Events routed to each shard so far this run."""
        return tuple(shard.events for shard in self._shards)

    @property
    def watermark(self) -> Optional[float]:
        """Fleet-wide completeness bound under ``allowed_lateness``.

        The minimum over per-shard watermarks (shard max event time minus
        the lateness): every shard has released all work at or below it.
        Shards that have seen no events hold nothing back — their buffers
        are empty, so the bound is vacuously true for them.  ``None`` when
        lateness is off or nothing has been routed yet.
        """
        if self.allowed_lateness is None:
            return None
        marks = [
            shard.max_time for shard in self._shards if shard.max_time != float("-inf")
        ]
        if not marks:
            return None
        return min(marks) - self.allowed_lateness

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _begin_run(self) -> None:
        # A re-run that interrupts a live pool-mode run (run() called after
        # process() without finish()) must not orphan its workers: retire
        # the old shards first (a no-op from __init__ and after finish()).
        self._shutdown()
        self._clock = float("-inf")
        self._consumed = 0
        shard_type = _LocalShard if self.workers == 0 else _WorkerShard
        self._shards = [shard_type(shard_id) for shard_id in range(self.router.shards)]
        self._run_started = time.perf_counter()
        self._started = False
        #: Recovery counters for the merged report; None: checkpointing off,
        #: and with it — in pool mode — supervision: a dead worker is fatal.
        self._recovery = RecoveryStats() if self.checkpoint_dir is not None else None
        #: Seconds process()/finish() spent blocked on backpressure or
        #: liveness polling (surfaces as ExecutionMetrics.driver_wait_seconds).
        self._wait_seconds = 0.0
        #: Events until the next workers=0 checkpoint-schedule poll (0: off).
        self._ckpt_countdown = (
            self.batch_size
            if self.workers == 0 and self.checkpoint_dir is not None
            else 0
        )

    def _start_shards(self) -> None:
        self._started = True
        self._run_started = time.perf_counter()
        for shard in self._shards:
            if self.checkpoint_dir is not None:
                shard.store = CheckpointStore(self.checkpoint_dir, shard.shard_id)
                shard.store.clear()  # a previous run's leftovers
            if self.workers > 0:
                self._spawn_worker(shard, resume=False)
                continue
            shard.executor = StreamingExecutor(
                list(self.router.shard_queries(shard.shard_id)),
                self.engine_factory,
                **self._options,
            )
            shard.executor._keep_rows = True  # the merge re-orders shard rows

    def _spawn_worker(self, shard: _WorkerShard, *, resume: bool) -> None:
        """Open one worker incarnation's channels and start it on them."""
        context = self._context
        shard.in_queue = context.Queue(maxsize=MAX_INFLIGHT)
        shard.pipe, up = context.Pipe(duplex=False)
        recovery = None
        if self.checkpoint_dir is not None:
            # The batch cadence bounds the replay tail (and with it recovery
            # latency) even when no window closes for a long time.
            cadence = REPLAY_LIMIT // 2
            recovery = (
                self.checkpoint_dir, self.checkpoint_interval, cadence, shard.epoch, resume
            )
        shard.process = context.Process(
            target=_shard_worker_main,
            args=(
                shard.shard_id,
                self.router.shard_queries(shard.shard_id),
                self.engine_factory,
                self._options,
                shard.in_queue,
                up,
                recovery,
            ),
            daemon=True,
            name=f"repro-shard-{shard.shard_id}",
        )
        shard.process.start()
        # The worker now holds the pipe's only write end — no later fork can
        # inherit one from the driver either — so its death reads as EOF.
        up.close()

    def _checkpoint_local(self) -> None:
        """workers=0 checkpointing: snapshot each local shard executor whose
        window-boundary interval elapsed.  Epoch is always 0 (there are no
        respawns in-process); the consumed-event count stands in for the
        pool mode's batch seq — both only need to be monotonic."""
        assert self._recovery is not None
        self._ckpt_countdown = self.batch_size
        for shard in self._shards:
            executor = shard.executor
            if executor.windows_closed - shard.marked >= self.checkpoint_interval:
                nbytes = shard.store.write(
                    0, self._consumed, *executor.snapshot_state(shard.marked)
                )
                shard.marked = executor.windows_closed
                self._recovery.checkpoints += 1
                self._recovery.checkpoint_bytes += nbytes

    def _frame(self, shard: _WorkerShard, block: EventBlock) -> tuple[int, bytes]:
        """Encode one shard batch and enter it in the books: batch count,
        next seq and — with recovery on — the replay buffer, whose frame
        bytes a recovery re-ships through :meth:`_send` like any batch (the
        acks are read before the encode: the frames they cover go first)."""
        shard.batches += 1
        if self._recovery is not None:
            self._wait_replay_capacity(shard)
        payload = block.to_bytes()
        seq = shard.seq = shard.seq + 1
        if self._recovery is not None:
            shard.replay.append((seq, payload, len(block)))
        return seq, payload

    def _ship(self, shard: _WorkerShard) -> None:
        block = EventBlock.from_events(shard.buffer)
        shard.buffer.clear()
        self._send(shard, *self._frame(shard, block))

    def _send(self, shard: _WorkerShard, seq: int, payload: bytes) -> None:
        """Ship one frame as a ``(seq, frame)`` queue message."""
        try:
            self._put(shard, (seq, payload))
        except _WorkerRecovered:
            # Recovery replayed the buffer (this batch included) into the
            # respawned worker's fresh queue; the interrupted send is
            # simply abandoned.
            pass

    def _put(self, shard: _WorkerShard, item) -> None:
        """Bounded put: blocks on a full queue (backpressure) but never on a
        dead worker — liveness is re-checked between jittered, exponentially
        backed-off waits, and the blocked time is surfaced in
        :attr:`ExecutionMetrics.driver_wait_seconds`."""
        backoff = _Backoff(self._rng)
        while True:
            try:
                # Looked up per attempt: a recovery swaps the queue.
                shard.in_queue.put_nowait(item)
                return
            except Full:
                self._check_alive(shard)
                self._wait_seconds += backoff.sleep()

    # ------------------------------------------------------------------ #
    # Supervision and recovery
    # ------------------------------------------------------------------ #
    def _drain(self, shard: _WorkerShard) -> bool:
        """Read what the shard's worker has sent so far; False once its
        pipe is at end-of-file.

        Durable-checkpoint acks fold into the stats and trim the replay
        buffer (batches a restorable checkpoint covers never need
        replaying); the report is kept on the shard; a traceback shuts the
        pool down and raises.  EOF is the worker's death: it held the only
        write end, so even a message it left half-written ends here.
        """
        pipe = shard.pipe
        try:
            while pipe.poll():
                message = pipe.recv()
                if message[0] == "ok":
                    shard.report = message[1]
                    return True
                if message[0] == "error":
                    self._shutdown()
                    raise ExecutionError(
                        f"shard worker {shard.shard_id} failed:\n{message[1]}"
                    )
                _epoch, seq, nbytes = message
                if self._recovery is not None:
                    self._recovery.checkpoints += 1
                    self._recovery.checkpoint_bytes += nbytes
                replay = shard.replay
                while replay and replay[0][0] <= seq:
                    replay.popleft()
        except (EOFError, OSError):
            return False
        return True

    def _wait_replay_capacity(self, shard: _WorkerShard) -> None:
        """Backpressure on the replay buffer: block until checkpoint acks
        (or a recovery, which trims to the restored checkpoint's tail) make
        room.  The buffer is what makes recovery lossless — it is never
        silently dropped from."""
        backoff = _Backoff(self._rng)
        while True:
            try:
                self._check_alive(shard)
            except _WorkerRecovered:
                continue
            if len(shard.replay) < REPLAY_LIMIT:
                return
            self._wait_seconds += backoff.sleep()

    def _check_alive(self, shard: _WorkerShard) -> None:
        """Fold in what the shard's worker has sent; if its pipe hit EOF
        before a report, recover it or raise.

        Nothing is in flight then: a worker whose function returned sent
        its last message *synchronously* before exiting.  The process is
        reaped first (its pipe closes before ``is_alive()`` turns false);
        recovery — when enabled and restarts remain — ends by raising
        :class:`_WorkerRecovered` so the interrupted driver operation
        unwinds; otherwise the pool is shut down and a typed
        :class:`~repro.errors.WorkerCrashError` raised.
        """
        if shard.report is not None or self._drain(shard):
            return
        shard.process.join(timeout=1.0)
        exit_code = shard.process.exitcode
        recovery = self._recovery
        if recovery is not None and recovery.restarts < self.max_restarts:
            self._recover(shard)
            raise _WorkerRecovered
        self._shutdown()
        detail = f"exit code {exit_code}"
        if exit_code is not None and exit_code < 0:
            try:
                detail += f", signal {signal.Signals(-exit_code).name}"
            except ValueError:  # pragma: no cover - unknown signal number
                pass
        raise WorkerCrashError(
            f"shard worker {shard.shard_id} died without a report ({detail})",
            shard_id=shard.shard_id,
            exit_code=exit_code,
        )

    def _recover(self, shard: _WorkerShard) -> None:
        """Respawn a dead shard worker and make its loss unobservable.

        The sequence: capped-exponential-backoff pause; retire the dead
        incarnation's channels (its acks were read on the way to the EOF);
        sweep its orphaned checkpoint temp files; bump the shard's epoch;
        spawn the new incarnation on fresh channels with ``resume=True``
        (it restores the shard's last good checkpoint); replay the
        post-checkpoint tail from the replay buffer — and the end-of-stream
        sentinel, if the stream has ended.  A nested recovery (the respawn
        dies mid-replay) restarts the replay itself, so this invocation
        just stops.
        """
        assert self._recovery is not None
        self._recovery.restarts += 1
        delay = min(
            _RESTART_BACKOFF_CAP_SECONDS,
            _RESTART_BACKOFF_BASE_SECONDS
            * 2.0 ** min(shard.epoch, _RESTART_BACKOFF_MAX_EXPONENT),
        ) * (0.5 + self._rng.random())
        time.sleep(delay)
        self._wait_seconds += delay
        shard.retire()
        # The dead worker's async writer is dead with it, so its leftover
        # temp files are deletable garbage — and its last *finished*
        # checkpoint is this recovery's restore point.
        shard.store.clean_temporaries()
        restore_seq = shard.store.latest_seq() or 0
        replay = shard.replay
        while replay and replay[0][0] <= restore_seq:
            replay.popleft()
        shard.epoch += 1
        epoch = shard.epoch
        self._spawn_worker(shard, resume=True)
        for seq, payload, events in list(replay):
            if shard.epoch != epoch:
                return
            self._recovery.replayed_batches += 1
            self._recovery.replayed_events += events
            self._send(shard, seq, payload)
        if shard.ended and shard.epoch == epoch:
            try:
                self._put(shard, None)
            except _WorkerRecovered:
                pass

    # ------------------------------------------------------------------ #
    # End of stream
    # ------------------------------------------------------------------ #
    def _finish_workers(self) -> list[ExecutionReport]:
        # Ship every shard's residual batch and sentinel in a round-robin of
        # non-blocking puts: a blocking per-shard pass would hold shard
        # i+1's sentinel hostage to shard i's backpressured queue, leaving
        # drained workers idle through the end-of-stream tail.
        pending: dict[_WorkerShard, list] = {}
        for shard in self._shards:
            items: list = []
            if shard.buffer:
                tail = EventBlock.from_events(shard.buffer)
                items.append(self._frame(shard, tail))
                shard.buffer.clear()
            items.append(None)
            shard.ended = True
            pending[shard] = items
        backoff = _Backoff(self._rng)
        while pending:
            progressed = False
            for shard in list(pending):
                items = pending[shard]
                while items:
                    try:
                        shard.in_queue.put_nowait(items[0])
                    except Full:
                        break
                    del items[0]
                    progressed = True
                if not items:
                    del pending[shard]
            if pending and not progressed:
                for shard in list(pending):
                    try:
                        self._check_alive(shard)
                    except _WorkerRecovered:
                        # Recovery replayed the shard's buffered batches,
                        # tail included, and the sentinel after them into
                        # the new incarnation: nothing is left to put.
                        del pending[shard]
                        progressed = True
                if progressed:
                    backoff.reset()
                else:
                    self._wait_seconds += backoff.sleep()
            elif progressed:
                backoff.reset()
        # Every pipe ends in a report, a traceback or an EOF, and each of
        # them makes it readable: one wait covers slow and dead workers.
        while awaited := [shard for shard in self._shards if shard.report is None]:
            waited = time.perf_counter()
            ready = wait_for_pipes([shard.pipe for shard in awaited])
            self._wait_seconds += time.perf_counter() - waited
            for shard in awaited:
                if shard.pipe in ready:
                    try:
                        self._check_alive(shard)
                    except _WorkerRecovered:
                        pass
        for shard in self._shards:
            shard.process.join(timeout=5.0)
        self._shutdown(terminate=False)
        return [shard.report for shard in self._shards]

    def _shutdown(self, *, terminate: bool = True) -> None:
        for shard in self._shards:
            shard.retire(terminate=terminate)

    # ------------------------------------------------------------------ #
    # Deterministic merge
    # ------------------------------------------------------------------ #
    def _partition_order(self, row: WindowResult) -> tuple:
        unit_index = self._unit_of_name[next(iter(row.results))]
        return (row.window_end, unit_index, group_sort_key(row.group_key), row.window_index)

    def _merge(
        self, shard_reports: Sequence[ExecutionReport], wall_seconds: float
    ) -> ExecutionReport:
        # The shard executors resolved the engine label already; building an
        # engine here just to read its name would be pure waste.
        report = ExecutionReport(engine_name=shard_reports[0].engine_name)
        metrics = report.metrics
        merged_statistics: Optional[OptimizerStatistics] = None
        for sub in shard_reports:
            metrics.merge(sub.metrics)
            if sub.optimizer_statistics is not None:
                if merged_statistics is None:
                    merged_statistics = OptimizerStatistics()
                merged_statistics.merge(sub.optimizer_statistics)
        # merge() sums shard counts, but an event routed to two unit-mode
        # shards is still one stream event — and wall clock is the driver's
        # elapsed time, not any shard's.
        metrics.stream_events = self._consumed
        metrics.wall_seconds = wall_seconds
        # Driver-side blocked time (backpressure, liveness polling, restart
        # backoff) is a property of this run's router, not of any shard.
        metrics.driver_wait_seconds = self._wait_seconds
        # Concurrent gauges: parallel shards hold their state *at the same
        # time*, so merge()'s max-of-peaks (right for re-runs of one
        # pipeline) would under-report an N-shard run by up to N.  Sum the
        # per-shard peaks instead — an upper bound, since shards need not
        # peak at the same instant.
        metrics.peak_memory_units = sum(
            sub.metrics.peak_memory_units for sub in shard_reports
        )
        metrics.peak_active_windows = sum(
            sub.metrics.peak_active_windows for sub in shard_reports
        )
        report.optimizer_statistics = merged_statistics
        merged = [row for sub in shard_reports for row in sub.partition_results]
        if len(shard_reports) > 1 or self._unit_count > 1:
            merged.sort(key=self._partition_order)
        # else: one shard, one unit — the shard's emission order (close
        # sweeps ordered by (end, group key) with non-decreasing ends) IS
        # the canonical (window end, unit, group) order; skip the re-sort.
        report.partition_results = merged
        if len(shard_reports) == 1:
            # One shard saw the whole stream: its totals are already the
            # complete, recombined answer.
            report.totals = dict(shard_reports[0].totals)
            report.decompositions = shard_reports[0].decompositions
        else:
            # Folded from the merged rows in canonical order, never summed
            # from per-shard totals, whose grouping depends on the shard count.
            totals = RunningTotals()
            for row in merged:
                totals.add(row.results)
            report.totals = totals.totals()
            recombine_decompositions(self.analysis.decompositions, report)
        if self._consumed:
            # The router may have dropped every event before a shard saw it.
            for name in self._unit_of_name:
                report.totals.setdefault(name, 0.0)
        report.shards = [
            ShardReport(
                shard_id=shard.shard_id,
                events=shard.events,
                batches=shard.batches,
                report=sub,
            )
            for shard, sub in zip(self._shards, shard_reports)
        ]
        report.recovery = self._recovery
        return report


def run_sharded(
    workload: Workload | Sequence[Query],
    stream: EventStream | EventBlock | Iterable[Event],
    engine_factory: EngineFactory = HamletEngine,
    **options: Any,
) -> ExecutionReport:
    """One-shot convenience wrapper around :class:`ShardedStreamingExecutor`;
    ``options`` are the constructor's keyword-only arguments."""
    return ShardedStreamingExecutor(workload, engine_factory, **options).run(stream)
