"""Sharded streaming execution: a router / worker split over the runtime.

HAMLET partitions the stream by grouping attributes before anything else
(Section 3.1), and ``(group key, window instance)`` partitions are
independent by construction.  The single-process
:class:`~repro.runtime.streaming.StreamingExecutor` nevertheless evaluates
every partition on one core.  This module turns the partition independence
into parallelism:

* a :class:`ShardRouter` splits the workload into *shards* and maps every
  event to the shard(s) that must see it.  When the workload has GROUP BY
  (every query groups by the same attributes), events are **hash-routed by
  group key** — a process-stable hash, so routing is deterministic across
  runs and machines.  Without GROUP BY there is only one group per window
  and the stream cannot be split by key, so the router falls back to
  **sharding by execution unit**: each shard owns a subset of the query
  clusters and sees exactly the events relevant to them.  Both placements
  keep every ``(group, window instance)`` partition wholly inside one
  shard, so the shared-window engines work unchanged per shard and no
  cross-shard coordination is ever needed;
* a :class:`ShardedStreamingExecutor` drives one
  :class:`~repro.runtime.streaming.StreamingExecutor` per shard — unmodified;
  anything satisfying :class:`~repro.interfaces.StreamProcessor` would do —
  either in-process (``workers=0``, the testable-without-fork mode) or in a
  ``multiprocessing`` pool.  Events cross process boundaries as framed
  columnar :class:`~repro.events.block.EventBlock` bytes — through the
  worker queues (``transport="pickle"``) or in reusable shared-memory slabs
  with only ``(slab, length)`` references on the queue (``transport="shm"``;
  see :mod:`repro.runtime.transport`) — the per-shard input queues are
  bounded (``max_inflight`` batches) so a slow
  shard back-pressures the router instead of buffering the stream, and the
  per-shard reports are merged **deterministically**: partition results are
  ordered by ``(window end, execution unit, group key)`` using the same
  :func:`~repro.runtime.partitioner.group_sort_key` total order as the
  single-process paths, metrics fold through
  :meth:`~repro.runtime.metrics.ExecutionMetrics.merge`, and OR/AND
  decompositions are recombined over the merged partitions — so totals are
  identical whatever the shard count.

Worker failures propagate: a shard that raises ships its traceback back to
the driver (which shuts the pool down and re-raises as
:class:`~repro.errors.ExecutionError`), and a shard that dies without a
report (crash, ``os._exit``) is detected by liveness checks instead of
deadlocking the router.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import random
import signal
import time
import traceback
from collections import deque
from dataclasses import dataclass
from queue import Empty, Full
from typing import Any, Callable, Iterable, Mapping, Optional, Sequence

from repro.core.engine import HamletEngine
from repro.core.kernels import KernelBackendSpec, resolve_kernel_backend
from repro.errors import ExecutionError, OutOfOrderError, WorkerCrashError
from repro.events.block import EventBlock
from repro.events.event import Event, EventType
from repro.events.stream import EventStream, slice_stream
from repro.optimizer.decisions import OptimizerStatistics
from repro.optimizer.registry import OptimizerSpec, resolve_optimizer_factory
from repro.query.query import Query
from repro.query.windows import Window
from repro.query.workload import Workload
from repro.runtime.executor import (
    EngineFactory,
    ExecutionReport,
    PartitionResult,
    execution_units,
    recombine_decompositions,
    unit_relevant_types,
)
from repro.runtime.checkpoint import AsyncCheckpointWriter, CheckpointStore
from repro.runtime.faultpoints import resolve_fault_hook
from repro.runtime.metrics import RecoveryStats
from repro.runtime.partitioner import group_sort_key
from repro.runtime.reorder import ensure_in_order, validate_lateness
from repro.runtime.streaming import StreamingExecutor, WindowResult
from repro.runtime.transport import (
    DEFAULT_SLAB_BYTES,
    SlabReader,
    SlabRing,
    ring_slots,
    validate_transport,
)
from repro.template.analysis import analyze_workload

__all__ = [
    "ShardReport",
    "ShardRouter",
    "ShardedStreamingExecutor",
    "run_sharded",
    "stable_shard_hash",
]

#: Seconds a slab acquire polls the ack pipe between liveness checks.
_POLL_SECONDS = 0.05
#: Default grace period granted to a dead worker's last report to surface
#: in the result queue (the feeder thread may still be flushing) before
#: the driver classifies the death (``worker_grace_seconds`` overrides).
_CRASH_GRACE_SECONDS = 3.0
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
#: Cap on the router's group-key -> shard memo.  The hash is cheap; the
#: memo only skips repr+BLAKE2b for hot keys, and a high-cardinality
#: GROUP BY (per-user/per-ride keys seen once) must not grow driver memory
#: without bound while every other layer evicts dead groups.
_SHARD_MEMO_LIMIT = 65536


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

    def __init__(self, shard_id: int) -> None:
        super().__init__(shard_id)
        self.shard_id = shard_id


def _canonical_key_element(value) -> tuple:
    """Collapse a group-key element to its partition-equality form.

    Partitions are dicts keyed by group tuples, so ``4``, ``4.0`` and
    ``True == 1`` land in **one** partition — the shard hash must not tell
    them apart (``repr`` would, and a partition would straddle shards).
    Numbers canonicalize through ``as_integer_ratio`` (exact, equal for
    equal values across int/float/bool, no 2**53 truncation); every branch
    carries a type tag so e.g. the string ``"None"`` cannot collide with
    ``None``.

    Sibling of :func:`repro.runtime.partitioner._value_sort_key`, which
    answers the *ordering* question for the same key population (this one
    answers equality collapse for hashing); a new group-key value type
    should be considered for both.
    """
    if isinstance(value, str):
        return ("s", value)
    if value is None:
        return ("0",)
    if isinstance(value, tuple):
        return ("t",) + tuple(_canonical_key_element(element) for element in value)
    if isinstance(value, complex):
        # complex(4) == 4 as a dict key; reduce real-valued complex numbers
        # to their real part so they canonicalize with int/float/Decimal.
        if value.imag == 0:
            return _canonical_key_element(value.real)
        return ("c", repr(value))
    ratio = getattr(value, "as_integer_ratio", None)  # int, float, bool,
    if ratio is not None:  # Decimal, Fraction, ...
        try:
            return ("n",) + tuple(ratio())
        except (ValueError, OverflowError):  # nan / inf
            try:
                return ("n", repr(float(value)))
            except (ValueError, OverflowError):  # e.g. Decimal('sNaN')
                return ("n", repr(value))
    return ("r", repr(value))


def stable_shard_hash(group_key: tuple) -> int:
    """A deterministic, process-stable hash of a group key.

    Python's built-in ``hash`` is randomized per process for strings
    (``PYTHONHASHSEED``), which would route the same group to different
    shards in the driver and in tests.  Keys are first canonicalized so
    values that compare equal as partition-dict keys (``4`` vs ``4.0`` vs
    ``True``) hash identically; the canonical form's ``repr`` is
    deterministic, and BLAKE2b mixes it well even for the short,
    near-identical reprs of small numeric keys — where a plain CRC-32
    modulo the shard count degenerates to one shard.
    """
    canonical = tuple(_canonical_key_element(element) for element in group_key)
    digest = hashlib.blake2b(repr(canonical).encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


@dataclass(frozen=True)
class _ShardPlan:
    """The routing decision: mode plus per-shard query placement."""

    #: ``"group"`` (hash on group key) or ``"unit"`` (by execution unit).
    mode: str
    #: Queries evaluated by each shard, in workload order.  Group mode gives
    #: every shard the full workload (events select the shard); unit mode
    #: partitions the query clusters across shards.
    shard_queries: tuple[tuple[Query, ...], ...]
    #: The common grouping attributes (group mode; empty in unit mode).
    group_by: tuple[str, ...]
    #: Event types at least one query references (router drop-filter).
    relevant_types: frozenset[EventType]
    #: Unit mode: event type -> shards whose queries reference it.
    type_routes: Mapping[EventType, tuple[int, ...]]

    @property
    def shards(self) -> int:
        return len(self.shard_queries)


class ShardRouter:
    """Maps each event of a workload's stream to its shard(s).

    The routing invariant — *no ``(group, window instance)`` partition ever
    straddles shards* — holds in both modes:

    * **group mode**: a partition's events all carry the same group key,
      and the shard is a pure function of that key;
    * **unit mode**: a partition belongs to one execution unit, and every
      event relevant to a unit is routed to the (single) shard owning it.

    Unit mode clusters *original* queries (pre-decomposition) transitively:
    queries that share an execution unit — or are sub-queries of the same
    OR/AND decomposition — stay on one shard, so per-shard engines keep
    every sharing opportunity the single-process runtime has.
    """

    def __init__(
        self,
        workload: Workload | Sequence[Query],
        shards: int,
        *,
        routing: str = "auto",
    ) -> None:
        if shards < 1:
            raise ExecutionError(f"shard count must be >= 1, got {shards}")
        if routing not in ("auto", "group", "unit"):
            raise ExecutionError(
                f"routing must be 'auto', 'group' or 'unit', got {routing!r}"
            )
        self.workload = workload if isinstance(workload, Workload) else Workload(workload)
        self.workload.validate()
        self.analysis = analyze_workload(self.workload)
        queries = tuple(self.workload.queries)
        group_bys = {query.group_by for query in queries}
        groupable = len(group_bys) == 1 and next(iter(group_bys)) != ()
        if routing == "group" and not groupable:
            raise ExecutionError(
                "group routing requires every query to share one non-empty "
                "GROUP BY clause; this workload does not (use routing='unit')"
            )
        mode = routing if routing != "auto" else ("group" if groupable else "unit")
        if mode == "group":
            self.plan = self._plan_group(queries, shards)
        else:
            self.plan = self._plan_unit(queries, shards)
        #: Group-key -> shard memo: the shard is a pure function of a small,
        #: heavily-repeated key set, so the hot path pays one dict lookup
        #: instead of repr + BLAKE2b per event.  Dict key equality also
        #: matches partition equality (``4`` and ``4.0`` share an entry),
        #: mirroring the canonicalized hash.
        self._shard_of_key: dict[tuple, int] = {}

    # ------------------------------------------------------------------ #
    # Plan construction
    # ------------------------------------------------------------------ #
    @staticmethod
    def _relevant_types(queries: Sequence[Query]) -> frozenset[EventType]:
        # Shared with the executors: the router's drop-filter must agree
        # exactly with what shard workers' units consume.
        return frozenset(unit_relevant_types(queries))

    def _plan_group(self, queries: tuple[Query, ...], shards: int) -> _ShardPlan:
        return _ShardPlan(
            mode="group",
            shard_queries=(queries,) * shards,
            group_by=queries[0].group_by,
            relevant_types=self._relevant_types(queries),
            type_routes={},
        )

    def _plan_unit(self, queries: tuple[Query, ...], shards: int) -> _ShardPlan:
        # Union-find over original query names: queries whose (possibly
        # decomposed) sub-queries share an execution unit must co-locate.
        parent = {query.name: query.name for query in queries}

        def find(name: str) -> str:
            while parent[name] != name:
                parent[name] = parent[parent[name]]
                name = parent[name]
            return name

        def union(first: str, second: str) -> None:
            parent[find(second)] = find(first)

        original_of = {
            sub.name: original_name
            for original_name, decomposition in self.analysis.decompositions.items()
            for sub in decomposition.sub_queries
        }
        for group in self.analysis.groups:
            for unit in execution_units(group.queries):
                names = [original_of.get(query.name, query.name) for query in unit]
                for name in names[1:]:
                    union(names[0], name)
        # Clusters in workload order (first member's position), assigned
        # round-robin — deterministic, and balanced when clusters are even.
        clusters: dict[str, list[Query]] = {}
        for query in queries:
            clusters.setdefault(find(query.name), []).append(query)
        cluster_list = list(clusters.values())
        shard_count = min(shards, len(cluster_list))
        shard_queries: list[list[Query]] = [[] for _ in range(shard_count)]
        for index, cluster in enumerate(cluster_list):
            shard_queries[index % shard_count].extend(cluster)
        type_routes: dict[EventType, list[int]] = {}
        for shard_id, shard in enumerate(shard_queries):
            for event_type in self._relevant_types(shard):
                type_routes.setdefault(event_type, []).append(shard_id)
        return _ShardPlan(
            mode="unit",
            shard_queries=tuple(tuple(shard) for shard in shard_queries),
            group_by=(),
            relevant_types=self._relevant_types(queries),
            type_routes={
                event_type: tuple(shard_ids)
                for event_type, shard_ids in type_routes.items()
            },
        )

    # ------------------------------------------------------------------ #
    # Routing
    # ------------------------------------------------------------------ #
    @property
    def mode(self) -> str:
        """The selected routing mode (``"group"`` or ``"unit"``)."""
        return self.plan.mode

    @property
    def shards(self) -> int:
        """Effective shard count (unit mode never exceeds the cluster count)."""
        return self.plan.shards

    def shard_queries(self, shard_id: int) -> tuple[Query, ...]:
        """The queries shard ``shard_id`` evaluates."""
        return self.plan.shard_queries[shard_id]

    def route(self, event: Event) -> tuple[int, ...]:
        """Shard ids that must see ``event`` (empty: no query cares)."""
        if event.event_type not in self.plan.relevant_types:
            return ()
        if self.plan.mode == "group":
            key = tuple(event.get(attribute) for attribute in self.plan.group_by)
            shard = self._shard_of_key.get(key)
            if shard is None:
                shard = stable_shard_hash(key) % self.plan.shards
                if len(self._shard_of_key) < _SHARD_MEMO_LIMIT:
                    self._shard_of_key[key] = shard
            return (shard,)
        return self.plan.type_routes.get(event.event_type, ())

    def route_block(self, block: EventBlock) -> tuple[list[int], ...]:
        """Block-relative row indices each shard must see, in one columnar pass.

        The columnar sibling of :meth:`route`: per-row results are identical
        (the sharded differential suite pins it), but type relevance is
        resolved once per interned type code, group keys come from the
        block's cached key column, and each distinct group key is hashed at
        most once (through the same memo the per-event path fills).
        """
        selections: tuple[list[int], ...] = tuple(
            [] for _ in range(self.plan.shards)
        )
        codes = block.type_codes
        base = block.start
        count = len(block)
        if self.plan.mode == "group":
            relevant = self.plan.relevant_types
            relevant_by_code = [
                event_type in relevant for event_type in block.type_table
            ]
            keys = block.group_keys(self.plan.group_by)
            memo = self._shard_of_key
            #: key -> that key's selection list (saves the modulo + second
            #: dict hop for the block's repeated keys).
            selection_of_key: dict[tuple, list[int]] = {}
            for local in range(count):
                if not relevant_by_code[codes[base + local]]:
                    continue
                key = keys[local]
                selection = selection_of_key.get(key)
                if selection is None:
                    shard = memo.get(key)
                    if shard is None:
                        shard = stable_shard_hash(key) % self.plan.shards
                        if len(memo) < _SHARD_MEMO_LIMIT:
                            memo[key] = shard
                    selection = selection_of_key[key] = selections[shard]
                selection.append(local)
            return selections
        routes_by_code = [
            self.plan.type_routes.get(event_type, ())
            for event_type in block.type_table
        ]
        for local in range(count):
            for shard in routes_by_code[codes[base + local]]:
                selections[shard].append(local)
        return selections


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
    lazy_open: bool,
    shared_windows: bool,
    optimizer: OptimizerSpec,
    burst_size: Optional[int],
    kernel_backend: KernelBackendSpec,
    allowed_lateness: Optional[float],
    late_policy: str,
    channel: Optional[tuple[str, int, object]],
    in_queue,
    out_queue,
    recovery: Optional[tuple[str, int, int, int, bool, object]] = None,
) -> None:
    """Entry point of one shard worker process.

    Drives an unmodified :class:`StreamingExecutor` over the batches the
    router ships until the ``None`` sentinel arrives, then returns the
    shard's report.  The adaptive-sharing policy and kernel backend cross
    the process boundary as their specs (typically names); each shard
    resolves its own optimizer instances, whose decision counts are
    shard-placement invariant because bursts are segmented per ``(group,
    unit)`` stream and every such stream lives wholly inside one shard.

    Every queue item carries one framed columnar batch: ``("raw", seq,
    payload)`` holds the bytes themselves; ``("slab", seq, index, nbytes)``
    references them in the shared-memory ring ``channel`` names (a
    ``(segment name, slab bytes, ack pipe)`` triple; ``None`` under the
    pickle transport, which ships ``raw`` only) and is acked back after
    decoding.  The driver-assigned ``seq`` tags identify batches across
    worker incarnations (checkpoint bookkeeping and post-restore replay).

    ``recovery`` enables checkpointing: ``(checkpoint dir, window
    interval, batch cadence, epoch, resume, ack pipe)``.  The worker
    snapshots its executor after a batch whenever ``interval`` windows
    closed since the last snapshot — or, as a replay-buffer bound,
    every ``cadence`` batches — and a background writer lands each
    snapshot atomically and acks ``(epoch, seq, nbytes)`` to the driver.
    With ``resume`` the worker restores the shard's last good checkpoint
    before consuming anything; every message it emits carries ``epoch``
    so the driver can discard a dead incarnation's stragglers.

    Any failure is shipped back as a formatted traceback — the driver
    re-raises it — rather than dying silently.
    """
    reader: Optional[SlabReader] = None
    writer: Optional[AsyncCheckpointWriter] = None
    epoch = recovery[3] if recovery is not None else 0
    try:
        fault = resolve_fault_hook(shard_id, epoch)
        executor = StreamingExecutor(
            list(queries),
            engine_factory,
            lazy_open=lazy_open,
            shared_windows=shared_windows,
            optimizer=optimizer,
            burst_size=burst_size,
            kernel_backend=kernel_backend,
            allowed_lateness=allowed_lateness,
            late_policy=late_policy,
        )
        interval = cadence = 0
        if recovery is not None:
            directory, interval, cadence, _, resume, checkpoint_ack = recovery
            store = CheckpointStore(directory, shard_id)
            store.fault = fault  # post-log-pre-snapshot, on the writer thread
            if resume:
                latest = store.latest()
                if latest is not None:
                    executor.restore_state(latest.payload, latest.output)
            writer = AsyncCheckpointWriter(store, checkpoint_ack)
        if channel is not None:
            segment_name, slab_bytes, ack_send = channel
            reader = SlabReader(segment_name, slab_bytes, ack_send)
        windows_marked = executor.windows_closed
        batches_since = 0
        while True:
            message = in_queue.get()
            if message is None:
                break
            if message[0] == "slab":
                assert reader is not None
                _, seq, slab, nbytes = message
                view = reader.view(slab, nbytes)
                try:
                    # Parsing copies every column out of the mapped
                    # slab, so the slab is recyclable the moment the
                    # block is built — ack before processing.
                    block = EventBlock.from_bytes(view)
                finally:
                    view.release()
                if fault is not None:
                    fault("mid-batch-decode")  # decoded, slab unacked
                reader.ack(slab)
            else:
                _, seq, payload = message
                block = EventBlock.from_bytes(payload)
                if fault is not None:
                    fault("mid-batch-decode")
            if fault is not None:
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
        out_queue.put((shard_id, epoch, "ok", executor.finish()))
    except BaseException:
        out_queue.put((shard_id, epoch, "error", traceback.format_exc()))
    finally:
        if writer is not None:
            writer.abort()
        if reader is not None:
            reader.close()


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
            ``workers > 0`` the shard count *is* the worker count.
        routing: ``"auto"`` (group hash when the workload has a common
            GROUP BY, else by execution unit), ``"group"`` or ``"unit"``.
        batch_size: Events per batch :meth:`process` ships to a worker.
        max_inflight: Bound on undelivered batches per shard; a full queue
            back-pressures :meth:`process` instead of buffering the stream.
        lazy_open / shared_windows: Forwarded to every shard's
            :class:`StreamingExecutor`.
        optimizer / burst_size: Adaptive per-burst sharing policy and burst
            cap, forwarded to every shard's :class:`StreamingExecutor`.
            Each shard resolves its own optimizer instances; the driver
            merges the per-shard
            :class:`~repro.optimizer.decisions.OptimizerStatistics` in
            shard order, and the merged decision counts are invariant in
            the shard count because bursts are per ``(group, unit)`` stream
            and each such stream lives wholly inside one shard.
        kernel_backend: Burst-fold kernel backend spec, forwarded to every
            shard's :class:`StreamingExecutor` (same registry-name pattern
            as ``optimizer``; see
            :func:`~repro.core.kernels.resolve_kernel_backend`).
        transport: How a batch's framed columnar bytes cross the process
            boundary with ``workers > 0``: ``"pickle"`` ships them through
            the queues; ``"shm"`` writes them into a per-worker ring of
            reusable shared-memory slabs and ships only ``(slab index,
            length)`` references (see :mod:`repro.runtime.transport`).
            Accepted-and-inert with ``workers=0`` — there is no process
            boundary to cross — so callers can sweep transports across
            worker counts uniformly.
        slab_bytes: Slab payload capacity for the shm transport; batches
            that encode larger fall back to the queue.
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
        replay_limit: Bound on the per-shard replay buffer, in batches.
            A shard whose checkpoint acks lag this far behind
            back-pressures :meth:`process` — the buffer is what makes
            recovery lossless, so it must never be silently dropped from.
            Workers additionally checkpoint every ``replay_limit // 2``
            batches regardless of window closes, keeping the replayed
            tail short even through window droughts.
        worker_grace_seconds: Grace granted to a dead worker's final
            message (report or traceback) to surface in the result queue
            before the driver classifies the death.  Workers that die of
            a signal or a nonzero exit skip the wait entirely — no
            message can be in flight — so this only throttles the
            ambiguous clean-exit case.
    """

    def __init__(
        self,
        workload: Workload | Sequence[Query],
        engine_factory: EngineFactory = HamletEngine,
        *,
        workers: int = 0,
        shards: Optional[int] = None,
        routing: str = "auto",
        batch_size: int = 512,
        max_inflight: int = 8,
        lazy_open: bool = True,
        shared_windows: bool = True,
        optimizer: OptimizerSpec = None,
        burst_size: Optional[int] = None,
        kernel_backend: KernelBackendSpec = None,
        transport: str = "pickle",
        slab_bytes: int = DEFAULT_SLAB_BYTES,
        on_window: Optional[Callable[[WindowResult], None]] = None,
        allowed_lateness: Optional[float] = None,
        late_policy: str = "raise",
        on_late: Optional[Callable[[Event], None]] = None,
        checkpoint_dir: Optional[str] = None,
        checkpoint_interval: int = 16,
        max_restarts: int = 3,
        replay_limit: int = 64,
        worker_grace_seconds: float = _CRASH_GRACE_SECONDS,
    ) -> None:
        if workers < 0:
            raise ExecutionError(f"workers must be >= 0, got {workers}")
        if batch_size < 1:
            raise ExecutionError(f"batch size must be >= 1, got {batch_size}")
        if max_inflight < 1:
            raise ExecutionError(f"max_inflight must be >= 1, got {max_inflight}")
        if checkpoint_interval < 1:
            raise ExecutionError(
                f"checkpoint interval must be >= 1, got {checkpoint_interval}"
            )
        if max_restarts < 0:
            raise ExecutionError(f"max_restarts must be >= 0, got {max_restarts}")
        if replay_limit < 2:
            raise ExecutionError(f"replay_limit must be >= 2, got {replay_limit}")
        if worker_grace_seconds <= 0:
            raise ExecutionError(
                f"worker_grace_seconds must be > 0, got {worker_grace_seconds}"
            )
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
        # Same fail-fast config validation as a single StreamingExecutor;
        # workers receive the validated values and re-validate trivially.
        validate_lateness(allowed_lateness, late_policy, on_late)
        if workers > 0 and on_late is not None:
            raise ExecutionError(
                "on_late callbacks require workers=0: late events surface "
                "inside shard worker processes, not the driver"
            )
        self.workload = workload if isinstance(workload, Workload) else Workload(workload)
        self.workers = workers
        self.batch_size = batch_size
        self.max_inflight = max_inflight
        self.lazy_open = lazy_open
        self.shared_windows = shared_windows
        # Validate the policy spec in the driver (fail fast, not in a
        # worker); workers receive the raw spec and resolve their own
        # per-shard optimizer instances.
        if burst_size is not None and burst_size < 1:
            raise ExecutionError(f"burst size must be >= 1, got {burst_size}")
        optimizer_factory = resolve_optimizer_factory(optimizer)
        # Resolving validates the name (and, for "numpy", the import) in the
        # driver — fail fast, not in a worker; workers receive the raw spec
        # and resolve their own per-shard backend instances.
        resolved_backend = resolve_kernel_backend(kernel_backend)
        if (
            burst_size is not None
            and optimizer_factory is None
            and not resolved_backend.wants_bursts
        ):
            raise ExecutionError(
                "burst_size requires an optimizer (burst segmentation is "
                "adaptive-mode only) or a kernel backend that folds bursts "
                "(kernel_backend='numpy')"
            )
        self.optimizer = optimizer
        self.burst_size = burst_size
        self.kernel_backend = kernel_backend
        self.transport = validate_transport(transport)
        if slab_bytes < 1:
            raise ExecutionError(f"slab_bytes must be >= 1, got {slab_bytes}")
        self.slab_bytes = slab_bytes
        self.on_window = on_window
        self.allowed_lateness = allowed_lateness
        self.late_policy = late_policy
        self.on_late = on_late
        self.checkpoint_dir = os.fspath(checkpoint_dir) if checkpoint_dir else None
        self.checkpoint_interval = checkpoint_interval
        self.max_restarts = max_restarts
        self.replay_limit = replay_limit
        self.worker_grace_seconds = worker_grace_seconds
        #: Batch-count checkpoint cadence: bounds the replay tail (and with
        #: it recovery latency) even when no window closes for a long time.
        self._batch_cadence = max(1, replay_limit // 2)
        #: Recovery (respawn + restore + replay) needs both checkpoints and
        #: worker processes; workers=0 checkpoints without supervising.
        self._recovery_enabled = self.checkpoint_dir is not None and workers > 0
        #: Seeded driver RNG for backoff jitter (reprolint RL006: runtime
        #: paths draw no global-RNG randomness; determinism of *results*
        #: never depends on these timings).
        self._rng = random.Random(0x52504350)
        self.engine_factory = engine_factory
        self.router = ShardRouter(
            self.workload,
            workers if workers > 0 else (shards if shards is not None else 1),
            routing=routing,
        )
        self.analysis = self.router.analysis
        # Driver-side unit enumeration for the deterministic merge: every
        # (post-decomposition) query name -> (unit index, window).  Shard
        # modes agree on this order because it is derived from the full
        # workload's analysis, not from any shard's slice of it.
        self._unit_of_name: dict[str, tuple[int, Window]] = {}
        unit_index = 0
        for group in self.analysis.groups:
            for unit in execution_units(group.queries):
                for query in unit:
                    self._unit_of_name[query.name] = (unit_index, query.window)
                unit_index += 1
        self._unit_count = unit_index
        self._begin_run()

    # ------------------------------------------------------------------ #
    # Lifecycle (StreamProcessor)
    # ------------------------------------------------------------------ #
    def run(
        self,
        stream: EventStream | EventBlock | Iterable[Event],
        *,
        start: Optional[float] = None,
        end: Optional[float] = None,
    ) -> ExecutionReport:
        """Consume ``stream`` in one pass and return the merged report.

        ``stream`` may be an :class:`~repro.events.block.EventBlock`: the
        whole block is ingested columnar (:meth:`process_block`), and the
        ``start``/``end`` slice is cut zero-copy by binary search.
        """
        self._begin_run()
        if isinstance(stream, EventBlock):
            try:
                self.process_block(stream.slice_time(start, end))
            except BaseException:
                self._shutdown()
                raise
            return self.finish()
        stream = slice_stream(stream, start, end)
        if self.workers == 0 and self.router.shards == 1:
            # Bulk fast path for the degenerate single in-process shard: the
            # shard executor enforces event order itself, so the refactored
            # driver costs one counter per event over a plain
            # StreamingExecutor run (the workers=0/1-parity regression gate
            # in BENCH_PR4.json watches exactly this).
            self._start_shards()
            single = self._single
            assert single is not None
            consumed = 0
            process = single.process
            if self._local_stores:
                countdown = self.batch_size
                for event in stream:
                    consumed += 1
                    process(event)
                    countdown -= 1
                    if not countdown:
                        self._consumed = consumed
                        self._checkpoint_local()
                        countdown = self.batch_size
            else:
                for event in stream:
                    consumed += 1
                    process(event)
            self._consumed = consumed
            self._shard_events[0] = consumed
            if self.allowed_lateness is None:
                self._clock = single._clock
            else:
                # Under lateness the shard's released clock trails its max
                # seen; the driver clock carries max-event-time semantics.
                self._clock = self._shard_max_time[0] = single.max_event_time
            return self.finish()
        try:
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
        if self.allowed_lateness is None:
            try:
                ensure_in_order(event.time, self._clock, what="sharded executor")
            except OutOfOrderError:
                # Driver-side rejection: shut a live pool down before
                # re-raising so a caller that catches the error and drops
                # the executor does not leak worker processes blocked on
                # their input queues.
                self._shutdown()
                raise
            self._clock = event.time
        else:
            # Bounded disorder: the shard executors' reorder buffers enforce
            # the lateness horizon; the driver's clock just tracks the max.
            self._clock = max(self._clock, event.time)
        self._consumed += 1
        if not self._started:
            self._start_shards()
        if self._single is not None:
            # One in-process shard: skip routing entirely — the shard's own
            # per-type dispatch drops irrelevant events just as fast as the
            # router would, and the hot path stays one call deep.
            self._shard_events[0] += 1
            if event.time > self._shard_max_time[0]:
                self._shard_max_time[0] = event.time
            self._single.process(event)
            if self._ckpt_countdown:
                self._ckpt_countdown -= 1
                if not self._ckpt_countdown:
                    self._checkpoint_local()
                    self._ckpt_countdown = self.batch_size
            return
        for shard_id in self.router.route(event):
            self._shard_events[shard_id] += 1
            if event.time > self._shard_max_time[shard_id]:
                self._shard_max_time[shard_id] = event.time
            if self._local is not None:
                self._local[shard_id].process(event)
            else:
                buffer = self._buffers[shard_id]
                buffer.append(event)
                if len(buffer) >= self.batch_size:
                    self._ship(shard_id)
        if self._ckpt_countdown:
            # workers=0 checkpoint scheduling: poll the window-interval
            # condition once per batch_size consumed events, mirroring the
            # per-batch cadence of pool-mode workers.
            self._ckpt_countdown -= 1
            if not self._ckpt_countdown:
                self._checkpoint_local()
                self._ckpt_countdown = self.batch_size

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
        if self.allowed_lateness is None:
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
        if self._single is not None:
            self._shard_events[0] += count
            if self._clock > self._shard_max_time[0]:
                self._shard_max_time[0] = self._clock
            self._single.process_block(block)
        else:
            for shard_id, indices in enumerate(self.router.route_block(block)):
                if not indices:
                    continue
                self._shard_events[shard_id] += len(indices)
                shard_block = (
                    block if len(indices) == count else block.select(indices)
                )
                shard_times = shard_block.times
                if self.allowed_lateness is None:
                    # Sorted block: the selection is ascending, so its last
                    # row holds the shard's max — no scan needed.
                    shard_max = shard_times[shard_block.stop - 1]
                else:
                    shard_max = max(shard_times[shard_block.start : shard_block.stop])
                if shard_max > self._shard_max_time[shard_id]:
                    self._shard_max_time[shard_id] = shard_max
                if self._local is not None:
                    self._local[shard_id].process_block(shard_block)
                    continue
                # Preserve arrival order with any per-event process() calls
                # buffered ahead of this block.
                if self._buffers[shard_id]:
                    self._ship(shard_id)
                self._send(shard_id, *self._frame(shard_id, shard_block))
        if self._ckpt_countdown:
            self._ckpt_countdown -= count
            if self._ckpt_countdown <= 0:
                self._checkpoint_local()
                self._ckpt_countdown = self.batch_size

    def finish(self) -> ExecutionReport:
        """Flush every shard, merge the per-shard reports and return."""
        if not self._started:
            self._start_shards()
        wall_started = self._run_started
        if self._local is not None:
            shard_reports = [executor.finish() for executor in self._local]
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
        return tuple(self._shard_events)

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
        marks = [mark for mark in self._shard_max_time if mark != float("-inf")]
        if not marks:
            return None
        return min(marks) - self.allowed_lateness

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _begin_run(self) -> None:
        # A re-run that interrupts a live pool-mode run (run() called after
        # process() without finish()) must not orphan its workers: shut the
        # old pool down before the state is reset.  (__init__ calls this
        # before any transport attribute exists; finish() has already
        # drained and cleared the pool by the time it resets.)
        if getattr(self, "_processes", None):
            self._shutdown()
        self._clock = float("-inf")
        self._consumed = 0
        self._shard_events = [0] * self.router.shards
        #: Max event time routed to each shard so far (drives the merged
        #: :attr:`watermark`; each shard's own buffer tracks the same max).
        self._shard_max_time = [float("-inf")] * self.router.shards
        self._shard_batches = [0] * self.router.shards
        self._run_started = time.perf_counter()
        self._started = False
        #: In-process shard executors (workers=0); None in pool mode.
        self._local: Optional[list[StreamingExecutor]] = None
        #: Fast path for the single in-process shard.
        self._single: Optional[StreamingExecutor] = None
        self._buffers: list[list[Event]] = []
        self._processes: list = []
        self._in_queues: list = []
        self._out_queue = None
        #: Per-shard slab rings (shm transport in pool mode; else empty).
        self._rings: list[SlabRing] = []
        #: Spawn context (pool mode); kept for respawns during recovery.
        self._context = None
        #: Next driver-assigned batch sequence number, per shard.  Global
        #: across worker incarnations: a respawned worker continues the
        #: dead one's numbering, so checkpoint seq tags stay monotonic.
        self._seq: list[int] = [0] * self.router.shards
        #: Highest checkpoint-acked seq per shard (replay-buffer trim line).
        self._acked_seq: list[int] = [0] * self.router.shards
        #: Worker incarnation per shard; bumped before each respawn.
        #: Messages tagged with a stale epoch are a dead incarnation's
        #: stragglers and are dropped (duplicate-result suppression).
        self._epochs: list[int] = [0] * self.router.shards
        #: Per-shard replay buffer: (seq, frame bytes, events) of every
        #: batch shipped but not yet covered by an acked checkpoint.
        self._replay: list[deque] = [deque() for _ in range(self.router.shards)]
        #: Whether each shard's end-of-stream sentinel has been enqueued
        #: (a respawn after that point must re-send it).
        self._sentinel_sent: list[bool] = [False] * self.router.shards
        #: Per-shard checkpoint-ack pipes (recovery mode; else empty).
        self._ckpt_recv: list = []
        self._ckpt_send: list = []
        #: Respawns performed so far this run (bounded by max_restarts).
        self._restarts_done = 0
        #: Per-shard respawn count (drives that shard's backoff exponent).
        self._restart_index: list[int] = [0] * self.router.shards
        #: Final reports that surfaced while the driver was waiting on a
        #: different shard's death classification.
        self._early_reports: dict[int, ExecutionReport] = {}
        #: Recovery counters for the merged report (None: checkpointing off).
        self._recovery = RecoveryStats() if self.checkpoint_dir is not None else None
        #: Seconds process()/finish() spent blocked on backpressure or
        #: liveness polling (surfaces as ExecutionMetrics.driver_wait_seconds).
        self._wait_seconds = 0.0
        #: workers=0 checkpointing: per-shard stores plus the windows-closed
        #: mark of each local executor's last checkpoint.
        self._local_stores: list[CheckpointStore] = []
        self._local_marked: list[int] = []
        #: Events until the next workers=0 checkpoint-schedule poll.
        self._ckpt_countdown = (
            self.batch_size
            if self.workers == 0 and self.checkpoint_dir is not None
            else 0
        )

    def _start_shards(self) -> None:
        self._started = True
        self._run_started = time.perf_counter()
        if self.checkpoint_dir is not None:
            for shard_id in range(self.router.shards):
                CheckpointStore(self.checkpoint_dir, shard_id).clear()
        if self.workers == 0:
            self._local = [
                StreamingExecutor(
                    list(self.router.shard_queries(shard_id)),
                    self.engine_factory,
                    on_window=self.on_window,
                    lazy_open=self.lazy_open,
                    shared_windows=self.shared_windows,
                    optimizer=self.optimizer,
                    burst_size=self.burst_size,
                    kernel_backend=self.kernel_backend,
                    allowed_lateness=self.allowed_lateness,
                    late_policy=self.late_policy,
                    on_late=self.on_late,
                )
                for shard_id in range(self.router.shards)
            ]
            if self.router.shards == 1:
                self._single = self._local[0]
            if self.checkpoint_dir is not None:
                self._local_stores = [
                    CheckpointStore(self.checkpoint_dir, shard_id)
                    for shard_id in range(self.router.shards)
                ]
                self._local_marked = [0] * self.router.shards
            return
        methods = multiprocessing.get_all_start_methods()
        context = multiprocessing.get_context("fork" if "fork" in methods else "spawn")
        self._context = context
        self._buffers = [[] for _ in range(self.router.shards)]
        self._in_queues = [
            context.Queue(maxsize=self.max_inflight) for _ in range(self.router.shards)
        ]
        self._out_queue = context.Queue()
        if self.transport == "shm":
            self._rings = [
                SlabRing(
                    context,
                    slots=ring_slots(self.max_inflight),
                    slab_bytes=self.slab_bytes,
                )
                for _ in range(self.router.shards)
            ]
        if self._recovery_enabled:
            self._ckpt_recv = []
            self._ckpt_send = []
            for _ in range(self.router.shards):
                recv, send = context.Pipe(duplex=False)
                self._ckpt_recv.append(recv)
                self._ckpt_send.append(send)
        self._processes = [None] * self.router.shards
        for shard_id in range(self.router.shards):
            self._spawn_worker(shard_id, resume=False)

    def _spawn_worker(self, shard_id: int, *, resume: bool) -> None:
        """Start (or restart) one shard worker on the current channels."""
        context = self._context
        assert context is not None
        if self._rings:
            ring = self._rings[shard_id]
            channel = (ring.name, ring.slab_bytes, ring.ack_send)
        else:
            channel = None
        recovery = None
        if self.checkpoint_dir is not None:
            recovery = (
                self.checkpoint_dir,
                self.checkpoint_interval,
                self._batch_cadence,
                self._epochs[shard_id],
                resume,
                self._ckpt_send[shard_id] if self._ckpt_send else None,
            )
        process = context.Process(
            target=_shard_worker_main,
            args=(
                shard_id,
                self.router.shard_queries(shard_id),
                self.engine_factory,
                self.lazy_open,
                self.shared_windows,
                self.optimizer,
                self.burst_size,
                self.kernel_backend,
                self.allowed_lateness,
                self.late_policy,
                channel,
                self._in_queues[shard_id],
                self._out_queue,
                recovery,
            ),
            daemon=True,
            name=f"repro-shard-{shard_id}",
        )
        process.start()
        self._processes[shard_id] = process

    def _checkpoint_local(self) -> None:
        """workers=0 checkpointing: snapshot each local shard executor whose
        window-boundary interval elapsed.  Epoch is always 0 (there are no
        respawns in-process); the consumed-event count stands in for the
        pool mode's batch seq — both only need to be monotonic."""
        assert self._local is not None and self._recovery is not None
        for shard_id, executor in enumerate(self._local):
            if (
                executor.windows_closed - self._local_marked[shard_id]
                >= self.checkpoint_interval
            ):
                nbytes = self._local_stores[shard_id].write(
                    0,
                    self._consumed,
                    *executor.snapshot_state(self._local_marked[shard_id]),
                )
                self._local_marked[shard_id] = executor.windows_closed
                self._recovery.checkpoints += 1
                self._recovery.checkpoint_bytes += nbytes

    def _frame(self, shard_id: int, block: EventBlock) -> tuple[int, bytes]:
        """Encode one shard batch and enter it in the books: batch count,
        next seq and — with recovery on — the replay buffer.

        The frame bytes are what re-shipping needs: replay goes through
        :meth:`_send` like any batch, never by slab reference (a dead
        worker's ring is torn down with it).
        """
        self._shard_batches[shard_id] += 1
        payload = block.to_bytes()
        self._seq[shard_id] += 1
        seq = self._seq[shard_id]
        if self._recovery_enabled:
            self._wait_replay_capacity(shard_id)
            self._replay[shard_id].append((seq, payload, len(block)))
        return seq, payload

    def _ship(self, shard_id: int) -> None:
        buffer = self._buffers[shard_id]
        block = EventBlock.from_events(buffer)
        buffer.clear()
        self._send(shard_id, *self._frame(shard_id, block))

    def _send(self, shard_id: int, seq: int, payload: bytes) -> None:
        """Ship one frame: through a slab when the shm ring has one it fits,
        else as a raw queue message (pickle transport, oversized batches)."""
        try:
            ring = self._rings[shard_id] if self._rings else None
            if ring is not None and ring.fits(payload):
                slab = ring.acquire(
                    poll_seconds=_POLL_SECONDS,
                    on_stall=lambda: self._check_alive(shard_id),
                )
                ring.write(slab, payload)
                self._put(shard_id, ("slab", seq, slab, len(payload)))
            else:
                self._put(shard_id, ("raw", seq, payload))
        except _WorkerRecovered:
            # Recovery replayed the buffer (this batch included) into the
            # respawned worker's fresh ring/queue; the interrupted send —
            # possibly holding a slab of the now-unlinked old ring — is
            # simply abandoned.
            pass

    def _check_alive(self, shard_id: int) -> None:
        process = self._processes[shard_id]
        if process is None or not process.is_alive():
            self._handle_worker_death(shard_id)

    def _put(self, shard_id: int, item) -> None:
        """Bounded put: blocks on a full queue (backpressure) but never on a
        dead worker — liveness is re-checked between jittered, exponentially
        backed-off waits, and the blocked time is surfaced in
        :attr:`ExecutionMetrics.driver_wait_seconds`."""
        queue = self._in_queues[shard_id]
        backoff = _Backoff(self._rng)
        while True:
            try:
                queue.put_nowait(item)
                return
            except Full:
                self._check_alive(shard_id)
                self._wait_seconds += backoff.sleep()

    # ------------------------------------------------------------------ #
    # Supervision and recovery
    # ------------------------------------------------------------------ #
    def _drain_checkpoint_acks(self, shard_id: int) -> None:
        """Fold durable-checkpoint acks into the stats and trim the replay
        buffer: batches a restorable checkpoint covers never need replaying."""
        if not self._ckpt_recv:
            return
        recv = self._ckpt_recv[shard_id]
        try:
            while recv.poll():
                _epoch, seq, nbytes = recv.recv()
                if self._recovery is not None:
                    self._recovery.checkpoints += 1
                    self._recovery.checkpoint_bytes += nbytes
                if seq > self._acked_seq[shard_id]:
                    self._acked_seq[shard_id] = seq
                    replay = self._replay[shard_id]
                    while replay and replay[0][0] <= seq:
                        replay.popleft()
        except (OSError, EOFError):  # pragma: no cover - pipe torn mid-drain
            pass

    def _wait_replay_capacity(self, shard_id: int) -> None:
        """Backpressure on the replay buffer: block until checkpoint acks
        (or a recovery, which trims to the restored checkpoint's tail) make
        room.  The buffer is what makes recovery lossless — it is never
        silently dropped from."""
        replay = self._replay[shard_id]
        self._drain_checkpoint_acks(shard_id)
        if len(replay) < self.replay_limit:
            return
        backoff = _Backoff(self._rng)
        while len(self._replay[shard_id]) >= self.replay_limit:
            try:
                self._check_alive(shard_id)
            except _WorkerRecovered:
                continue
            self._wait_seconds += backoff.sleep()
            self._drain_checkpoint_acks(shard_id)

    def _can_recover(self) -> bool:
        return self._recovery_enabled and self._restarts_done < self.max_restarts

    def _handle_worker_death(self, shard_id: int) -> None:
        """Classify a dead worker and either recover it or raise.

        Exit code 0 means the worker *function* returned — its final
        message (report or traceback) is in flight through the result
        queue's feeder thread, so wait the grace period out for it.  Any
        other exit code (a signal shows as its negative) means no message
        is coming: classify immediately, which is what makes SIGKILL
        recovery fast.  Recovery (when enabled and restarts remain) ends
        by raising :class:`_WorkerRecovered` so the interrupted driver
        operation unwinds; otherwise the pool is shut down and a typed
        :class:`~repro.errors.WorkerCrashError` raised.
        """
        process = self._processes[shard_id]
        exit_code: Optional[int] = None
        if process is not None:
            process.join(timeout=1.0)
            exit_code = process.exitcode
        if exit_code == 0 and self._await_message_from(shard_id):
            return
        if self._can_recover():
            self._recover(shard_id)
            raise _WorkerRecovered(shard_id)
        raise self._worker_crash_error(shard_id, exit_code)

    def _await_message_from(self, shard_id: int) -> bool:
        """Drain the result queue for up to the grace period, looking for
        the dead worker's final message.  Returns True when its report
        arrived (stashed in ``_early_reports``); raises on its traceback.
        Other shards' reports surfacing meanwhile are stashed too, never
        dropped."""
        deadline = time.perf_counter() + self.worker_grace_seconds
        while time.perf_counter() < deadline:
            waited = time.perf_counter()
            try:
                sender, epoch, status, payload = self._out_queue.get(
                    timeout=_POLL_SECONDS
                )
            except Empty:
                self._wait_seconds += time.perf_counter() - waited
                continue
            if epoch != self._epochs[sender]:
                continue  # a dead incarnation's straggler
            if status == "error":
                self._shutdown()
                raise ExecutionError(f"shard worker {sender} failed:\n{payload}")
            self._early_reports[sender] = payload
            if sender == shard_id:
                return True
        return False

    def _worker_crash_error(self, shard_id: int, exit_code: Optional[int]) -> WorkerCrashError:
        last_acked = self._rings[shard_id].last_acked if self._rings else None
        self._shutdown()
        detail = f"exit code {exit_code}"
        if exit_code is not None and exit_code < 0:
            try:
                detail += f", signal {signal.Signals(-exit_code).name}"
            except ValueError:  # pragma: no cover - unknown signal number
                pass
        return WorkerCrashError(
            f"shard worker {shard_id} died without a report ({detail})",
            shard_id=shard_id,
            exit_code=exit_code,
            last_acked_slab=last_acked,
        )

    def _recover(self, shard_id: int) -> None:
        """Respawn a dead shard worker and make its loss unobservable.

        The sequence: capped-exponential-backoff pause; harvest the dead
        incarnation's checkpoint acks; retire its channels (closing the
        ring unlinks the dead worker's shm segment); sweep its orphaned
        checkpoint temp files; bump the shard's epoch (stale-message
        suppression); rebuild the channels; spawn the new incarnation with
        ``resume=True`` (it restores the shard's last good checkpoint);
        replay the post-checkpoint tail from the replay buffer — and the
        end-of-stream sentinel, if the dead worker had already been sent
        it.  A nested recovery (the respawn dies mid-replay) restarts the
        replay itself, so this invocation just stops.
        """
        assert self._recovery is not None and self.checkpoint_dir is not None
        self._restarts_done += 1
        self._restart_index[shard_id] += 1
        self._recovery.restarts += 1
        exponent = min(
            self._restart_index[shard_id] - 1, _RESTART_BACKOFF_MAX_EXPONENT
        )
        delay = min(
            _RESTART_BACKOFF_CAP_SECONDS,
            _RESTART_BACKOFF_BASE_SECONDS * (2.0**exponent),
        ) * (0.5 + self._rng.random())
        time.sleep(delay)
        self._wait_seconds += delay
        process = self._processes[shard_id]
        if process is not None:
            process.join(timeout=1.0)
        self._drain_checkpoint_acks(shard_id)
        old_queue = self._in_queues[shard_id]
        old_queue.close()
        old_queue.cancel_join_thread()
        if self._rings:
            self._rings[shard_id].close()
        if self._ckpt_recv:
            for end in (self._ckpt_recv[shard_id], self._ckpt_send[shard_id]):
                try:
                    end.close()
                except OSError:  # pragma: no cover - already closed
                    pass
        # The dead worker's async writer is dead with it, so its leftover
        # temp files are deletable garbage — and its last *finished*
        # checkpoint is this recovery's restore point.
        store = CheckpointStore(self.checkpoint_dir, shard_id)
        store.clean_temporaries()
        restore_seq = store.latest_seq() or 0
        replay = self._replay[shard_id]
        while replay and replay[0][0] <= restore_seq:
            replay.popleft()
        if restore_seq > self._acked_seq[shard_id]:
            self._acked_seq[shard_id] = restore_seq
        self._epochs[shard_id] += 1
        epoch = self._epochs[shard_id]
        context = self._context
        assert context is not None
        self._in_queues[shard_id] = context.Queue(maxsize=self.max_inflight)
        if self._rings:
            self._rings[shard_id] = SlabRing(
                context,
                slots=ring_slots(self.max_inflight),
                slab_bytes=self.slab_bytes,
            )
        if self._ckpt_recv:
            recv, send = context.Pipe(duplex=False)
            self._ckpt_recv[shard_id] = recv
            self._ckpt_send[shard_id] = send
        self._spawn_worker(shard_id, resume=True)
        for seq, payload, events in list(replay):
            if self._epochs[shard_id] != epoch:
                return
            self._recovery.replayed_batches += 1
            self._recovery.replayed_events += events
            self._send(shard_id, seq, payload)
        if self._sentinel_sent[shard_id] and self._epochs[shard_id] == epoch:
            try:
                self._put(shard_id, None)
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
        pending: dict[int, list] = {}
        for shard_id in range(self.router.shards):
            items: list = []
            buffer = self._buffers[shard_id]
            if buffer:
                # Tail batches ride raw messages under both transports:
                # acquiring a slab can block on worker acks, which would
                # defeat this round-robin of strictly non-blocking puts.
                tail = EventBlock.from_events(buffer)
                items.append(("raw", *self._frame(shard_id, tail)))
                buffer.clear()
            items.append(None)
            pending[shard_id] = items
        backoff = _Backoff(self._rng)
        while pending:
            progressed = False
            for shard_id in list(pending):
                items = pending[shard_id]
                while items:
                    try:
                        self._in_queues[shard_id].put_nowait(items[0])
                    except Full:
                        break
                    if items.pop(0) is None:
                        self._sentinel_sent[shard_id] = True
                    progressed = True
                if not items:
                    del pending[shard_id]
            if pending and not progressed:
                for shard_id in list(pending):
                    try:
                        self._check_alive(shard_id)
                    except _WorkerRecovered:
                        # Recovery replayed the shard's buffered batches
                        # (and, when it had landed, the sentinel) into the
                        # new incarnation; only a not-yet-sent sentinel
                        # stays this loop's responsibility.
                        pending[shard_id] = [
                            item for item in pending[shard_id] if item is None
                        ]
                        if not pending[shard_id]:
                            del pending[shard_id]
                        progressed = True
                if progressed:
                    backoff.reset()
                else:
                    self._wait_seconds += backoff.sleep()
            elif progressed:
                backoff.reset()
        collected: dict[int, ExecutionReport] = dict(self._early_reports)
        while len(collected) < self.router.shards:
            waited = time.perf_counter()
            try:
                shard_id, epoch, status, payload = self._out_queue.get(
                    timeout=_POLL_SECONDS
                )
            except Empty:
                self._wait_seconds += time.perf_counter() - waited
                failed = [
                    shard_id
                    for shard_id, process in enumerate(self._processes)
                    if shard_id not in collected
                    and (process is None or not process.is_alive())
                ]
                if not failed:
                    continue
                try:
                    self._handle_worker_death(failed[0])
                except _WorkerRecovered:
                    pass
                collected.update(self._early_reports)
                continue
            if epoch != self._epochs[shard_id] or shard_id in collected:
                continue  # a dead incarnation's straggler, or a duplicate
            if status == "error":
                self._shutdown()
                raise ExecutionError(f"shard worker {shard_id} failed:\n{payload}")
            collected[shard_id] = payload
        for process in self._processes:
            if process is not None:
                process.join(timeout=5.0)
        for shard_id in range(self.router.shards):
            self._drain_checkpoint_acks(shard_id)
        self._shutdown(terminate=False)
        return [collected[shard_id] for shard_id in range(self.router.shards)]

    def _shutdown(self, *, terminate: bool = True) -> None:
        for process in self._processes:
            if process is None:
                continue
            if terminate and process.is_alive():
                process.terminate()
            process.join(timeout=1.0)
        for queue in self._in_queues:
            queue.close()
            queue.cancel_join_thread()
        if self._out_queue is not None:
            self._out_queue.close()
            self._out_queue.cancel_join_thread()
        # Unlink every ring segment after the workers are gone (joined or
        # terminated above) — the "no leaked segments" half of the shm
        # transport contract; close() is idempotent and also detaches the
        # last-resort finalizer.
        for ring in self._rings:
            ring.close()
        for end in (*self._ckpt_recv, *self._ckpt_send):
            try:
                end.close()
            except OSError:  # pragma: no cover - already closed
                pass
        self._processes = []
        self._in_queues = []
        self._out_queue = None
        self._rings = []
        self._ckpt_recv = []
        self._ckpt_send = []

    # ------------------------------------------------------------------ #
    # Deterministic merge
    # ------------------------------------------------------------------ #
    def _partition_order(self, partition: PartitionResult) -> tuple:
        for name in partition.results:
            placed = self._unit_of_name.get(name)
            if placed is not None:
                unit_index, window = placed
                window_end = window.instance_bounds(partition.window_index)[1]
                return (
                    window_end,
                    unit_index,
                    group_sort_key(partition.group_key),
                    partition.window_index,
                )
        return (  # pragma: no cover - engines always report unit queries
            partition.window_start,
            -1,
            group_sort_key(partition.group_key),
            partition.window_index,
        )

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
        merged = [
            partition for sub in shard_reports for partition in sub.partition_results
        ]
        if len(shard_reports) > 1 or self._unit_count > 1:
            merged.sort(key=self._partition_order)
        # else: one shard, one unit — the shard's emission order (close
        # sweeps ordered by (end, group key) with non-decreasing ends) IS
        # the canonical (window end, unit, group) order; skip the re-sort.
        report.partition_results = merged
        if len(shard_reports) == 1:
            # One shard saw the whole stream: its totals are already the
            # complete, recombined answer — rebuilding them would only
            # re-add the same partitions.  (Zero-defaults still need the
            # driver's consumed count: the router may have dropped every
            # event before the shard, e.g. an all-irrelevant stream.)
            report.totals.update(shard_reports[0].totals)
            if self._consumed:
                for name in self._unit_of_name:
                    report.totals.setdefault(name, 0.0)
        else:
            # Totals are rebuilt from the merged partitions in their
            # canonical order — never by summing per-shard totals, whose
            # grouping would depend on the shard count.
            totals = report.totals
            for partition in merged:
                for name, value in partition.results.items():
                    if value != 0.0:
                        totals[name] = totals.get(name, 0.0) + value
            if self._consumed:
                for name in self._unit_of_name:
                    totals.setdefault(name, 0.0)
            recombine_decompositions(self.analysis.decompositions, merged, totals)
        report.shards = [
            ShardReport(
                shard_id=shard_id,
                events=self._shard_events[shard_id],
                batches=self._shard_batches[shard_id],
                report=sub,
            )
            for shard_id, sub in enumerate(shard_reports)
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
