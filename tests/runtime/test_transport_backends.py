"""Transport matrix: same bits through every path.

*How batches cross the process boundary* (pickled blobs vs columnar
buffers in shared-memory slab rings) may not change a single result bit —
the differential matrix here pins every {transport} x {shard count}
combination against the single-process reference.

The slab-ring machinery itself (recycling, oversize fallback, teardown,
crash cleanup — the "no leaked segments" contract) is unit-tested at the
bottom against a live ``/dev/shm``.
"""

from __future__ import annotations

import glob
import multiprocessing
import os
import random

import pytest

from repro.core import HamletEngine
from repro.errors import ExecutionError
from repro.events import Event
from repro.query import Query, Window, avg, kleene, seq, sum_of
from repro.runtime import (
    ShardedStreamingExecutor,
    SlabRing,
    run_sharded,
    run_streaming,
    run_workload,
)
from repro.runtime.transport import SEGMENT_PREFIX, ring_slots, validate_transport

WINDOW = Window(32.0, 8.0)


def make_stream(seed: int, size: int = 400) -> list[Event]:
    """Bursty integer-valued stream: long same-type runs feed the folds."""
    rng = random.Random(seed)
    events = []
    type_name = "A"
    for index in range(size):
        if rng.random() < 0.15:  # switch types rarely -> maximal runs
            type_name = rng.choice("ABC")
        events.append(
            Event(
                type_name,
                float(index),
                {"v": float(rng.randint(0, 6)), "g": float(rng.randint(1, 3))},
            )
        )
    return events


def workload(group_by=("g",)) -> list[Query]:
    return [
        Query.build(seq("A", kleene("B")), group_by=group_by, window=WINDOW, name="q1"),
        Query.build(
            seq("A", kleene("B")),
            aggregate=sum_of("B", "v"),
            group_by=group_by,
            window=WINDOW,
            name="q2",
        ),
        Query.build(
            seq("C", kleene("B")),
            aggregate=avg("B", "v"),
            group_by=group_by,
            window=WINDOW,
            name="q3",
        ),
    ]


def partition_multiset(report):
    from collections import Counter

    return Counter(
        (p.key, tuple(sorted(p.results.items()))) for p in report.partition_results
    )


def leaked_segments() -> list[str]:
    return glob.glob(f"/dev/shm/{SEGMENT_PREFIX}*")


# --------------------------------------------------------------------- #
# The differential matrix
# --------------------------------------------------------------------- #
class TestTransportMatrix:
    @pytest.mark.parametrize("transport", ("pickle", "shm"))
    @pytest.mark.parametrize("shards", (1, 2, 4))
    def test_matrix_bit_identical_on_integer_workloads(self, transport, shards):
        events = make_stream(3)
        queries = workload()
        reference = run_streaming(queries, events)
        assert reference.totals == run_workload(queries, events).totals
        sharded = run_sharded(
            queries,
            events,
            workers=shards,
            batch_size=64,
            transport=transport,
        )
        assert sharded.totals == reference.totals
        assert partition_multiset(sharded) == partition_multiset(reference)
        assert not leaked_segments()

    def test_in_process_shards_accept_transport_inertly(self):
        events = make_stream(4)
        queries = workload()
        reference = run_streaming(queries, events)
        for transport in ("pickle", "shm"):
            sharded = run_sharded(queries, events, workers=0, shards=2, transport=transport)
            assert sharded.totals == reference.totals

    def test_oversize_batches_fall_back_to_the_queue(self):
        events = make_stream(5)
        queries = workload()
        reference = run_streaming(queries, events)
        sharded = run_sharded(
            queries,
            events,
            workers=2,
            batch_size=64,
            transport="shm",
            slab_bytes=64,  # every batch oversized -> raw path end to end
        )
        assert sharded.totals == reference.totals
        assert not leaked_segments()


# --------------------------------------------------------------------- #
# Transport validation
# --------------------------------------------------------------------- #
class TestTransportValidation:
    def test_sharded_executor_validates_transport_up_front(self):
        with pytest.raises(ExecutionError, match="transport"):
            ShardedStreamingExecutor(workload(), workers=2, transport="carrier-pigeon")

    def test_validate_transport(self):
        assert validate_transport("pickle") == "pickle"
        assert validate_transport("shm") == "shm"
        with pytest.raises(ExecutionError, match="transport"):
            validate_transport("tcp")


# --------------------------------------------------------------------- #
# Slab-ring machinery
# --------------------------------------------------------------------- #
class TestSlabRing:
    def test_acquire_write_ack_recycle(self):
        context = multiprocessing.get_context()
        ring = SlabRing(context, slots=2, slab_bytes=16)
        try:
            first = ring.acquire(poll_seconds=0.01, on_stall=lambda: None)
            second = ring.acquire(poll_seconds=0.01, on_stall=lambda: None)
            assert {first, second} == {0, 1}
            ring.write(first, b"0123456789abcdef")
            # Exhausted: acquire must wait on acks and run the stall hook.
            stalls = []

            def on_stall():
                stalls.append(1)
                if len(stalls) >= 2:
                    ring.ack_send.send(first)  # a worker acks mid-wait

            third = ring.acquire(poll_seconds=0.01, on_stall=on_stall)
            assert third == first and stalls
        finally:
            ring.close()
        assert not leaked_segments()

    def test_fits_respects_slab_capacity(self):
        context = multiprocessing.get_context()
        ring = SlabRing(context, slots=1, slab_bytes=8)
        try:
            assert ring.fits(b"x" * 8)
            assert not ring.fits(b"x" * 9)
        finally:
            ring.close()

    def test_segment_name_is_recognizable_and_unlinked_on_close(self):
        context = multiprocessing.get_context()
        ring = SlabRing(context, slots=1, slab_bytes=8)
        name = ring.name.lstrip("/")
        assert name.startswith(SEGMENT_PREFIX)
        assert os.path.exists(f"/dev/shm/{name}")
        ring.close()
        assert not os.path.exists(f"/dev/shm/{name}")
        ring.close()  # idempotent

    def test_dropped_ring_is_unlinked_by_the_finalizer(self):
        context = multiprocessing.get_context()
        ring = SlabRing(context, slots=1, slab_bytes=8)
        name = ring.name.lstrip("/")
        assert os.path.exists(f"/dev/shm/{name}")
        del ring
        assert not os.path.exists(f"/dev/shm/{name}")

    def test_invalid_geometry(self):
        context = multiprocessing.get_context()
        with pytest.raises(ExecutionError, match="geometry"):
            SlabRing(context, slots=0, slab_bytes=8)

    def test_ring_slots_covers_queue_bound_plus_decode(self):
        assert ring_slots(8) == 10


class _ExplodingEngine(HamletEngine):
    """Raises mid-stream; per-instance path so ``process`` actually runs."""

    shared_window_flavor = None

    def process(self, event):
        if event.time >= 50.0:
            raise RuntimeError("engine exploded for the transport crash test")
        super().process(event)


class _DyingEngine(HamletEngine):
    """Kills its worker process outright (no traceback makes it back)."""

    shared_window_flavor = None

    def process(self, event):
        os._exit(23)


class TestShmCrashCleanup:
    """A dead worker must leave neither deadlock nor segment behind."""

    def test_worker_exception_unlinks_every_ring(self):
        with pytest.raises(ExecutionError, match="engine exploded"):
            run_sharded(
                workload(),
                make_stream(8),
                _ExplodingEngine,
                workers=2,
                batch_size=32,
                shared_windows=False,
                transport="shm",
            )
        assert not leaked_segments()

    def test_worker_hard_crash_unlinks_every_ring(self):
        with pytest.raises(ExecutionError, match="died without a report"):
            run_sharded(
                workload(),
                make_stream(9),
                _DyingEngine,
                workers=2,
                batch_size=32,
                shared_windows=False,
                transport="shm",
                max_inflight=1,
                slab_bytes=1024,
            )
        assert not leaked_segments()
