"""Transport: same bits across the process boundary, one way to ship them.

Pool mode ships every batch as one framed columnar queue message; the
differential matrix here pins every shard count against the
single-process reference, and the executor and CLI reject the deleted
``transport=``/``slab_bytes=`` options.

The slab ring (:mod:`repro.runtime.transport`), which no executor runs but
the end-to-end harness still probes, keeps its unit tests at the bottom —
recycling, teardown, the "no leaked segments" contract — against a live
``/dev/shm``.
"""

from __future__ import annotations

import glob
import multiprocessing
import os
import random

import pytest

from repro.cli import main
from repro.errors import ExecutionError
from repro.events import Event
from repro.query import Query, Window, avg, kleene, seq, sum_of
from repro.runtime import ShardedStreamingExecutor, run_sharded, run_streaming, run_workload
from repro.runtime.transport import SEGMENT_PREFIX, SlabReader, SlabRing

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
        ((p.group_key, p.window_index), tuple(sorted(p.results.items())))
        for p in report.partition_results
    )


def leaked_segments() -> list[str]:
    return glob.glob(f"/dev/shm/{SEGMENT_PREFIX}*")


# --------------------------------------------------------------------- #
# The differential matrix
# --------------------------------------------------------------------- #
class TestTransportMatrix:
    @pytest.mark.parametrize("shards", (1, 2, 4))
    def test_matrix_bit_identical_on_integer_workloads(self, shards):
        events = make_stream(3)
        queries = workload()
        reference = run_streaming(queries, events)
        assert reference.totals == run_workload(queries, events).totals
        sharded = run_sharded(queries, events, workers=shards, batch_size=64)
        assert sharded.totals == reference.totals
        assert partition_multiset(sharded) == partition_multiset(reference)
        assert not leaked_segments()

    def test_in_process_shards_match_the_reference(self):
        events = make_stream(4)
        queries = workload()
        reference = run_streaming(queries, events)
        sharded = run_sharded(queries, events, workers=0, shards=2)
        assert sharded.totals == reference.totals


# --------------------------------------------------------------------- #
# The deleted transport options
# --------------------------------------------------------------------- #
class TestNoTransportOption:
    @pytest.mark.parametrize("option", ({"transport": "shm"}, {"slab_bytes": 1024}))
    def test_sharded_executor_rejects_transport_keywords(self, option):
        with pytest.raises(TypeError):
            ShardedStreamingExecutor(workload(), workers=2, **option)

    def test_cli_rejects_transport_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["stream", "--workers", "1", "--transport", "shm"])
        assert excinfo.value.code == 2
        assert "--transport" in capsys.readouterr().err


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

    def test_reader_views_the_written_slab_and_its_ack_recycles_it(self):
        context = multiprocessing.get_context()
        ring = SlabRing(context, slots=1, slab_bytes=16)
        reader = SlabReader(ring.name, ring.slab_bytes, ring.ack_send)
        try:
            slab = ring.acquire(poll_seconds=0.01, on_stall=lambda: None)
            ring.write(slab, b"frame-bytes")
            assert bytes(reader.view(slab, len(b"frame-bytes"))) == b"frame-bytes"
            reader.ack(slab)

            def on_stall():
                raise AssertionError("the reader's ack did not free the slab")

            assert ring.acquire(poll_seconds=0.01, on_stall=on_stall) == slab
        finally:
            reader.close()
            ring.close()
        assert not leaked_segments()

    def test_reader_close_leaves_the_segment_to_its_creator(self):
        context = multiprocessing.get_context()
        ring = SlabRing(context, slots=1, slab_bytes=8)
        name = ring.name.lstrip("/")
        try:
            reader = SlabReader(ring.name, ring.slab_bytes, ring.ack_send)
            reader.close()
            assert os.path.exists(f"/dev/shm/{name}")
            ring.write(0, b"still-ok")  # the writer's mapping is untouched
        finally:
            ring.close()
        assert not os.path.exists(f"/dev/shm/{name}")

    def test_invalid_geometry(self):
        context = multiprocessing.get_context()
        with pytest.raises(ExecutionError, match="geometry"):
            SlabRing(context, slots=0, slab_bytes=8)

