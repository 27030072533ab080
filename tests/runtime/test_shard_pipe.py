"""The worker -> driver pipe protocol, directly and at small scope.

A worker incarnation tells the driver everything — checkpoint acks, then
its report or traceback — over one private pipe whose only write end it
holds (docs/DESIGN.md, "Supervision").  These tests hold the protocol to
what that buys: a report bigger than the pipe buffer survives the other
shard's recovery, a traceback is never cut into by a checkpoint ack, a
dead incarnation's pipe is closed for good, and — in POPACheck's spirit
of enumerating a small state space instead of sampling a big one — every
kill point x hit count x shard on a six-batch stream recovers
bit-identically with exactly the predicted restart count.
"""

from __future__ import annotations

import glob
import pickle
import random
import time

import pytest

from faultline import canonical_report, sweep_exhaustive
from repro.core import HamletEngine
from repro.errors import ExecutionError
from repro.events import Event
from repro.query import Query, Window, kleene, seq
from repro.runtime import ShardedStreamingExecutor
from repro.runtime.checkpoint import CheckpointStore
from repro.runtime.faultpoints import FAULTLINE_ENV, KILL_POINTS

pytestmark = pytest.mark.usefixtures("hard_deadline")

#: What a Linux pipe buffers before a writer blocks.
PIPE_BUFFER_BYTES = 64 * 1024


class _ExplodingEngine(HamletEngine):
    """Raises mid-stream; per-instance path so ``process`` actually runs."""

    shared_window_flavor = None

    def process(self, event):
        if event.time >= 50.0:
            raise RuntimeError("engine exploded for the pipe protocol test")
        super().process(event)


def _workload(window: Window = Window(16.0, 4.0)) -> list[Query]:
    return [
        Query.build(seq("A", kleene("B")), group_by=("g",), window=window, name="ppq1"),
        Query.build(seq("C", kleene("B")), group_by=("g",), window=window, name="ppq2"),
    ]


def _many_windows_workload() -> list[Query]:
    """Tumbling 1.0-wide windows: a few thousand closed windows a shard."""
    return _workload(Window(1.0))


def _stream(size: int = 1500) -> list[Event]:
    rng = random.Random(23)
    return [
        Event(
            rng.choices(("A", "B", "C"), weights=(1, 3, 1))[0],
            float(index) * 0.25,
            {"g": float(rng.randint(1, 6))},
        )
        for index in range(size)
    ]


def test_a_report_larger_than_the_pipe_buffer_survives_the_other_shards_recovery(
    monkeypatch, tmp_path
):
    clean = ShardedStreamingExecutor(_many_windows_workload(), workers=0, shards=2).run(
        _stream(6000)
    )
    monkeypatch.setenv(FAULTLINE_ENV, "pre-report@0:1:kill")
    executor = ShardedStreamingExecutor(
        _many_windows_workload(), workers=2, batch_size=64, checkpoint_dir=str(tmp_path)
    )
    recover = executor._recover

    def recover_once_the_other_report_is_in_flight(shard):
        # Shard 1 finishes undisturbed.  Unless the driver has its report
        # already, hold shard 0's recovery until that report is on its way:
        # its sender then sits blocked on a full pipe right through the
        # respawn, restore and replay next door.
        other = executor._shards[1]
        if other.report is None:
            assert other.pipe.poll(30.0)
        recover(shard)

    monkeypatch.setattr(executor, "_recover", recover_once_the_other_report_is_in_flight)
    report = executor.run(_stream(6000))
    assert report.recovery.restarts == 1
    assert canonical_report(report) == canonical_report(clean)
    for shard in report.shards:
        assert len(pickle.dumps(shard.report)) > PIPE_BUFFER_BYTES
        assert len(shard.report.partition_results) > 1000


def test_a_traceback_is_not_cut_into_by_a_checkpoint_write_in_flight(monkeypatch, tmp_path):
    """Every checkpoint write is slowed down, so when the engine raises the
    writer thread still has acks to send; the worker stops it first."""
    write = CheckpointStore.write

    def slow_write(self, *arguments):
        time.sleep(0.05)
        return write(self, *arguments)

    monkeypatch.setattr(CheckpointStore, "write", slow_write)  # inherited by fork
    executor = ShardedStreamingExecutor(
        _workload(),
        engine_factory=_ExplodingEngine,
        workers=2,
        batch_size=8,
        checkpoint_dir=str(tmp_path),
        checkpoint_interval=1,
    )
    with pytest.raises(ExecutionError, match="RuntimeError: engine exploded") as excinfo:
        executor.run(_stream(600))
    assert "Traceback (most recent call last)" in str(excinfo.value)
    assert glob.glob("/dev/shm/repro-ring-*") == []


def test_a_dead_incarnations_pipe_is_closed_for_good(monkeypatch, tmp_path):
    clean = ShardedStreamingExecutor(_workload(), workers=0, shards=2).run(_stream())
    monkeypatch.setenv(FAULTLINE_ENV, "pre-fold@1:3:kill")
    executor = ShardedStreamingExecutor(
        _workload(), workers=2, batch_size=64, checkpoint_dir=str(tmp_path)
    )
    recover = executor._recover
    retired = []

    def recording_recover(shard):
        dead = (shard.pipe, shard.in_queue, shard.process)
        recover(shard)
        retired.append((shard, dead, (shard.pipe, shard.process)))

    monkeypatch.setattr(executor, "_recover", recording_recover)
    report = executor.run(_stream())
    assert canonical_report(report) == canonical_report(clean)
    ((shard, (dead_pipe, dead_queue, dead_process), (pipe, process)),) = retired
    assert (shard.shard_id, shard.epoch) == (1, 1)
    # Not "nothing arrived in time": there is no descriptor left to read.
    assert dead_pipe.closed and not dead_process.is_alive()
    assert pipe is not dead_pipe and process is not dead_process
    with pytest.raises(OSError):
        dead_pipe.poll()
    with pytest.raises(ValueError):
        dead_queue.put_nowait(None)
    # finish() retired the successor's channels the same way.
    assert pipe.closed and not process.is_alive()


def test_every_kill_point_hit_count_and_shard_at_small_scope():
    """The tier-1 slice of ``python -m faultline --exhaustive``: SIGKILL
    deaths, 6 points x 6 hit counts x 2 shards."""
    fired = cases = 0
    for result, restarts in sweep_exhaustive(
        _workload,
        lambda: _stream(6 * 32 * 2),
        workers=2,
        modes=("kill",),
        batch_size=32,
        checkpoint_interval=1,
    ):
        assert result.identical, f"{result.spec}: recovered report differs"
        assert result.recovery.restarts == restarts, result.spec
        assert result.leaked_temporaries == [], result.spec
        assert glob.glob("/dev/shm/repro-ring-*") == [], result.spec
        fired += restarts
        cases += 1
    assert cases == len(KILL_POINTS) * 6 * 2
    # Both sides of "is the hit count reached" occur, so neither branch of
    # the prediction is vacuous; every point fires at least once per shard.
    assert 2 * len(KILL_POINTS) <= fired < cases
