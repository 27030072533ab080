"""Supervised worker recovery: the kill-point matrix, tier-1 sized.

The fault-tolerance contract (docs/DESIGN.md, "Fault tolerance") is that
a shard worker killed at *any* planted point — pre-fold,
mid-batch-decode, post-close-pre-ack, post-log-pre-snapshot (on the
checkpoint writer thread), pre-report, mid-report (half the report on
the pipe), by ``os._exit`` or self-SIGKILL — is restored from its last
checkpoint, replayed, and the merged report comes out **bit-identical**
to an uninterrupted run, with no leaked shared-memory segments or
orphaned checkpoint temp files.
This file runs a tier-1-sized slice of that matrix through
:func:`faultline.run_differential` (the full sweep is ``python -m
faultline``; the randomized version is ``benchmarks/soak.py`` — see
docs/TESTING.md, "soak tier") plus the failure-path pins: crash
diagnostics when recovery is off, restart-budget exhaustion, the spec
grammar, and epoch-scoped trigger arming.  Every test runs under the
``hard_deadline`` fixture: a driver hang is a traceback and a dead run.
"""

from __future__ import annotations

import glob
import pickle
import random

import pytest

from faultline import canonical_report, checkpoint_temp_files, run_differential
from repro.core import HamletEngine
from repro.errors import ExecutionError, WorkerCrashError
from repro.events import Event
from repro.query import Query, Window, kleene, seq
from repro.runtime import ShardedStreamingExecutor
from repro.runtime.checkpoint import CheckpointStore
from repro.runtime.faultpoints import (
    FAULT_EXIT_CODE,
    FAULTLINE_ENV,
    KILL_POINTS,
    FaultTrigger,
    parse_faultline,
    resolve_fault_hook,
)

pytestmark = pytest.mark.usefixtures("hard_deadline")

WINDOW = Window(16.0, 4.0)


class _ExplodingEngine(HamletEngine):
    """Raises mid-stream; per-instance path so ``process`` actually runs."""

    shared_window_flavor = None

    def process(self, event):
        if event.time >= 50.0:
            raise RuntimeError("engine exploded for the recovery crash test")
        super().process(event)


def _workload() -> list[Query]:
    return [
        Query.build(seq("A", kleene("B")), group_by=("g",), window=WINDOW, name="rcq1"),
        Query.build(seq("C", kleene("B")), group_by=("g",), window=WINDOW, name="rcq2"),
    ]


def _stream(size: int = 1500, seed: int = 11) -> list[Event]:
    rng = random.Random(seed)
    return [
        Event(
            rng.choices(("A", "B", "C"), weights=(1, 3, 1))[0],
            float(index) * 0.25,
            {"g": float(rng.randint(1, 6))},
        )
        for index in range(size)
    ]


def _assert_no_ring_leak():
    assert glob.glob("/dev/shm/repro-ring-*") == []


# --------------------------------------------------------------------- #
# The kill-point matrix (tier-1 slice; full sweep: python -m faultline)
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("point", KILL_POINTS)
def test_sigkill_at_every_point_recovers_bit_identically(point):
    nth = 1 if point.endswith("-report") else 3  # reached once per run
    result = run_differential(
        _workload,
        _stream,
        spec=f"{point}@1:{nth}:kill",
        workers=2,
    )
    assert result.identical, f"{point}: recovered report differs"
    assert result.recovery is not None and result.recovery.restarts == 1
    assert result.recovery.checkpoints >= 1
    assert result.leaked_temporaries == []
    _assert_no_ring_leak()


def test_exit_mode_death_recovers_too():
    result = run_differential(
        _workload, _stream, spec="post-close-pre-ack@0:2:exit", workers=2
    )
    assert result.identical
    assert result.recovery.restarts == 1
    # The merged metrics aggregate exactly the rows the report carries —
    # through the shard merge, and through a restore + replay.
    for report in (result.clean, result.injected):
        latencies = [row.emission_latency for row in report.partition_results]
        assert report.metrics.emissions == report.metrics.partitions == len(latencies) > 0
        assert report.metrics.average_emission_latency == pytest.approx(
            sum(latencies) / len(latencies)
        )
        assert report.metrics.max_emission_latency == max(latencies) > 0.0
        assert report.metrics.max_latency == max(row.seconds for row in report.partition_results)


@pytest.mark.parametrize("workers", [1, 4])
def test_recovery_is_shard_count_invariant(workers):
    result = run_differential(
        _workload,
        _stream,
        spec="pre-fold@0:2:kill",
        workers=workers,
    )
    assert result.identical
    assert result.recovery.restarts == 1
    _assert_no_ring_leak()


def test_double_kill_two_shards_same_run():
    result = run_differential(
        _workload,
        _stream,
        spec="pre-fold@0:2:kill;post-close-pre-ack@1:3:kill",
        workers=2,
    )
    assert result.identical
    assert result.recovery.restarts == 2


def test_replay_counters_are_populated():
    result = run_differential(
        _workload, _stream, spec="post-close-pre-ack@0:4:kill", workers=2
    )
    assert result.identical
    assert result.recovery.replayed_batches >= 1
    assert result.recovery.replayed_events >= 1
    assert result.recovery.checkpoint_bytes > 0


def test_uncovered_log_record_of_a_dead_writer_is_not_replayed_twice(tmp_path):
    """Death after a checkpoint's log append, before its snapshot rename:
    the respawn restores the previous snapshot, cuts the dead writer's
    record off and appends its own — the log ends up holding every closed
    window of the shard exactly once."""
    result = run_differential(
        _workload,
        _stream,
        spec="post-log-pre-snapshot@1:2:kill",
        workers=2,
        checkpoint_dir=str(tmp_path),
    )
    assert result.identical
    assert result.recovery.restarts == 1
    assert result.leaked_temporaries == []
    latest = CheckpointStore(tmp_path, shard_id=1).latest()
    assert latest.epoch == 1
    logged = sum(len(pickle.loads(delta)[1]) for delta in latest.output)
    assert logged == pickle.loads(pickle.loads(latest.payload)["core"])["_windows_closed"] > 0


def _late_stream() -> list[Event]:
    """``_stream`` with every 37th event of the first 60% delivered 40
    positions (10 time units) late — each one a retraction under
    ``allowed_lateness=4`` — and none after, so a stale row restored from
    the log cannot be rewritten again before the report."""
    events = _stream()
    for index in range(37, 900, 37):
        events.insert(index + 40, events.pop(index))
    return events


@pytest.mark.parametrize("point", KILL_POINTS)
def test_retraction_after_a_checkpoint_survives_every_kill_point(point):
    """``late_policy="retract"`` rewrites output rows an earlier checkpoint
    already logged, and every checkpoint after it must carry the rewritten
    rows.  Shard 0's last (12th) batch comes after its last retraction, so
    ``post-log-pre-snapshot`` there and ``pre-report`` — nothing replayed,
    the report is exactly what the log chain reassembles — are the sharp
    ones; the worker-loop points restore from wherever the async writer
    had got to, often before the retractions, which the replay then redoes."""
    nth = 1 if point.endswith("-report") else 12
    result = run_differential(
        _workload,
        _late_stream,
        spec=f"{point}@0:{nth}:kill",
        workers=2,
        checkpoint_interval=1,
        allowed_lateness=4.0,
        late_policy="retract",
    )
    assert result.clean.metrics.late_retracted > 10
    assert result.identical, f"{point}: recovered report differs"
    assert result.injected.metrics.late_retracted == result.clean.metrics.late_retracted
    assert result.recovery.restarts == 1
    assert result.leaked_temporaries == []
    _assert_no_ring_leak()


def test_reused_checkpoint_dir_never_restores_the_previous_runs_state(tmp_path):
    """A run starts by clearing its shards' files (the soak reuses one
    directory round after round): a worker that dies before its first
    checkpoint must come back empty, not "restored" into the last
    snapshot of whatever ran there before."""
    first = run_differential(
        _workload, _stream, spec="pre-fold@0:3:kill", workers=2, checkpoint_dir=str(tmp_path)
    )
    assert first.identical and first.recovery.checkpoints >= 1
    assert list(tmp_path.glob("shard000-e*.ckpt"))
    second = run_differential(
        _workload,
        lambda: _stream(seed=12),
        spec="pre-fold@0:1:kill",
        workers=2,
        checkpoint_dir=str(tmp_path),
    )
    assert second.identical
    assert second.recovery.restarts == 1


@pytest.mark.parametrize("workers", [0, 2])
def test_checkpoint_bytes_scale_with_the_stream_not_its_square(workers, tmp_path):
    """Twice the stream takes twice the checkpoints of the same size
    (deterministic: bytes, not seconds).  At the parent every checkpoint
    re-wrote the whole report so far: ~4x the bytes for 2x the stream."""

    def checkpoint_bytes(size: int) -> tuple[int, int]:
        report = ShardedStreamingExecutor(
            _workload(),
            workers=workers,
            shards=2 if workers == 0 else None,
            batch_size=64,
            checkpoint_dir=str(tmp_path / str(size)),
            checkpoint_interval=4,
        ).run(_stream(size))
        return report.recovery.checkpoints, report.recovery.checkpoint_bytes

    short_count, short_bytes = checkpoint_bytes(1500)
    long_count, long_bytes = checkpoint_bytes(3000)
    assert 1.8 * short_count <= long_count <= 2.2 * short_count
    assert long_bytes <= 2.3 * short_bytes


def test_scalar_ingest_replay_reships_frames_only(monkeypatch, tmp_path):
    """The replay tail of a worker fed by scalar ``process()`` calls is
    framed columnar bytes — the one thing a worker loop understands — and
    recovery re-ships exactly those, never event objects."""
    clean = ShardedStreamingExecutor(_workload(), workers=0, shards=2).run(_stream())
    monkeypatch.setenv(FAULTLINE_ENV, "post-close-pre-ack@1:4:kill")
    executor = ShardedStreamingExecutor(
        _workload(),
        workers=2,
        batch_size=64,
        checkpoint_dir=str(tmp_path),
        checkpoint_interval=4,
    )
    shipped: list[tuple] = []  # (in recovery?, queue message)
    recovering = False
    put, recover = executor._put, executor._recover

    def recording_put(shard, item):
        if item is not None:
            shipped.append((recovering, item))
            for _seq, payload, _events in shard.replay:
                assert type(payload) is bytes and payload[:5] == b"RPEB\x02"
        put(shard, item)

    def recording_recover(shard):
        nonlocal recovering
        recovering = True
        try:
            recover(shard)
        finally:
            recovering = False

    monkeypatch.setattr(executor, "_put", recording_put)
    monkeypatch.setattr(executor, "_recover", recording_recover)
    for event in _stream():
        executor.process(event)
    report = executor.finish()

    assert canonical_report(report) == canonical_report(clean)
    assert report.recovery.restarts == 1
    replayed = [item for in_recovery, item in shipped if in_recovery]
    assert len(replayed) == report.recovery.replayed_batches >= 1
    assert {item[0] for _, item in shipped} == {"raw"}
    for item in replayed:
        assert type(item[2]) is bytes and item[2][:5] == b"RPEB\x02"
    _assert_no_ring_leak()


# --------------------------------------------------------------------- #
# Failure paths
# --------------------------------------------------------------------- #
def test_crash_without_recovery_raises_worker_crash_error(monkeypatch):
    monkeypatch.setenv(FAULTLINE_ENV, "pre-fold@0:1:kill")
    executor = ShardedStreamingExecutor(_workload(), workers=2)  # no checkpoint_dir
    with pytest.raises(WorkerCrashError, match="died without a report") as excinfo:
        executor.run(_stream())
    error = excinfo.value
    assert error.shard_id == 0
    assert error.exit_code == -9
    assert "SIGKILL" in str(error)
    _assert_no_ring_leak()


def test_exit_code_death_is_reported_distinctly(monkeypatch):
    monkeypatch.setenv(FAULTLINE_ENV, "pre-fold@0:1:exit")
    executor = ShardedStreamingExecutor(_workload(), workers=2)
    with pytest.raises(WorkerCrashError, match=f"exit code {FAULT_EXIT_CODE}"):
        executor.run(_stream())


def test_max_restarts_exhaustion(monkeypatch, tmp_path):
    """``eany`` re-arms every incarnation: the budget runs out, and the
    error still carries the diagnostics of the last death."""
    monkeypatch.setenv(FAULTLINE_ENV, "pre-fold@0:1:kill:eany")
    executor = ShardedStreamingExecutor(
        _workload(), workers=2, checkpoint_dir=str(tmp_path), max_restarts=2
    )
    with pytest.raises(WorkerCrashError, match="died without a report") as excinfo:
        executor.run(_stream())
    assert excinfo.value.shard_id == 0
    assert excinfo.value.exit_code == -9
    assert checkpoint_temp_files(str(tmp_path)) == []
    _assert_no_ring_leak()


def test_worker_exceptions_still_ship_tracebacks(tmp_path):
    """Recovery handles deaths, not bugs: a raising engine is still an
    ExecutionError with the worker traceback, even with recovery on."""
    executor = ShardedStreamingExecutor(
        _workload(),
        engine_factory=_ExplodingEngine,
        workers=2,
        checkpoint_dir=str(tmp_path),
    )
    with pytest.raises(ExecutionError, match="engine exploded"):
        executor.run(_stream(600))


def test_constructor_validation():
    with pytest.raises(ExecutionError, match="checkpoint interval"):
        ShardedStreamingExecutor(_workload(), workers=1, checkpoint_dir="x", checkpoint_interval=0)
    with pytest.raises(ExecutionError, match="max_restarts"):
        ShardedStreamingExecutor(_workload(), workers=1, checkpoint_dir="x", max_restarts=-1)
    with pytest.raises(ExecutionError, match="replay_limit"):
        ShardedStreamingExecutor(_workload(), workers=1, checkpoint_dir="x", replay_limit=1)


def test_local_mode_checkpoints_without_processes(tmp_path):
    """workers=0 still writes restorable checkpoints (no supervisor)."""
    executor = ShardedStreamingExecutor(
        _workload(), workers=0, shards=2, checkpoint_dir=str(tmp_path), checkpoint_interval=1
    )
    report = executor.run(_stream(800))
    assert report.recovery is not None
    assert report.recovery.checkpoints >= 1
    assert checkpoint_temp_files(str(tmp_path)) == []


# --------------------------------------------------------------------- #
# Spec grammar + epoch arming
# --------------------------------------------------------------------- #
class TestFaultlineSpec:
    def test_full_grammar(self):
        triggers = parse_faultline("post-close-pre-ack@1:3:kill:e2")
        assert triggers == [
            FaultTrigger(point="post-close-pre-ack", shard=1, nth=3, mode="kill", epoch=2)
        ]

    def test_defaults(self):
        (trigger,) = parse_faultline("pre-fold")
        assert (trigger.shard, trigger.nth, trigger.mode, trigger.epoch) == (
            None,
            1,
            "exit",
            0,
        )

    def test_eany_arms_every_incarnation(self):
        (trigger,) = parse_faultline("pre-fold:eany")
        assert trigger.epoch is None

    def test_multiple_triggers(self):
        assert len(parse_faultline("pre-fold@0; pre-report@1:kill")) == 2

    @pytest.mark.parametrize(
        "bad",
        ["warp-core-breach", "pre-fold@x", "pre-fold:0", "pre-fold:sideways"],
    )
    def test_malformed_specs_raise(self, bad):
        with pytest.raises(ExecutionError, match="faultline spec"):
            parse_faultline(bad)

    def test_hook_is_none_when_unarmed(self, monkeypatch):
        monkeypatch.delenv(FAULTLINE_ENV, raising=False)
        assert resolve_fault_hook(0) is None

    def test_hook_filters_by_shard(self, monkeypatch):
        monkeypatch.setenv(FAULTLINE_ENV, "pre-fold@1:kill")
        assert resolve_fault_hook(0) is None
        assert resolve_fault_hook(1) is not None

    def test_hook_filters_by_epoch(self, monkeypatch):
        """Default e0: a respawned incarnation does not re-arm its own
        death — the property that makes recovery terminate at all."""
        monkeypatch.setenv(FAULTLINE_ENV, "pre-fold@0:kill")
        assert resolve_fault_hook(0, epoch=0) is not None
        assert resolve_fault_hook(0, epoch=1) is None

    def test_eany_hook_arms_every_epoch(self, monkeypatch):
        monkeypatch.setenv(FAULTLINE_ENV, "pre-fold@0:kill:eany")
        assert resolve_fault_hook(0, epoch=0) is not None
        assert resolve_fault_hook(0, epoch=5) is not None
