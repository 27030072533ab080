"""faultline — differential fault-injection harness for the sharded runtime.

The recovery machinery's oracle is *bit-identical reports*: SIGKILL (or
``os._exit``) a shard worker at the worst possible instant, let the
driver recover it, and the merged report must equal — canonically
serialized, byte for byte — the report of an uninterrupted run.  This
package orchestrates that experiment:

* :func:`canonical_report` — the canonical serialization both sides are
  compared under (totals + ordered partition results, the same form the
  determinism test suite uses);
* :func:`run_differential` — run one workload twice over the same
  synthetic stream, clean and with a :mod:`repro.runtime.faultpoints`
  spec armed, and report whether the two canonical forms match along
  with the recovery counters;
* :func:`sweep_exhaustive` — the small-scope enumeration: on a stream
  of a few batches per shard, *every* kill point × hit count × shard ×
  death mode, each held to bit-identity and to the restart count the
  trigger's reachability predicts (enumerate the state space instead of
  sampling it);
* ``python -m faultline`` (see :mod:`faultline.cli`) — sweep kill
  points × modes × transports from the command line (``--exhaustive``:
  the enumeration above); exit 0 only if every injected run recovered
  to bit-identity.

The kill points themselves live in the runtime
(:mod:`repro.runtime.faultpoints`): deaths must happen *inside* the
worker loop at named sites, which no external killer can time reliably.
This package is only the driver of the experiment.  Randomized
minutes-scale soaking (external SIGKILLs at random times, memory-ceiling
tracking) lives in ``benchmarks/soak.py`` and reuses these helpers.
"""

from __future__ import annotations

import glob
import itertools
import json
import os
import tempfile
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional, Sequence

from repro.events.event import Event
from repro.query.query import Query
from repro.runtime.executor import ExecutionReport
from repro.runtime.checkpoint import CheckpointStore
from repro.runtime.faultpoints import FAULTLINE_ENV, KILL_POINTS, parse_faultline
from repro.runtime.metrics import RecoveryStats
from repro.runtime.sharding import ShardedStreamingExecutor

__all__ = [
    "DifferentialResult",
    "canonical_report",
    "checkpoint_temp_files",
    "run_differential",
    "sweep_exhaustive",
]


def canonical_report(report: ExecutionReport) -> str:
    """The canonical serialization reports are compared under.

    Totals sorted by query name plus the partition results in their
    merged (deterministic) order — group keys via ``repr`` so numeric
    collapse (``4`` vs ``4.0``) cannot hide a routing difference.  Two
    runs are "bit-identical" exactly when these strings are equal.
    """
    return json.dumps(
        {
            "totals": sorted(report.totals.items()),
            "partitions": [
                [
                    repr(partition.group_key),
                    partition.window_index,
                    sorted(partition.results.items()),
                ]
                for partition in report.partition_results
            ],
        },
        sort_keys=True,
    )


def checkpoint_temp_files(directory: str) -> list[str]:
    """Orphaned checkpoint temp files under ``directory`` (leak check)."""
    return sorted(glob.glob(os.path.join(directory, "*.tmp")))


@dataclass
class DifferentialResult:
    """Outcome of one clean-versus-injected comparison."""

    #: The armed :data:`~repro.runtime.faultpoints.FAULTLINE_ENV` spec.
    spec: str
    #: Canonical forms matched (the recovery contract held).
    identical: bool
    #: Recovery counters of the injected run (restarts, replay, bytes).
    recovery: Optional[RecoveryStats]
    #: Orphaned checkpoint temp files left behind by the injected run.
    leaked_temporaries: list[str]
    #: The two reports, for post-mortems when ``identical`` is False.
    clean: ExecutionReport
    injected: ExecutionReport


def run_differential(
    workload_factory: Callable[[], Sequence[Query]],
    stream_factory: Callable[[], Iterable[Event]],
    *,
    spec: str,
    workers: int,
    transport: str = "pickle",
    batch_size: int = 64,
    checkpoint_interval: int = 4,
    max_restarts: int = 8,
    checkpoint_dir: Optional[str] = None,
    clean: Optional[ExecutionReport] = None,
    **options: object,
) -> DifferentialResult:
    """Run clean then injected, and compare canonically.

    The clean run uses the in-process sharded executor (same router and
    merge, no processes to kill) at the same shard count — or is the
    ``clean`` report a sweep over one stream already has; the injected
    run arms ``spec`` in :data:`FAULTLINE_ENV` (empty: nothing armed) for
    its worker pool and runs with checkpointing + supervision enabled.
    Factories (not values) keep the two runs independent: each builds its
    own workload objects and replays its own stream.  ``options``
    (lateness, late policy, ...) go to both executors.
    """
    parse_faultline(spec)  # fail fast on a malformed spec
    if clean is None:
        clean = ShardedStreamingExecutor(
            list(workload_factory()), workers=0, shards=workers, **options
        ).run(stream_factory())
    previous = os.environ.get(FAULTLINE_ENV)
    owned_dir: Optional[tempfile.TemporaryDirectory] = None
    if checkpoint_dir is None:
        owned_dir = tempfile.TemporaryDirectory(prefix="faultline-ckpt-")
        checkpoint_dir = owned_dir.name
    try:
        os.environ[FAULTLINE_ENV] = spec
        injected = ShardedStreamingExecutor(
            list(workload_factory()),
            workers=workers,
            batch_size=batch_size,
            transport=transport,
            checkpoint_dir=checkpoint_dir,
            checkpoint_interval=checkpoint_interval,
            max_restarts=max_restarts,
            **options,
        ).run(stream_factory())
        leaked = checkpoint_temp_files(checkpoint_dir)
    finally:
        if previous is None:
            os.environ.pop(FAULTLINE_ENV, None)
        else:
            os.environ[FAULTLINE_ENV] = previous
        if owned_dir is not None:
            owned_dir.cleanup()
    recovery = injected.recovery if isinstance(injected.recovery, RecoveryStats) else None
    return DifferentialResult(
        spec=spec,
        identical=canonical_report(clean) == canonical_report(injected),
        recovery=recovery,
        leaked_temporaries=leaked,
        clean=clean,
        injected=injected,
    )


def sweep_exhaustive(
    workload_factory: Callable[[], Sequence[Query]],
    stream_factory: Callable[[], Iterable[Event]],
    *,
    workers: int = 2,
    transport: str = "pickle",
    modes: Sequence[str] = ("exit", "kill"),
    max_hit: int = 6,
    **options: object,
) -> Iterator[tuple[DifferentialResult, int]]:
    """Every ``kill point x hit count 1..max_hit x shard x mode`` over one
    small stream: yields each case's result with the restart count it must
    show — 1 where the trigger fires, 0 where the shard's original worker
    never reaches the hit count.

    How often a worker reaches each site is read off one pooled run with
    nothing armed, not guessed: once per batch the driver shipped it for
    the worker-loop sites, once per record of its output log for
    ``post-log-pre-snapshot``, once for the two report sites.  All of it
    is fixed by the stream and the options, none of it by timing.
    """
    with tempfile.TemporaryDirectory(prefix="faultline-probe-") as probe_dir:
        probe = run_differential(
            workload_factory,
            stream_factory,
            spec="",
            workers=workers,
            transport=transport,
            checkpoint_dir=probe_dir,
            **options,
        )
        writes = []
        for shard_id in range(workers):
            latest = CheckpointStore(probe_dir, shard_id).latest()
            writes.append(0 if latest is None else len(latest.output))
    assert probe.identical and probe.recovery.restarts == 0
    for point, hit, shard, mode in itertools.product(
        KILL_POINTS, range(1, max_hit + 1), range(workers), modes
    ):
        if point == "post-log-pre-snapshot":
            reached = writes[shard]
        elif point.endswith("-report"):
            reached = 1
        else:
            reached = probe.injected.shards[shard].batches
        result = run_differential(
            workload_factory,
            stream_factory,
            spec=f"{point}@{shard}:{hit}:{mode}",
            workers=workers,
            transport=transport,
            clean=probe.clean,
            **options,
        )
        yield result, int(hit <= reached)
