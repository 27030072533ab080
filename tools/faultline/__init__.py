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
* ``python -m faultline`` (see :mod:`faultline.cli`) — sweep kill
  points × modes × transports from the command line; exit 0 only if
  every injected run recovered to bit-identity.

The kill points themselves live in the runtime
(:mod:`repro.runtime.faultpoints`): deaths must happen *inside* the
worker loop at named sites, which no external killer can time reliably.
This package is only the driver of the experiment.  Randomized
minutes-scale soaking (external SIGKILLs at random times, memory-ceiling
tracking) lives in ``benchmarks/soak.py`` and reuses these helpers.
"""

from __future__ import annotations

import glob
import json
import os
import tempfile
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

from repro.events.event import Event
from repro.query.query import Query
from repro.runtime.executor import ExecutionReport
from repro.runtime.faultpoints import FAULTLINE_ENV, parse_faultline
from repro.runtime.metrics import RecoveryStats
from repro.runtime.sharding import ShardedStreamingExecutor

__all__ = [
    "DifferentialResult",
    "canonical_report",
    "checkpoint_temp_files",
    "run_differential",
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
    **options: object,
) -> DifferentialResult:
    """Run clean then injected, and compare canonically.

    The clean run uses the in-process sharded executor (same router and
    merge, no processes to kill) at the same shard count; the injected
    run arms ``spec`` in :data:`FAULTLINE_ENV` for its worker pool and
    runs with checkpointing + supervision enabled.  Factories (not
    values) keep the two runs independent: each builds its own workload
    objects and replays its own stream.  ``options`` (lateness, late
    policy, ...) go to both executors.
    """
    parse_faultline(spec)  # fail fast on a malformed spec
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
