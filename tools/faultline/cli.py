"""Console entry point: ``python -m faultline``.

Sweeps kill points × death modes over a fixed-seed synthetic workload,
running each spec through :func:`faultline.run_differential`, and prints
one verdict line per case.  Exit status: 0 when every injected run
recovered to a bit-identical report with at least one restart and no
leaked checkpoint temp files, 1 otherwise, 2 on usage errors.

The default sweep covers every kill point with both ``exit`` and
SIGKILL deaths; ``--spec`` replaces it with one explicit
:data:`~repro.runtime.faultpoints.FAULTLINE_ENV` spec; ``--exhaustive``
replaces it with the small-scope enumeration
(:func:`faultline.sweep_exhaustive`): on a stream of about six batches
per shard, every kill point x hit count 1..6 x shard x death mode, where
a case passes with *exactly* the restarts its trigger's reachability
predicts.  Every case runs under a hard deadline
(:data:`CASE_DEADLINE_SECONDS`): a hung driver dumps its tracebacks and
exits nonzero.
"""

from __future__ import annotations

import argparse
import faulthandler
import glob
import random
import sys
from typing import Iterator, Optional, Sequence

from faultline import run_differential, sweep_exhaustive
from repro.events.event import Event
from repro.query.query import Query
from repro.query.windows import Window
from repro.runtime.faultpoints import KILL_POINTS

__all__ = ["main"]

#: Hard deadline of one injected run (they take well under a second).
CASE_DEADLINE_SECONDS = 60.0
#: The small-scope stream: events per batch, batches per shard (about).
EXHAUSTIVE_BATCH_SIZE = 32
EXHAUSTIVE_BATCHES = 6


def _workload() -> list[Query]:
    from repro.query import kleene, seq

    window = Window(16.0, 4.0)
    return [
        Query.build(seq("A", kleene("B")), group_by=("g",), window=window, name="flq1"),
        Query.build(seq("C", kleene("B")), group_by=("g",), window=window, name="flq2"),
    ]


def _stream(size: int, seed: int) -> list[Event]:
    rng = random.Random(seed)
    events = []
    for index in range(size):
        type_name = rng.choices(("A", "B", "C"), weights=(1, 3, 1))[0]
        events.append(
            Event(type_name, float(index) * 0.25, {"g": float(rng.randint(1, 8))})
        )
    return events


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="faultline",
        description="Differential fault injection for the sharded runtime: "
        "kill a worker at a chosen point, recover, demand bit-identity.",
    )
    parser.add_argument(
        "--spec",
        default=None,
        help="explicit faultline spec (point[@shard][:nth][:mode][:e<N>|:eany]); "
        "default: sweep every kill point in both exit and kill modes",
    )
    parser.add_argument(
        "--exhaustive",
        action="store_true",
        help="enumerate kill point x hit count 1..6 x shard x mode over a "
        "six-batch stream instead (ignores --events, --batch-size and "
        "--checkpoint-interval)",
    )
    parser.add_argument(
        "--workers", type=int, default=2, help="shard worker processes (default: 2)"
    )
    parser.add_argument(
        "--events", type=int, default=3000, help="synthetic stream length (default: 3000)"
    )
    parser.add_argument("--seed", type=int, default=7, help="stream seed (default: 7)")
    parser.add_argument(
        "--batch-size", type=int, default=64, help="events per shipped batch (default: 64)"
    )
    parser.add_argument(
        "--checkpoint-interval",
        type=int,
        default=4,
        help="windows between checkpoints (default: 4)",
    )
    return parser


def _sweep_specs(workers: int) -> list[str]:
    # One death per case, on a non-zero shard when there is one (exercises
    # the routing of recovery to the right shard).  pre-report is reached
    # once per run, so it fires on its first hit; loop-interior points
    # fire a few batches in.
    shard = 1 if workers > 1 else 0
    specs = []
    for point in KILL_POINTS:
        nth = 1 if point.endswith("-report") else 3
        for mode in ("exit", "kill"):
            specs.append(f"{point}@{shard}:{nth}:{mode}")
    return specs


def _under_deadline(sweep: Iterator) -> Iterator:
    """``sweep``, each step of it — one injected run — under the hard
    deadline: a hang becomes a traceback dump and a nonzero exit."""
    while True:
        faulthandler.dump_traceback_later(CASE_DEADLINE_SECONDS, exit=True)
        try:
            case = next(sweep, None)
        finally:
            faulthandler.cancel_dump_traceback_later()
        if case is None:
            return
        yield case


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    arguments = parser.parse_args(argv)
    if arguments.workers < 1:
        parser.error("--workers must be >= 1 (fault injection needs processes to kill)")
    if arguments.exhaustive and arguments.spec:
        parser.error("--exhaustive enumerates its own specs; drop --spec")
    failures = cases = 0
    if arguments.exhaustive:
        events = EXHAUSTIVE_BATCHES * EXHAUSTIVE_BATCH_SIZE * arguments.workers
        sweep = sweep_exhaustive(
            _workload,
            lambda: _stream(events, arguments.seed),
            workers=arguments.workers,
            batch_size=EXHAUSTIVE_BATCH_SIZE,
            checkpoint_interval=1,
        )
    else:
        specs = [arguments.spec] if arguments.spec else _sweep_specs(arguments.workers)
        sweep = (
            (
                run_differential(
                    _workload,
                    lambda: _stream(arguments.events, arguments.seed),
                    spec=spec,
                    workers=arguments.workers,
                    batch_size=arguments.batch_size,
                    checkpoint_interval=arguments.checkpoint_interval,
                ),
                None,  # any restart count >= 1 will do
            )
            for spec in specs
        )
    for result, expected in _under_deadline(sweep):
        restarts = result.recovery.restarts if result.recovery else 0
        ok = (
            result.identical
            and (restarts >= 1 if expected is None else restarts == expected)
            and not result.leaked_temporaries
            and not glob.glob("/dev/shm/repro-ring-*")
        )
        cases += 1
        failures += 0 if ok else 1
        if ok and arguments.exhaustive:
            continue  # 144 "ok" lines help nobody
        verdict = "ok" if ok else "FAIL"
        print(
            f"{verdict:4s} {result.spec:32s} "
            f"identical={result.identical} restarts={restarts} "
            f"replayed={result.recovery.replayed_batches if result.recovery else 0} "
            f"leaked_tmp={len(result.leaked_temporaries)}"
        )
    if failures:
        print(f"{failures} of {cases} case(s) failed")
        return 1
    print(f"all {cases} cases recovered to bit-identical reports")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
