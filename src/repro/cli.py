"""Command-line entry point: ``python -m repro <command>``.

Commands:

* ``figures [fig9|fig10|fig11|fig12|fig13|table1|overhead|all]`` — run the
  experiment harness behind one (or every) figure of the paper and print the
  series as a table.
* ``demo`` — run the quickstart workload (the paper's running example) and
  print the shared versus non-shared results.
* ``stream`` — run a ridesharing workload through the single-pass
  :class:`~repro.runtime.StreamingExecutor`, printing every window result as
  it is emitted, followed by the latency/memory summary.

The CLI is a thin wrapper over :mod:`repro.bench`; anything it does can also
be done programmatically (see README.md).
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from typing import Callable, Sequence

from repro.bench import fig9, fig10, fig11, fig12, fig13, overhead, table1
from repro.errors import ExecutionError
from repro.runtime.reorder import validate_stream_options

_FIGURES: dict[str, Callable[[], None]] = {
    "fig9": fig9.main,
    "fig10": fig10.main,
    "fig11": fig11.main,
    "fig12": fig12.main,
    "fig13": fig13.main,
    "table1": table1.main,
    "overhead": overhead.main,
}


def _run_figures(names: Sequence[str]) -> None:
    targets = list(_FIGURES) if "all" in names else list(names)
    for name in targets:
        if name not in _FIGURES:
            raise SystemExit(f"unknown figure {name!r}; choose from {', '.join(_FIGURES)} or 'all'")
        print(f"==== {name} " + "=" * (60 - len(name)))
        _FIGURES[name]()
        print()


def _run_demo() -> None:
    from repro.core import HamletEngine
    from repro.events import Event, EventStream
    from repro.greta import GretaEngine
    from repro.query import Query, Window, kleene, seq
    from repro.runtime import WorkloadExecutor

    queries = [
        Query.build(seq("A", kleene("B")), window=Window.minutes(10), name="q1"),
        Query.build(seq("C", kleene("B")), window=Window.minutes(10), name="q2"),
    ]
    stream = EventStream(
        [Event("A", 0.0), Event("A", 1.0), Event("C", 2.0)]
        + [Event("B", 3.0 + i) for i in range(4)]
    )
    hamlet = WorkloadExecutor(queries, HamletEngine).run(stream)
    greta = WorkloadExecutor(queries, GretaEngine).run(stream)
    print("HAMLET (shared):   ", {k: round(v) for k, v in sorted(hamlet.totals.items())})
    print("GRETA (non-shared):", {k: round(v) for k, v in sorted(greta.totals.items())})


def _print_late_event(event) -> None:
    """Side-output printer for ``--late-policy side_output`` (module level:
    reprolint RL003 keeps every process-boundary callable picklable, and the
    sharded executor takes this callback even though it only runs driver-side
    with ``workers=0``)."""
    print(f"late event: {event.event_type} at {event.time:.1f}s routed to side output")


def _hamlet_with_policy(policy: str):
    """Module-level engine factory: picklable for shard workers even under
    the ``spawn`` multiprocessing start method (a lambda would not be)."""
    from repro.core import HamletEngine
    from repro.optimizer import OPTIMIZER_POLICIES

    return HamletEngine(OPTIMIZER_POLICIES[policy]())


def _run_stream(
    queries: int,
    minutes: float,
    events_per_minute: float,
    shared_windows: bool,
    workers: int | None,
    shard_batch: int,
    optimizer: str | None,
    allowed_lateness: float | None,
    late_policy: str,
    on_late: Callable[..., None] | None,
    checkpoint_dir: str | None,
    checkpoint_interval: int,
    max_restarts: int,
) -> None:
    from repro.core import HamletEngine
    from repro.datasets.ridesharing import RidesharingGenerator
    from repro.query import Window
    from repro.runtime import ShardedStreamingExecutor, StreamingExecutor, WindowResult
    from repro.bench.workloads import kleene_sharing_workload, multi_aggregate_workload

    window = Window.minutes(1.0, 0.2)  # overlapping: slide = size/5
    if optimizer is not None:
        # Adaptive sharing needs query classes with something to share:
        # runs of identical patterns differing only in their aggregate.
        workload = multi_aggregate_workload(queries, kleene_type="Travel", window=window)
        engine_factory = functools.partial(_hamlet_with_policy, optimizer)
    else:
        workload = kleene_sharing_workload(queries, kleene_type="Travel", window=window)
        engine_factory = HamletEngine
    stream = RidesharingGenerator(
        events_per_minute=events_per_minute, seed=7, districts=3
    ).generate(minutes * 60.0)

    def print_decisions(report) -> None:
        if optimizer is None:
            return
        statistics = report.optimizer_statistics
        if statistics is None or not statistics.decisions:
            print(f"optimizer {optimizer}: no sharing decisions (no eligible query classes)")
            return
        print(
            f"optimizer {optimizer}: {statistics.decisions} decisions, "
            f"{statistics.shared_bursts} shared / {statistics.non_shared_bursts} "
            f"non-shared bursts (shared fraction "
            f"{statistics.shared_fraction * 100.0:.1f}%), "
            f"{statistics.merges} merges, {statistics.splits} splits"
        )

    def emit(result: WindowResult) -> None:
        total = sum(result.results.values())
        flag = " (retraction)" if result.retraction else ""
        print(
            f"window [{result.window_start:7.1f}s, {result.window_end:7.1f}s) "
            f"group={result.group_key} events={result.events:5d} "
            f"trends={total:g} latency={result.emission_latency * 1e3:.2f}ms{flag}"
        )

    def print_lateness(metrics) -> None:
        if allowed_lateness is None:
            return
        print(
            f"lateness horizon {allowed_lateness:g}s, policy {late_policy}: "
            f"{metrics.late_dropped} dropped, {metrics.late_side_output} "
            f"side-output, {metrics.late_retracted} retracted"
        )

    if workers is not None:
        # Sharded run: window results cross process boundaries at finish(),
        # so the per-window live feed is replaced by the per-shard summary.
        executor = ShardedStreamingExecutor(
            workload,
            engine_factory,
            workers=workers,
            batch_size=shard_batch,
            shared_windows=shared_windows,
            optimizer=optimizer,
            allowed_lateness=allowed_lateness,
            late_policy=late_policy,
            on_late=on_late,
            checkpoint_dir=checkpoint_dir,
            checkpoint_interval=checkpoint_interval,
            max_restarts=max_restarts,
        )
        report = executor.run(stream)
        metrics = report.metrics
        print(
            f"sharded execution: {executor.shard_count} shard(s), "
            f"{workers} worker process(es), routing by {executor.routing_mode}, "
            f"batches of {shard_batch}"
        )
        for shard in report.shards:
            print(
                f"  shard {shard.shard_id}: {shard.events:6d} events "
                f"in {shard.batches} batches -> "
                f"{shard.report.metrics.partitions} windows"
            )
        print(
            f"{metrics.stream_events} events -> {metrics.partitions} windows "
            f"in {metrics.wall_seconds:.3f}s wall = "
            f"{metrics.throughput_wall:,.0f} events/s wall-clock "
            f"({metrics.throughput_engine:,.0f} events/s per engine-second)"
        )
        recovery = report.recovery
        if recovery is not None:
            print(
                f"recovery: {recovery.restarts} restart(s), "
                f"{recovery.replayed_events} event(s) replayed in "
                f"{recovery.replayed_batches} batch(es), "
                f"{recovery.checkpoints} checkpoint(s) / "
                f"{recovery.checkpoint_bytes:,} bytes written "
                f"(driver waited {metrics.driver_wait_seconds:.3f}s)"
            )
        print_lateness(metrics)
        print_decisions(report)
        return

    executor = StreamingExecutor(
        workload,
        engine_factory,
        on_window=emit,
        shared_windows=shared_windows,
        optimizer=optimizer,
        allowed_lateness=allowed_lateness,
        late_policy=late_policy,
        on_late=on_late,
    )
    report = executor.run(stream)
    metrics = report.metrics
    overlap_factor = window.instances_per_event
    feeds_per_event = (
        executor.engine_feeds / metrics.stream_events if metrics.stream_events else 0.0
    )
    mode = "shared-window" if shared_windows else "per-instance"
    print(
        f"\n{metrics.stream_events} events -> {metrics.partitions} windows, "
        f"peak {metrics.peak_active_windows} active "
        f"(avg emission latency {metrics.average_emission_latency * 1e3:.2f}ms, "
        f"peak memory {metrics.peak_memory_units} units)"
    )
    print(
        f"{mode} execution: overlap factor {overlap_factor} "
        f"(ceil(size/slide)), {executor.engine_feeds} engine feeds = "
        f"{feeds_per_event:.2f} per event"
    )
    print(
        f"wall-clock throughput: {metrics.throughput_wall:,.0f} events/s "
        f"({metrics.wall_seconds:.3f}s wall)"
    )
    print_lateness(metrics)
    print_decisions(report)


def _non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be finite and > 0, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="HAMLET reproduction: adaptive shared online event trend aggregation",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    figures = subparsers.add_parser("figures", help="regenerate the paper's figures")
    figures.add_argument(
        "names", nargs="*", default=["all"], help="figure ids (fig9..fig13, table1, overhead, all)"
    )
    subparsers.add_parser("demo", help="run the quickstart workload")
    stream = subparsers.add_parser(
        "stream", help="run the single-pass streaming executor, emitting window results live"
    )
    stream.add_argument(
        "--queries", type=_positive_int, default=5, help="number of workload queries"
    )
    stream.add_argument(
        "--minutes", type=_positive_float, default=2.0, help="stream duration in minutes"
    )
    stream.add_argument(
        "--events-per-minute", type=_positive_float, default=1200.0, help="stream arrival rate"
    )
    stream.add_argument(
        "--shared-windows",
        dest="shared_windows",
        action="store_true",
        default=True,
        help="evaluate overlapping window instances with one shared engine (default)",
    )
    stream.add_argument(
        "--no-shared-windows",
        dest="shared_windows",
        action="store_false",
        help="fall back to one engine per window instance (the reference path)",
    )
    stream.add_argument(
        "--workers",
        type=_non_negative_int,
        default=None,
        metavar="N",
        help="run sharded: N worker processes (0 = shard in-process); "
        "default is the unsharded single-process executor",
    )
    stream.add_argument(
        "--shard-batch",
        type=_positive_int,
        default=512,
        metavar="SIZE",
        help="events per batch shipped to shard workers (default: 512)",
    )
    stream.add_argument(
        "--optimizer",
        choices=("dynamic", "always", "never", "static"),
        default=None,
        help="adaptive per-burst sharing policy (uses the multi-aggregate "
        "workload so query classes have members to share); default: the "
        "static compile-time plan with no burst segmentation",
    )
    stream.add_argument(
        "--allowed-lateness",
        type=float,
        default=None,
        metavar="SECONDS",
        help="buffer and re-sort events arriving up to SECONDS behind the "
        "max event time seen (the watermark) instead of rejecting any "
        "out-of-order arrival; default: strict in-order ingestion",
    )
    stream.add_argument(
        "--late-policy",
        choices=("raise", "drop", "side_output", "retract"),
        default="raise",
        help="what to do with events later than the --allowed-lateness "
        "horizon: fail the run, drop (counted), hand to a side-output "
        "callback, or retract-and-recompute the affected windows "
        "(default: raise)",
    )
    stream.add_argument(
        "--checkpoint-dir",
        metavar="PATH",
        default=None,
        help="checkpoint shard state into PATH at window boundaries and "
        "supervise workers: a crashed worker is respawned, restored from "
        "its last checkpoint and fed the replayed tail (requires "
        "--workers; default: no checkpointing, crashes are fatal)",
    )
    stream.add_argument(
        "--checkpoint-interval",
        type=_positive_int,
        default=16,
        metavar="N",
        help="windows closed between checkpoints (default: 16)",
    )
    stream.add_argument(
        "--max-restarts",
        type=_non_negative_int,
        default=3,
        metavar="K",
        help="worker respawns before a crash becomes fatal (default: 3)",
    )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    arguments = parser.parse_args(argv)
    on_late = None
    if arguments.command == "stream":
        if arguments.late_policy == "side_output":
            on_late = _print_late_event
        try:
            # The executors' own check: the CLI accepts what they accept.
            validate_stream_options(
                arguments.optimizer, arguments.allowed_lateness, arguments.late_policy, on_late
            )
        except ExecutionError as error:
            parser.error(str(error))
    if (
        arguments.command == "stream"
        and arguments.late_policy == "side_output"
        and arguments.workers is not None
        and arguments.workers > 0
    ):
        parser.error(
            "--late-policy side_output requires --workers 0 or the "
            "unsharded executor (the side-output callback cannot cross "
            "a process boundary)"
        )
    if (
        arguments.command == "stream"
        and arguments.checkpoint_dir is not None
        and arguments.workers is None
    ):
        parser.error(
            "--checkpoint-dir requires --workers (checkpointing belongs to "
            "the sharded runtime)"
        )
    if arguments.command == "figures":
        _run_figures(arguments.names or ["all"])
    elif arguments.command == "demo":
        _run_demo()
    elif arguments.command == "stream":
        _run_stream(
            arguments.queries,
            arguments.minutes,
            arguments.events_per_minute,
            arguments.shared_windows,
            arguments.workers,
            arguments.shard_batch,
            arguments.optimizer,
            arguments.allowed_lateness,
            arguments.late_policy,
            on_late,
            arguments.checkpoint_dir,
            arguments.checkpoint_interval,
            arguments.max_restarts,
        )
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
