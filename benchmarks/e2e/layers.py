"""Per-layer view: trace targets, the traced pass, and one-layer drivers.

Layers are the product's module names.  Two things measure them:

* the **traced pass** (:func:`traced_pass`) wraps each layer's public entry
  points (``TARGETS``) and reports ``<layer>.self_s`` / ``.calls`` /
  ``.rows`` for one full pass of a workload;
* the **drivers** (``DRIVERS``) run one layer *outside* the executor, on
  frames cut from the same stream, and report a rate — so a profiler lands
  on that layer alone::

      python3 benchmarks/e2e/layers.py runtime.reorder --profile

Every product symbol below is resolved by dotted name at run time.  When one
is gone the affected metrics read ``null`` and one warning line is printed;
nothing here can fail a run.
"""

from __future__ import annotations

import argparse
import multiprocessing
import pickle
import statistics
import sys
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Optional

if __name__ == "__main__":  # run as a script: find the product and this package
    _root = Path(__file__).resolve().parents[2]
    sys.path[:0] = [str(_root / "src"), str(_root / "benchmarks")]

from e2e import workloads  # noqa: E402
from e2e.spans import ROOT, Target, Tracer, resolve, warn_gone  # noqa: E402

# ---------------------------------------------------------------------- #
# Trace targets: layer -> wrapped public entry points
# ---------------------------------------------------------------------- #
def _len_result(args, result):
    return len(result)


def _len_self(args, result):
    return len(args[0])


def _len_first(args, result):
    return len(args[1])


def _one(args, result):
    return 1


_BLOCK = "repro.events.block.EventBlock"
_REORDER = "repro.runtime.reorder.ReorderBuffer"
_WINDOW = "repro.query.windows.Window"
_STREAMING = "repro.runtime.streaming.StreamingExecutor"
_ENGINE = "repro.runtime.shared_windows.MultiWindowLinearEngine"
_KERNEL = "repro.core.kernels.KernelBackend"
_SHARDED = "repro.runtime.sharding.ShardedStreamingExecutor"
_TRANSPORT = "repro.runtime.transport"

TARGETS: list[Target] = [
    Target("events", _BLOCK + ".from_bytes", _len_result),
    Target("events", _BLOCK + ".to_bytes", _len_self),
    Target("events", _BLOCK + ".select", _len_result),
    Target("events", "repro.events.columnar.decode_events", _len_result),
    Target("runtime.reorder", _REORDER + ".push", _one),
    Target("runtime.reorder", _REORDER + ".add", _one),
    Target("runtime.reorder", _REORDER + ".add_segment", _len_first),
    Target("runtime.reorder", _REORDER + ".release_ready"),
    Target("runtime.reorder", _REORDER + ".flush"),
    Target("query.windows", _WINDOW + ".instance_range_columns", lambda a, r: len(r[0])),
    Target("query.windows", _WINDOW + ".instance_indices_covering", _one),
    Target("runtime.streaming", _STREAMING + ".process", _one),
    Target("runtime.streaming", _STREAMING + ".process_block", _len_first),
    Target("runtime.streaming", _STREAMING + ".finish"),
    Target("runtime.shared_windows", _ENGINE + ".process", _one),
    Target("runtime.shared_windows", _ENGINE + ".process_burst", _len_first),
    Target("runtime.shared_windows", _ENGINE + ".process_block_run", lambda a, r: len(a[2])),
    Target("runtime.shared_windows", _ENGINE + ".close_window"),
    Target("runtime.shared_windows", _ENGINE + ".apply_burst_decision"),
    Target("core.kernels", _KERNEL + ".fold_scalar_run", lambda a, r: a[5]),
    Target("core.kernels", _KERNEL + ".fold_vector_run", lambda a, r: len(a[5])),
    Target("optimizer", "repro.optimizer.decisions.SharingOptimizer.decide"),
    Target("runtime.sharding", "repro.runtime.sharding.ShardRouter.route_block", _len_first),
    Target("runtime.sharding", _SHARDED + ".process_block", _len_first),
    Target("runtime.sharding", _SHARDED + ".finish", duration_metric="runtime.sharding.finish_s"),
    Target("runtime.sharding", _SHARDED + "._start_shards", duration_metric="runtime.sharding.spawn_s"),
    Target("runtime.transport", _TRANSPORT + ".SlabRing.acquire"),
    Target("runtime.transport", _TRANSPORT + ".SlabRing.write"),
    Target("runtime.transport", _TRANSPORT + ".SlabReader.view"),
    Target("runtime.transport", _TRANSPORT + ".SlabReader.ack"),
    Target("runtime.checkpoint", _STREAMING + ".snapshot_state"),
    Target("runtime.checkpoint", _STREAMING + ".restore_state"),
    Target("runtime.checkpoint", "repro.runtime.checkpoint.CheckpointStore.write"),
]
LAYERS: tuple[str, ...] = tuple(dict.fromkeys(target.layer for target in TARGETS))
#: What runs inside the driver process of a multi-worker run; the rest runs
#: in the workers and is traced on the in-process twin instead.
DRIVER_SIDE = ("events", "runtime.sharding", "runtime.transport")
WORKER_SIDE = tuple(layer for layer in LAYERS if layer not in DRIVER_SIDE[1:])


def traced_pass(inputs, sink, tracer: Tracer, *, layers=LAYERS, **pass_options):
    """One pass with ``layers`` wrapped, its spans recorded into ``tracer``."""
    tracer.install([target for target in TARGETS if target.layer in layers])
    try:
        return tracer.run(lambda: workloads.run_pass(inputs, sink, **pass_options))
    finally:
        tracer.uninstall()


def span_metrics(tracer: Tracer, layers=LAYERS, prefix: str = "") -> dict:
    """``<layer>.self_s/.calls/.rows`` (``null`` for layers with a gone target)."""
    summary = tracer.summary()
    metrics: dict[str, Optional[float]] = {}
    for layer in layers:
        entry = summary.get(layer, {"self_s": 0.0, "calls": 0, "rows": 0})
        gone = layer in tracer.missing_layers
        for key in ("self_s", "calls", "rows"):
            metrics[f"{prefix}{layer}.{key}"] = None if gone else entry[key]
    return metrics


# ---------------------------------------------------------------------- #
# One-layer drivers
# ---------------------------------------------------------------------- #
#: Frames a driver works on: enough rows for a stable rate, few enough that
#: all drivers together stay within a few seconds.
DRIVER_FRAMES = 8
DRIVER_SECONDS = 0.12


class DriverData:
    """Frames cut from a workload's stream, in both arrival orders."""

    def __init__(self, inputs, seconds: float = DRIVER_SECONDS) -> None:
        self.inputs = inputs
        #: Measuring time of each rate a driver reports.
        self.seconds = seconds
        self.frames = inputs.frames[:DRIVER_FRAMES]
        from_bytes = resolve(_BLOCK + ".from_bytes")
        blocks = [from_bytes(frame) for frame in self.frames]
        self.rows = sum(len(block) for block in blocks)
        self.ordered, self.shuffled = [], []
        for block in blocks:
            times = block.times[block.start : block.stop]
            self.ordered.append(block.select(sorted(range(len(times)), key=times.__getitem__)))
            self.shuffled.append(workloads.shuffled_within_lateness(block, inputs.seed))

    def rate(self, function: Callable[[], Any], units: float) -> float:
        """Median ``units`` per second over repeated calls (>= 3, >= ``seconds``)."""
        samples = []
        started = perf_counter()
        while len(samples) < 3 or perf_counter() - started < self.seconds:
            begin = perf_counter()
            function()
            samples.append(units / (perf_counter() - begin))
        return statistics.median(samples)


def drive_events(data: DriverData) -> dict:
    from_bytes = resolve(_BLOCK + ".from_bytes")
    decode_events = resolve("repro.events.columnar.decode_events")
    frames, blocks, rows = data.frames, data.ordered, data.rows
    return {
        "events.bytes_per_event": data.inputs.wire_bytes / data.inputs.events,
        "events.decode_rows_s": data.rate(lambda: [from_bytes(f) for f in frames], rows),
        "events.decode_events_rows_s": data.rate(lambda: [decode_events(f) for f in frames], rows),
        "events.encode_rows_s": data.rate(lambda: [b.to_bytes() for b in blocks], rows),
    }


def drive_reorder(data: DriverData) -> dict:
    buffer_type = resolve("repro.runtime.reorder.ReorderBuffer")
    lateness = workloads.LATENESS

    def columns(blocks):
        return [
            (block, block.times[block.start : block.stop],
             block.sequences[block.start : block.stop])
            for block in blocks
        ]

    ordered, shuffled = columns(data.ordered), columns(data.shuffled)

    def inorder():
        buffer = buffer_type(lateness)
        for block, times, _ in ordered:
            buffer.add_segment(block)
            buffer.observe(times[-1])
            buffer.release_ready()
        buffer.flush()

    def shuffled_block():
        buffer = buffer_type(lateness)
        for _, times, sequences in shuffled:
            for row, moment in enumerate(times):
                buffer.add(moment, sequences[row], row)
                buffer.observe(moment)
            buffer.release_ready()
        buffer.flush()

    def shuffled_scalar():
        buffer = buffer_type(lateness)
        for _, times, sequences in shuffled:
            for row, moment in enumerate(times):
                if buffer.push(moment, sequences[row], row) is None:
                    buffer.release_ready()
        buffer.flush()

    return {
        "runtime.reorder.inorder_rows_s": data.rate(inorder, data.rows),
        "runtime.reorder.shuffled_block_rows_s": data.rate(shuffled_block, data.rows),
        "runtime.reorder.shuffled_scalar_rows_s": data.rate(shuffled_scalar, data.rows),
        "runtime.reorder.out_of_order_share": data.inputs.out_of_order_share,
    }


def drive_windows(data: DriverData) -> dict:
    ranges = data.inputs.spec.window.instance_range_columns
    columns = [block.times[block.start : block.stop] for block in data.ordered]
    return {
        "query.windows.range_rows_s": data.rate(lambda: [ranges(c) for c in columns], data.rows)
    }


#: Rows per run and runs per engine of the fold driver: Kleene COUNT doubles
#: per event, so one engine must stay below 2**1024.
FOLD_RUN_ROWS, FOLD_RUNS = 8, 64


def drive_shared_windows(data: DriverData) -> dict:
    """Fold and close on one bare engine: the ingest queries' scalar unit,
    one start event arming the covering windows, then Travel runs."""
    compilation = resolve("repro.runtime.shared_windows.UnitCompilation")
    engine_type = resolve(_ENGINE)
    unit = compilation(list(workloads.ingest_queries()), share_classes=True)
    window = workloads.INGEST_WINDOW
    total = FOLD_RUN_ROWS * FOLD_RUNS
    times = [100.0 + 1e-3 * row for row in range(total + 1)]
    lows, highs = window.instance_range_columns(times)
    sequences = list(range(total + 1))

    def armed_engine():
        engine = engine_type(unit)
        if not engine.process_block_run("Surge", times[:1], sequences[:1], lows[:1], highs[:1]):
            raise LookupError("process_block_run refused the start event")
        return engine

    def fold(engine=None):
        engine = engine or armed_engine()
        for first in range(1, total + 1, FOLD_RUN_ROWS):
            last = first + FOLD_RUN_ROWS
            engine.process_block_run(
                "Travel", times[first:last], sequences[first:last],
                lows[first:last], highs[first:last],
            )
        return engine

    engines = [fold() for _ in range(40)]
    indices = range(lows[0], highs[0] + 1)
    started = perf_counter()
    for engine in engines:
        for index in indices:
            engine.close_window(index)
    close_seconds = perf_counter() - started
    fold_seconds = 1.0 / data.rate(fold, 1.0)
    arm_seconds = 1.0 / data.rate(armed_engine, 1.0)
    return {
        "runtime.shared_windows.fold_rows_s": total / max(fold_seconds - arm_seconds, 1e-9),
        "runtime.shared_windows.close_windows_s": len(engines) * len(indices) / close_seconds,
    }


def drive_kernels(data: DriverData) -> dict:
    metrics: dict[str, Optional[float]] = {}
    backends = (
        ("python", "repro.core.kernels.PythonKernelBackend"),
        ("numpy", "repro.core.kernels_numpy.NumpyKernelBackend"),
    )
    indices = list(range(5))
    for label, dotted in backends:
        names = [f"core.kernels.{label}_rows_s.b{burst}" for burst in (8, 64, 512)]
        try:
            backend = resolve(dotted)()
            for name, burst in zip(names, (8, 64, 512)):
                def fold(burst=burst):
                    total_map = dict.fromkeys(indices, 1.0)
                    backend.fold_scalar_run(total_map, indices, (total_map,), 0.0, burst)
                metrics[name] = data.rate(fold, burst)
        except Exception as error:  # a driver never fails the run
            warn_gone(f"core.kernels[{label}]", repr(error))
            metrics.update(dict.fromkeys(names))
    return metrics


def drive_sharding(data: DriverData) -> dict:
    router = resolve("repro.runtime.sharding.ShardRouter")(data.inputs.spec.queries(), 2)
    blocks = data.shuffled
    wire = 0
    for block in blocks:
        for rows in router.route_block(block):
            if rows:
                wire += len(block.select(rows).to_bytes())
    return {
        "runtime.sharding.route_rows_s": data.rate(
            lambda: [router.route_block(block) for block in blocks], data.rows
        ),
        "runtime.transport.bytes_per_event": wire / data.rows,
    }


def drive_transport(data: DriverData) -> dict:
    frames = data.frames
    megabytes = sum(len(frame) for frame in frames) / 1e6

    def pickled():
        for seq, frame in enumerate(frames):
            pickle.loads(pickle.dumps(("raw", seq, frame), pickle.HIGHEST_PROTOCOL))

    metrics = {"runtime.transport.pickle_mb_s": data.rate(pickled, megabytes)}
    slab_bytes = max(len(frame) for frame in frames)
    context = multiprocessing.get_context()
    ring = resolve(_TRANSPORT + ".SlabRing")(context, slots=4, slab_bytes=slab_bytes)
    try:
        reader = resolve(_TRANSPORT + ".SlabReader")(ring.name, slab_bytes, ring.ack_send)
        try:
            def through_slabs():
                for frame in frames:
                    slab = ring.acquire(poll_seconds=0.01, on_stall=lambda: None)
                    ring.write(slab, frame)
                    bytes(reader.view(slab, len(frame)))
                    reader.ack(slab)

            metrics["runtime.transport.shm_mb_s"] = data.rate(through_slabs, megabytes)
        finally:
            reader.close()
    finally:
        ring.close()
    return metrics


def drive_checkpoint(data: DriverData) -> dict:
    """Snapshot and restore a single-process executor a quarter into the stream."""
    inputs = data.inputs
    executor_type = resolve(_STREAMING)
    from_bytes = resolve(_BLOCK + ".from_bytes")

    def fresh():
        return executor_type(inputs.spec.queries(), **inputs.spec.options)

    executor = fresh()
    for frame in inputs.frames[: max(1, len(inputs.frames) // 4)]:
        executor.process_block(from_bytes(frame))
    payload = executor.snapshot_state()
    metrics = {
        "runtime.checkpoint.snapshot_bytes": len(payload),
        "runtime.checkpoint.snapshot_s": 1.0 / data.rate(executor.snapshot_state, 1.0),
    }
    restored = fresh()
    metrics["runtime.checkpoint.restore_s"] = 1.0 / data.rate(
        lambda: restored.restore_state(payload), 1.0
    )
    executor.finish()
    return metrics


def drive_optimizer(data: DriverData) -> dict:
    """Wall of the static policies over the wall of the workload's own policy,
    same stream prefix; 0 where the workload runs no optimizer."""
    inputs = data.inputs
    names = ("optimizer.wall_ratio.always", "optimizer.wall_ratio.never")
    if "optimizer" not in inputs.spec.options:
        return dict.fromkeys(names, 0.0)
    frames = max(1, len(inputs.frames) // 8)
    streaming = resolve(_STREAMING)

    def wall(policy):
        walls = []
        for _ in range(3):
            sink = workloads.Sink(workloads.Checker(inputs))
            executor = streaming(
                inputs.spec.queries(), on_window=sink.on_window,
                **{**inputs.spec.options, "optimizer": policy},
            )
            walls.append(workloads.run_pass(inputs, sink, frames=frames, executor=executor).wall)
        return statistics.median(walls)

    own = wall(inputs.spec.options["optimizer"])
    return {name: wall(name.rsplit(".", 1)[1]) / own for name in names}


#: layer -> (driver, the metrics it owns).  The metric lists let a failed
#: driver report ``null`` under the right names.
DRIVERS: dict[str, tuple[Callable[[DriverData], dict], tuple[str, ...]]] = {
    "events": (drive_events, (
        "events.bytes_per_event", "events.decode_rows_s",
        "events.decode_events_rows_s", "events.encode_rows_s")),
    "runtime.reorder": (drive_reorder, (
        "runtime.reorder.inorder_rows_s", "runtime.reorder.shuffled_block_rows_s",
        "runtime.reorder.shuffled_scalar_rows_s", "runtime.reorder.out_of_order_share")),
    "query.windows": (drive_windows, ("query.windows.range_rows_s",)),
    "runtime.shared_windows": (drive_shared_windows, (
        "runtime.shared_windows.fold_rows_s", "runtime.shared_windows.close_windows_s")),
    "core.kernels": (drive_kernels, tuple(
        f"core.kernels.{label}_rows_s.b{burst}"
        for label in ("python", "numpy") for burst in (8, 64, 512))),
    "optimizer": (drive_optimizer, (
        "optimizer.wall_ratio.always", "optimizer.wall_ratio.never")),
    "runtime.sharding": (drive_sharding, (
        "runtime.sharding.route_rows_s", "runtime.transport.bytes_per_event")),
    "runtime.transport": (drive_transport, (
        "runtime.transport.pickle_mb_s", "runtime.transport.shm_mb_s")),
    "runtime.checkpoint": (drive_checkpoint, (
        "runtime.checkpoint.snapshot_s", "runtime.checkpoint.snapshot_bytes",
        "runtime.checkpoint.restore_s")),
}


def run_drivers(inputs, drivers=None, seconds: float = DRIVER_SECONDS) -> dict:
    """Run every driver; a failing one reads ``null`` and warns once."""
    drivers = DRIVERS if drivers is None else drivers
    metrics: dict[str, Optional[float]] = {}
    data = None
    for layer, (driver, names) in drivers.items():
        try:
            data = data or DriverData(inputs, seconds)
            metrics.update(driver(data))
        except Exception as error:  # a driver never fails the run
            warn_gone(layer, repr(error))
            metrics.update(dict.fromkeys(names))
    return metrics


# ---------------------------------------------------------------------- #
# The per-layer metric catalogue (BENCHMARK.json ``per_layer`` mirrors it)
# ---------------------------------------------------------------------- #
def _catalogue() -> list[dict]:
    entries: list[tuple[str, str, str]] = [
        ("trace.wall_s", "s", "lower"),
        ("trace.overhead_ratio", "ratio", "lower"),
        ("emit_latency_p90_ms", "ms", "lower"),
        ("emit_latency_p99_ms", "ms", "lower"),
        (f"{ROOT}.self_s", "s", "lower"),
    ]
    for layer in LAYERS:
        entries += [
            (f"{layer}.self_s", "s", "lower"),
            (f"{layer}.calls", "count", "lower"),
            (f"{layer}.rows", "count", "lower"),
        ]
    entries += [(f"worker.{layer}.self_s", "s", "lower") for layer in WORKER_SIDE]
    entries += [
        ("events.bytes_per_event", "bytes", "lower"),
        ("events.decode_rows_s", "1/s", "higher"),
        ("events.decode_events_rows_s", "1/s", "higher"),
        ("events.encode_rows_s", "1/s", "higher"),
        ("runtime.reorder.inorder_rows_s", "1/s", "higher"),
        ("runtime.reorder.shuffled_block_rows_s", "1/s", "higher"),
        ("runtime.reorder.shuffled_scalar_rows_s", "1/s", "higher"),
        ("runtime.reorder.out_of_order_share", "ratio", "lower"),
        ("query.windows.range_rows_s", "1/s", "higher"),
        ("runtime.streaming.feed_amplification", "ratio", "lower"),
        ("runtime.streaming.windows_emitted", "count", "lower"),
        ("runtime.streaming.peak_active_windows", "count", "lower"),
        ("runtime.streaming.peak_memory_units", "count", "lower"),
        ("runtime.shared_windows.fold_rows_s", "1/s", "higher"),
        ("runtime.shared_windows.close_windows_s", "1/s", "higher"),
        ("core.kernels.ops", "count", "lower"),
        ("core.kernels.rows_per_call", "count", "higher"),
    ]
    entries += [(name, "1/s", "higher") for name in DRIVERS["core.kernels"][1]]
    entries += [
        ("optimizer.decisions", "count", "lower"),
        ("optimizer.shared_fraction", "ratio", "higher"),
        ("optimizer.merges", "count", "lower"),
        ("optimizer.splits", "count", "lower"),
        ("optimizer.decide_s", "s", "lower"),
        ("optimizer.wall_ratio.always", "ratio", "higher"),
        ("optimizer.wall_ratio.never", "ratio", "higher"),
        ("runtime.sharding.route_rows_s", "1/s", "higher"),
        ("runtime.sharding.driver_wait_s", "s", "lower"),
        ("runtime.sharding.shard_skew", "ratio", "lower"),
        ("runtime.sharding.spawn_s", "s", "lower"),
        ("runtime.sharding.finish_s", "s", "lower"),
        ("runtime.sharding.worker_peak_rss_mb", "MB", "lower"),
        ("runtime.transport.pickle_mb_s", "MB/s", "higher"),
        ("runtime.transport.shm_mb_s", "MB/s", "higher"),
        ("runtime.transport.bytes_per_event", "bytes", "lower"),
        ("runtime.checkpoint.snapshot_s", "s", "lower"),
        ("runtime.checkpoint.snapshot_bytes", "bytes", "lower"),
        ("runtime.checkpoint.restore_s", "s", "lower"),
        ("runtime.checkpoint.writes", "count", "lower"),
        ("runtime.checkpoint.bytes_written", "bytes", "lower"),
        ("load.utilisation", "ratio", "lower"),
        ("load.generator_lag_p99_ms", "ms", "lower"),
        ("load.backlog_end_ms", "ms", "lower"),
        ("load.latency_first_vs_last_quarter", "ratio", "lower"),
    ]
    return [{"name": name, "unit": unit, "better": better} for name, unit, better in entries]


PER_LAYER: list[dict] = _catalogue()


# ---------------------------------------------------------------------- #
# CLI: one layer alone, optionally under cProfile
# ---------------------------------------------------------------------- #
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one layer's driver alone.")
    parser.add_argument("layer", choices=sorted(DRIVERS))
    parser.add_argument("--workload", default="ooo-scalar", choices=sorted(workloads.SPEC_BY_NAME))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--scale", default="bench", choices=workloads.SCALES)
    parser.add_argument("--profile", action="store_true", help="run under cProfile")
    args = parser.parse_args(argv)
    inputs = workloads.build_inputs(workloads.SPEC_BY_NAME[args.workload], args.seed, args.scale)
    driver = {args.layer: DRIVERS[args.layer]}
    if args.profile:
        import cProfile
        import pstats

        profiler = cProfile.Profile()
        metrics = profiler.runcall(run_drivers, inputs, driver)
        pstats.Stats(profiler).sort_stats("cumulative").print_stats(25)
    else:
        metrics = run_drivers(inputs, driver)
    units = {entry["name"]: entry["unit"] for entry in PER_LAYER}
    for name, value in metrics.items():
        print(f"{name:45s} {value if value is None else format(value, '.6g'):>14} {units[name]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
