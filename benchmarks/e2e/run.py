"""End-to-end benchmark: wire bytes -> WindowResults, six seeded workloads.

Three ways to run it, all from the repository root::

    # one workload, the contract BENCHMARK.json names (last line = JSON result)
    python3 benchmarks/e2e/run.py --workload ingest --seed 7 --seconds 10 --trace 0

    # the whole suite: every workload in its own fresh child process, untraced
    # and traced; prints every metric by name with unit, median, min/max, count
    python3 benchmarks/e2e/run.py --seed 7

    # repeatability: the suite twice, medians compared against the bounds
    python3 benchmarks/e2e/run.py --selfcheck --runs 10

One untraced run is: set-up (x3, median reported) -> ``gc.collect();
gc.freeze()`` -> warm-up with the cross-path check -> timed passes for
``--seconds`` -> one memory pass; every set-up and timed pass is bracketed by
a reference loop whose time scales the reported times to one machine speed.
One traced run is: set-up -> warm-up -> untraced passes -> one traced pass
(plus the in-process twin on ``sharded-full``) -> the one-layer drivers.
End-to-end numbers only ever come from untraced passes.  This file claims no
gain; it is the ruler later changes are measured with.
"""

from __future__ import annotations

import argparse
import gc
import json
import multiprocessing
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import traceback
import tracemalloc
from contextlib import contextmanager, suppress
from multiprocessing import resource_tracker
from pathlib import Path
from time import perf_counter
from typing import Optional

HERE = Path(__file__).resolve().parent
REPO_ROOT = HERE.parents[1]
SCRATCH = HERE / ".tmp"

if __name__ == "__main__":  # run as a script: find the product and this package
    if not (REPO_ROOT / "src" / "repro").is_dir():
        sys.exit(f"run.py: no product source under {REPO_ROOT / 'src'}: nothing to measure")
    sys.path[:0] = [str(REPO_ROOT / "src"), str(HERE.parent)]

from e2e import layers, workloads  # noqa: E402  (needs the path set above)
from e2e.spans import ROOT, Tracer, warn_gone  # noqa: E402

#: Settings that would silently turn every number into a measurement of
#: something else; a run scrubs them and measures the product defaults.
SCRUBBED_ENVIRONMENT = ("REPRO_KERNEL_BACKEND", "REPRO_AUTO_KERNEL_THRESHOLD")

#: The metrics a user of the system sees; ``bound`` is the share of the
#: parent's median by which a later change may worsen each.  One bound per
#: metric holds on all six workloads (BENCHMARK.json has no per-workload
#: bounds), so the two timings carry what the noisiest workload needs on the
#: reference box: README.md, "Bounds".
END_TO_END = [
    {"name": "throughput_eps", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "emit_latency_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "peak_state_mb", "unit": "MB", "better": "lower", "bound": 0.20},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
]
SETUP_REPEATS = 3
#: Warm-up feeds this share of the frames at full speed (code paths, the
#: allocator and the query-plan caches are warm long before the stream ends).
WARMUP_SHARE = 0.25
MIN_TIMED_PASSES = 3
#: The tail percentiles reported with the per-layer metrics: over ten runs
#: p90 / p99 spread by 21% / 28-77% of their median on ``ooo-paced`` (one
#: machine stall decides a run's tail), which no allowed bound contains.
TAIL_SHARES = {"emit_latency_p90_ms": 0.90, "emit_latency_p99_ms": 0.99}
#: The box this runs on is a slice of a shared host, and for minutes at a time
#: it runs everything 1.2-1.4x slower (README.md, "Machine speed").  A fixed
#: pure-Python loop that has nothing to do with the product, timed just before
#: and just after each timed section, says how fast the machine was during
#: it; every reported *time* is scaled to the speed at which the loop takes
#: ``REFERENCE_LOOP_S`` (what it takes on the reference box when quiet).
REFERENCE_LOOP_S = 0.0268
REFERENCE_LOOP_STEPS = 500_000
LOOPS_PER_SAMPLE = 2
#: Memory passes per run (median reported) of the multi-process workload,
#: whose driver-side peak depends on queue timing; the single-process
#: workloads allocate deterministically and take one.
SHARDED_MEMORY_PASSES = 3


# ---------------------------------------------------------------------- #
# Shared plumbing
# ---------------------------------------------------------------------- #
def percentile(ordered: list, share: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return ordered[min(len(ordered) - 1, int(share * len(ordered)))]


def reference_loops() -> list:
    """Seconds each of ``LOOPS_PER_SAMPLE`` runs of the reference loop takes now."""
    samples = []
    for _ in range(LOOPS_PER_SAMPLE):
        total = 0
        begin = perf_counter()
        for step in range(REFERENCE_LOOP_STEPS):
            total += step * step % 7
        samples.append(perf_counter() - begin)
    return samples


def slowdown(before: list, after: list) -> float:
    """How many times slower than the reference speed the machine ran
    between two ``reference_loops()`` samples (median: one loop in eight is
    hit by a stall of its own)."""
    return statistics.median(before + after) / REFERENCE_LOOP_S


@contextmanager
def checkpoint_dir(spec):
    """A fresh directory for one sharded pass, named after this process.

    Inside the checkout: the driver lets a run write nowhere else.
    """
    if not spec.workers:
        yield None
        return
    SCRATCH.mkdir(exist_ok=True)
    path = tempfile.mkdtemp(prefix=f"ckpt-{os.getpid()}-", dir=SCRATCH)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            SCRATCH.rmdir()  # leave nothing behind, unless another run is using it
        except OSError:
            pass


def shm_segments() -> set[str]:
    """The product's shared-memory rings currently present on this machine."""
    shm = Path("/dev/shm")
    return {path.name for path in shm.glob("repro-ring-*")} if shm.is_dir() else set()


def leaked(shm_before: set[str]) -> list[str]:
    """What a run must not leave behind: shm segments, workers, temp dirs."""
    found = [f"shm segment {name}" for name in sorted(shm_segments() - shm_before)]
    found += [f"process {child.name}" for child in multiprocessing.active_children()]
    found += [f"temp dir {path.name}" for path in SCRATCH.glob(f"ckpt-{os.getpid()}-*")]
    return found


def child_pids() -> list[int]:
    """The live children of this process, as the kernel lists them."""
    me = os.getpid()
    found = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            with suppress(OSError, IndexError, ValueError):
                stat = Path("/proc", entry, "stat").read_text()
                state, parent = stat.rsplit(")", 1)[1].split()[:2]
                if int(parent) == me and state != "Z":
                    found.append(int(entry))
    return found


def stop_children() -> None:
    """Stop every process this run started and wait until each has ended.

    A finished pass has joined its workers already; what is left is
    multiprocessing's resource tracker, which the first shared-memory
    segment spawns and which otherwise only ends a moment *after* this
    process, when it notices the closed pipe.  The rest is for the paths out
    of a run that did not finish: no worker survives those either.
    """
    with suppress(Exception):
        resource_tracker._resource_tracker._stop()  # closes its pipe, waits for it
    for pid in child_pids():
        with suppress(OSError):
            os.kill(pid, signal.SIGKILL)
        with suppress(OSError):
            os.waitpid(pid, 0)


class Tally:
    """Operations attempted and failed over every checked pass of a run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []
        self._reference: Optional[tuple] = None
        self.prefix_digest = 0
        self.windows = 0

    def add(self, checker) -> None:
        """One full pass: reference check + the whole-run digest must repeat."""
        checker.close()
        self.attempted += checker.attempted + 1
        self.failed += checker.failed
        if checker.failed:
            self.notes.append(f"{checker.failed} window results differ from the reference")
        signature = (checker.windows, checker.digest)
        if self._reference is None:
            self._reference = signature
            self.prefix_digest = checker.prefix_digest
            self.windows = checker.windows
        elif signature != self._reference:
            self.failed += 1
            self.notes.append(f"pass digest {signature} != first pass {self._reference}")

    def expect(self, holds: bool, note: str) -> None:
        """One more operation; it failed, with ``note``, unless ``holds``."""
        self.attempted += 1
        if not holds:
            self.failed += 1
            self.notes.append(note)

    def fail(self, note: str) -> None:
        self.expect(False, note)


def full_pass(inputs, tally: Tally, *, tracer=None, traced_layers=layers.LAYERS, **options):
    """One checked pass over the whole stream; with a ``tracer``, the
    ``traced_layers`` are wrapped and their spans recorded into it."""
    sink = workloads.Sink(workloads.Checker(inputs))
    with checkpoint_dir(inputs.spec) as directory:
        if tracer is None:
            result = workloads.run_pass(inputs, sink, checkpoint_dir=directory, **options)
        else:
            result = layers.traced_pass(
                inputs, sink, tracer, layers=traced_layers, checkpoint_dir=directory, **options
            )
    sink.settle()
    tally.add(sink.checker)
    return result


def prefix_pass(inputs, share: float, *, hold: bool = True, other_path: bool = False):
    """A full-speed pass over the first ``share`` of the frames, not checked
    against the reference (the stream ends early, so its last windows differ)."""
    sink = workloads.Sink(workloads.Checker(inputs), hold=hold)
    frames = max(1, int(len(inputs.frames) * share))
    with checkpoint_dir(inputs.spec) as directory:
        return workloads.run_pass(
            inputs, sink, frames=frames, other_path=other_path, checkpoint_dir=directory
        )


def warm_up(inputs, tally: Tally) -> None:
    """Warm the code paths, and hold the product to its bit-identity promise
    on the way: the first frames through the workload's own path and through
    the other ingest path (scalar <-> block, single process) must produce
    the same windows to the bit.  The reference cannot ask that (it sums in
    another order), and without it a precision regression on a workload with
    no sibling over the same queries would go unseen."""
    signatures = []
    for other_path in (False, True):
        sink = prefix_pass(inputs, WARMUP_SHARE, other_path=other_path).sink
        sink.settle()
        signatures.append((sink.checker.windows, sink.checker.digest))
    tally.expect(
        signatures[0] == signatures[1],
        f"own path (windows, digest) {signatures[0]} != other ingest path {signatures[1]}",
    )


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


# ---------------------------------------------------------------------- #
# --trace 0: the end-to-end metrics
# ---------------------------------------------------------------------- #
def measure_end_to_end(spec, seed: int, seconds: float, scale: str) -> dict:
    shm_before = shm_segments()
    setups, setup_speed = [], [reference_loops()]
    inputs = None
    for _ in range(SETUP_REPEATS):
        inputs = None  # drop the previous copy before building the next
        begin = perf_counter()
        inputs = workloads.build_inputs(spec, seed, scale)
        setups.append(perf_counter() - begin)
        setup_speed.append(reference_loops())
    gc.collect()
    gc.freeze()
    tally = Tally()
    paced = spec.paced
    warm_up(inputs, tally)

    # Keep only numbers from each pass: a retained report holds every result
    # of the pass, and the growing heap slows each later pass's collections.
    busy: list[float] = []
    medians: list[float] = []
    speed = [reference_loops()]
    measuring = perf_counter()
    while True:
        began = perf_counter()
        result = full_pass(inputs, tally, paced=paced)
        busy.append(result.busy)
        # Per pass, then the median over passes: a stall spoils one pass.
        medians.append(statistics.median(result.sink.latencies) * 1e3)
        del result
        speed.append(reference_loops())
        now = perf_counter()
        # Never start a pass that cannot end inside the measuring time, but
        # take enough passes for a median (a paced pass is as long as its
        # schedule, so one must do when the time is short).
        enough = len(busy) >= (1 if paced else MIN_TIMED_PASSES)
        if enough and now + (now - began) > measuring + seconds:
            break

    memory_passes = SHARDED_MEMORY_PASSES if spec.workers else 1
    peaks = sorted(_memory_pass(inputs) for _ in range(memory_passes))

    if paced:
        _check_generator(inputs, statistics.median(medians) / 1e3, tally)
    for item in leaked(shm_before):
        tally.fail(f"leaked {item}")
    slow = [slowdown(speed[i], speed[i + 1]) for i in range(len(busy))]
    setup_slow = [slowdown(setup_speed[i], setup_speed[i + 1]) for i in range(SETUP_REPEATS)]
    rates = [inputs.events / seconds_busy for seconds_busy in busy]
    metrics = {
        "throughput_eps": _pass_median([r * f for r, f in zip(rates, slow)], "1/s"),
        "emit_latency_p50_ms": _pass_median([m / f for m, f in zip(medians, slow)], "ms"),
        "peak_state_mb": _pass_median(peaks, "MB"),
        "setup_s": _pass_median([t / f for t, f in zip(setups, setup_slow)], "s"),
    }
    as_clocked = {
        "throughput_eps": statistics.median(rates),
        "emit_latency_p50_ms": statistics.median(medians),
        "setup_s": statistics.median(setups),
        "machine_slowdown": statistics.median(slow),
        "machine_slowdown_setup": statistics.median(setup_slow),
    }
    return _outcome(spec, inputs, tally, metrics, busy, as_clocked)


def _memory_pass(inputs) -> float:
    """Peak traced megabytes over the first ``MEMORY_PREFIX`` of the stream.

    Collecting first pins where the pass starts in the collector's cycle:
    otherwise the peak depends on how many passes ran before this one.
    """
    gc.collect()
    tracemalloc.start()
    try:
        baseline = tracemalloc.get_traced_memory()[0]
        prefix_pass(inputs, workloads.MEMORY_PREFIX, hold=False)
        return (tracemalloc.get_traced_memory()[1] - baseline) / 1e6
    finally:
        tracemalloc.stop()


def _pass_median(samples: list, unit: str) -> dict:
    """A metric as the median of its per-pass (or per-repeat) values."""
    return {
        "value": statistics.median(samples),
        "unit": unit,
        "min": min(samples),
        "max": max(samples),
        "samples": len(samples),
    }


def _check_generator(inputs, median_latency: float, tally: Tally) -> None:
    """An open-loop number is only as good as its generator: replay the
    schedule against a no-op consumer and refuse the run when the send-time
    overshoot alone exceeds a tenth of the median latency."""
    overshoot = statistics.median(_noop_schedule_lags(inputs, frames=40))
    if overshoot > 0.1 * median_latency:
        tally.fail(
            f"load generator overshoot {overshoot * 1e3:.3f} ms exceeds 10% of "
            f"emit_latency_p50 {median_latency * 1e3:.3f} ms: run invalid"
        )


def _noop_schedule_lags(inputs, frames: int) -> list:
    lags = []
    due = perf_counter()
    for rows in inputs.frame_rows[:frames]:
        due += rows / workloads.PACED_RATE_EPS
        workloads.wait_until(due)
        lags.append(perf_counter() - due)
    return lags


def _outcome(spec, inputs, tally: Tally, metrics: dict, pass_busy=(), as_clocked=None) -> dict:
    return {
        "workload": spec.name,
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
        "detail": {
            "events": inputs.events,
            "wire_bytes": inputs.wire_bytes,
            "windows": tally.windows,
            "pass_busy_s": list(pass_busy),
            "as_clocked": as_clocked or {},
            "prefix_digest": tally.prefix_digest,
            "notes": tally.notes,
            "environment": environment(),
        },
    }


# ---------------------------------------------------------------------- #
# --trace 1: the per-layer metrics
# ---------------------------------------------------------------------- #
def measure_layers(spec, seed: int, seconds: float, scale: str, spans_out: Optional[str]) -> dict:
    shm_before = shm_segments()
    inputs = workloads.build_inputs(spec, seed, scale)
    gc.collect()
    gc.freeze()
    tally = Tally()
    paced = spec.paced
    warm_up(inputs, tally)

    untraced = [full_pass(inputs, tally, paced=paced)]
    if not paced and untraced[0].wall < seconds / 4:
        untraced.append(full_pass(inputs, tally))
    sharded = bool(spec.workers)
    tracer = Tracer()
    traced = full_pass(
        inputs, tally, tracer=tracer,
        traced_layers=layers.DRIVER_SIDE if sharded else layers.LAYERS,
    )
    if spans_out:
        tracer.dump(spans_out)

    values: dict = dict.fromkeys((entry["name"] for entry in layers.PER_LAYER), 0.0)
    values.update(layers.span_metrics(tracer))
    summary = tracer.summary()
    values["trace.wall_s"] = tracer.wall()
    values[f"{ROOT}.self_s"] = summary[ROOT]["self_s"]
    values["trace.overhead_ratio"] = traced.busy / statistics.median(r.busy for r in untraced)
    for name, share in TAIL_SHARES.items():
        values[name] = 1e3 * statistics.median(
            percentile(sorted(result.sink.latencies), share) for result in untraced
        )
    values.update(tracer.durations())
    report = traced.report
    if sharded:
        twin_report = _trace_twin(inputs, tally, values)
        report = twin_report or report
    _report_metrics(values, report, traced, inputs)
    if paced:
        _load_metrics(values, untraced[0])
    values.update(
        layers.run_drivers(inputs, seconds=min(layers.DRIVER_SECONDS, seconds / 80.0))
    )
    for item in leaked(shm_before):
        tally.fail(f"leaked {item}")
    units = {entry["name"]: entry["unit"] for entry in layers.PER_LAYER}
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    return _outcome(spec, inputs, tally, metrics)


def _trace_twin(inputs, tally: Tally, values: dict):
    """Worker-side layers of ``sharded-full``: the same stream through an
    in-process ``workers=0, shards=2`` twin, every layer wrapped."""
    names = [f"worker.{layer}.self_s" for layer in layers.WORKER_SIDE]
    try:
        with checkpoint_dir(inputs.spec) as directory:
            twin = workloads.ShardedStreamingExecutor(
                inputs.spec.queries(),
                workers=0,
                shards=2,
                checkpoint_dir=directory,
                **inputs.spec.options,
            )
            sink = workloads.Sink(workloads.Checker(inputs))
            tracer = Tracer()
            result = layers.traced_pass(inputs, sink, tracer, executor=twin)
    except Exception as error:  # a probe never fails the run
        warn_gone("worker (in-process twin)", repr(error))
        values.update(dict.fromkeys(names))
        return None
    tally.add(sink.checker)
    for name, value in layers.span_metrics(tracer, layers.WORKER_SIDE, "worker.").items():
        if name in values:
            values[name] = value
    return result.report


def _report_metrics(values: dict, report, traced, inputs) -> None:
    """Counts the product reports about itself (``ExecutionReport.metrics``)."""
    metrics = report.metrics
    values["runtime.streaming.feed_amplification"] = metrics.events_processed / max(
        1, metrics.stream_events
    )
    values["runtime.streaming.windows_emitted"] = len(traced.sink.latencies)
    values["runtime.streaming.peak_active_windows"] = metrics.peak_active_windows
    values["runtime.streaming.peak_memory_units"] = metrics.peak_memory_units
    values["core.kernels.ops"] = metrics.operations
    calls = values.get("core.kernels.calls")
    if calls:
        values["core.kernels.rows_per_call"] = values["core.kernels.rows"] / calls
    statistics_ = report.optimizer_statistics
    if statistics_ is not None:
        values["optimizer.decisions"] = statistics_.decisions
        values["optimizer.shared_fraction"] = statistics_.shared_fraction
        values["optimizer.merges"] = statistics_.merges
        values["optimizer.splits"] = statistics_.splits
        values["optimizer.decide_s"] = statistics_.decision_seconds
    if traced.shard_events and sum(traced.shard_events):
        counts = traced.shard_events
        values["runtime.sharding.shard_skew"] = max(counts) / (sum(counts) / len(counts))
        values["runtime.sharding.driver_wait_s"] = traced.report.metrics.driver_wait_seconds
        values["runtime.sharding.worker_peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
        )
    recovery = traced.report.recovery
    if recovery is not None:
        values["runtime.checkpoint.writes"] = recovery.checkpoints
        values["runtime.checkpoint.bytes_written"] = recovery.checkpoint_bytes


def _load_metrics(values: dict, result) -> None:
    latencies = result.sink.latencies  # in emission order
    quarter = max(1, len(latencies) // 4)
    values["load.utilisation"] = result.busy / result.scheduled
    values["load.generator_lag_p99_ms"] = percentile(sorted(result.lags), 0.99) * 1e3
    values["load.backlog_end_ms"] = result.backlog_end * 1e3
    values["load.latency_first_vs_last_quarter"] = statistics.median(
        latencies[-quarter:]
    ) / statistics.median(latencies[:quarter])


# ---------------------------------------------------------------------- #
# Printing
# ---------------------------------------------------------------------- #
def print_outcome(outcome: dict) -> None:
    """Every metric by name, then the one-line JSON result the driver reads."""
    print(f"# {outcome['workload']}: {outcome['detail']['events']} events, "
          f"{outcome['detail']['windows']} windows per pass")
    for name, metric in outcome["metrics"].items():
        value = metric["value"]
        shown = "null" if value is None else format(value, ".6g")
        spread = ""
        if "samples" in metric:
            spread = (f"  (min {metric['min']:.6g}, max {metric['max']:.6g}, "
                      f"n={metric['samples']})")
        print(f"{name:45s} {shown:>14} {metric['unit']}{spread}")
    for name, value in outcome["detail"]["as_clocked"].items():
        print(f"{'as clocked: ' + name:45s} {value:>14.6g}")
    for note in outcome["detail"]["notes"]:
        print(f"! {note}")
    print("DETAIL " + json.dumps(outcome["detail"]))
    print(json.dumps({
        "correct": outcome["correct"],
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {
            name: {"value": metric["value"], "unit": metric["unit"]}
            for name, metric in outcome["metrics"].items()
        },
    }))


# ---------------------------------------------------------------------- #
# Suite and self-check: each run in its own fresh child process
# ---------------------------------------------------------------------- #
def run_child(workload: str, seed: int, seconds: float, trace: int, scale: str) -> dict:
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace), "--scale", scale,
    ]
    done = subprocess.run(command, capture_output=True, text=True, cwd=REPO_ROOT)
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        raise SystemExit(f"{workload}: child exited with {done.returncode}")
    lines = done.stdout.strip().splitlines()
    outcome = json.loads(lines[-1])
    outcome["workload"] = workload
    outcome["detail"] = json.loads(lines[-2].removeprefix("DETAIL "))
    outcome["text"] = "\n".join(lines[:-2])
    return outcome


def run_suite(seed: int, seconds: float, scale: str, layers_md: Optional[str]) -> int:
    results = {}
    for spec in workloads.SPECS:
        untraced = run_child(spec.name, seed, seconds, 0, scale)
        traced = run_child(spec.name, seed, seconds, 1, scale)
        print(untraced["text"])
        print("\n".join(traced["text"].splitlines()[1:]))
        print()
        results[spec.name] = (untraced, traced)
    failed = sum(u["failed"] + t["failed"] for u, t in results.values())
    attempted = sum(u["attempted"] + t["attempted"] for u, t in results.values())
    family = {
        spec.name: results[spec.name][0]["detail"]["prefix_digest"]
        for spec in workloads.SPECS if spec.ingest_family
    }
    attempted += 1
    if len(set(family.values())) != 1:
        failed += 1
        print(f"! ingest-family digests differ on the common prefix: {family}")
    if layers_md:
        Path(layers_md).write_text(render_layers_md(results, seed, scale), encoding="utf-8")
    print(json.dumps({
        "seed": seed,
        "scale": scale,
        "workloads": list(results),
        "attempted": attempted,
        "failed": failed,
        "failed_share": failed / attempted,
        "common_prefix_digest": sorted(set(family.values())),
        "environment": environment(),
        "claim": None,
    }))
    return 1 if failed else 0


def render_layers_md(results: dict, seed: int, scale: str) -> str:
    """The ranked "where the time goes" table, one per workload."""
    any_detail = next(iter(results.values()))[0]["detail"]["environment"]
    lines = [
        "# Where the time goes",
        "",
        f"Generated by `run.py --seed {seed} --scale {scale} --layers-md` on "
        f"{any_detail['platform']}, python {any_detail['python']}, "
        f"nproc {any_detail['nproc']}.  One traced pass per workload; self time "
        "= span minus child spans, so each table sums to the traced wall.  "
        "End-to-end throughput is from the untraced passes of the same run.",
        "",
    ]
    for name, (untraced, traced) in results.items():
        metrics = {key: entry["value"] for key, entry in traced["metrics"].items()}
        wall = metrics["trace.wall_s"]
        rows = [(ROOT, metrics[f"{ROOT}.self_s"], None, None)]
        for layer in layers.LAYERS:
            rows.append((layer, metrics[f"{layer}.self_s"],
                         metrics[f"{layer}.calls"], metrics[f"{layer}.rows"]))
        rows = [row for row in rows if row[1]]
        rows.sort(key=lambda row: -row[1])
        throughput = untraced["metrics"]["throughput_eps"]["value"]
        lines += [
            f"## {name}",
            "",
            f"{untraced['detail']['events']} events, {throughput:,.0f} events/s untraced; "
            f"traced wall {wall:.3f} s (overhead ratio "
            f"{metrics['trace.overhead_ratio']:.2f}).  Largest self time: "
            f"**{rows[0][0]}**.",
            "",
            "| layer | self s | share | calls | rows |",
            "|---|---:|---:|---:|---:|",
        ]
        for layer, self_s, calls, row_count in rows:
            lines.append(
                f"| `{layer}` | {self_s:.3f} | {self_s / wall:.1%} | "
                f"{'' if calls is None else f'{calls:,}'} | "
                f"{'' if row_count is None else f'{row_count:,}'} |"
            )
        worker = [
            (layer, metrics[f"worker.{layer}.self_s"]) for layer in layers.WORKER_SIDE
            if metrics.get(f"worker.{layer}.self_s")
        ]
        if worker:
            worker.sort(key=lambda row: -row[1])
            lines += ["", "Worker side (in-process `workers=0, shards=2` twin, self s): "
                      + ", ".join(f"`{layer}` {value:.3f}" for layer, value in worker) + "."]
        lines.append("")
    return "\n".join(lines)


def selfcheck(seed: int, seconds: float, scale: str, runs: int) -> int:
    """Two back-to-back sets of ``runs`` runs per workload (seeds seed..), the
    way the driver accepts a benchmark: spread within each set, and the
    second median no worse than the first by more than the bound."""
    sets: list[dict] = []
    for _ in range(2):
        values: dict = {}
        for spec in workloads.SPECS:
            for run in range(runs):
                outcome = run_child(spec.name, seed + run, seconds, 0, scale)
                if outcome["failed"]:
                    print(f"! {spec.name} seed {seed + run}: {outcome['failed']} failed")
                    return 1
                for name, metric in outcome["metrics"].items():
                    values.setdefault((spec.name, name), []).append(metric["value"])
        sets.append(values)
    misses = 0
    print(f"{'workload':16s} {'metric':22s} {'median A':>12s} {'median B':>12s} "
          f"{'B vs A':>8s} {'spread A':>9s} {'spread B':>9s} {'bound':>6s}")
    for spec in workloads.SPECS:
        for entry in END_TO_END:
            key = (spec.name, entry["name"])
            first, second = (statistics.median(values[key]) for values in sets)
            worse = (second - first) / first
            if entry["better"] == "higher":
                worse = -worse
            spreads = [_spread(values[key]) for values in sets]
            miss = worse > entry["bound"] or (
                entry["name"] != "setup_s" and max(spreads) > entry["bound"]
            )
            misses += miss
            print(f"{spec.name:16s} {entry['name']:22s} {first:12.6g} {second:12.6g} "
                  f"{worse:+8.1%} {spreads[0]:9.1%} {spreads[1]:9.1%} "
                  f"{entry['bound']:6.0%}{'  MISS' if miss else ''}")
    print(json.dumps({"misses": misses, "runs": runs, "claim": None}))
    return 1 if misses else 0


def _spread(values: list) -> float:
    """Interquartile range as a share of the median (0 below 2 samples)."""
    if len(values) < 2:
        return 0.0
    first, _, third = statistics.quantiles(values, n=4)
    return (third - first) / statistics.median(values)


# ---------------------------------------------------------------------- #
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[spec.name for spec in workloads.SPECS],
                        help="run this workload in this process (default: the whole suite)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="measuring time of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="0: end-to-end metrics, 1: per-layer metrics")
    parser.add_argument("--scale", choices=workloads.SCALES, default="bench")
    parser.add_argument("--spans-out", help="with --trace 1: write every span to this file")
    parser.add_argument("--layers-md", help="suite mode: write the ranked layer tables here")
    parser.add_argument("--selfcheck", action="store_true",
                        help="run the suite twice and compare medians against the bounds")
    parser.add_argument("--runs", type=int, default=1, help="--selfcheck: runs per set")
    args = parser.parse_args(argv)
    for variable in SCRUBBED_ENVIRONMENT:
        os.environ.pop(variable, None)
    if args.selfcheck:
        return selfcheck(args.seed, args.seconds, args.scale, args.runs)
    if args.workload is None:
        return run_suite(args.seed, args.seconds, args.scale, args.layers_md)
    spec = workloads.SPEC_BY_NAME[args.workload]
    if args.trace:
        outcome = measure_layers(spec, args.seed, args.seconds, args.scale, args.spans_out)
    else:
        outcome = measure_end_to_end(spec, args.seed, args.seconds, args.scale)
    print_outcome(outcome)
    return 0


def _terminated(signum, frame):
    raise SystemExit(128 + signum)


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, _terminated)  # leave through the ``finally`` below
    code = 1
    try:
        code = main()
    except SystemExit as stop:  # argparse, a failed child run, SIGTERM
        if stop.code is None or isinstance(stop.code, int):
            code = stop.code or 0
        else:
            print(stop.code, file=sys.stderr)
    except BaseException:
        traceback.print_exc()
    finally:
        stop_children()
    sys.stdout.flush()
    sys.stderr.flush()
    # Not sys.exit(): an interrupted pass leaves queue-feeder and checkpoint
    # threads that never end, and the interpreter would wait for them.
    os._exit(code)
