"""Perf smoke microbenchmark — the repo's recorded performance trajectory.

Nine fixed-seed suites:

* ``smoke`` (``BENCH_PR1.json``) — the fig9-style tumbling-window workload
  (shared ``Travel+`` Kleene sub-pattern over the ridesharing stream)
  through the three engine hot paths:

  - ``hamlet_shared`` — HAMLET with the dynamic sharing optimizer,
  - ``hamlet_non_shared`` — HAMLET forced non-shared (Equation 2 path),
  - ``greta`` — the per-query GRETA baseline.

* ``overlap`` (``BENCH_PR2.json``) — an overlapping-window workload
  (slide = size/5, 20 districts, rare trend-start types) comparing the
  batch replay executor against the single-pass ``StreamingExecutor`` on
  its **per-instance** path (PR 2's runtime, pinned via
  ``shared_windows=False`` so the recorded gate keeps guarding that path).

* ``overlap-shared`` (``BENCH_PR3.json``, section ``overlap``) — the same
  input through the **shared-window** runtime: one multi-window engine per
  ``(group, unit)`` pair processes each event once for all overlapping
  instances (see ``repro/runtime/shared_windows.py``), next to the
  per-instance rows (``*_instances``) and the batch rows.  The recorded
  ``speedup_shared_over_pr2`` section divides the shared rows' throughput
  by the ``BENCH_PR2.json`` streaming rows — the PR 3 headline.

* ``deep-overlap`` (``BENCH_PR3.json``, section ``deep-overlap``) — the
  same workload with slide = size/20 (overlap factor 20).  The recorded
  ``deep_overlap_slowdown`` section divides the ``overlap`` section's
  shared throughput by this one's: near-flat scaling in the overlap factor
  means the ratio stays well below the 4x growth of the overlap factor.

* ``bursty`` (``BENCH_PR5.json``) — a rate-fluctuating multi-aggregate
  workload (storm phases of dense same-type bursts alternating with
  sparse, type-alternating trickles — the Figure 12/13 regime) through the
  adaptive streaming runtime: the static compile-time plan, the dynamic
  per-burst optimizer and both static extremes (always / never share).
  All rows are bit-identical in results; the recorded
  ``adaptive_vs_static`` section divides the static rows' ops by the
  dynamic row's — the dynamic optimizer must beat the worse extreme.
  ``adaptive_dynamic_block`` feeds the dynamic row's stream as 512-row
  ``process_block`` slices and must reproduce its ops, digest and decision
  counters exactly (checked at run time); the gate compares the decision
  counters of every row too, since result digests cannot see them.

* ``sharded`` (``BENCH_PR4.json``) — the overlap-shared workload (20
  districts, so >= 8 distinct group keys) through the sharded driver:
  single-process streaming next to ``ShardedStreamingExecutor`` with the
  in-process router (``workers=0``) and 1/4 worker processes.  The
  recorded ``speedup_sharded_over_single`` section divides each sharded
  row's wall-clock throughput by the single-process row's.  Wall-clock
  ratios are machine-dependent — the recorded ``environment`` includes
  ``cpu_count`` because parallel speedup needs cores (a 1-CPU container
  records the transport overhead, not the scale-out) — while operation
  counts and result checksums are shard-count-invariant and gated.

* ``block`` (``BENCH_PR9.json``) — block ingest versus per-event ingest,
  end to end from one columnar payload: the per-event rows decode the
  payload into ``Event`` objects and stream them one by one, the block
  rows rebuild an :class:`EventBlock` over the same bytes and feed it
  whole (single-process and through the in-process sharded driver).  The
  input is a denser stream than the overlap suite's (block ingest
  amortizes per-event dispatch, so its payoff belongs to the high-rate
  regime it targets); ``speedup_block_over_per_event`` records the
  headline ratio and both sides must produce identical result digests.

* ``ooo`` (``BENCH_PR10.json``) — the reorder buffer's two recorded
  claims: enabling ``allowed_lateness`` on a fully **in-order** stream
  costs within a few percent of the strict path on the block-ingest hot
  path (one sortedness probe + zero-copy segment per block; the scalar
  pair records the honest per-event constant next to it), and a stream
  shuffled within the lateness horizon reproduces the strict run's
  result digest bit-identically — single-process and through the
  in-process sharded driver, fed as events and (``block_buffered_shuffled``,
  ``sharded_block_shuffled``: the path the e2e ``ooo-paced`` and
  ``sharded-full`` workloads lean on) as shuffled blocks, frame by frame.
  Digest identity and the operation count across all rows are checked at
  run time and gated, like the block suite's twins.

Each scenario is repeated and the best wall-clock time is kept; throughput
is ``stream events / best wall seconds``.  Results are merged into the
suite's JSON file under a caller-chosen label so before/after numbers of a
PR live side by side::

    PYTHONPATH=src python benchmarks/perf_smoke.py --label before
    ... apply the optimization ...
    PYTHONPATH=src python benchmarks/perf_smoke.py --label after

Besides wall-clock numbers the harness records the engines' *abstract
operation counts*, which are deterministic for a fixed seed.  ``--gate``
compares the current operation counts against the recorded rows (the
``after`` label's, with rows re-recorded under a later label replacing
them — ``trend.baseline_rows``) and fails on regression — a
machine-independent, non-flaky threshold gate suitable for CI (wall-clock
numbers are recorded but never gated).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import struct
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
if str(SRC) not in sys.path:  # allow running without PYTHONPATH
    sys.path.insert(0, str(SRC))

import random

from repro.core.engine import HamletEngine
from repro.datasets.ridesharing import RidesharingGenerator
from repro.events.block import EventBlock
from repro.events.columnar import decode_events
from repro.events.event import Event
from repro.greta.engine import GretaEngine
from repro.optimizer.decisions import DynamicSharingOptimizer
from repro.optimizer.static import NeverShareOptimizer
from repro.query.windows import Window
from repro.runtime.executor import WorkloadExecutor
from repro.runtime.sharding import ShardedStreamingExecutor
from repro.runtime.streaming import StreamingExecutor
from repro.bench.workloads import kleene_sharing_workload, multi_aggregate_workload
from trend import baseline_rows

#: Permitted relative growth of deterministic operation counts before the
#: ``--gate`` mode fails (guards against accidental algorithmic regressions
#: while tolerating benign accounting tweaks).
GATE_TOLERANCE = 0.05

SEED = 7
EVENTS_PER_MINUTE = 2400.0
DURATION_SECONDS = 120.0


@dataclass(frozen=True)
class Suite:
    """One recorded benchmark suite: fixed input + named executor scenarios.

    ``section`` places the suite's results under ``suites[<section>]`` of a
    shared output file (BENCH_PR3.json holds both shared-window suites);
    ``None`` keeps the whole file to the suite (the PR 1/PR 2 layout).
    """

    name: str
    output: Path
    build_input: Callable
    scenarios: Callable
    workload_meta: dict
    section: str | None = None


# ---------------------------------------------------------------------- #
# Suite: smoke (fig9-style, tumbling window) -> BENCH_PR1.json
# ---------------------------------------------------------------------- #
SMOKE_QUERIES = 10
SMOKE_DISTRICTS = 5
SMOKE_WINDOW = Window.minutes(1)


def _smoke_input():
    workload = kleene_sharing_workload(
        SMOKE_QUERIES, kleene_type="Travel", window=SMOKE_WINDOW, name="smoke"
    )
    generator = RidesharingGenerator(
        events_per_minute=EVENTS_PER_MINUTE, seed=SEED, districts=SMOKE_DISTRICTS
    )
    return workload, list(generator.generate(DURATION_SECONDS))


def _smoke_scenarios() -> dict[str, Callable]:
    return {
        "hamlet_shared": lambda workload, events: WorkloadExecutor(
            workload, lambda: HamletEngine(DynamicSharingOptimizer())
        ).run(events),
        "hamlet_non_shared": lambda workload, events: WorkloadExecutor(
            workload, lambda: HamletEngine(NeverShareOptimizer())
        ).run(events),
        "greta": lambda workload, events: WorkloadExecutor(workload, GretaEngine).run(events),
    }


# ---------------------------------------------------------------------- #
# Suites: overlap (slide = size/5) and deep-overlap (slide = size/20)
# ---------------------------------------------------------------------- #
OVERLAP_QUERIES = 10
OVERLAP_DISTRICTS = 20
OVERLAP_WINDOW = Window(10.0, 2.0)  # slide = size/5
DEEP_OVERLAP_WINDOW = Window(10.0, 0.5)  # slide = size/20
#: Rare trend-start types (the paper's bursty setting: sparse requests,
#: dense Travel pings) — the regime where replaying every overlapping
#: partition from scratch wastes the most work.
OVERLAP_PREFIXES = ("Surge", "Breakdown")


def _overlap_input(window: Window = OVERLAP_WINDOW):
    workload = kleene_sharing_workload(
        OVERLAP_QUERIES,
        kleene_type="Travel",
        prefix_types=OVERLAP_PREFIXES,
        window=window,
        name="overlap",
    )
    generator = RidesharingGenerator(
        events_per_minute=EVENTS_PER_MINUTE, seed=SEED, districts=OVERLAP_DISTRICTS
    )
    return workload, list(generator.generate(DURATION_SECONDS))


def _deep_overlap_input():
    return _overlap_input(DEEP_OVERLAP_WINDOW)


#: Engine factories shared by every overlapping-window scenario builder so a
#: configuration change cannot silently diverge across suites.
_ENGINE_FACTORIES: dict[str, Callable] = {
    "hamlet": lambda: HamletEngine(DynamicSharingOptimizer()),
    "greta": GretaEngine,
}


def _batch_scenario(engine: str) -> Callable:
    factory = _ENGINE_FACTORIES[engine]
    return lambda workload, events: WorkloadExecutor(workload, factory).run(events)


def _streaming_scenario(engine: str, *, shared_windows: bool) -> Callable:
    factory = _ENGINE_FACTORIES[engine]
    return lambda workload, events: StreamingExecutor(
        workload, factory, shared_windows=shared_windows
    ).run(events)


def _overlap_scenarios() -> dict[str, Callable]:
    # PR 2's recorded suite: the per-instance streaming runtime, pinned so
    # the BENCH_PR2.json gate keeps guarding that path.
    return {
        "batch_hamlet": _batch_scenario("hamlet"),
        "streaming_hamlet": _streaming_scenario("hamlet", shared_windows=False),
        "batch_greta": _batch_scenario("greta"),
        "streaming_greta": _streaming_scenario("greta", shared_windows=False),
    }


def _shared_scenarios() -> dict[str, Callable]:
    return {
        "batch_hamlet": _batch_scenario("hamlet"),
        "streaming_hamlet": _streaming_scenario("hamlet", shared_windows=True),
        "streaming_hamlet_instances": _streaming_scenario("hamlet", shared_windows=False),
        "batch_greta": _batch_scenario("greta"),
        "streaming_greta": _streaming_scenario("greta", shared_windows=True),
        "streaming_greta_instances": _streaming_scenario("greta", shared_windows=False),
    }


def _deep_overlap_scenarios() -> dict[str, Callable]:
    # batch_greta is omitted: the 20x event duplication makes the GRETA
    # replay the slowest row by far without adding signal beyond batch_hamlet.
    return {
        "batch_hamlet": _batch_scenario("hamlet"),
        "streaming_hamlet": _streaming_scenario("hamlet", shared_windows=True),
        "streaming_hamlet_instances": _streaming_scenario("hamlet", shared_windows=False),
        "streaming_greta": _streaming_scenario("greta", shared_windows=True),
    }


# ---------------------------------------------------------------------- #
# Suite: bursty (rate-fluctuating stream, adaptive vs static sharing)
#   -> BENCH_PR5.json
# ---------------------------------------------------------------------- #
BURSTY_QUERIES = 8  # 2 prefixes x 4 aggregates = 2 classes of 4 members
BURSTY_DISTRICTS = 6
BURSTY_WINDOW = Window(20.0, 4.0)  # slide = size/5
BURSTY_PREFIXES = ("Request", "Surge")
BURSTY_PHASES = 14
#: Storm phases: dense Travel runs (long bursts, sharing clearly wins).
BURSTY_STORM_EVENTS = 900
BURSTY_STORM_INTERVAL = 0.03
BURSTY_STORM_WEIGHTS = (14.0, 1.0, 1.0)
#: Trickle phases: sparse, type-alternating traffic (short bursts where the
#: merge cost of a fresh shared run is not worth a couple of events).
BURSTY_TRICKLE_EVENTS = 60
BURSTY_TRICKLE_INTERVAL = 3.0
BURSTY_TRICKLE_WEIGHTS = (1.0, 1.5, 1.5)


def _bursty_input():
    """The Fig. 12/13 shape: stream rate fluctuating between extremes.

    Storm phases produce long same-type Travel bursts (per-burst sharing
    wins by the burst length); trickle phases alternate types so bursts
    shrink to a handful of events and sharing repeatedly has to pay for
    fresh merges.  A static plan is wrong in one of the two regimes by
    construction; the dynamic optimizer flips per burst.
    """
    workload = multi_aggregate_workload(
        BURSTY_QUERIES,
        kleene_type="Travel",
        prefix_types=BURSTY_PREFIXES,
        window=BURSTY_WINDOW,
        group_by=("district",),
        name="bursty",
    )
    rng = random.Random(SEED)
    types = ("Travel",) + BURSTY_PREFIXES
    events = []
    clock = 0.0
    for phase in range(BURSTY_PHASES):
        storm = phase % 2 == 0
        count = BURSTY_STORM_EVENTS if storm else BURSTY_TRICKLE_EVENTS
        interval = BURSTY_STORM_INTERVAL if storm else BURSTY_TRICKLE_INTERVAL
        weights = BURSTY_STORM_WEIGHTS if storm else BURSTY_TRICKLE_WEIGHTS
        for _ in range(count):
            events.append(
                Event(
                    rng.choices(types, weights=weights)[0],
                    clock,
                    {
                        "district": float(rng.randint(1, BURSTY_DISTRICTS)),
                        "speed": float(rng.randint(5, 60)),
                    },
                )
            )
            clock += interval
    return workload, events


def _adaptive_scenario(optimizer: str | None) -> Callable:
    factory = _ENGINE_FACTORIES["hamlet"]
    return lambda workload, events: StreamingExecutor(
        workload, factory, optimizer=optimizer
    ).run(events)


#: Rows per ``process_block`` call of the block-fed bursty row: small enough
#: that most bursts of a storm phase straddle a block boundary.
BURSTY_BLOCK_ROWS = 512


def _adaptive_block_scenario(optimizer: str) -> Callable:
    factory = _ENGINE_FACTORIES["hamlet"]
    # Built once, outside the timed region (the block belongs to the producer).
    block_cache: list[EventBlock] = []

    def run(workload, events):
        if not block_cache:
            block_cache.append(EventBlock.from_events(events))
        block = block_cache[0]
        executor = StreamingExecutor(workload, factory, optimizer=optimizer)
        for start in range(0, len(block), BURSTY_BLOCK_ROWS):
            executor.process_block(block.slice(start, start + BURSTY_BLOCK_ROWS))
        return executor.finish()

    return run


def _bursty_scenarios() -> dict[str, Callable]:
    # All rows produce bit-identical totals (the differential property
    # suite guards this); only the work and memory profiles differ, which
    # is exactly what the recorded ops are gating.  The block-fed row is the
    # dynamic row again through ``process_block``: same ops, same digest,
    # same decisions, or the block path cut a burst the scalar path did not.
    return {
        "static_compile_time": _adaptive_scenario(None),
        "adaptive_dynamic": _adaptive_scenario("dynamic"),
        "adaptive_dynamic_block": _adaptive_block_scenario("dynamic"),
        "static_always_share": _adaptive_scenario("always"),
        "static_never_share": _adaptive_scenario("never"),
    }


#: Deterministic row fields: the gate compares them exactly (``operations``
#: keeps its historical ceiling) and the in-run twin checks read them.
DECISION_FIELDS = ("decisions", "merges", "splits", "shared_fraction")


def _sharded_scenario(workers: int) -> Callable:
    factory = _ENGINE_FACTORIES["hamlet"]
    return lambda workload, events: ShardedStreamingExecutor(
        workload, factory, workers=workers
    ).run(events)


def _sharded_scenarios() -> dict[str, Callable]:
    # Same fixed-seed input as overlap-shared (20 districts => 20 group
    # keys), so the single-process row is directly comparable to the PR 3
    # numbers; the sharded rows must reproduce its checksum bit-identically.
    return {
        "streaming_single": _streaming_scenario("hamlet", shared_windows=True),
        "sharded_inprocess": _sharded_scenario(0),
        "sharded_w1": _sharded_scenario(1),
        "sharded_w4": _sharded_scenario(4),
    }


# ---------------------------------------------------------------------- #
# Suite: block (block ingest vs per-event ingest) -> BENCH_PR9.json
# ---------------------------------------------------------------------- #
#: Denser than the overlap suite on purpose: block ingest amortizes the
#: per-event dispatch around the folds, which dominates exactly when events
#: arrive faster than the window-close machinery runs.
BLOCK_EVENTS_PER_MINUTE = 9600.0
BLOCK_DURATION_SECONDS = 60.0
BLOCK_SHARDS = 4


def _block_input():
    workload = kleene_sharing_workload(
        OVERLAP_QUERIES,
        kleene_type="Travel",
        prefix_types=OVERLAP_PREFIXES,
        window=OVERLAP_WINDOW,
        name="overlap",
    )
    generator = RidesharingGenerator(
        events_per_minute=BLOCK_EVENTS_PER_MINUTE, seed=SEED, districts=OVERLAP_DISTRICTS
    )
    return workload, list(generator.generate(BLOCK_DURATION_SECONDS))


def _block_scenarios() -> dict[str, Callable]:
    # Both sides start from the same columnar payload, so each row measures
    # the full wire -> report path and differs only in the in-memory format
    # it rematerializes: Event objects or one EventBlock.  The payload is
    # encoded once outside the timed region (it belongs to the producer).
    payload_cache: list[bytes] = []

    def payload(events) -> bytes:
        if not payload_cache:
            payload_cache.append(EventBlock.from_events(events).to_bytes())
        return payload_cache[0]

    factory = _ENGINE_FACTORIES["hamlet"]

    def per_event(workload, events):
        return StreamingExecutor(workload, factory).run(decode_events(payload(events)))

    def block(workload, events):
        return StreamingExecutor(workload, factory).run(
            EventBlock.from_bytes(payload(events))
        )

    def sharded_per_event(workload, events):
        return ShardedStreamingExecutor(
            workload, factory, workers=0, shards=BLOCK_SHARDS
        ).run(decode_events(payload(events)))

    def sharded_block(workload, events):
        return ShardedStreamingExecutor(
            workload, factory, workers=0, shards=BLOCK_SHARDS
        ).run(EventBlock.from_bytes(payload(events)))

    return {
        "per_event_ingest": per_event,
        "block_ingest": block,
        "sharded_per_event": sharded_per_event,
        "sharded_block": sharded_block,
    }


# ---------------------------------------------------------------------- #
# Suite: ooo (reorder buffer: in-order overhead + shuffled differential)
#   -> BENCH_PR10.json
# ---------------------------------------------------------------------- #
#: Lateness horizon for the out-of-order rows; the shuffled stream displaces
#: each sort key by at most half of it, so no event is ever late.
OOO_LATENESS = 5.0
OOO_SHARDS = 4
#: Rows per ``process_block`` call of the shuffled block rows (the e2e
#: ``ooo-paced`` frame size).
OOO_FRAME_ROWS = 1024


def _ooo_scenarios() -> dict[str, Callable]:
    # The shuffled arrival order is derived once, deterministically: each
    # event's sort key is displaced by at most OOO_LATENESS / 2, which keeps
    # every arrival within the horizon of the watermark (the reorder
    # buffer's contract regime — nothing is ever dropped or raised).
    shuffled_cache: list = []

    def shuffled(events):
        if not shuffled_cache:
            rng = random.Random(SEED + 1)
            shuffled_cache.append(
                sorted(
                    events,
                    key=lambda event: event.time
                    + rng.uniform(-OOO_LATENESS / 2, OOO_LATENESS / 2),
                )
            )
        return shuffled_cache[0]

    factory = _ENGINE_FACTORIES["hamlet"]
    block_cache: list[EventBlock] = []

    def as_block(events) -> EventBlock:
        if not block_cache:
            block_cache.append(EventBlock.from_events(events))
        return block_cache[0]

    def scalar_strict(workload, events):
        return StreamingExecutor(workload, factory).run(events)

    def scalar_buffered_inorder(workload, events):
        return StreamingExecutor(
            workload, factory, allowed_lateness=OOO_LATENESS
        ).run(events)

    def scalar_buffered_shuffled(workload, events):
        return StreamingExecutor(
            workload, factory, allowed_lateness=OOO_LATENESS
        ).run(shuffled(events))

    def block_strict(workload, events):
        return StreamingExecutor(workload, factory).run(as_block(events))

    def block_buffered_inorder(workload, events):
        return StreamingExecutor(
            workload, factory, allowed_lateness=OOO_LATENESS
        ).run(as_block(events))

    def sharded_shuffled(workload, events):
        return ShardedStreamingExecutor(
            workload, factory, workers=0, shards=OOO_SHARDS,
            allowed_lateness=OOO_LATENESS,
        ).run(shuffled(events))

    shuffled_block_cache: list[EventBlock] = []

    def shuffled_block(events) -> EventBlock:
        if not shuffled_block_cache:
            shuffled_block_cache.append(EventBlock.from_events(shuffled(events)))
        return shuffled_block_cache[0]

    def fed_in_frames(executor, block):
        # Frame by frame, as a live feed delivers it: each frame is sorted
        # on entry and merged with what earlier frames left buffered.
        for start in range(0, len(block), OOO_FRAME_ROWS):
            executor.process_block(block.slice(start, start + OOO_FRAME_ROWS))
        return executor.finish()

    def block_buffered_shuffled(workload, events):
        executor = StreamingExecutor(workload, factory, allowed_lateness=OOO_LATENESS)
        return fed_in_frames(executor, shuffled_block(events))

    def sharded_block_shuffled(workload, events):
        executor = ShardedStreamingExecutor(
            workload, factory, workers=0, shards=OOO_SHARDS,
            allowed_lateness=OOO_LATENESS,
        )
        return fed_in_frames(executor, shuffled_block(events))

    return {
        "scalar_strict": scalar_strict,
        "scalar_buffered_inorder": scalar_buffered_inorder,
        "scalar_buffered_shuffled": scalar_buffered_shuffled,
        "block_strict": block_strict,
        "block_buffered_inorder": block_buffered_inorder,
        "block_buffered_shuffled": block_buffered_shuffled,
        "sharded_buffered_shuffled": sharded_shuffled,
        "sharded_block_shuffled": sharded_block_shuffled,
    }


def _overlap_meta(window: Window) -> dict:
    return {
        "style": "overlapping-window-batch-vs-streaming",
        "num_queries": OVERLAP_QUERIES,
        "events_per_minute": EVENTS_PER_MINUTE,
        "duration_seconds": DURATION_SECONDS,
        "seed": SEED,
        "districts": OVERLAP_DISTRICTS,
        "window_seconds": window.size,
        "slide_seconds": window.slide,
        "overlap_factor": window.instances_per_event,
        "prefix_types": list(OVERLAP_PREFIXES),
    }


SUITES = {
    "smoke": Suite(
        name="smoke",
        output=REPO_ROOT / "BENCH_PR1.json",
        build_input=_smoke_input,
        scenarios=_smoke_scenarios,
        workload_meta={
            "style": "fig9-shared-kleene",
            "num_queries": SMOKE_QUERIES,
            "events_per_minute": EVENTS_PER_MINUTE,
            "duration_seconds": DURATION_SECONDS,
            "seed": SEED,
            "districts": SMOKE_DISTRICTS,
            "window_seconds": SMOKE_WINDOW.size,
        },
    ),
    "overlap": Suite(
        name="overlap",
        output=REPO_ROOT / "BENCH_PR2.json",
        build_input=_overlap_input,
        scenarios=_overlap_scenarios,
        workload_meta={
            "style": "overlapping-window-batch-vs-streaming",
            "num_queries": OVERLAP_QUERIES,
            "events_per_minute": EVENTS_PER_MINUTE,
            "duration_seconds": DURATION_SECONDS,
            "seed": SEED,
            "districts": OVERLAP_DISTRICTS,
            "window_seconds": OVERLAP_WINDOW.size,
            "slide_seconds": OVERLAP_WINDOW.slide,
            "prefix_types": list(OVERLAP_PREFIXES),
        },
    ),
    "overlap-shared": Suite(
        name="overlap-shared",
        output=REPO_ROOT / "BENCH_PR3.json",
        build_input=_overlap_input,
        scenarios=_shared_scenarios,
        workload_meta=_overlap_meta(OVERLAP_WINDOW),
        section="overlap",
    ),
    "deep-overlap": Suite(
        name="deep-overlap",
        output=REPO_ROOT / "BENCH_PR3.json",
        build_input=_deep_overlap_input,
        scenarios=_deep_overlap_scenarios,
        workload_meta=_overlap_meta(DEEP_OVERLAP_WINDOW),
        section="deep-overlap",
    ),
    "bursty": Suite(
        name="bursty",
        output=REPO_ROOT / "BENCH_PR5.json",
        build_input=_bursty_input,
        scenarios=_bursty_scenarios,
        workload_meta={
            "style": "bursty-adaptive-vs-static-sharing",
            "num_queries": BURSTY_QUERIES,
            "query_classes": len(BURSTY_PREFIXES),
            "members_per_class": BURSTY_QUERIES // len(BURSTY_PREFIXES),
            "seed": SEED,
            "districts": BURSTY_DISTRICTS,
            "window_seconds": BURSTY_WINDOW.size,
            "slide_seconds": BURSTY_WINDOW.slide,
            "phases": BURSTY_PHASES,
            "storm": {
                "events": BURSTY_STORM_EVENTS,
                "interval_seconds": BURSTY_STORM_INTERVAL,
            },
            "trickle": {
                "events": BURSTY_TRICKLE_EVENTS,
                "interval_seconds": BURSTY_TRICKLE_INTERVAL,
            },
            "note": (
                "all rows are bit-identical in results; ops/memory measure "
                "the sharing plans. The dynamic row must beat the worse "
                "static extreme (see adaptive_vs_static)."
            ),
        },
    ),
    "sharded": Suite(
        name="sharded",
        output=REPO_ROOT / "BENCH_PR4.json",
        build_input=_overlap_input,
        scenarios=_sharded_scenarios,
        workload_meta={
            **_overlap_meta(OVERLAP_WINDOW),
            "style": "sharded-streaming-vs-single-process",
            "group_keys": OVERLAP_DISTRICTS,
            "note": (
                "wall-clock ratios are machine-dependent: parallel speedup "
                "needs cores (see environment.cpu_count); ops/checksums are "
                "shard-count-invariant and gated"
            ),
        },
    ),
    "block": Suite(
        name="block",
        output=REPO_ROOT / "BENCH_PR9.json",
        build_input=_block_input,
        scenarios=_block_scenarios,
        workload_meta={
            "style": "block-ingest-vs-per-event",
            "num_queries": OVERLAP_QUERIES,
            "events_per_minute": BLOCK_EVENTS_PER_MINUTE,
            "duration_seconds": BLOCK_DURATION_SECONDS,
            "seed": SEED,
            "districts": OVERLAP_DISTRICTS,
            "window_seconds": OVERLAP_WINDOW.size,
            "slide_seconds": OVERLAP_WINDOW.slide,
            "prefix_types": list(OVERLAP_PREFIXES),
            "shards": BLOCK_SHARDS,
            "note": (
                "every row consumes the same columnar payload (wire -> "
                "report); the stream is denser than the overlap suite's "
                "because block ingest amortizes per-event dispatch, the "
                "cost that dominates the high-rate regime it targets. "
                "Result digests must match between the block and "
                "per-event rows (checked at run time and gated)."
            ),
        },
    ),
    "ooo": Suite(
        name="ooo",
        output=REPO_ROOT / "BENCH_PR10.json",
        build_input=_overlap_input,
        scenarios=_ooo_scenarios,
        workload_meta={
            **_overlap_meta(OVERLAP_WINDOW),
            "style": "reorder-buffer-inorder-overhead-and-shuffled-differential",
            "allowed_lateness_seconds": OOO_LATENESS,
            "shards": OOO_SHARDS,
            "note": (
                "all rows must produce the scalar_strict result digest "
                "bit-identically (checked at run time and gated); "
                "inorder_overhead_pct records the buffered pass-through's "
                "wall cost over the strict path on an in-order stream "
                "(block = the hot path, scalar = the per-event constant); "
                "wall ratios are machine-dependent and informational"
            ),
        },
    ),
}


def result_digest(totals: dict[str, float]) -> int:
    """Order-independent exact integer digest of the per-query totals.

    Each ``(query name, float bit pattern)`` pair hashes independently
    (BLAKE2b-64) and the pieces sum mod 2^64, so dict iteration order —
    which hash randomization permutes across processes — cannot move the
    value, while a single-ulp change in any one total changes it
    completely.  The float-sum checksum this replaces wobbled in its last
    bits for exactly that ordering reason (BENCH_PR6 recorded
    ``...774e36`` vs ``...773e36``), forcing a tolerance where the gate
    should be exact.
    """
    digest = 0
    for name, value in totals.items():
        piece = hashlib.blake2b(
            name.encode() + struct.pack("<d", value), digest_size=8
        )
        digest = (digest + int.from_bytes(piece.digest(), "little")) % 2**64
    return digest


def run_scenario(name: str, runner: Callable, workload, events, repeats: int) -> dict:
    best_seconds = float("inf")
    report = None
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        report = runner(workload, events)
        elapsed = time.perf_counter() - start
        best_seconds = min(best_seconds, elapsed)
    assert report is not None
    checksum = sum(report.totals.values())
    result = {
        "wall_seconds": round(best_seconds, 4),
        "events_per_second": round(len(events) / best_seconds, 1),
        "operations": report.metrics.operations,
        "peak_memory_units": report.metrics.peak_memory_units,
        "partitions": report.metrics.partitions,
        # The float sum stays recorded for the human-readable trajectory;
        # the digest is what the gate compares (exactly).
        "result_checksum": checksum,
        "result_digest": result_digest(report.totals),
    }
    if report.metrics.peak_active_windows:
        result["peak_active_windows"] = report.metrics.peak_active_windows
    if report.metrics.emissions:
        result["avg_emission_latency_ms"] = round(
            report.metrics.average_emission_latency * 1e3, 4
        )
    statistics = report.optimizer_statistics
    if statistics is not None and statistics.decisions:
        # Deterministic for a fixed seed, like the operation counts.
        result["decisions"] = statistics.decisions
        result["shared_fraction"] = round(statistics.shared_fraction, 4)
        result["merges"] = statistics.merges
        result["splits"] = statistics.splits
    print(
        f"  {name:<24} {result['events_per_second']:>10.0f} ev/s  "
        f"{best_seconds:8.3f} s  ops={result['operations']:>10}  "
        f"digest={result['result_digest']:016x}"
    )
    return result


def load_container(suite: Suite) -> dict:
    """Load (or initialize) the suite's output file."""
    if suite.output.exists():
        return json.loads(suite.output.read_text())
    if suite.section is None:
        return {
            "benchmark": f"perf_smoke/{suite.name}",
            "workload": suite.workload_meta,
            "runs": {},
        }
    return {"benchmark": "perf_smoke/shared-windows", "suites": {}}


def suite_node(container: dict, suite: Suite) -> dict:
    """The dict holding this suite's runs (the container itself, or a section)."""
    if suite.section is None:
        return container
    sections = container.setdefault("suites", {})
    return sections.setdefault(
        suite.section, {"workload": suite.workload_meta, "runs": {}}
    )


def attach_speedups(results: dict) -> None:
    runs = results["runs"]
    if "before" in runs and "after" in runs:
        speedups = {}
        for name, after in runs["after"].items():
            before = runs["before"].get(name)
            if before and before.get("wall_seconds"):
                speedups[name] = round(before["wall_seconds"] / after["wall_seconds"], 2)
        results["speedup_after_over_before"] = speedups
    # Streaming-vs-batch pairs within each label (the overlap suite).
    for label, rows in runs.items():
        speedups = {}
        for name, row in rows.items():
            if not name.startswith("streaming_"):
                continue
            partner = rows.get("batch_" + name[len("streaming_"):])
            if partner and row.get("wall_seconds"):
                speedups[name[len("streaming_"):]] = round(
                    partner["wall_seconds"] / row["wall_seconds"], 2
                )
        if speedups:
            results.setdefault("speedup_streaming_over_batch", {})[label] = speedups


def attach_sharded_speedups(results: dict) -> None:
    """Record wall-clock speedup of each sharded row over single-process.

    Ratios use best wall-clock on the recording machine; ``cpu_count`` in
    the environment block says how many cores the parallel rows had to
    work with (with one core they measure pure transport overhead).
    """
    for label, rows in results["runs"].items():
        single = rows.get("streaming_single")
        if not single or not single.get("events_per_second"):
            continue
        ratios = {
            name: round(row["events_per_second"] / single["events_per_second"], 2)
            for name, row in rows.items()
            if name.startswith("sharded_") and row.get("events_per_second")
        }
        if ratios:
            results.setdefault("speedup_sharded_over_single", {})[label] = ratios


def attach_adaptive_ratios(results: dict) -> None:
    """Record how the dynamic row compares against the static extremes.

    ``ops_static_over_dynamic`` > 1 means the dynamic optimizer did less
    abstract work than that static plan on the bursty stream; the headline
    claim (Figures 12–13) is that it beats the *worse* extreme while
    staying close to the better one.  Wall-clock speedups are recorded
    alongside for the trajectory but, as everywhere in this harness, only
    ops and checksums are gated.
    """
    for label, rows in results["runs"].items():
        dynamic = rows.get("adaptive_dynamic")
        if not dynamic or not dynamic.get("operations"):
            continue
        ops_ratios = {}
        wall_speedups = {}
        for name in ("static_always_share", "static_never_share", "static_compile_time"):
            static = rows.get(name)
            if not static:
                continue
            ops_ratios[name] = round(static["operations"] / dynamic["operations"], 3)
            if static.get("wall_seconds") and dynamic.get("wall_seconds"):
                wall_speedups[name] = round(
                    static["wall_seconds"] / dynamic["wall_seconds"], 2
                )
        if ops_ratios:
            node = results.setdefault("adaptive_vs_static", {})
            node[label] = {
                "ops_static_over_dynamic": ops_ratios,
                "wall_speedup_dynamic_over_static": wall_speedups,
            }


def attach_block_ratios(results: dict) -> None:
    """Throughput of each block-ingest row over its per-event twin.

    ``speedup_block_over_per_event`` is the PR 9 headline: the single-
    process ratio is the acceptance number, the sharded ratio shows the
    same payoff surviving the routing layer.  As everywhere, the wall
    ratios are machine-dependent and only digests/ops are gated.
    """
    pairs = (
        ("block_ingest", "per_event_ingest"),
        ("sharded_block", "sharded_per_event"),
    )
    for label, rows in results["runs"].items():
        ratios = {}
        for block_name, per_event_name in pairs:
            block_row = rows.get(block_name)
            per_event_row = rows.get(per_event_name)
            if block_row and per_event_row and per_event_row.get("events_per_second"):
                ratios[block_name] = round(
                    block_row["events_per_second"]
                    / per_event_row["events_per_second"],
                    2,
                )
        if ratios:
            results.setdefault("speedup_block_over_per_event", {})[label] = ratios


def attach_ooo_ratios(results: dict) -> None:
    """Record the reorder buffer's wall cost against the strict paths.

    ``inorder_overhead_pct`` is the PR 10 acceptance number, measured on
    the **block ingest** path — the end-to-end hot path since PR 9 —
    where the buffer's work is one sortedness probe and a zero-copy
    segment per block, amortized across its rows.  The scalar pair is
    recorded next to it: per-event buffering pays O(log horizon) per event
    (a heap push and pop, a watermark check), which is visible
    on a workload this light and is the honest price of scalar ingest
    with a horizon.  Like every wall number in this harness the ratios
    are machine-dependent and recorded, never gated — the gate compares
    digests and ops.
    """
    pairs = (
        ("block", "block_buffered_inorder", "block_strict"),
        ("scalar", "scalar_buffered_inorder", "scalar_strict"),
    )
    for label, rows in results["runs"].items():
        overheads = {}
        for key, buffered_name, strict_name in pairs:
            buffered = rows.get(buffered_name)
            strict = rows.get(strict_name)
            if (
                buffered
                and strict
                and buffered.get("wall_seconds")
                and strict.get("wall_seconds")
            ):
                overheads[key] = round(
                    (buffered["wall_seconds"] / strict["wall_seconds"] - 1.0) * 100,
                    2,
                )
        if overheads:
            results.setdefault("inorder_overhead_pct", {})[label] = overheads
        strict = rows.get("scalar_strict")
        if not strict or not strict.get("wall_seconds"):
            continue
        ratios = {
            name: round(row["wall_seconds"] / strict["wall_seconds"], 3)
            for name, row in rows.items()
            if name != "scalar_strict" and row.get("wall_seconds")
        }
        if ratios:
            results.setdefault("wall_ratio_over_scalar_strict", {})[label] = ratios


def gate(results: dict, current: dict, suite: Suite) -> int:
    """Compare deterministic operation counts against the recorded baseline."""
    baseline = baseline_rows(results["runs"])
    if not baseline:
        print(f"gate[{suite.name}]: no recorded baseline label; nothing to compare against")
        return 1
    failures = []
    for name, row in current.items():
        recorded = baseline.get(name)
        if recorded is None:
            continue
        recorded_digest = recorded.get("result_digest")
        if recorded_digest is not None:
            # The order-independent digest is exact: any value change in
            # any per-query total fails the gate, no tolerance.
            if row["result_digest"] != recorded_digest:
                failures.append(
                    f"{name}: result digest changed "
                    f"({recorded_digest:016x} -> {row['result_digest']:016x})"
                )
        elif not math.isclose(
            row["result_checksum"], recorded["result_checksum"], rel_tol=1e-9
        ):
            # Legacy rows recorded only the float-sum checksum, whose last
            # bits wobble with summation order (hash randomization permutes
            # the frozenset iteration across processes) — tolerance compare.
            failures.append(
                f"{name}: result checksum changed "
                f"({recorded['result_checksum']} -> {row['result_checksum']})"
            )
        ceiling = recorded["operations"] * (1.0 + GATE_TOLERANCE)
        if row["operations"] > ceiling:
            failures.append(
                f"{name}: operations regressed {recorded['operations']} -> "
                f"{row['operations']} (> {GATE_TOLERANCE:.0%} tolerance)"
            )
        # Result digests are decision-invariant by construction, so the
        # sharing decisions need their own (exact) comparison.
        for field in DECISION_FIELDS:
            if field in recorded and row.get(field) != recorded[field]:
                failures.append(
                    f"{name}: {field} changed ({recorded[field]} -> {row.get(field)})"
                )
    if failures:
        for failure in failures:
            print(f"gate[{suite.name}] FAILED: {failure}")
        return 1
    print(
        f"gate[{suite.name}] OK: operation counts, result digests and "
        f"decision counters match"
    )
    return 0


def attach_cross_suite(container: dict) -> None:
    """Record the PR 3 headline ratios inside BENCH_PR3.json.

    * ``speedup_shared_over_pr2`` — shared-window streaming throughput of
      the ``overlap`` section divided by the per-instance streaming rows
      recorded in ``BENCH_PR2.json`` (same fixed-seed input).
    * ``deep_overlap_slowdown`` — ``overlap`` section shared throughput
      divided by the ``deep-overlap`` section's; the overlap factor grows
      4x between the two, so a ratio well below 4 is the near-flat-scaling
      evidence (ratios use best wall-clock, recorded on one machine).
    """
    sections = container.get("suites", {})

    def rows(section: str) -> dict:
        runs = sections.get(section, {}).get("runs", {})
        return runs.get("after") or runs.get("before") or {}

    overlap_rows = rows("overlap")
    pr2_path = REPO_ROOT / "BENCH_PR2.json"
    if overlap_rows and pr2_path.exists():
        pr2_runs = json.loads(pr2_path.read_text()).get("runs", {})
        pr2_rows = pr2_runs.get("after") or pr2_runs.get("before") or {}
        speedups = {}
        for name in ("streaming_hamlet", "streaming_greta"):
            current, recorded = overlap_rows.get(name), pr2_rows.get(name)
            if current and recorded and recorded.get("events_per_second"):
                speedups[name] = round(
                    current["events_per_second"] / recorded["events_per_second"], 2
                )
        if speedups:
            container["speedup_shared_over_pr2"] = speedups
    deep_rows = rows("deep-overlap")
    if overlap_rows and deep_rows:
        slowdowns = {}
        for name in ("streaming_hamlet", "streaming_greta"):
            shallow, deep = overlap_rows.get(name), deep_rows.get(name)
            if shallow and deep and deep.get("events_per_second"):
                slowdowns[name] = round(
                    shallow["events_per_second"] / deep["events_per_second"], 2
                )
        if slowdowns:
            container["deep_overlap_slowdown"] = slowdowns


def run_suite(suite: Suite, args) -> int:
    workload, events = suite.build_input()
    # The gate only reads deterministic op counts and checksums, which are
    # identical across repeats; one execution per scenario suffices.
    repeats = 1 if args.gate else args.repeats
    print(
        f"perf_smoke[{suite.name}]: {len(events)} events, label={args.label!r}, "
        f"repeats={repeats}"
    )
    current = {
        name: run_scenario(name, runner, workload, events, repeats)
        for name, runner in suite.scenarios().items()
    }
    if suite.name == "block":
        # The block path's whole claim is "nothing but speed": a digest
        # drift between the twins is a correctness bug, not a perf result.
        for block_name, per_event_name in (
            ("block_ingest", "per_event_ingest"),
            ("sharded_block", "sharded_per_event"),
        ):
            if (
                current[block_name]["result_digest"]
                != current[per_event_name]["result_digest"]
            ):
                print(
                    f"perf_smoke[block] FAILED: {block_name} digest diverges "
                    f"from {per_event_name}"
                )
                return 1

    if suite.name == "ooo":
        # The buffer's whole claim is determinism: every row — buffered
        # pass-through, shuffled, sharded-shuffled — must land on the
        # strict row's digest exactly, or the reorder path changed results.
        strict = current["scalar_strict"]
        for name, row in current.items():
            for field in ("result_digest", "operations"):
                if row[field] != strict[field]:
                    print(
                        f"perf_smoke[ooo] FAILED: {name} {field} diverges from "
                        f"scalar_strict"
                    )
                    return 1

    if suite.name == "bursty":
        # The block path's claim under an optimizer is "the same run": the
        # block-fed row must reproduce the scalar row's work and decisions.
        scalar, block_fed = current["adaptive_dynamic"], current["adaptive_dynamic_block"]
        for field in ("operations", "result_digest", *DECISION_FIELDS):
            if block_fed.get(field) != scalar.get(field):
                print(
                    f"perf_smoke[bursty] FAILED: adaptive_dynamic_block {field} "
                    f"{block_fed.get(field)} diverges from adaptive_dynamic {scalar.get(field)}"
                )
                return 1

    container = load_container(suite)
    results = suite_node(container, suite)
    if args.gate:
        return gate(results, current, suite)

    results["runs"][args.label] = current
    container.setdefault("environment", {})[args.label] = {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
    }
    attach_speedups(results)
    if suite.name == "sharded":
        attach_sharded_speedups(results)
    if suite.name == "bursty":
        attach_adaptive_ratios(results)
    if suite.name == "ooo":
        attach_ooo_ratios(results)
    if suite.name == "block":
        attach_block_ratios(results)
    if suite.section is not None:
        attach_cross_suite(container)
    suite.output.write_text(json.dumps(container, indent=2, sort_keys=True) + "\n")
    print(f"recorded label {args.label!r} in {suite.output}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", default="after", help="label to record under (before/after/...)")
    parser.add_argument(
        "--suite",
        choices=[*SUITES, "all"],
        default="all",
        help="which suite to run (default: all)",
    )
    parser.add_argument("--repeats", type=int, default=3, help="repetitions per scenario")
    parser.add_argument(
        "--gate",
        action="store_true",
        help="do not record; fail if deterministic op counts regressed vs the files",
    )
    args = parser.parse_args(argv)

    names = list(SUITES) if args.suite == "all" else [args.suite]
    status = 0
    for name in names:
        status = max(status, run_suite(SUITES[name], args))
    return status


if __name__ == "__main__":
    raise SystemExit(main())
