"""The six seeded workloads: inputs, one pass through the system, checking.

Everything a pass needs is made from the seed during set-up: the stream
(product dataset generators), its arrival order, the framed wire bytes, and a
reference for the results.  A *pass* hands the frames to an executor exactly
as a caller of the library would and is timed from the first frame byte
handed to the decoder to ``finish()`` returned.

Later PRs may not edit this file while they split and delete the modules
underneath, so it imports only the surface listed in README.md ("Product
surface"); ``test_harness.py`` pins that list with an AST check.
"""

from __future__ import annotations

import bisect
import hashlib
import math
import random
import struct
import time
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, Optional, Sequence

from repro import Window
from repro.bench.workloads import kleene_sharing_workload, multi_aggregate_workload
from repro.datasets import BurstModel, RidesharingGenerator, StreamGenerator
from repro.events import EventBlock
from repro.events.columnar import decode_events
from repro.runtime import ShardedStreamingExecutor, StreamingExecutor

#: Paper default arrival rate (Section 6.1): 10K events per minute.
EVENTS_PER_MINUTE = 10_000.0
#: Every workload groups by this payload attribute.
GROUP_BY = "district"
DISTRICTS = 20
#: Lateness horizon of the out-of-order workloads; arrival sort keys are
#: displaced by at most half of it, so no event is ever late.
LATENESS = 5.0
#: Open-loop rate of ``ooo-paced``, frozen after checking that
#: ``load.utilisation`` lands in 0.35-0.6 on the 2-core reference box.
PACED_RATE_EPS = 60_000.0
#: Share of the stream the memory pass feeds.  Window state is bounded by
#: the live windows, but the executor's report grows with every result, so
#: the peak is that of a fixed prefix, not of "the stream".
MEMORY_PREFIX = 0.2

SCALES = ("tiny", "bench")

# ---------------------------------------------------------------------- #
# Query sets
# ---------------------------------------------------------------------- #
INGEST_WINDOW = Window(10.0, 2.0)
BURSTY_WINDOW = Window(20.0, 4.0)


def ingest_queries():
    """10 x ``SEQ(Surge|Breakdown, Travel+)`` COUNT(*) GROUP BY district."""
    return kleene_sharing_workload(
        10,
        kleene_type="Travel",
        prefix_types=("Surge", "Breakdown"),
        window=INGEST_WINDOW,
        name="ingest",
    )


def fig9_queries():
    """Paper workload 1: 50 queries, all 19 prefix types sharing ``Travel+``."""
    return kleene_sharing_workload(
        50, kleene_type="Travel", window=INGEST_WINDOW, name="fig9"
    )


def bursty_queries():
    """8 multi-aggregate queries: COUNT(*)/SUM/AVG/COUNT(E) x 2 prefixes."""
    return multi_aggregate_workload(
        8,
        kleene_type="Travel",
        prefix_types=("Request", "Surge"),
        window=BURSTY_WINDOW,
        group_by=(GROUP_BY,),
        name="bursty",
    )


# ---------------------------------------------------------------------- #
# Streams: lists of time-ordered segments (EventBlocks)
# ---------------------------------------------------------------------- #
def ridesharing_stream(events: int, seed: int) -> list:
    """The paper's ridesharing stream, 20 districts, as one ordered block.

    The generator is prefix-stable (fixed spacing, one RNG), so two streams
    of one seed share their common prefix row for row — what lets the four
    workloads over the ingest queries be checked against each other.
    """
    generator = RidesharingGenerator(
        events_per_minute=EVENTS_PER_MINUTE, seed=seed, districts=DISTRICTS
    )
    return [generator.generate_block(events / EVENTS_PER_MINUTE * 60.0)]


BURSTY_DISTRICTS = 6
BURSTY_TYPES = ("Travel", "Request", "Surge")
#: Storm / trickle phases of perf_smoke's ``bursty`` suite, same density:
#: 900 events in 27 s (14:1:1 Travel-heavy), then 60 events in 180 s.
STORM_SECONDS, STORM_RATE_EPM, STORM_WEIGHTS = 27.0, 2000.0, (14.0, 1.0, 1.0)
TRICKLE_SECONDS, TRICKLE_RATE_EPM, TRICKLE_WEIGHTS = 180.0, 20.0, (1.0, 1.5, 1.5)
BURSTY_EVENTS_PER_PAIR = 960


class _PhaseGenerator(StreamGenerator):
    """Three-type stream with an i.i.d. type sequence at one fixed rate."""

    name = "bursty-phase"

    def __init__(self, *, events_per_minute: float, seed: int, weights: Sequence[float]):
        super().__init__(
            events_per_minute=events_per_minute,
            seed=seed,
            burst_model=BurstModel(mean_burst_length=1.0),
        )
        self._weights = dict(zip(BURSTY_TYPES, weights))

    def event_types(self):
        return BURSTY_TYPES

    def type_weight(self, event_type):
        return self._weights[event_type]

    def build_payload(self, event_type, time, rng):
        # Integer-valued, so that SUM(speed) is exact below 2**53 (same_values).
        return {
            GROUP_BY: float(rng.randint(1, BURSTY_DISTRICTS)),
            "speed": float(rng.randint(5, 60)),
        }


def bursty_stream(events: int, seed: int) -> list:
    """Fig. 12/13 storm/trickle stream: alternating slices of two generators.

    Both generators cover the whole timeline at their own rate; each phase
    keeps only the rows of the generator it belongs to.  (The generators
    offer no time shift, so the storm rows falling into trickle phases are
    generated and dropped — 7x waste on the cheap side of set-up.)
    """
    pairs = max(2, round(events / BURSTY_EVENTS_PER_PAIR))
    period = STORM_SECONDS + TRICKLE_SECONDS
    storm = _PhaseGenerator(
        events_per_minute=STORM_RATE_EPM, seed=seed, weights=STORM_WEIGHTS
    ).generate_block(pairs * period)
    trickle = _PhaseGenerator(
        events_per_minute=TRICKLE_RATE_EPM, seed=seed + 1, weights=TRICKLE_WEIGHTS
    ).generate_block(pairs * period)
    segments = []
    for pair in range(pairs):
        start = pair * period
        for block, low, high in (
            (storm, start, start + STORM_SECONDS),
            (trickle, start + STORM_SECONDS, start + period),
        ):
            first = bisect.bisect_left(block.times, low)
            last = bisect.bisect_left(block.times, high)
            if last > first:
                segments.append(block.slice(first, last))
    return segments


def shuffled_within_lateness(block, seed: int):
    """Arrival order of ``block`` with sort keys displaced by +-LATENESS/2."""
    rng = random.Random(seed)
    half = LATENESS / 2.0
    keys = [moment + rng.uniform(-half, half) for moment in block.times]
    return block.select(sorted(range(len(keys)), key=keys.__getitem__))


# ---------------------------------------------------------------------- #
# Workload specifications
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class Spec:
    name: str
    why: str
    #: Stream events of one pass (a run feeds the stream 3-17 times).
    events: int
    queries: Callable[[], Any]
    window: Window
    stream: Callable[[int, int], list]
    frame_rows: int
    #: One ``Event`` at a time through ``process()`` instead of one
    #: ``EventBlock`` per frame through ``process_block()``.
    scalar: bool = False
    #: Frames are held back until due on the ``PACED_RATE_EPS`` schedule.
    paced: bool = False
    shuffled: bool = False
    #: Keyword arguments of the executor (product defaults otherwise).
    options: dict = field(default_factory=dict)
    #: Worker processes; 0 = the single-process ``StreamingExecutor``.
    workers: int = 0
    #: GROUP BY values the reference may sample from.
    groups: tuple = tuple(range(DISTRICTS))
    reference_groups: int = 2
    #: Cap on the events fed to the (slow, per-instance) reference executor.
    reference_events: int = 12_000
    #: Runs the ingest queries over the ridesharing stream: results on the
    #: common stream prefix must agree across all such workloads.
    ingest_family: bool = False

    def events_at(self, scale: str) -> int:
        """``tiny`` is for the harness tests: the numbers mean nothing there."""
        return max(3_000, self.events // 50) if scale == "tiny" else self.events


SPECS: tuple[Spec, ...] = (
    Spec(
        name="ingest",
        why="cheap folds: decode, covering-range, dispatch and close/emit carry the wall; bypasses fold/optimizer work",
        events=250_000,
        queries=ingest_queries,
        window=INGEST_WINDOW,
        stream=ridesharing_stream,
        frame_rows=4096,
        ingest_family=True,
    ),
    Spec(
        name="fig9-50q",
        why="paper workload 1, 50 queries sharing Travel+: ~14x the kernel ops, fold and close_window carry the wall",
        events=150_000,
        queries=fig9_queries,
        window=INGEST_WINDOW,
        stream=ridesharing_stream,
        frame_rows=4096,
        reference_groups=1,
        reference_events=1_000,
    ),
    Spec(
        name="bursty-dynamic",
        why="Fig. 12/13 storm/trickle stream under optimizer=dynamic: per-burst decisions, split/merge, vector folds",
        events=38_400,
        queries=bursty_queries,
        window=BURSTY_WINDOW,
        stream=bursty_stream,
        frame_rows=512,
        options={"optimizer": "dynamic"},
        groups=tuple(float(district) for district in range(1, BURSTY_DISTRICTS + 1)),
        reference_groups=1,
        reference_events=2_500,
    ),
    Spec(
        name="ooo-paced",
        why="shuffled stream on a fixed open-loop schedule: emission latency a live-feed user feels, reorder on the blocking path",
        events=174_000,
        queries=ingest_queries,
        window=INGEST_WINDOW,
        stream=ridesharing_stream,
        frame_rows=1024,
        paced=True,
        shuffled=True,
        options={"allowed_lateness": LATENESS},
        ingest_family=True,
    ),
    Spec(
        name="ooo-scalar",
        why="same shuffled stream one Event at a time through process(): heap/tail reorder and per-event dispatch",
        events=200_000,
        queries=ingest_queries,
        window=INGEST_WINDOW,
        stream=ridesharing_stream,
        frame_rows=4096,
        scalar=True,
        shuffled=True,
        options={"allowed_lateness": LATENESS},
        ingest_family=True,
    ),
    Spec(
        name="sharded-full",
        why="2 workers + lateness + checkpoints: every layer on at once, codec and transport on the blocking path",
        events=200_000,
        queries=ingest_queries,
        window=INGEST_WINDOW,
        stream=ridesharing_stream,
        frame_rows=4096,
        shuffled=True,
        options={"allowed_lateness": LATENESS},
        workers=2,
        ingest_family=True,
    ),
)
SPEC_BY_NAME = {spec.name: spec for spec in SPECS}


def common_prefix_cut(scale: str) -> float:
    """Stream time before which every ingest-family workload has closed the
    same windows: the shortest family stream, less the shuffle horizon."""
    shortest = min(spec.events_at(scale) for spec in SPECS if spec.ingest_family)
    return shortest / EVENTS_PER_MINUTE * 60.0 - 2.0 * LATENESS


# ---------------------------------------------------------------------- #
# Result checking
# ---------------------------------------------------------------------- #
_PACKERS: dict[tuple, tuple] = {}


def pack_results(results) -> tuple[bytes, bytes]:
    """One window's results as ``(sorted query names, IEEE-754 value bits)``."""
    names = tuple(results)
    cached = _PACKERS.get(names)
    if cached is None:
        order = sorted(names)
        cached = _PACKERS[names] = (
            order,
            "\0".join(order).encode(),
            struct.Struct(f"<{len(order)}d").pack,
        )
    order, header, pack = cached
    return header, pack(*[results[name] for name in order])


#: Integers up to here are exact in IEEE-754 doubles whatever the order of
#: the additions that produced them.
EXACT_INTEGER_LIMIT = 2.0**53
#: Relative agreement required where float results depend on association
#: order (the repo's legacy checksum tolerance).
ASSOCIATION_TOLERANCE = 1e-9


def same_values(got: bytes, expected: Optional[bytes], quotient: Sequence[bool]) -> bool:
    """Whether two packed value vectors are the same result.

    ``quotient[i]`` says value ``i`` is an AVG.  COUNT and SUM are sums of
    integers here (every summed attribute of the streams is integer-valued),
    exact in doubles up to 2**53 whatever the order of the additions: there
    only bit-identical passes.  Kleene trend counts double per event and
    pass 2**53 inside one busy window, and AVG divides two such sums: there
    the shared-window engines and the per-instance reference associate
    differently and agree to ~1e-15, so 1e-9 relative is demanded.  (Paths
    that must associate identically are compared to the bit by digest.)
    """
    if got == expected:
        return True
    if expected is None or len(got) != len(expected):
        return False
    count = len(got) // 8
    ours = struct.unpack(f"<{count}d", got)
    theirs = struct.unpack(f"<{count}d", expected)
    for mine, reference, inexact in zip(ours, theirs, quotient):
        if mine == reference:
            continue
        if not inexact and min(abs(mine), abs(reference)) <= EXACT_INTEGER_LIMIT:
            return False
        if not math.isclose(mine, reference, rel_tol=ASSOCIATION_TOLERANCE, abs_tol=0.0):
            return False
    return True


class Checker:
    """Folds one pass's window results into counts, digests and failures.

    One *operation* is one window result the reference expects (a sampled
    group's window closing before the reference cut); it fails when it is
    missing, unexpected, duplicated or different (:func:`same_values`).
    Every result also enters an order-independent bit-exact digest, so whole
    passes compare exactly without the harness holding any result.
    """

    def __init__(self, inputs: "Inputs") -> None:
        self._expected = inputs.expected
        self._averages = inputs.averages
        self._quotients: dict[bytes, list] = {}
        self._sampled = inputs.sampled_groups
        self._reference_cut = inputs.reference_cut
        self._prefix_cut = inputs.prefix_cut
        self._seen: set = set()
        self.windows = 0
        self.digest = 0
        self.prefix_digest = 0
        self.attempted = 0
        self.failed = 0

    def add(self, group_key, window_index: int, window_end: float, results) -> None:
        names, values = pack_results(results)
        piece = int.from_bytes(
            hashlib.blake2b(
                repr((group_key, window_index)).encode() + names + values,
                digest_size=8,
            ).digest(),
            "little",
        )
        self.windows += 1
        self.digest = (self.digest + piece) % 2**64
        if window_end <= self._prefix_cut:
            self.prefix_digest = (self.prefix_digest + piece) % 2**64
        if group_key in self._sampled and window_end <= self._reference_cut:
            key = (group_key, window_index, names)
            quotient = self._quotients.get(names)
            if quotient is None:
                quotient = self._quotients[names] = [
                    name in self._averages for name in names.decode().split("\0")
                ]
            self.attempted += 1
            if key in self._seen or not same_values(values, self._expected.get(key), quotient):
                self.failed += 1
            self._seen.add(key)

    def close(self) -> "Checker":
        """Count the expected results that never arrived."""
        missing = len(self._expected.keys() - self._seen)
        self.attempted += missing
        self.failed += missing
        return self


# ---------------------------------------------------------------------- #
# Set-up: seed -> frames + reference
# ---------------------------------------------------------------------- #
@dataclass
class Inputs:
    spec: Spec
    seed: int
    #: Stream events (rows over all frames).
    events: int
    #: Framed ``RPEB`` wire bytes, in arrival order, and their row counts.
    frames: list
    frame_rows: list
    #: After frame ``i`` is fed every window ending at or before
    #: ``frame_watermark[i]`` can have closed (running max time - lateness).
    frame_watermark: list
    #: ``(group key, window index, names) -> value bits`` of the reference.
    expected: dict
    #: Names of the AVG queries (see :func:`same_values`).
    averages: frozenset
    sampled_groups: frozenset
    #: Reference covers sampled-group windows ending at or before this time.
    reference_cut: float
    prefix_cut: float
    #: Share of rows arriving behind an earlier row's timestamp.
    out_of_order_share: float

    @property
    def wire_bytes(self) -> int:
        return sum(len(frame) for frame in self.frames)


def _times(block) -> list:
    return block.times[block.start : block.stop]


def build_inputs(spec: Spec, seed: int, scale: str = "bench") -> Inputs:
    """Generate, order, frame and encode the stream; compute the reference."""
    segments = spec.stream(spec.events_at(scale), seed)
    expected, sampled, reference_cut = _reference(spec, segments, seed)
    if spec.shuffled:
        segments = [shuffled_within_lateness(block, seed + 1) for block in segments]
    lateness = spec.options.get("allowed_lateness") or 0.0
    frames, frame_rows, frame_watermark = [], [], []
    newest = float("-inf")
    regressions = 0
    for segment in segments:
        times = _times(segment)
        for first in range(0, len(times), spec.frame_rows):
            chunk = times[first : first + spec.frame_rows]
            for moment in chunk:
                if moment < newest:
                    regressions += 1
                else:
                    newest = moment
            frames.append(segment.slice(first, first + len(chunk)).to_bytes())
            frame_rows.append(len(chunk))
            frame_watermark.append(newest - lateness)
    events = sum(frame_rows)
    inputs = Inputs(
        spec=spec,
        seed=seed,
        events=events,
        frames=frames,
        frame_rows=frame_rows,
        frame_watermark=frame_watermark,
        expected=expected,
        averages=frozenset(
            query.name for query in spec.queries() if query.aggregate.kind.name == "AVG"
        ),
        sampled_groups=sampled,
        reference_cut=reference_cut,
        prefix_cut=common_prefix_cut(scale) if spec.ingest_family else float("-inf"),
        out_of_order_share=regressions / events,
    )
    # Plan compilation belongs to set-up: work a later PR moves from the
    # timed pass into the constructor must show up in ``setup_s``.
    make_executor(inputs, None, None)
    return inputs


def _reference(spec: Spec, segments: list, seed: int):
    """Expected results of a few sampled groups, from an independent path.

    GROUP BY makes groups independent, so the ordered events of the sampled
    groups alone — fed one ``Event`` at a time — must reproduce those
    groups' windows (see :func:`same_values` for "reproduce").  The reference
    runs one engine per window instance (``shared_windows=False``), the
    product's own semantics reference and the path furthest from the
    shared-window engines every workload measures.
    """
    rng = random.Random(seed)
    sampled = frozenset(
        (group,) for group in rng.sample(spec.groups, spec.reference_groups)
    )
    budget = spec.reference_events
    cut = float("inf")
    events: list = []
    for segment in segments:
        rows = [
            row
            for row, group in enumerate(segment.payload_column(GROUP_BY))
            if (group,) in sampled
        ]
        if len(rows) > budget:
            cut = _times(segment)[rows[budget]]
            rows = rows[:budget]
        if rows:
            events.extend(decode_events(segment.select(rows).to_bytes()))
        budget -= len(rows)
        if cut != float("inf"):
            break
    results: list = []
    executor = StreamingExecutor(
        spec.queries(), on_window=results.append, shared_windows=False
    )
    for event in events:
        executor.process(event)
    executor.finish()
    expected = {}
    for result in results:
        if result.window_end <= cut:
            names, values = pack_results(result.results)
            expected[(result.group_key, result.window_index, names)] = values
    return expected, sampled, cut


def make_executor(inputs: Inputs, on_window, checkpoint_dir: Optional[str]):
    """The executor a pass drives, on product defaults plus ``spec.options``."""
    spec = inputs.spec
    if spec.workers:
        return ShardedStreamingExecutor(
            spec.queries(), workers=spec.workers, checkpoint_dir=checkpoint_dir, **spec.options
        )
    return StreamingExecutor(spec.queries(), on_window=on_window, **spec.options)


# ---------------------------------------------------------------------- #
# One pass: frames -> executor -> finish()
# ---------------------------------------------------------------------- #
class Sink:
    """The ``on_window`` consumer of one pass.

    On a timed pass it only stamps and keeps each result (``hold=True``);
    checking happens in :meth:`settle`, after the clock stops.  On the
    memory pass it folds each result into the checker at once and keeps
    nothing.  ``due`` is when the frame now being fed was due (paced) or
    handed over (max speed): a result's latency is counted from there, so a
    stall bills every frame that had to wait behind it.
    """

    def __init__(self, checker: Checker, *, hold: bool = True) -> None:
        self.checker = checker
        self.hold = hold
        self.due = 0.0
        self.latencies: list = []
        self._held: list = []

    def on_window(self, result) -> None:
        latency = perf_counter() - self.due
        if self.hold:
            self._held.append((latency, result))
        else:
            self.fold(latency, result.group_key, result.window_index,
                      result.window_end, result.results)

    def fold(self, latency, group_key, window_index, window_end, results) -> None:
        self.latencies.append(latency)
        self.checker.add(group_key, window_index, window_end, results)

    def settle(self) -> None:
        for latency, result in self._held:
            self.fold(latency, result.group_key, result.window_index,
                      result.window_end, result.results)
        self._held.clear()


@dataclass
class Pass:
    """What one pass measured."""

    events: int
    #: First frame byte handed to the decoder -> ``finish()`` returned.
    wall: float
    #: ``wall`` minus the time the paced generator spent waiting for a due
    #: time (equal to ``wall`` on the max-speed workloads).
    busy: float
    report: Any
    sink: Sink
    #: Paced passes: per frame, seconds the send ran behind its due time.
    lags: list = field(default_factory=list)
    #: Paced passes: completion of the last frame minus its due time.
    backlog_end: float = 0.0
    scheduled: float = 0.0
    #: ``shard_event_counts`` read before ``finish()`` (sharded passes).
    shard_events: tuple = ()


def run_pass(
    inputs: Inputs,
    sink: Sink,
    *,
    frames: Optional[int] = None,
    paced: bool = False,
    other_path: bool = False,
    checkpoint_dir: Optional[str] = None,
    executor=None,
) -> Pass:
    """Feed ``frames`` (default: all) the way the spec says, then finish.

    ``paced`` holds each frame back until it is due on the fixed
    ``PACED_RATE_EPS`` schedule (open loop: the schedule never slows when
    the system does; a frame is due when its last event has been created).
    ``other_path`` feeds the same frames through the ingest path the
    workload does *not* measure (scalar <-> block) in a single process: the
    product promises bit-identical results, which the cross-path check holds
    it to.
    """
    spec = inputs.spec
    scalar, sharded = spec.scalar, bool(spec.workers)
    count = len(inputs.frames) if frames is None else frames
    payloads = inputs.frames[:count]
    rows = inputs.frame_rows[:count]
    if other_path:
        scalar, sharded = not scalar, False
        executor = StreamingExecutor(spec.queries(), on_window=sink.on_window, **spec.options)
    elif executor is None:
        executor = make_executor(inputs, sink.on_window, checkpoint_dir)
    # Looked up per pass (through the class, through this module's globals):
    # the traced pass swaps these for recording wrappers.
    from_bytes = EventBlock.from_bytes
    if scalar:
        decode, process = decode_events, executor.process
    else:
        process_block = executor.process_block
    handed = []
    lags = []
    idle = 0.0
    due_offset = 0.0
    start = perf_counter()
    for payload, row_count in zip(payloads, rows):
        now = perf_counter()
        if paced:
            due_offset += row_count / PACED_RATE_EPS
            due = start + due_offset
            if now < due:
                wait_until(due)
                idle += perf_counter() - now
                now = perf_counter()
            lags.append(now - due)
            sink.due = due
        else:
            sink.due = now
        handed.append(now)
        if scalar:
            for event in decode(payload):
                process(event)
        else:
            process_block(from_bytes(payload))
    fed = perf_counter()
    shard_events = tuple(getattr(executor, "shard_event_counts", ()))
    report = executor.finish()
    end = perf_counter()
    if sharded:
        _emit_at_finish(inputs, sink, report, handed, end)
    return Pass(
        events=sum(rows),
        wall=end - start,
        busy=end - start - idle,
        report=report,
        sink=sink,
        lags=lags,
        backlog_end=fed - (start + due_offset) if paced else 0.0,
        scheduled=due_offset,
        shard_events=shard_events,
    )


def wait_until(due: float) -> None:
    """Sleep to just before ``due``, then spin: sleep alone overshoots by
    ~0.1 ms, which would be billed to the system as generator lag."""
    remaining = due - perf_counter()
    if remaining > 0.001:
        time.sleep(remaining - 0.0005)
    while perf_counter() < due:
        pass


def _emit_at_finish(inputs: Inputs, sink: Sink, report, handed: list, end: float) -> None:
    """Worker processes hand results over only at ``finish()``.

    Each window is billed from the hand-over of the frame that completed it
    (the first frame whose watermark passed the window end) to the moment
    ``finish()`` returned — what a caller of the sharded executor waits.
    """
    size = inputs.spec.window.size
    watermark = inputs.frame_watermark[: len(handed)]
    last = len(handed) - 1
    for partition in report.partition_results:
        window_end = partition.window_start + size
        trigger = min(bisect.bisect_left(watermark, window_end), last)
        sink.fold(
            end - handed[trigger],
            partition.group_key,
            partition.window_index,
            window_end,
            partition.results,
        )
