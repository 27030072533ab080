"""Common machinery for the dataset simulators.

All generators share the same structure: a target arrival rate (events per
minute), a *burst model* controlling how strongly arrivals cluster into
bursts of same-type events (the stream property HAMLET's dynamic optimizer
reacts to), and a deterministic pseudo-random source.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.errors import DatasetError
from repro.events.block import EventBlock, EventBlockBuilder
from repro.events.event import Event, EventType
from repro.events.stream import EventStream
from repro.query.windows import _finite


@dataclass(frozen=True)
class BurstModel:
    """Controls how events cluster into bursts of the same type.

    Attributes:
        mean_burst_length: Average number of consecutive events of the same
            type.  A value of 1 produces an i.i.d. type sequence; larger
            values produce the bursty streams of the paper's motivation.
        burstiness: Probability in ``[0, 1]`` of continuing the current burst
            beyond the geometric draw — a convenience knob used by benchmarks
            to sweep from smooth to very bursty streams.
    """

    mean_burst_length: float = 8.0
    burstiness: float = 0.0

    def __post_init__(self) -> None:
        if not _finite(self.mean_burst_length) or self.mean_burst_length < 1:
            raise DatasetError(
                f"mean_burst_length must be finite and at least 1, got {self.mean_burst_length!r}"
            )
        if not 0.0 <= self.burstiness <= 1.0:
            raise DatasetError("burstiness must be within [0, 1]")

    def draw_burst_length(self, rng: random.Random) -> int:
        """Draw the length of the next burst."""
        length = 1 + int(rng.expovariate(1.0 / max(self.mean_burst_length - 1, 1e-9)))
        while rng.random() < self.burstiness:
            length += 1
        return max(1, length)


class StreamGenerator:
    """Base class of all simulators."""

    #: Name used in benchmark reports.
    name: str = "stream"

    def __init__(
        self,
        *,
        events_per_minute: float,
        seed: int = 7,
        burst_model: BurstModel | None = None,
    ) -> None:
        if not _finite(events_per_minute) or events_per_minute <= 0:
            raise DatasetError(
                f"events_per_minute must be positive and finite, got {events_per_minute!r}"
            )
        self.events_per_minute = events_per_minute
        self.seed = seed
        self.burst_model = burst_model or BurstModel()

    # ------------------------------------------------------------------ #
    # Hooks implemented by concrete simulators
    # ------------------------------------------------------------------ #
    def event_types(self) -> Sequence[EventType]:
        """Event types produced by the simulator (weights via :meth:`type_weight`)."""
        raise NotImplementedError

    def type_weight(self, event_type: EventType) -> float:
        """Relative frequency of ``event_type`` (default: uniform)."""
        return 1.0

    def build_payload(self, event_type: EventType, time: float, rng: random.Random) -> dict:
        """Payload for one event of ``event_type`` at ``time``."""
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    # Generation
    # ------------------------------------------------------------------ #
    def _generate_rows(
        self,
        duration_seconds: float,
        emit: Callable[[EventType, float, dict], None],
    ) -> None:
        """Drive one simulation, handing each raw row to ``emit``.

        Both output formats (:meth:`generate`, :meth:`generate_block`) share
        this loop, so they consume the pseudo-random source identically and
        describe the same stream.
        """
        if not _finite(duration_seconds) or duration_seconds <= 0:
            raise DatasetError(
                f"duration_seconds must be positive and finite, got {duration_seconds!r}"
            )
        rng = random.Random(self.seed)
        total_events = max(1, int(self.events_per_minute * duration_seconds / 60.0))
        spacing = duration_seconds / total_events
        types = list(self.event_types())
        weights = [self.type_weight(event_type) for event_type in types]
        produced = 0
        time = 0.0
        while produced < total_events:
            event_type = rng.choices(types, weights=weights, k=1)[0]
            burst_length = min(
                self.burst_model.draw_burst_length(rng), total_events - produced
            )
            for _ in range(burst_length):
                payload = self.build_payload(event_type, time, rng)
                emit(event_type, time, payload)
                produced += 1
                time += spacing * rng.uniform(0.5, 1.5)

    def generate(self, duration_seconds: float) -> EventStream:
        """Generate a stream spanning ``duration_seconds`` of simulated time."""
        stream = EventStream(name=self.name)

        def emit(event_type: EventType, time: float, payload: dict) -> None:
            stream.append(Event(event_type=event_type, time=time, payload=payload))

        self._generate_rows(duration_seconds, emit)
        return stream

    def generate_block(self, duration_seconds: float) -> EventBlock:
        """Generate the same stream as :meth:`generate`, as a columnar block.

        No per-event objects are materialized: rows go straight into an
        :class:`~repro.events.block.EventBlockBuilder`, which is what the
        block-ingest executors consume natively.
        """
        builder = EventBlockBuilder()
        self._generate_rows(duration_seconds, builder.append_row)
        return builder.finish()

    def generate_events(self, count: int) -> EventStream:
        """Generate a stream containing approximately ``count`` events."""
        if count <= 0:
            raise DatasetError("count must be positive")
        duration = count / self.events_per_minute * 60.0
        return self.generate(duration)
