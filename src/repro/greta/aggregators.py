"""Online trend-aggregate propagation.

The intermediate aggregate of an event ``e`` summarizes *all trends ending at
``e``* (Equations 1–3 of the paper, generalized beyond COUNT(*)):

* ``count(e)  = start(e) + Σ count(e')``
* ``m_i(e)    = contrib_i(e) * count(e) + Σ m_i(e')``

where the sums range over predecessor events ``e'`` and ``m_i`` is one
*measure*: the running SUM of some attribute or the running COUNT of events
of some type over all trends ending at ``e``.  COUNT(*), COUNT(E), SUM and
AVG are all derived from ``(count, measures)`` — the :class:`AggregateVector`.
This linearity is exactly what lets HAMLET propagate the same vectors as
symbolic snapshot expressions in shared graphlets.

MIN/MAX are not linear; :class:`ExtremumTrendAggregator` propagates them
per query in the non-shared path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from repro.errors import SharingError
from repro.events.event import Event, EventType
from repro.query.aggregates import AggregateFunction, AggregateKind
from repro.query.query import Query


# ---------------------------------------------------------------------- #
# Measures
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class Measure:
    """One per-trend measure tracked alongside the trend count.

    ``attribute is None`` means "number of events of ``event_type``";
    otherwise the measure is the sum of ``event_type.attribute`` over all
    events in all trends.
    """

    event_type: EventType
    attribute: Optional[str] = None

    def contribution(self, event: Event) -> float:
        """Value contributed by ``event`` to this measure (0 if not applicable)."""
        if event.event_type != self.event_type:
            return 0.0
        if self.attribute is None:
            return 1.0
        return float(event[self.attribute])

    def __repr__(self) -> str:
        if self.attribute is None:
            return f"count({self.event_type})"
        return f"sum({self.event_type}.{self.attribute})"


def measures_for_aggregate(aggregate: AggregateFunction) -> tuple[Measure, ...]:
    """Measures needed to answer one aggregate function."""
    kind = aggregate.kind
    if kind is AggregateKind.COUNT_TRENDS:
        return ()
    if kind is AggregateKind.COUNT_EVENTS:
        return (Measure(aggregate.event_type, None),)
    if kind is AggregateKind.SUM:
        return (Measure(aggregate.event_type, aggregate.attribute),)
    if kind is AggregateKind.AVG:
        return (
            Measure(aggregate.event_type, aggregate.attribute),
            Measure(aggregate.event_type, None),
        )
    raise SharingError(f"{aggregate.describe()} has no linear measure decomposition")


def measures_for_queries(queries: Iterable[Query]) -> tuple[Measure, ...]:
    """Deduplicated measures needed by all linear aggregates of ``queries``."""
    measures: list[Measure] = []
    for query in queries:
        if not query.aggregate.kind.is_linear:
            continue
        for measure in measures_for_aggregate(query.aggregate):
            if measure not in measures:
                measures.append(measure)
    return tuple(measures)


# ---------------------------------------------------------------------- #
# Aggregate vectors
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class AggregateVector:
    """``(trend count, measure values...)`` for a set of trends."""

    count: float
    measures: tuple[float, ...] = ()

    @classmethod
    def zero(cls, dimension: int) -> "AggregateVector":
        """The zero vector with ``dimension`` measures."""
        return cls(0.0, (0.0,) * dimension)

    def add(self, other: "AggregateVector") -> "AggregateVector":
        """Component-wise sum."""
        return AggregateVector(
            self.count + other.count,
            tuple(a + b for a, b in zip(self.measures, other.measures)),
        )

    def scale(self, factor: float) -> "AggregateVector":
        """Component-wise multiplication by a scalar."""
        return AggregateVector(
            self.count * factor, tuple(value * factor for value in self.measures)
        )

    def is_zero(self) -> bool:
        """True if every component is exactly zero."""
        return self.count == 0.0 and all(value == 0.0 for value in self.measures)

    @property
    def dimension(self) -> int:
        """Number of measure components."""
        return len(self.measures)


#: Where a linear aggregate reads a total vector laid out as ``(count,
#: *measures)``: ``(value position, divisor position)``, the divisor only
#: for AVG (``None`` otherwise).
Projection = tuple[int, Optional[int]]


def projection_of(aggregate: AggregateFunction, measures: Sequence[Measure]) -> Projection:
    """Compile the extraction of ``aggregate`` from vectors over ``measures``."""
    kind = aggregate.kind
    if kind is AggregateKind.COUNT_TRENDS:
        return (0, None)

    def position(attribute: Optional[str]) -> int:
        target = Measure(aggregate.event_type, attribute)  # type: ignore[arg-type]
        for index, measure in enumerate(measures):
            if measure == target:
                return index + 1
        raise SharingError(f"measure {target!r} missing from vector (have {list(measures)})")

    if kind is AggregateKind.COUNT_EVENTS:
        return (position(None), None)
    if kind is AggregateKind.SUM:
        return (position(aggregate.attribute), None)
    if kind is AggregateKind.AVG:
        return (position(aggregate.attribute), position(None))
    raise SharingError(f"{aggregate.describe()} cannot be extracted from a linear vector")


def project(projection: Projection, values: Sequence[float]) -> float:
    """Read one compiled projection out of ``(count, *measures)``."""
    position, divisor = projection
    if divisor is None:
        return values[position]
    count = values[divisor]
    return values[position] / count if count else 0.0


def result_from_vector(
    query: Query, vector: AggregateVector, measures: Sequence[Measure]
) -> float:
    """Extract the final aggregate of ``query`` from a total vector.

    ``measures`` must be the measure list the vector was built with.
    """
    projection = projection_of(query.aggregate, measures)
    return project(projection, (vector.count, *vector.measures))


# ---------------------------------------------------------------------- #
# Per-query aggregators (non-shared propagation)
# ---------------------------------------------------------------------- #
class LinearTrendAggregator:
    """Non-shared propagation of an :class:`AggregateVector` for one query."""

    def __init__(self, query: Query, measures: Optional[Sequence[Measure]] = None) -> None:
        if not query.aggregate.kind.is_linear:
            raise SharingError(
                f"query {query.name} has non-linear aggregate {query.aggregate.describe()}"
            )
        self.query = query
        self.measures: tuple[Measure, ...] = (
            tuple(measures) if measures is not None else measures_for_aggregate(query.aggregate)
        )

    @property
    def dimension(self) -> int:
        """Number of measures tracked."""
        return len(self.measures)

    def new_state(
        self,
        event: Event,
        starts_trend: bool,
        predecessor_states: Iterable[AggregateVector],
    ) -> AggregateVector:
        """Intermediate vector of ``event`` given its predecessors' vectors.

        ``predecessor_states`` may be a lazy iterable; it is consumed once.
        The accumulation is kept allocation-free per predecessor (the hot
        loop of non-shared propagation).
        """
        count = 1.0 if starts_trend else 0.0
        if not self.measures:
            for state in predecessor_states:
                count += state.count
            return AggregateVector(count, ())
        measure_totals = [0.0] * len(self.measures)
        for state in predecessor_states:
            count += state.count
            for index, value in enumerate(state.measures):
                measure_totals[index] += value
        for index, measure in enumerate(self.measures):
            contribution = measure.contribution(event)
            if contribution:
                measure_totals[index] += contribution * count
        return AggregateVector(count, tuple(measure_totals))

    def finalize(self, end_states: Iterable[AggregateVector]) -> float:
        """Final aggregate from the vectors of all end-type events."""
        total = AggregateVector.zero(len(self.measures))
        for state in end_states:
            total = total.add(state)
        return result_from_vector(self.query, total, self.measures)


class ExtremumTrendAggregator:
    """Non-shared propagation of MIN/MAX for one query.

    The per-event state is the best (smallest or largest) value of the
    aggregated attribute over all trends ending at the event, or ``None`` if
    no trend ending at the event contains an event of the aggregated type.
    """

    def __init__(self, query: Query) -> None:
        kind = query.aggregate.kind
        if kind not in (AggregateKind.MIN, AggregateKind.MAX):
            raise SharingError(f"{query.aggregate.describe()} is not an extremum aggregate")
        self.query = query
        self._pick = min if kind is AggregateKind.MIN else max

    def new_state(
        self,
        event: Event,
        starts_trend: bool,
        predecessor_states: Iterable[Optional[float]],
    ) -> Optional[float]:
        """Best value over all trends ending at ``event``."""
        own = self.query.aggregate.candidate_value(event)
        candidates: list[float] = []
        if starts_trend and own is not None:
            candidates.append(own)
        for state in predecessor_states:
            if state is not None and own is not None:
                candidates.append(self._pick(state, own))
            elif state is not None:
                candidates.append(state)
            elif own is not None:
                candidates.append(own)
        if not candidates:
            return None
        return self._pick(candidates)

    def finalize(self, end_states: Iterable[Optional[float]]) -> float:
        """Final MIN/MAX over the states of all end-type events (0.0 if none)."""
        values = [state for state in end_states if state is not None]
        if not values:
            return 0.0
        return float(self._pick(values))
