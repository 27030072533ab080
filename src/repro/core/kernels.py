"""Mutable hot-path kernels for trend aggregation.

The immutable value types (:class:`~repro.greta.aggregators.AggregateVector`,
:class:`~repro.core.expression.SnapshotExpression`) give the library clean
algebraic semantics, but allocating a fresh tuple or dict per event is what
dominated the Python-level cost of the engines.  This module provides the
mutable accumulators the engines use *inside* a hot loop:

* :class:`MutableAggregate` — an in-place ``(count, measures)`` accumulator.
  All per-event folding (Equation 1/2 sums, expression evaluation, end-type
  totals) happens here without intermediate allocations; callers
  :meth:`~MutableAggregate.freeze` the accumulator into an
  :class:`~repro.greta.aggregators.AggregateVector` only when the value
  crosses an API boundary.
* :class:`MutableExpressionBuilder` — a dict-of-lists coefficient store for
  symbolic snapshot expressions.  Shared graphlets keep their running sum in
  a builder and update it in place per event; the builder is frozen into an
  immutable :class:`~repro.core.expression.SnapshotExpression` only at
  node-registration boundaries (see docs/DESIGN.md).

Both kernels preserve the summation *order* of the immutable code paths they
replace, so integer-valued workloads produce bit-identical aggregates on the
fast and slow paths (the property the cross-engine equivalence suite checks).

The module also defines the :class:`KernelBackend` interface of the
multi-window engine's run folds and :class:`PythonKernelBackend`, the one
fold the executors run (the exact per-event fold above, with the
per-(class, type) plan resolution hoisted to run start).
:mod:`repro.core.kernels_numpy` holds a closed-form NumPy fold that no
executor reaches; only the fold-level benchmarks and tests use it.

:func:`settle_kleene` is the one closed form on the reference path: a run
of scalar Kleene rows applied to a cell at once, taken only where it is the
iterated fold bit for bit (the multi-window engine's deferred segment fold).
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional, Sequence

from repro.core.expression import SnapshotCoefficient, SnapshotExpression
from repro.greta.aggregators import AggregateVector

#: A per-query snapshot value lookup: ``snapshot_id -> AggregateVector | None``
#: (``None`` means the query has no entry, i.e. the value is zero).
RawLookup = Callable[[str], Optional[AggregateVector]]


class MutableAggregate:
    """In-place ``(trend count, measure values...)`` accumulator.

    The mutable twin of :class:`~repro.greta.aggregators.AggregateVector`:
    the count is a plain float attribute and the measures live in a list that
    is mutated in place.
    """

    __slots__ = ("count", "measures")

    def __init__(self, dimension: int) -> None:
        self.count = 0.0
        self.measures = [0.0] * dimension

    @property
    def dimension(self) -> int:
        """Number of measure components."""
        return len(self.measures)

    # ------------------------------------------------------------------ #
    # In-place folding
    # ------------------------------------------------------------------ #
    def add_vector(self, vector: AggregateVector) -> None:
        """Fold an immutable vector into this accumulator."""
        self.count += vector.count
        measures = self.measures
        for index, value in enumerate(vector.measures):
            measures[index] += value

    def add(self, other: "MutableAggregate") -> None:
        """Fold another mutable accumulator into this one."""
        self.count += other.count
        measures = self.measures
        for index, value in enumerate(other.measures):
            measures[index] += value

    def add_weighted(
        self, weight: float, cross: tuple[float, ...], value: AggregateVector
    ) -> None:
        """Fold one snapshot coefficient applied to a snapshot value.

        Implements :meth:`SnapshotCoefficient.apply` without allocating:
        ``count += w * v.count`` and ``m_i += w * v.m_i + cross_i * v.count``.
        """
        value_count = value.count
        self.count += weight * value_count
        measures = self.measures
        value_measures = value.measures
        for index in range(len(measures)):
            measures[index] += weight * value_measures[index] + cross[index] * value_count

    def apply_contributions(self, contributions: Iterable[float]) -> None:
        """Fold an event's measure contributions: ``m_i += c_i * count``.

        Must be called after all predecessor counts have been summed
        (Equation 1 ordering).
        """
        count = self.count
        measures = self.measures
        for index, contribution in enumerate(contributions):
            if contribution:
                measures[index] += contribution * count

    def copy(self) -> "MutableAggregate":
        """An independent accumulator holding the same value.

        Used by the multi-window engine's split transition: per-query
        coefficient columns start as copies of the shared column and are
        folded independently from there.
        """
        duplicate = MutableAggregate.__new__(MutableAggregate)
        duplicate.count = self.count
        duplicate.measures = list(self.measures)
        return duplicate

    # ------------------------------------------------------------------ #
    # Boundary conversions
    # ------------------------------------------------------------------ #
    def freeze(self) -> AggregateVector:
        """Immutable snapshot of the current value."""
        return AggregateVector(self.count, tuple(self.measures))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MutableAggregate(count={self.count:g}, measures={self.measures})"


class MutableExpressionBuilder:
    """Dict-of-lists coefficient store for symbolic snapshot expressions.

    Each coefficient row is the list ``[weight, cross_0, ..., cross_d-1]``
    (one row per snapshot), mutated in place.  The builder supports the three
    operations of the shared hot loop — add another expression/builder, fold
    an event contribution, evaluate per query — plus :meth:`freeze`, the only
    place immutable coefficient objects are created.
    """

    __slots__ = ("dimension", "_coefficients")

    def __init__(self, dimension: int) -> None:
        self.dimension = dimension
        self._coefficients: dict[str, list[float]] = {}

    # ------------------------------------------------------------------ #
    # Construction / mutation
    # ------------------------------------------------------------------ #
    def copy(self) -> "MutableExpressionBuilder":
        """An independent copy (rows are duplicated)."""
        clone = MutableExpressionBuilder.__new__(MutableExpressionBuilder)
        clone.dimension = self.dimension
        clone._coefficients = {
            snapshot_id: row.copy() for snapshot_id, row in self._coefficients.items()
        }
        return clone

    def _row(self, snapshot_id: str) -> list[float]:
        row = self._coefficients.get(snapshot_id)
        if row is None:
            row = [0.0] * (1 + self.dimension)
            self._coefficients[snapshot_id] = row
        return row

    def add_identity(self, snapshot_id: str) -> None:
        """Add ``1 * snapshot`` (weight one, no cross terms)."""
        self._row(snapshot_id)[0] += 1.0

    def add_expression(self, expression: SnapshotExpression) -> None:
        """Fold an immutable expression into the builder."""
        for snapshot_id, coefficient in expression.items():
            row = self._row(snapshot_id)
            row[0] += coefficient.weight
            for index, value in enumerate(coefficient.cross):
                row[1 + index] += value

    def add_builder(self, other: "MutableExpressionBuilder") -> None:
        """Fold another builder into this one."""
        for snapshot_id, other_row in other._coefficients.items():
            row = self._coefficients.get(snapshot_id)
            if row is None:
                self._coefficients[snapshot_id] = other_row.copy()
            else:
                for index, value in enumerate(other_row):
                    row[index] += value

    def fold_contribution(self, contributions: tuple[float, ...]) -> None:
        """Fold an event's measure contributions into every coefficient.

        ``cross_i += c_i * weight`` — the builder twin of
        :meth:`SnapshotExpression.with_event_contribution`.
        """
        if not any(contributions):
            return
        for row in self._coefficients.values():
            weight = row[0]
            if weight:
                for index, contribution in enumerate(contributions):
                    row[1 + index] += contribution * weight

    # ------------------------------------------------------------------ #
    # Evaluation
    # ------------------------------------------------------------------ #
    def evaluate_into(self, accumulator: MutableAggregate, lookup: RawLookup) -> int:
        """Evaluate for one query, folding into ``accumulator``.

        Returns the number of coefficients visited (work units).
        """
        count = 0
        # Accumulator state is hoisted out of the loop (the count folds into
        # a local, written back once): the loop runs per (coefficient, query)
        # on the fast path — during a burst, per buffered event — and must
        # not allocate or repeat attribute traffic.
        total_count = accumulator.count
        measures = accumulator.measures
        dimension = len(measures)
        for snapshot_id, row in self._coefficients.items():
            value = lookup(snapshot_id)
            count += 1
            if value is None:
                continue
            # Inlined add_weighted over the raw row.
            weight = row[0]
            value_count = value.count
            total_count += weight * value_count
            value_measures = value.measures
            for index in range(dimension):
                measures[index] += (
                    weight * value_measures[index] + row[1 + index] * value_count
                )
        accumulator.count = total_count
        return count

    # ------------------------------------------------------------------ #
    # Introspection / freezing
    # ------------------------------------------------------------------ #
    def size(self) -> int:
        """Number of snapshots referenced."""
        return len(self._coefficients)

    def snapshot_ids(self) -> frozenset[str]:
        """Identifiers of the snapshots referenced."""
        return frozenset(self._coefficients)

    def freeze(self) -> SnapshotExpression:
        """Immutable expression with the builder's current coefficients.

        This is the node-registration boundary: the frozen expression is safe
        to store on a :class:`~repro.core.graphlet.HamletNode` while the
        builder keeps mutating.
        """
        coefficients = {
            snapshot_id: SnapshotCoefficient(row[0], tuple(row[1:]))
            for snapshot_id, row in self._coefficients.items()
        }
        return SnapshotExpression.from_frozen(self.dimension, coefficients)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = [f"{row[0]:g}*{sid}" for sid, row in sorted(self._coefficients.items())]
        return "Builder(" + (" + ".join(parts) if parts else "0") + ")"


# ---------------------------------------------------------------------- #
# Kernel backends: the numeric core of the run fold
# ---------------------------------------------------------------------- #
class KernelBackend:
    """Numeric core for the multi-window engine's same-type run folds.

    A backend folds one *run* — ``count`` consecutive accepted events of one
    type — into one sharing column of one ``(query class, event type)``
    plan.  The engine has already resolved everything positional (the armed
    window indices, the fold's source maps with the Kleene self-loop
    substituted, the per-event measure contributions); the backend only does
    arithmetic.  Fold semantics are those of the reference per-event loop:
    per event and window, ``value = base + sum(sources[window])`` folds into
    ``total_map[window]`` (the vector form additionally applies the event's
    measure contributions — Equation 1/2 of the paper).
    """

    def fold_scalar_run(
        self,
        total_map: dict,
        indices: Sequence[int],
        sources: Sequence[dict],
        base: float,
        count: int,
    ) -> int:
        """Fold a run into a scalar (COUNT-only) column.

        ``sources`` may contain ``total_map`` itself (a Kleene self-loop).
        Returns the number of window entries newly created in ``total_map``.
        """
        raise NotImplementedError

    def fold_vector_run(
        self,
        total_map: dict,
        indices: Sequence[int],
        sources: Sequence[dict],
        base: float,
        contribution_rows: Sequence[tuple[float, ...]],
        dimension: int,
    ) -> int:
        """Fold a run into a vector column of :class:`MutableAggregate`.

        ``contribution_rows[i]`` is the i-th event's per-measure
        contribution vector.  Returns the number of entries newly created.
        """
        raise NotImplementedError


class PythonKernelBackend(KernelBackend):
    """The reference backend: the exact per-event fold, hoisted per run.

    Arithmetic, iteration order and entry creation match the engine's
    per-event fast path exactly (bit-identical totals); the run-level entry
    point only hoists the per-(class, type) plan resolution — map lookups,
    source tuples, bound methods — out of the per-event loop.
    """

    def fold_scalar_run(self, total_map, indices, sources, base, count):
        created = 0
        gets = [window_map.get for window_map in sources]
        total_get = total_map.get
        for _ in range(count):
            for index in indices:
                value = base
                for get in gets:
                    previous = get(index)
                    if previous is not None:
                        value += previous
                current = total_get(index)
                if current is None:
                    total_map[index] = value
                    created += 1
                else:
                    total_map[index] = current + value
        return created

    def fold_vector_run(
        self, total_map, indices, sources, base, contribution_rows, dimension
    ):
        # Windows are independent and a run writes only ``total_map``, so
        # the fold goes window by window: each window's entry objects are
        # resolved once, and every row then costs float adds only — no
        # accumulator object, no method call.  Per window and row the adds
        # happen in the per-event order (count: base, then the sources in
        # order; each measure: 0.0, the sources in order, the contribution,
        # then into the total), so totals are bit-identical to it.
        created = 0
        if not contribution_rows:
            return created
        measure_positions = range(dimension)
        for index in indices:
            total = total_map.get(index)
            if total is None:
                # A zero entry stands in for "absent": x + 0.0 == x for every
                # value a fold can produce (none is -0.0), including through
                # a Kleene self-loop source.
                total = total_map[index] = MutableAggregate(dimension)
                created += 1
            found = [
                previous
                for window_map in sources
                if (previous := window_map.get(index)) is not None
            ]
            source_measures = [previous.measures for previous in found]
            total_measures = total.measures
            for contributions in contribution_rows:
                count = base
                for previous in found:
                    count += previous.count
                for position in measure_positions:
                    value = 0.0
                    for measures in source_measures:
                        value += measures[position]
                    contribution = contributions[position]
                    if contribution:
                        value += contribution * count
                    total_measures[position] += value
                total.count += count
        return created


#: Below 2**53 every integer is a double: a Kleene count that stays under it
#: was computed without a single rounding, in whatever association.
_EXACT_LIMIT = 2.0**53
_POWERS = tuple(2.0**steps for steps in range(54))


def settle_kleene(prefix: float, total: float, steps: int) -> float:
    """``total`` after ``steps`` Kleene rows, each ``total += prefix + total``.

    The closed form is taken only when it lands below 2**53: the iterated
    fold only grows, so its intermediates are then exact integers too and
    both are the same double.  (Testing the *computed* value is sound: each
    rounding in it is monotone and 2**53 is a double, so a true value at or
    past the limit never computes below it.)  Anything else — a count
    already past 2**53, ``inf`` — iterates, as the per-event fold does.
    """
    if steps <= 53:
        power = _POWERS[steps]
        settled = total * power + prefix * (power - 1.0)
        if settled < _EXACT_LIMIT:
            return settled
    for _ in range(steps):
        total += prefix + total
    return total

