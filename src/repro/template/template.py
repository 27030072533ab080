"""Compilation of a single query pattern into a query template.

The template is the finite-state-automaton view used by all engines:

* **states** are the event types occurring in the pattern,
* a **transition** ``E1 -> E2`` means events of type ``E1`` may immediately
  precede events of type ``E2`` in a trend (``E1 ∈ pt(E2, q)``),
* **start types** begin trends, **end types** finish them.

Supported pattern fragments for template compilation are event types, SEQ,
Kleene plus (including nested Kleene such as ``(SEQ(A, B+))+``) and NOT
inside a SEQ.  Disjunction and conjunction are *not* compiled into a single
template; they are decomposed per Section 5 of the paper by
:mod:`repro.template.decompose`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.errors import TemplateError
from repro.events.event import EventType
from repro.query.pattern import (
    Conjunction,
    Disjunction,
    EventTypePattern,
    Kleene,
    Negation,
    Pattern,
    Sequence,
)


@dataclass(frozen=True)
class NegationConstraint:
    """A ``SEQ(P1, NOT N, P2)`` constraint.

    An edge from an event of a type in ``before_types`` to an event of a type
    in ``after_types`` is invalid if an event of type ``negated_type``
    (matched by the query) arrived strictly between the two.
    """

    before_types: frozenset[EventType]
    negated_type: EventType
    after_types: frozenset[EventType]


@dataclass
class _Fragment:
    """Intermediate compilation result for a sub-pattern."""

    start_types: set[EventType] = field(default_factory=set)
    end_types: set[EventType] = field(default_factory=set)
    edges: set[tuple[EventType, EventType]] = field(default_factory=set)
    event_types: set[EventType] = field(default_factory=set)
    negations: list[NegationConstraint] = field(default_factory=list)
    kleene_types: set[EventType] = field(default_factory=set)
    negated_types: set[EventType] = field(default_factory=set)


class QueryTemplate:
    """The compiled template of one query pattern."""

    def __init__(
        self,
        event_types: Iterable[EventType],
        edges: Iterable[tuple[EventType, EventType]],
        start_types: Iterable[EventType],
        end_types: Iterable[EventType],
        kleene_types: Iterable[EventType] = (),
        negations: Iterable[NegationConstraint] = (),
        negated_types: Iterable[EventType] = (),
    ) -> None:
        self._event_types = frozenset(event_types)
        self._edges = frozenset(edges)
        self._start_types = frozenset(start_types)
        self._end_types = frozenset(end_types)
        self._kleene_types = frozenset(kleene_types)
        self._negations = tuple(negations)
        self._negated_types = frozenset(negated_types)
        # Sorted tuples, not frozensets: the engines iterate these sets
        # when summing predecessor aggregates, and frozenset order follows
        # hash randomization — float sums would differ in their last ulps
        # from process to process.  A sorted order keeps every fold's
        # summation order (and hence bit pattern) machine-stable.
        self._predecessors: dict[EventType, tuple[EventType, ...]] = {}
        for event_type in self._event_types:
            self._predecessors[event_type] = tuple(
                sorted(
                    source for source, target in self._edges if target == event_type
                )
            )

    # ------------------------------------------------------------------ #
    # Accessors (paper notation)
    # ------------------------------------------------------------------ #
    @property
    def event_types(self) -> frozenset[EventType]:
        """All positive event types in the pattern (the template states)."""
        return self._event_types

    @property
    def start_types(self) -> frozenset[EventType]:
        """``start(q)`` — types whose events may begin a trend."""
        return self._start_types

    @property
    def end_types(self) -> frozenset[EventType]:
        """``end(q)`` — types whose events may finish a trend."""
        return self._end_types

    @property
    def edges(self) -> frozenset[tuple[EventType, EventType]]:
        """The transition relation as ``(from_type, to_type)`` pairs."""
        return self._edges

    @property
    def kleene_types(self) -> frozenset[EventType]:
        """Types appearing under a Kleene plus."""
        return self._kleene_types

    @property
    def negations(self) -> tuple[NegationConstraint, ...]:
        """Negation constraints of the pattern."""
        return self._negations

    @property
    def negated_types(self) -> frozenset[EventType]:
        """Event types that appear only under NOT (never matched positively)."""
        return self._negated_types

    def predecessor_types(self, event_type: EventType) -> tuple[EventType, ...]:
        """``pt(E, q)`` — types whose events may immediately precede ``E`` events.

        Sorted, so iterating (and summing over) the predecessors is
        deterministic across processes regardless of hash randomization.
        """
        return self._predecessors.get(event_type, ())

    def successor_types(self, event_type: EventType) -> frozenset[EventType]:
        """Types whose events may immediately follow ``E`` events."""
        return frozenset(target for source, target in self._edges if source == event_type)

    def is_start(self, event_type: EventType) -> bool:
        """True if events of ``event_type`` can start a trend."""
        return event_type in self._start_types

    def is_relevant(self, event_type: EventType) -> bool:
        """True if the type is matched positively or negatively by the query."""
        return event_type in self._event_types or event_type in self._negated_types

    def has_self_loop(self, event_type: EventType) -> bool:
        """True if ``E -> E`` is a transition (the Kleene self-loop)."""
        return (event_type, event_type) in self._edges

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        edges = ", ".join(f"{a}->{b}" for a, b in sorted(self._edges))
        return (
            f"QueryTemplate(types={sorted(self._event_types)}, start={sorted(self._start_types)}, "
            f"end={sorted(self._end_types)}, edges=[{edges}])"
        )


# ---------------------------------------------------------------------- #
# Compilation
# ---------------------------------------------------------------------- #
def compile_pattern(pattern: Pattern) -> QueryTemplate:
    """Compile ``pattern`` into a :class:`QueryTemplate`.

    Raises:
        TemplateError: if the pattern contains disjunction or conjunction
            (those are decomposed before compilation, see
            :mod:`repro.template.decompose`) or is otherwise unsupported.
    """
    fragment = _compile(pattern)
    if not fragment.event_types:
        raise TemplateError("pattern contains no positive event types")
    return QueryTemplate(
        event_types=fragment.event_types,
        edges=fragment.edges,
        start_types=fragment.start_types,
        end_types=fragment.end_types,
        kleene_types=fragment.kleene_types,
        negations=fragment.negations,
        negated_types=fragment.negated_types - fragment.event_types,
    )


def _compile(pattern: Pattern) -> _Fragment:
    if isinstance(pattern, EventTypePattern):
        return _Fragment(
            start_types={pattern.event_type},
            end_types={pattern.event_type},
            event_types={pattern.event_type},
        )
    if isinstance(pattern, Kleene):
        return _compile_kleene(pattern)
    if isinstance(pattern, Sequence):
        return _compile_sequence(pattern)
    if isinstance(pattern, Negation):
        raise TemplateError("NOT may only appear directly inside a SEQ")
    if isinstance(pattern, (Disjunction, Conjunction)):
        raise TemplateError(
            "disjunction/conjunction must be decomposed before template compilation"
        )
    raise TemplateError(f"unsupported pattern node {type(pattern).__name__}")


def _compile_kleene(pattern: Kleene) -> _Fragment:
    inner = _compile(pattern.sub_pattern)
    if inner.negated_types & inner.event_types or (
        inner.negations and isinstance(pattern.sub_pattern, Sequence)
    ):
        # A negation inside a Kleene body would need per-iteration scoping;
        # the paper does not consider this combination either.
        if inner.negations:
            raise TemplateError("NOT inside a Kleene plus body is not supported")
    fragment = _Fragment(
        start_types=set(inner.start_types),
        end_types=set(inner.end_types),
        edges=set(inner.edges),
        event_types=set(inner.event_types),
        negations=list(inner.negations),
        kleene_types=set(inner.kleene_types),
        negated_types=set(inner.negated_types),
    )
    # Loop back: the end of one iteration may be followed by the start of the
    # next iteration (Section 5, nested Kleene).
    for end_type in inner.end_types:
        for start_type in inner.start_types:
            fragment.edges.add((end_type, start_type))
    fragment.kleene_types |= inner.event_types
    return fragment


def _compile_sequence(pattern: Sequence) -> _Fragment:
    fragment = _Fragment()
    previous_ends: set[EventType] = set()
    pending_negated: list[EventType] = []
    first_positive = True
    for part in pattern.parts:
        if isinstance(part, Negation):
            negated = _extract_negated_type(part)
            fragment.negated_types.add(negated)
            pending_negated.append(negated)
            continue
        inner = _compile(part)
        fragment.event_types |= inner.event_types
        fragment.edges |= inner.edges
        fragment.kleene_types |= inner.kleene_types
        fragment.negations.extend(inner.negations)
        fragment.negated_types |= inner.negated_types
        if first_positive:
            fragment.start_types |= inner.start_types
            first_positive = False
        else:
            for end_type in previous_ends:
                for start_type in inner.start_types:
                    fragment.edges.add((end_type, start_type))
            for negated in pending_negated:
                fragment.negations.append(
                    NegationConstraint(
                        before_types=frozenset(previous_ends),
                        negated_type=negated,
                        after_types=frozenset(inner.start_types),
                    )
                )
        pending_negated = []
        previous_ends = set(inner.end_types)
    if first_positive:
        raise TemplateError("SEQ needs at least one positive sub-pattern")
    if pending_negated:
        # Trailing NOT (e.g. SEQ(R, T+, NOT P)): trends must not be followed
        # by the negated type before the window closes.  Modelled as a
        # constraint with an empty after-set; engines interpret it as "a
        # negated event after a trend's last event invalidates nothing at
        # graph level" — the paper treats this at result-validation time.
        for negated in pending_negated:
            fragment.negations.append(
                NegationConstraint(
                    before_types=frozenset(previous_ends),
                    negated_type=negated,
                    after_types=frozenset(),
                )
            )
    fragment.end_types = set(previous_ends)
    return fragment


def _extract_negated_type(part: Negation) -> EventType:
    if not isinstance(part.sub_pattern, EventTypePattern):
        raise TemplateError("NOT is only supported over a single event type")
    return part.sub_pattern.event_type
