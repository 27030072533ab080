"""Per-burst statistics handed from the executor to the sharing optimizer.

The optimizer's decisions are light-weight precisely because every quantity
in the cost model (Definition 12) is locally available at the time a burst
completes: the burst size ``b``, the events matched so far in the window
``n``, the size of the (candidate) shared graphlet ``g``, the number of
sharing queries ``k``, the number of predecessor types per type ``p``, and
the snapshot counts ``sc`` (to be created) and ``sp`` (currently propagated).

The inputs split in two.  *Who* could share a burst of a type — the
candidate queries, their profiles and everything derived from them (``k``,
``p``, the decision stream's identity) — is static for a compiled workload
and lives in a :class:`CandidateSet` built once; *how big* the burst is
(``b``, ``n``, ``g``, ``sc``, ``sp``) changes per burst and is all a
:class:`BurstStatistics` adds on top.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Mapping

from repro.events.event import EventType

#: Identity of one decision stream: ``(event type, candidate query set)``.
PlanKey = tuple[EventType, frozenset[str]]


@dataclass(frozen=True)
class QueryBurstProfile:
    """Per-query properties of a burst that drive the query-set choice."""

    query_name: str
    #: True if sharing this query's processing of the burst is expected to
    #: require event-level snapshots (it has predicates or negation
    #: constraints that apply to the burst's event type).  Queries with
    #: ``False`` are always worth sharing (Theorem 4.1).
    introduces_snapshots: bool
    #: Expected number of event-level snapshots this query would add to the
    #: shared graphlet for this burst (an estimate based on recent history).
    expected_snapshots: float = 0.0
    #: Number of predecessor types of the burst type for this query (``p``).
    predecessor_types: int = 1


@dataclass(frozen=True)
class CandidateSet:
    """The queries that could share bursts of one event type.

    The static half of a decision's inputs.  The derived fields are computed
    once at construction, so a runtime that compiles its candidate sets up
    front (one per ``(query class, event type)`` in
    :class:`~repro.runtime.shared_windows.UnitCompilation`) pays for them
    per workload, not per burst.
    """

    event_type: EventType
    #: Per-query profiles for the queries that could share the burst.
    profiles: tuple[QueryBurstProfile, ...] = ()
    #: Number of event types per query (``t`` in the cost model).
    types_per_query: int = 2
    #: Names of the candidate queries.
    names: frozenset[str] = field(init=False, repr=False, compare=False)
    #: Identity of the decision stream this candidate set belongs to.
    #: Optimizers track continuity (merge/split counting, fixed static
    #: plans) per *candidate set*, not per event type alone: one burst may
    #: trigger several independent decisions for the same type — e.g. the
    #: multi-window runtime consults the optimizer once per query class —
    #: and decisions of different candidate sets must not clobber each
    #: other's previous-decision state.
    plan_key: PlanKey = field(init=False, repr=False, compare=False)
    #: Average number of predecessor types per query (``p``), at least 1.
    predecessor_types: int = field(init=False, repr=False, compare=False)
    #: Event-level snapshots sharing the burst among all candidates is
    #: expected to create (the per-query estimates, summed).
    expected_snapshots: float = field(init=False, repr=False, compare=False)
    #: True when no candidate introduces or expects event-level snapshots:
    #: every query then has the same sharing margin, so the Theorem 4.1/4.2
    #: choice is all-or-nothing.
    snapshot_free: bool = field(init=False, repr=False, compare=False)
    #: Profiles keyed by query name.
    by_name: Mapping[str, QueryBurstProfile] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        profiles = self.profiles
        names = frozenset(profile.query_name for profile in profiles)
        derived = {
            "names": names,
            "plan_key": (self.event_type, names),
            "predecessor_types": (
                max(1, round(sum(p.predecessor_types for p in profiles) / len(profiles)))
                if profiles
                else 1
            ),
            "expected_snapshots": sum(p.expected_snapshots for p in profiles),
            "snapshot_free": not any(
                p.introduces_snapshots or p.expected_snapshots for p in profiles
            ),
            "by_name": {profile.query_name: profile for profile in profiles},
        }
        for name, value in derived.items():
            object.__setattr__(self, name, value)

    def restrict(self, query_names: frozenset[str]) -> "CandidateSet":
        """The candidate set narrowed to a subset of its queries."""
        return CandidateSet(
            self.event_type,
            tuple(p for p in self.profiles if p.query_name in query_names),
            self.types_per_query,
        )


@dataclass(frozen=True)
class BurstStatistics:
    """Everything the optimizer needs to decide one burst."""

    #: Who could share the burst (static, see :class:`CandidateSet`).
    candidates: CandidateSet
    #: Number of events in the burst (``b``).
    burst_size: int
    #: Number of events matched so far in the window/partition (``n``).
    events_in_window: int
    #: Number of events in the candidate shared graphlet (``g``) — the active
    #: shared graphlet's size if it would be continued, else the burst size.
    graphlet_size: int
    #: Number of snapshots currently propagated through the candidate shared
    #: graphlet (``sp``), excluding the ones this burst would create.
    snapshots_propagated: int
    #: Number of graphlet-level snapshots that must be created to share this
    #: burst (1 when a merge / new shared graphlet is needed, else 0).
    graphlet_snapshots_needed: int

    @property
    def event_type(self) -> EventType:
        """Type of the burst's events."""
        return self.candidates.event_type

    @property
    def profiles(self) -> tuple[QueryBurstProfile, ...]:
        """Per-query profiles for the queries that could share this burst."""
        return self.candidates.profiles

    @property
    def types_per_query(self) -> int:
        """Number of event types per query (``t`` in the cost model)."""
        return self.candidates.types_per_query

    @property
    def query_count(self) -> int:
        """Number of candidate sharing queries (``k``)."""
        return len(self.candidates.profiles)

    @property
    def plan_key(self) -> PlanKey:
        """Identity of the decision stream these statistics belong to."""
        return self.candidates.plan_key

    @property
    def predecessor_types(self) -> int:
        """Average number of predecessor types per query (``p``), at least 1."""
        return self.candidates.predecessor_types

    @property
    def snapshots_created(self) -> float:
        """Estimated snapshots created when sharing the whole burst (``sc``)."""
        return self.graphlet_snapshots_needed + self.candidates.expected_snapshots

    def profile_map(self) -> Mapping[str, QueryBurstProfile]:
        """Profiles keyed by query name."""
        return self.candidates.by_name

    def restrict(self, query_names: frozenset[str]) -> "BurstStatistics":
        """Statistics restricted to a subset of the candidate queries."""
        return replace(self, candidates=self.candidates.restrict(query_names))
