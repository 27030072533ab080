"""Shard routing: which shard(s) must see each event of a workload's stream.

A :class:`ShardRouter` splits the workload into *shards* and maps every
event to the shard(s) that must see it, in a mode it derives from the
workload.  When every query groups by the same non-empty attributes,
events are **hash-routed by group key** — :func:`stable_shard_hash`, a
process-stable hash, so routing is deterministic across runs and machines.
Otherwise — no GROUP BY, or queries grouping by different attributes —
no one key splits the stream, so the router **shards by execution unit**:
each shard owns a subset of the query clusters and sees exactly the events
relevant to them.  Both placements keep every ``(group, window instance)``
partition wholly inside one shard, so the shared-window engines work
unchanged per shard and no cross-shard coordination is ever needed.

Pure routing: no processes, queues or transports live here — those are
:mod:`repro.runtime.sharding`, which drives one executor per shard over
what this module routes.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

from repro.errors import ExecutionError
from repro.events.block import EventBlock
from repro.events.event import Event, EventType, group_key, unhashable_key_error
from repro.query.query import Query
from repro.query.workload import Workload
from repro.runtime.executor import execution_units, unit_relevant_types
from repro.template.analysis import analyze_workload

__all__ = ["ShardRouter", "stable_shard_hash"]

#: Cap on the router's group-key -> shard memo.  The hash is cheap; the
#: memo only skips repr+BLAKE2b for hot keys, and a high-cardinality
#: GROUP BY (per-user/per-ride keys seen once) must not grow driver memory
#: without bound while every other layer evicts dead groups.
_SHARD_MEMO_LIMIT = 65536


def _canonical_key_element(value) -> tuple:
    """Collapse a group-key element to its partition-equality form.

    Partitions are dicts keyed by group tuples, so ``4``, ``4.0`` and
    ``True == 1`` land in **one** partition — the shard hash must not tell
    them apart (``repr`` would, and a partition would straddle shards).
    Numbers canonicalize through ``as_integer_ratio`` (exact, equal for
    equal values across int/float/bool, no 2**53 truncation); every branch
    carries a type tag so e.g. the string ``"None"`` cannot collide with
    ``None``.

    Sibling of :func:`repro.runtime.partitioner._value_sort_key`, which
    answers the *ordering* question for the same key population (this one
    answers equality collapse for hashing); a new group-key value type
    should be considered for both.
    """
    if isinstance(value, str):
        return ("s", value)
    if value is None:
        return ("0",)
    if isinstance(value, tuple):
        return ("t",) + tuple(_canonical_key_element(element) for element in value)
    if isinstance(value, complex):
        # complex(4) == 4 as a dict key; reduce real-valued complex numbers
        # to their real part so they canonicalize with int/float/Decimal.
        if value.imag == 0:
            return _canonical_key_element(value.real)
        return ("c", repr(value))
    ratio = getattr(value, "as_integer_ratio", None)  # int, float, bool,
    if ratio is not None:  # Decimal, Fraction, ...
        try:
            return ("n",) + tuple(ratio())
        except (ValueError, OverflowError):  # nan / inf
            try:
                return ("n", repr(float(value)))
            except (ValueError, OverflowError):  # e.g. Decimal('sNaN')
                return ("n", repr(value))
    return ("r", repr(value))


def stable_shard_hash(group_key: tuple) -> int:
    """A deterministic, process-stable hash of a group key.

    Python's built-in ``hash`` is randomized per process for strings
    (``PYTHONHASHSEED``), which would route the same group to different
    shards in the driver and in tests.  Keys are first canonicalized so
    values that compare equal as partition-dict keys (``4`` vs ``4.0`` vs
    ``True``) hash identically; the canonical form's ``repr`` is
    deterministic, and BLAKE2b mixes it well even for the short,
    near-identical reprs of small numeric keys — where a plain CRC-32
    modulo the shard count degenerates to one shard.
    """
    canonical = tuple(_canonical_key_element(element) for element in group_key)
    digest = hashlib.blake2b(repr(canonical).encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


@dataclass(frozen=True)
class _ShardPlan:
    """The routing decision: mode plus per-shard query placement."""

    #: ``"group"`` (hash on group key) or ``"unit"`` (by execution unit).
    mode: str
    #: Queries evaluated by each shard, in workload order.  Group mode gives
    #: every shard the full workload (events select the shard); unit mode
    #: partitions the query clusters across shards.
    shard_queries: tuple[tuple[Query, ...], ...]
    #: The common grouping attributes (group mode; empty in unit mode).
    group_by: tuple[str, ...]
    #: Event types at least one query references (router drop-filter).
    relevant_types: frozenset[EventType]
    #: Unit mode: event type -> shards whose queries reference it.
    type_routes: Mapping[EventType, tuple[int, ...]]

    @property
    def shards(self) -> int:
        return len(self.shard_queries)


class ShardRouter:
    """Maps each event of a workload's stream to its shard(s).

    The routing invariant — *no ``(group, window instance)`` partition ever
    straddles shards* — holds in both modes:

    * **group mode**: a partition's events all carry the same group key,
      and the shard is a pure function of that key;
    * **unit mode**: a partition belongs to one execution unit, and every
      event relevant to a unit is routed to the (single) shard owning it.

    Unit mode clusters *original* queries (pre-decomposition) transitively:
    queries that share an execution unit — or are sub-queries of the same
    OR/AND decomposition — stay on one shard, so per-shard engines keep
    every sharing opportunity the single-process runtime has.
    """

    def __init__(self, workload: Workload | Sequence[Query], shards: int) -> None:
        if shards < 1:
            raise ExecutionError(f"shard count must be >= 1, got {shards}")
        self.workload = workload if isinstance(workload, Workload) else Workload(workload)
        self.workload.validate()
        self.analysis = analyze_workload(self.workload)
        queries = tuple(self.workload.queries)
        group_bys = {query.group_by for query in queries}
        if len(group_bys) == 1 and next(iter(group_bys)) != ():
            self.plan = self._plan_group(queries, shards)
        else:
            self.plan = self._plan_unit(queries, shards)
        #: Group-key -> shard memo: the shard is a pure function of a small,
        #: heavily-repeated key set, so the hot path pays one dict lookup
        #: instead of repr + BLAKE2b per event.  Dict key equality also
        #: matches partition equality (``4`` and ``4.0`` share an entry),
        #: mirroring the canonicalized hash.
        self._shard_of_key: dict[tuple, int] = {}

    # ------------------------------------------------------------------ #
    # Plan construction
    # ------------------------------------------------------------------ #
    @staticmethod
    def _relevant_types(queries: Sequence[Query]) -> frozenset[EventType]:
        # Shared with the executors: the router's drop-filter must agree
        # exactly with what shard workers' units consume.
        return frozenset(unit_relevant_types(queries))

    def _plan_group(self, queries: tuple[Query, ...], shards: int) -> _ShardPlan:
        return _ShardPlan(
            mode="group",
            shard_queries=(queries,) * shards,
            group_by=queries[0].group_by,
            relevant_types=self._relevant_types(queries),
            type_routes={},
        )

    def _plan_unit(self, queries: tuple[Query, ...], shards: int) -> _ShardPlan:
        # Union-find over original query names: queries whose (possibly
        # decomposed) sub-queries share an execution unit must co-locate.
        parent = {query.name: query.name for query in queries}

        def find(name: str) -> str:
            while parent[name] != name:
                parent[name] = parent[parent[name]]
                name = parent[name]
            return name

        def union(first: str, second: str) -> None:
            parent[find(second)] = find(first)

        original_of = {
            sub.name: original_name
            for original_name, decomposition in self.analysis.decompositions.items()
            for sub in decomposition.sub_queries
        }
        for group in self.analysis.groups:
            for unit in execution_units(group.queries):
                names = [original_of.get(query.name, query.name) for query in unit]
                for name in names[1:]:
                    union(names[0], name)
        # Clusters in workload order (first member's position), assigned
        # round-robin — deterministic, and balanced when clusters are even.
        clusters: dict[str, list[Query]] = {}
        for query in queries:
            clusters.setdefault(find(query.name), []).append(query)
        cluster_list = list(clusters.values())
        shard_count = min(shards, len(cluster_list))
        shard_queries: list[list[Query]] = [[] for _ in range(shard_count)]
        for index, cluster in enumerate(cluster_list):
            shard_queries[index % shard_count].extend(cluster)
        type_routes: dict[EventType, list[int]] = {}
        for shard_id, shard in enumerate(shard_queries):
            for event_type in self._relevant_types(shard):
                type_routes.setdefault(event_type, []).append(shard_id)
        return _ShardPlan(
            mode="unit",
            shard_queries=tuple(tuple(shard) for shard in shard_queries),
            group_by=(),
            relevant_types=self._relevant_types(queries),
            type_routes={
                event_type: tuple(shard_ids)
                for event_type, shard_ids in type_routes.items()
            },
        )

    # ------------------------------------------------------------------ #
    # Routing
    # ------------------------------------------------------------------ #
    @property
    def mode(self) -> str:
        """The selected routing mode (``"group"`` or ``"unit"``)."""
        return self.plan.mode

    @property
    def shards(self) -> int:
        """Effective shard count (unit mode never exceeds the cluster count)."""
        return self.plan.shards

    def shard_queries(self, shard_id: int) -> tuple[Query, ...]:
        """The queries shard ``shard_id`` evaluates."""
        return self.plan.shard_queries[shard_id]

    def route(self, event: Event) -> tuple[int, ...]:
        """Shard ids that must see ``event`` (empty: no query cares)."""
        if event.event_type not in self.plan.relevant_types:
            return ()
        if self.plan.mode == "group":
            key = group_key(event, self.plan.group_by)
            try:
                shard = self._shard_of_key.get(key)
            except TypeError:
                raise unhashable_key_error(self.plan.group_by, key) from None
            if shard is None:
                shard = stable_shard_hash(key) % self.plan.shards
                if len(self._shard_of_key) < _SHARD_MEMO_LIMIT:
                    self._shard_of_key[key] = shard
            return (shard,)
        return self.plan.type_routes.get(event.event_type, ())

    def route_block(self, block: EventBlock) -> tuple[list[int], ...]:
        """Block-relative row indices each shard must see, in one columnar pass.

        The columnar sibling of :meth:`route`: per-row results are identical
        (the sharded differential suite pins it), but type relevance is
        resolved once per interned type code, group keys come from the
        block's cached code column, and each distinct key of the table is
        hashed at most once (through the same memo the per-event path
        fills) on its first relevant row; rows are then dealt by code.
        """
        selections: tuple[list[int], ...] = tuple(
            [] for _ in range(self.plan.shards)
        )
        codes = block.type_codes
        base = block.start
        count = len(block)
        if self.plan.mode == "group":
            relevant = self.plan.relevant_types
            relevant_by_code = [
                event_type in relevant for event_type in block.type_table
            ]
            table, group_codes = block.group_codes(self.plan.group_by)
            memo = self._shard_of_key
            #: Per group code: that key's selection list, resolved lazily.
            selection_of_code: list[Optional[list[int]]] = [None] * len(table)
            for local, group_code in enumerate(group_codes):
                if not relevant_by_code[codes[base + local]]:
                    continue
                selection = selection_of_code[group_code]
                if selection is None:
                    key = table[group_code]
                    shard = memo.get(key)
                    if shard is None:
                        shard = stable_shard_hash(key) % self.plan.shards
                        if len(memo) < _SHARD_MEMO_LIMIT:
                            memo[key] = shard
                    selection = selection_of_code[group_code] = selections[shard]
                selection.append(local)
            return selections
        routes_by_code = [
            self.plan.type_routes.get(event_type, ())
            for event_type in block.type_table
        ]
        for local in range(count):
            for shard in routes_by_code[codes[base + local]]:
                selections[shard].append(local)
        return selections
