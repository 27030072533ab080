"""RL010 — the runtime hot path consumes blocks, not fresh ``Event``s.

PR 9 made :class:`~repro.events.block.EventBlock` the native in-memory
format of the ingest-to-fold path: the router partitions columns, workers
rebuild blocks from the wire bytes, and the streaming executor folds runs
straight from the columns.  The per-event object is a *view* materialized
lazily at API edges (``EventBlock.event_at``), never a unit of transport
or processing.  A stray ``Event(...)`` constructor inside one of the
block-path modules reintroduces exactly the per-event allocation the
columnar refactor removed — silently, since the differential suites only
check values, not allocation behaviour.

PR 15 closed the other door to the same regression: the reorder stage's
unsorted-block fallback built one view per row through ``event_at`` in a
loop (2.1x slower end to end than sorting the columns).  A view
materialized *inside a loop* of a block-path module is a per-row path by
construction, so the rule flags ``.event_at(...)`` / ``.to_events()``
there too, outside a short allow-list of functions that are real API
edges.
"""

from __future__ import annotations

import ast
from typing import ClassVar, Iterator

from reprolint.framework import (
    ModuleContext,
    Rule,
    Violation,
    call_name,
    enclosing_function,
    name_matches,
    parent_of,
)

__all__ = ["EventConstructionRule"]

_LOOPS = (
    ast.For,
    ast.AsyncFor,
    ast.While,
    ast.ListComp,
    ast.SetComp,
    ast.DictComp,
    ast.GeneratorExp,
)

#: Functions that may materialize row views per iteration — each an edge
#: where an :class:`Event` is the contract, reached for a bounded few rows.
VIEW_EDGES: dict[str, str] = {
    "offer_block": "late-policy hand-off (side_output / retract take an Event)",
    "_cover": "per-instance units: single-window engines take Events",
}


def _inside_loop(node: ast.AST) -> bool:
    current = parent_of(node)
    while current is not None:
        if isinstance(current, _LOOPS):
            return True
        current = parent_of(current)
    return False


def _inside_view_edge(node: ast.AST) -> bool:
    function = enclosing_function(node)
    while function is not None:
        if function.name in VIEW_EDGES:
            return True
        function = enclosing_function(function)
    return False


class EventConstructionRule(Rule):
    id: ClassVar[str] = "RL010"
    title: ClassVar[str] = "no per-event Event(...) or looped row views in block-path modules"
    rationale: ClassVar[str] = (
        "The runtime hot path is columnar end to end: blocks are routed, "
        "reordered, shipped, and folded as columns, and per-event views come "
        "only from EventBlock.event_at at API edges.  Constructing Event "
        "objects inside the block-path modules — or materializing views row "
        "by row in a loop (event_at / to_events) outside the allow-listed "
        "edges — reintroduces per-event allocation that the differential "
        "suites cannot catch (values stay identical, throughput regresses)."
    )
    #: Only the modules on the block hot path; decoding/view construction
    #: legitimately builds events elsewhere (events/, datasets/, checkpoint
    #: replay).
    scope: ClassVar[tuple[str, ...]] = (
        "repro/runtime/streaming.py",
        "repro/runtime/cover.py",
        "repro/runtime/close.py",
        "repro/runtime/lateness.py",
        "repro/runtime/sharding.py",
        "repro/runtime/routing.py",
        "repro/runtime/shared_windows.py",
        "repro/runtime/transport.py",
        "repro/runtime/reorder.py",
    )

    def check(self, module: ModuleContext) -> Iterator[Violation]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            if name_matches(call_name(node), "Event"):
                yield module.violation(
                    self,
                    node,
                    "Event(...) on the block hot path; use EventBlock views "
                    "(event_at/select/slice) or keep the columns",
                )
            elif (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in ("event_at", "to_events")
                and _inside_loop(node)
                and not _inside_view_edge(node)
            ):
                yield module.violation(
                    self,
                    node,
                    f".{node.func.attr}(...) inside a loop on the block hot "
                    "path: a per-row view path; keep the columns "
                    "(select/slice/concat) or name the function in "
                    "reprolint.rules.blocks.VIEW_EDGES if it is an API edge",
                )
