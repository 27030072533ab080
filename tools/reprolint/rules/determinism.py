"""RL001 / RL006 — determinism on routing, merge, and result paths.

The sharded runtime's contract is that results are bit-identical across
shard counts, worker counts, start methods, *and interpreter hash seeds*.
Two incident classes broke it historically:

* routing/ordering derived from interpreter identity — builtin ``hash()``
  is ``PYTHONHASHSEED``-randomized for strings, ``id()`` differs per
  process, and ``repr``-keyed sorts order ``10.0`` before ``2.0`` and mix
  types lexicographically (PR 4's shard-routing bug);
* clocks, RNGs, and unordered-set iteration feeding result content.
"""

from __future__ import annotations

import ast
from typing import ClassVar, Iterator

from reprolint.framework import (
    ModuleContext,
    Rule,
    Violation,
    call_name,
    name_matches,
)

__all__ = ["UnstableIdentityOrderingRule", "NondeterminismRule"]

_SORT_CALLEES = {"sorted", "min", "max"}


def _is_repr_key(key: ast.expr) -> bool:
    """True for ``key=repr``, ``key=str``, or a lambda whose body calls them."""
    if isinstance(key, ast.Name) and key.id in {"repr", "str"}:
        return True
    if isinstance(key, ast.Lambda):
        body = key.body
        if isinstance(body, ast.Call):
            callee = call_name(body)
            if callee in {"repr", "str"}:
                return True
    return False


class UnstableIdentityOrderingRule(Rule):
    id: ClassVar[str] = "RL001"
    title: ClassVar[str] = "no hash()/id()/repr-keyed ordering on routing and merge paths"
    rationale: ClassVar[str] = (
        "Builtin hash() is PYTHONHASHSEED-randomized for str/bytes and id() is "
        "per-process, so neither may feed shard routing, partition keys, or "
        "merge order; repr/str sort keys order numbers lexicographically and "
        "interleave types by class-name spelling.  Use "
        "repro.runtime.routing.stable_shard_hash (BLAKE2b) for routing and "
        "repro.runtime.partitioner.group_sort_key for ordering (PR 4 incident)."
    )
    scope: ClassVar[tuple[str, ...]] = ("repro/runtime/",)

    def check(self, module: ModuleContext) -> Iterator[Violation]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            callee = call_name(node)
            if callee in {"hash", "id"}:
                yield module.violation(
                    self,
                    node,
                    f"builtin {callee}() is not stable across processes/seeds; "
                    "use stable_shard_hash (BLAKE2b) on routing paths",
                )
                continue
            is_sort_call = callee in _SORT_CALLEES or (
                isinstance(node.func, ast.Attribute) and node.func.attr == "sort"
            )
            if not is_sort_call:
                continue
            for keyword in node.keywords:
                if keyword.arg == "key" and _is_repr_key(keyword.value):
                    yield module.violation(
                        self,
                        keyword.value,
                        "repr/str sort keys are lexicographic (10.0 < 2.0) and "
                        "type-name dependent; sort with an explicit typed key "
                        "such as group_sort_key",
                    )


#: Calls that read wall clocks, RNG state, or process identity.
_FORBIDDEN_CALLS = (
    "time.time",
    "time.time_ns",
    "datetime.now",
    "datetime.utcnow",
    "datetime.today",
    "uuid.uuid1",
    "uuid.uuid4",
)

#: ``random.Random(seed)`` / ``random.SystemRandom`` construction is fine
#: (datasets use seeded generators); module-level convenience functions
#: draw from hidden global state.
_RANDOM_ALLOWED = {"Random", "SystemRandom", "seed"}


def _is_set_expression(node: ast.expr) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        return call_name(node) in {"set", "frozenset"}
    return False


class NondeterminismRule(Rule):
    id: ClassVar[str] = "RL006"
    title: ClassVar[str] = "no clocks, global RNG, or unordered-set iteration on result paths"
    rationale: ClassVar[str] = (
        "Result-producing code must be a pure function of the input stream: "
        "no wall clocks (time.time / datetime.now), no global-state RNG "
        "(random.random and friends; seeded random.Random instances are "
        "fine), no uuid1/uuid4, and no iteration over freshly-built sets, "
        "whose order depends on the interpreter hash seed.  Merges order "
        "their output with group_sort_key (PRs 4-5 incidents)."
    )
    scope: ClassVar[tuple[str, ...]] = (
        "repro/runtime/",
        "repro/core/",
        "repro/greta/",
        "repro/template/",
        "repro/baselines/",
        "repro/events/",
    )

    def check(self, module: ModuleContext) -> Iterator[Violation]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                callee = call_name(node)
                for pattern in _FORBIDDEN_CALLS:
                    if name_matches(callee, pattern):
                        yield module.violation(
                            self,
                            node,
                            f"{pattern}() injects per-run state into a result "
                            "path; thread explicit inputs instead",
                        )
                        break
                else:
                    if (
                        callee is not None
                        and callee.split(".")[0] == "random"
                        and len(callee.split(".")) == 2
                        and callee.split(".")[1] not in _RANDOM_ALLOWED
                    ):
                        yield module.violation(
                            self,
                            node,
                            f"{callee}() draws from the global RNG; construct a "
                            "seeded random.Random and thread it through",
                        )
            iter_expr: ast.expr | None = None
            if isinstance(node, ast.For):
                iter_expr = node.iter
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
                for generator in node.generators:
                    if _is_set_expression(generator.iter):
                        iter_expr = generator.iter
                        break
            if iter_expr is not None and _is_set_expression(iter_expr):
                yield module.violation(
                    self,
                    iter_expr,
                    "iteration order over a set depends on the hash seed; "
                    "iterate a sorted() sequence or dict.fromkeys() instead",
                )
