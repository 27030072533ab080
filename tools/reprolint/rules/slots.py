"""RL007 — per-event / per-window classes declare ``__slots__``.

The engines construct one :class:`~repro.events.event.Event` per stream
element and one snapshot per window instance; at bench scale those are
millions of objects.  A ``__dict__`` per instance roughly doubles the
footprint and slows attribute access, so every class in the hot
construction paths (``events/``, ``core/snapshot.py``, and the report row
every closed window keeps, ``runtime/results.py``) must be slotted — as a
``__slots__`` assignment or ``@dataclass(slots=True)``.
"""

from __future__ import annotations

import ast
from typing import ClassVar, Iterator

from reprolint.framework import ModuleContext, Rule, Violation, dotted_name

__all__ = ["SlotsRule"]

#: Base classes whose subclasses cannot (or need not) be slotted: enums
#: and exceptions carry class-level machinery, Protocols/ABCs are never
#: instantiated per event.
_EXEMPT_BASES = {
    "ABC",
    "BaseException",
    "Enum",
    "Exception",
    "Flag",
    "IntEnum",
    "IntFlag",
    "NamedTuple",
    "Protocol",
    "ReproError",
    "StrEnum",
    "TypedDict",
}


def _base_name(base: ast.expr) -> str | None:
    name = dotted_name(base)
    if name is not None:
        return name.split(".")[-1]
    if isinstance(base, ast.Subscript):  # Protocol[T], Generic[T]
        return _base_name(base.value)
    return None


def _is_exempt(node: ast.ClassDef) -> bool:
    for base in node.bases:
        name = _base_name(base)
        if name in _EXEMPT_BASES or name == "Generic":
            return True
        if name is not None and (name.endswith("Error") or name.endswith("Warning")):
            return True
    return bool(node.keywords)  # metaclass= etc.: out of this rule's scope


def _dataclass_decorator(node: ast.ClassDef) -> ast.Call | ast.Name | ast.Attribute | None:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        name = dotted_name(target)
        if name is not None and name.split(".")[-1] == "dataclass":
            return decorator  # type: ignore[return-value]
    return None


def _declares_slots(node: ast.ClassDef) -> bool:
    for statement in node.body:
        if isinstance(statement, ast.Assign):
            for target in statement.targets:
                if isinstance(target, ast.Name) and target.id == "__slots__":
                    return True
        elif isinstance(statement, ast.AnnAssign):
            if isinstance(statement.target, ast.Name) and statement.target.id == "__slots__":
                return True
    return False


class SlotsRule(Rule):
    id: ClassVar[str] = "RL007"
    title: ClassVar[str] = "per-event/per-window classes must declare __slots__"
    rationale: ClassVar[str] = (
        "Events and snapshots are constructed per stream element / per "
        "window instance — millions of objects at bench scale — and a "
        "streaming report keeps one result row per closed window for the "
        "whole run.  An instance __dict__ doubles their footprint, so "
        "classes in events/, core/snapshot.py and runtime/results.py must "
        "declare __slots__ or use @dataclass(slots=True).  Enums, "
        "exceptions, Protocols and ABCs are exempt."
    )
    scope: ClassVar[tuple[str, ...]] = (
        "repro/events/",
        "repro/core/snapshot.py",
        "repro/runtime/results.py",
    )

    def check(self, module: ModuleContext) -> Iterator[Violation]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ClassDef) or _is_exempt(node):
                continue
            decorator = _dataclass_decorator(node)
            if decorator is not None:
                if isinstance(decorator, ast.Call) and any(
                    keyword.arg == "slots"
                    and isinstance(keyword.value, ast.Constant)
                    and keyword.value.value is True
                    for keyword in decorator.keywords
                ):
                    continue
                yield module.violation(
                    self,
                    node,
                    f"dataclass {node.name!r} on a per-event path should pass "
                    "slots=True",
                )
            elif not _declares_slots(node):
                yield module.violation(
                    self,
                    node,
                    f"class {node.name!r} on a per-event path must declare "
                    "__slots__",
                )
