"""RL002 — integer arithmetic only on window-instance indices.

PR 2's incident: computing window-instance keys as ``k * slide`` floats
made logically-identical instances hash to different dict keys once the
float error crossed an ulp, silently splitting aggregation state.  The
fix routed all instance geometry through the integer helpers on
:class:`repro.query.windows.Window` (``_floor_index``,
``instance_indices_covering``, ``instance_bounds``); this rule keeps
float division over window geometry from creeping back in anywhere else.
"""

from __future__ import annotations

import ast
from typing import ClassVar, Iterator

from reprolint.framework import ModuleContext, Rule, Violation, call_name

__all__ = ["FloatWindowIndexRule"]

#: Window helpers whose arguments must already be plain timestamps or
#: integer indices — an inline division inside the call re-introduces
#: float index math at the call site.
_INDEX_HELPERS = {
    "covering_bounds",
    "instance_indices_covering",
    "instance_bounds",
    "instances_per_event",
}

#: Attribute / parameter names that denote window geometry.
_GEOMETRY_NAMES = {"slide", "window_slide"}


def _mentions_geometry(node: ast.expr) -> bool:
    for child in ast.walk(node):
        if isinstance(child, ast.Name) and child.id in _GEOMETRY_NAMES:
            return True
        if isinstance(child, ast.Attribute) and child.attr in _GEOMETRY_NAMES:
            return True
    return False


def _contains_true_division(node: ast.expr) -> bool:
    return any(
        isinstance(child, ast.BinOp) and isinstance(child.op, ast.Div)
        for child in ast.walk(node)
    )


class FloatWindowIndexRule(Rule):
    id: ClassVar[str] = "RL002"
    title: ClassVar[str] = "no float arithmetic on window-instance indices"
    rationale: ClassVar[str] = (
        "Window-instance identity is an integer index; true division over "
        "window geometry (slide) produces floats whose rounding splits "
        "instance state across dict keys (PR 2 incident).  All index math "
        "lives in repro.query.windows.Window (snapped _floor_index); call "
        "its helpers with raw timestamps, never with inline divisions."
    )
    scope: ClassVar[tuple[str, ...]] = ("repro/",)
    exclude: ClassVar[tuple[str, ...]] = ("repro/query/windows.py",)

    def check(self, module: ModuleContext) -> Iterator[Violation]:
        for node in ast.walk(module.tree):
            if (
                isinstance(node, ast.BinOp)
                and isinstance(node.op, ast.Div)
                and (_mentions_geometry(node.left) or _mentions_geometry(node.right))
            ):
                yield module.violation(
                    self,
                    node,
                    "true division over window geometry produces float "
                    "indices; use Window._floor_index / the instance_* "
                    "helpers, which snap to integers",
                )
            if isinstance(node, ast.Call):
                callee = call_name(node)
                short = callee.split(".")[-1] if callee else None
                if short in _INDEX_HELPERS:
                    for arg in list(node.args) + [kw.value for kw in node.keywords]:
                        if _contains_true_division(arg):
                            yield module.violation(
                                self,
                                arg,
                                f"argument to {short}() contains a float "
                                "division; pass raw timestamps and let the "
                                "Window helpers do integer index math",
                            )
