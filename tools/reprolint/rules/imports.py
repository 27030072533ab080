"""RL005 — numpy stays quarantined in ``core/kernels_numpy.py``.

The reproduction installs and runs dependency-free; numpy is optional and
only the closed-form fold module (which no executor reaches) imports it
at top level.  A single top-level ``import numpy`` anywhere else makes
the whole package refuse to import on a clean interpreter, which is
exactly how optional dependencies rot into required ones.
"""

from __future__ import annotations

import ast
from typing import ClassVar, Iterator

from reprolint.framework import ModuleContext, Rule, Violation

__all__ = ["NumpyImportRule"]


def _mentions_type_checking(test: ast.expr) -> bool:
    return any(
        (isinstance(node, ast.Name) and node.id == "TYPE_CHECKING")
        or (isinstance(node, ast.Attribute) and node.attr == "TYPE_CHECKING")
        for node in ast.walk(test)
    )


class NumpyImportRule(Rule):
    id: ClassVar[str] = "RL005"
    title: ClassVar[str] = "no top-level numpy import outside core/kernels_numpy.py"
    rationale: ClassVar[str] = (
        "The pure-Python install is dependency-free; numpy is optional and "
        "confined to core/kernels_numpy.py.  Import it anywhere else at "
        "function scope (or under TYPE_CHECKING) so every other module "
        "imports cleanly without it."
    )
    exclude: ClassVar[tuple[str, ...]] = ("repro/core/kernels_numpy.py",)

    def check(self, module: ModuleContext) -> Iterator[Violation]:
        yield from self._check_block(module, module.tree.body)

    def _check_block(self, module: ModuleContext, body: list[ast.stmt]) -> Iterator[Violation]:
        for statement in body:
            if isinstance(statement, ast.Import):
                for alias in statement.names:
                    if alias.name == "numpy" or alias.name.startswith("numpy."):
                        yield self._flag(module, statement)
                        break
            elif isinstance(statement, ast.ImportFrom):
                if statement.module is not None and (
                    statement.module == "numpy" or statement.module.startswith("numpy.")
                ):
                    yield self._flag(module, statement)
            elif isinstance(statement, ast.If):
                if not _mentions_type_checking(statement.test):
                    yield from self._check_block(module, statement.body)
                yield from self._check_block(module, statement.orelse)
            elif isinstance(statement, ast.Try):
                # try/except ImportError probing is still a top-level import:
                # it runs at import time and its success changes behavior.
                yield from self._check_block(module, statement.body)
                for handler in statement.handlers:
                    yield from self._check_block(module, handler.body)
                yield from self._check_block(module, statement.orelse)
                yield from self._check_block(module, statement.finalbody)
            elif isinstance(statement, (ast.With, ast.AsyncWith, ast.ClassDef)):
                yield from self._check_block(module, statement.body)
            # Function and class bodies are deliberately not descended into:
            # deferred imports are the sanctioned pattern.

    def _flag(self, module: ModuleContext, statement: ast.stmt) -> Violation:
        return module.violation(
            self,
            statement,
            "top-level numpy import outside core/kernels_numpy.py; defer it "
            "to function scope",
        )
