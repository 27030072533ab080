"""RL009 — checkpoint files are written atomically, never in place.

PR 8's incident class: a checkpoint that is ``open(path, "wb")``-written
directly to its final name is torn the instant a worker dies mid-write —
and the whole point of a checkpoint is to be readable *after* a crash.
The repo's discipline (``repro/runtime/checkpoint.py``) is write-temp +
fsync + rename: the blob lands under a temporary name, is flushed and
``os.fsync``\\ ed, then ``os.replace``\\ d over the final path, so at
every instant the final name is either the old complete file or the new
complete file.  This rule enforces the shape statically: in any module
whose file name mentions checkpoints, every function that opens a file
for writing (or calls ``Path.write_bytes``/``write_text``) must also
call ``os.replace`` or ``os.rename`` **and** ``os.fsync`` — the rename
without the fsync is not durable, the fsync without the rename is not
atomic.

PR 14 added the one other sanctioned shape: the per-shard *output log*
is appended in place — ``open(path, "ab")`` + write + ``os.fsync`` —
because a record is never read before the (atomically renamed) snapshot
that covers it exists, so a torn append is an ignorable tail rather than
a torn checkpoint.  That argument holds for exactly one writer, so the
exemption is by *function name* (:data:`LOG_WRITERS`): an append-only
open inside it needs the fsync but no rename; an append anywhere else,
or any other mode inside it, is held to the atomic shape.
"""

from __future__ import annotations

import ast
from typing import ClassVar, Iterator, Optional

from reprolint.framework import (
    ModuleContext,
    Rule,
    Violation,
    call_name,
    enclosing_function,
    name_matches,
)

__all__ = ["AtomicCheckpointWriteRule"]

#: ``open`` modes that create or mutate the target in place.
_WRITE_MODE_CHARS = frozenset("wax+")

#: Path methods that clobber the target file directly.
_PATH_WRITERS = frozenset({"write_bytes", "write_text"})

#: The functions allowed to append in place (open-append + fsync).
LOG_WRITERS = frozenset({"_append_log"})


def _open_mode(node: ast.Call) -> str:
    """The literal mode of an ``open(...)`` call ("" when there is none)."""
    callee = call_name(node)
    if callee is None or callee.split(".")[-1] != "open":
        return ""
    mode: Optional[ast.expr] = None
    if len(node.args) >= 2:
        mode = node.args[1]
    for keyword in node.keywords:
        if keyword.arg == "mode":
            mode = keyword.value
    if not isinstance(mode, ast.Constant) or not isinstance(mode.value, str):
        # No mode (default "r") or a dynamic mode we cannot see through.
        return ""
    return mode.value


def _is_file_write(node: ast.Call) -> bool:
    if _WRITE_MODE_CHARS & set(_open_mode(node)):
        return True
    callee = call_name(node)
    return callee is not None and callee.split(".")[-1] in _PATH_WRITERS


def _calls_any(scope: ast.AST, patterns: tuple[str, ...]) -> bool:
    for child in ast.walk(scope):
        if isinstance(child, ast.Call):
            callee = call_name(child)
            if any(name_matches(callee, pattern) for pattern in patterns):
                return True
    return False


class AtomicCheckpointWriteRule(Rule):
    id: ClassVar[str] = "RL009"
    title: ClassVar[str] = (
        "checkpoint writes must be write-temp + fsync + rename "
        "(or open-append + fsync in the log writer)"
    )
    rationale: ClassVar[str] = (
        "A checkpoint written in place is torn by the very crash it exists "
        "to survive.  Functions in checkpoint modules that open files for "
        "writing must also fsync the data and os.replace/os.rename it over "
        "the final name, so readers always find a complete file.  The one "
        "exception is the output log's named writer, which may append in "
        "place (mode 'a'/'ab') as long as it fsyncs: its records are only "
        "read once a renamed snapshot covers them."
    )
    # Scope is by *file name*, not package prefix: any module whose
    # basename mentions checkpoints is held to the atomic-write shape,
    # wherever it lives (runtime, tools, fixtures).
    scope: ClassVar[tuple[str, ...]] = ()

    def applies_to(self, relpath: str) -> bool:
        return "checkpoint" in relpath.rsplit("/", 1)[-1].lower()

    def check(self, module: ModuleContext) -> Iterator[Violation]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call) or not _is_file_write(node):
                continue
            function = enclosing_function(node)
            scope: ast.AST = function or module.tree
            mode = _open_mode(node)
            log_append = (
                function is not None
                and function.name in LOG_WRITERS
                and "a" in mode
                and set(mode) <= set("ab")
            )
            missing: list[str] = []
            if not log_append and not _calls_any(scope, ("os.replace", "os.rename")):
                missing.append("os.replace/os.rename")
            if not _calls_any(scope, ("os.fsync",)):
                missing.append("os.fsync")
            if missing:
                yield module.violation(
                    self,
                    node,
                    "in-place checkpoint write: the enclosing scope never calls "
                    + " or ".join(missing)
                    + " (write to a temp file, fsync, then rename over the final "
                    "name; only "
                    + "/".join(sorted(LOG_WRITERS))
                    + " may append in place, with an fsync)",
                )
