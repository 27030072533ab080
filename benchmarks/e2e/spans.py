"""In-memory span recorder for the traced repeat.

The harness owns the tracing: nothing inside ``src/repro`` knows about it.
``Tracer.install`` swaps each layer's public entry points (named by dotted
path, resolved at run time) for wrappers that record one span per call —
layer, start, end, parent span, rows — into parallel lists that live only in
memory; ``Tracer.dump`` writes them out after the run when asked to.

A layer's *self time* is its spans' duration minus the part covered by their
child spans, so the layers (plus the ``harness`` root) sum to the traced wall
by construction.  The end-to-end numbers never come from a traced repeat:
wrappers cost about a microsecond per call, which ``trace.overhead_ratio``
reports.

A target whose dotted name no longer resolves is skipped with one warning
line and its layer's metrics read ``null`` — a probe can never fail the run.
"""

from __future__ import annotations

import importlib
import json
import sys
import threading
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable, Optional

#: Name of the root span wrapped around the whole traced repeat.
ROOT = "harness"


def warn(message: str) -> None:
    """One warning line on stderr (stdout carries the result)."""
    print(f"warning: {message}", file=sys.stderr)


_GONE: set[str] = set()


def warn_gone(layer: str, error: object) -> None:
    """The one warning line a layer gets when a symbol it probes is gone."""
    if layer not in _GONE:
        _GONE.add(layer)
        warn(f"layer {layer}: probe target gone, its metrics read null ({error})")


def resolve(dotted: str) -> Any:
    """Import the longest module prefix of ``dotted``, then walk attributes.

    Raises ``LookupError`` when any part is missing, so callers have one
    exception to turn into a ``null`` metric.
    """
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        try:
            for name in parts[cut:]:
                target = getattr(target, name)
        except AttributeError as error:
            raise LookupError(f"{dotted}: {error}") from error
        return target
    raise LookupError(f"{dotted}: no importable module prefix")


def _no_rows(args: tuple, result: Any) -> int:
    return 0


@dataclass(frozen=True)
class Target:
    """One wrapped entry point: ``layer`` owns calls to ``dotted``."""

    layer: str
    dotted: str
    #: ``rows(args, result) -> int``: rows this call moved (0 when the call
    #: has no natural row count).  ``args`` includes ``self``.
    rows: Callable[[tuple, Any], int] = _no_rows
    #: Report the summed duration of this target's spans under this metric
    #: name as well (e.g. ``runtime.sharding.finish_s``).
    duration_metric: Optional[str] = None


class Tracer:
    """Records spans of the installed targets on the installing thread."""

    def __init__(self) -> None:
        self.layers: list[str] = [ROOT]
        self._layer_ids: dict[str, int] = {ROOT: 0}
        # Parallel span columns: cheaper to append to than one object per
        # span, and the hot wrappers run up to millions of times.
        self.layer_of: list[int] = []
        self.parent_of: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.rows_of: list[int] = []
        self.target_of: list[int] = []
        self._stack: list[int] = [-1]
        self._thread = threading.get_ident()
        self._patched: list[tuple[Any, str, Any]] = []
        self._targets: list[Target] = []
        #: Layers with at least one target that failed to resolve.
        self.missing_layers: set[str] = set()

    # ------------------------------------------------------------------ #
    # Installing and removing wrappers
    # ------------------------------------------------------------------ #
    def install(self, targets: list[Target]) -> None:
        for target in targets:
            if target.layer not in self._layer_ids:
                self._layer_ids[target.layer] = len(self.layers)
                self.layers.append(target.layer)
            try:
                self._install_one(target)
            except LookupError as error:
                self.missing_layers.add(target.layer)
                warn_gone(target.layer, error)

    def _install_one(self, target: Target) -> None:
        owner_path, _, name = target.dotted.rpartition(".")
        owner = resolve(owner_path)
        if not hasattr(owner, name):
            raise LookupError(f"{target.dotted}: no such attribute")
        target_id = len(self._targets)
        self._targets.append(target)
        layer_id = self._layer_ids[target.layer]
        if isinstance(owner, type):
            # Subclasses that override the method would bypass a wrapper on
            # the base class alone (KernelBackend.fold_* are abstract).
            before = len(self._patched)
            for cls in [owner] + _all_subclasses(owner):
                if name in cls.__dict__:
                    self._patch_class(cls, name, layer_id, target_id, target.rows)
            if len(self._patched) == before:  # inherited from outside the hierarchy
                raise LookupError(f"{target.dotted}: defined on no class below {owner_path}")
            return
        original = getattr(owner, name)
        wrapper = self._wrapper(original, layer_id, target_id, target.rows)
        # ``from module import name`` copies the reference: patch every
        # already-imported module that holds the very same function object.
        for module in list(sys.modules.values()):
            if module is not None and getattr(module, "__dict__", {}).get(name) is original:
                self._patched.append((module, name, original))
                setattr(module, name, wrapper)

    def _patch_class(self, cls: type, name: str, layer_id: int, target_id: int, rows) -> None:
        raw = cls.__dict__[name]
        self._patched.append((cls, name, raw))
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped = type(raw)(self._wrapper(raw.__func__, layer_id, target_id, rows))
        else:
            wrapped = self._wrapper(raw, layer_id, target_id, rows)
        setattr(cls, name, wrapped)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched.clear()

    def _wrapper(self, function: Callable, layer_id: int, target_id: int, rows) -> Callable:
        layer_of, parent_of = self.layer_of, self.parent_of
        starts, ends, rows_of, target_of = self.starts, self.ends, self.rows_of, self.target_of
        stack = self._stack
        thread = self._thread
        get_ident = threading.get_ident

        def traced(*args, **kwargs):
            if get_ident() != thread:  # e.g. a checkpoint writer thread
                return function(*args, **kwargs)
            index = len(layer_of)
            layer_of.append(layer_id)
            target_of.append(target_id)
            parent_of.append(stack[-1])
            ends.append(0.0)
            rows_of.append(0)
            stack.append(index)
            starts.append(perf_counter())
            try:
                result = function(*args, **kwargs)
            finally:
                ends[index] = perf_counter()
                stack.pop()
            try:
                rows_of[index] = rows(args, result)
            except Exception:  # a changed signature must not fail the pass
                pass
            return result

        traced.__name__ = getattr(function, "__name__", "traced")
        traced.__wrapped__ = function  # type: ignore[attr-defined]
        return traced

    # ------------------------------------------------------------------ #
    # The root span
    # ------------------------------------------------------------------ #
    def run(self, function: Callable[[], Any]) -> Any:
        """Run ``function`` under the ``harness`` root span."""
        root = self._wrapper(function, 0, -1, _no_rows)
        return root()

    # ------------------------------------------------------------------ #
    # Reading the spans
    # ------------------------------------------------------------------ #
    def summary(self) -> dict[str, dict[str, float]]:
        """Per layer: ``self_s``, ``calls``, ``rows`` (root included)."""
        count = len(self.layer_of)
        child_seconds = [0.0] * count
        for index in range(count):
            parent = self.parent_of[index]
            if parent >= 0:
                child_seconds[parent] += self.ends[index] - self.starts[index]
        totals = {
            layer: {"self_s": 0.0, "calls": 0, "rows": 0} for layer in self.layers
        }
        for index in range(count):
            entry = totals[self.layers[self.layer_of[index]]]
            entry["self_s"] += self.ends[index] - self.starts[index] - child_seconds[index]
            entry["calls"] += 1
            entry["rows"] += self.rows_of[index]
        return totals

    def wall(self) -> float:
        """Summed duration of the root spans."""
        return sum(
            self.ends[index] - self.starts[index]
            for index in range(len(self.layer_of))
            if self.parent_of[index] < 0
        )

    def durations(self) -> dict[str, float]:
        """Summed span duration per ``Target.duration_metric``."""
        result: dict[str, float] = {}
        for index, target_id in enumerate(self.target_of):
            if target_id < 0:
                continue
            metric = self._targets[target_id].duration_metric
            if metric is not None:
                result[metric] = result.get(metric, 0.0) + self.ends[index] - self.starts[index]
        return result

    def dump(self, path: str) -> None:
        """Write every span (layer, target, start, end, parent, rows) as JSON."""
        spans = {
            "layers": self.layers,
            "targets": [target.dotted for target in self._targets],
            "layer": self.layer_of,
            "target": self.target_of,
            "start": self.starts,
            "end": self.ends,
            "parent": self.parent_of,
            "rows": self.rows_of,
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(spans, handle)


def _all_subclasses(cls: type) -> list[type]:
    found: list[type] = []
    for sub in cls.__subclasses__():
        found.append(sub)
        found.extend(_all_subclasses(sub))
    return found
