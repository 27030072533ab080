"""The compiled fold core behind the static plan's hot loops.

``_foldcore.c`` runs, on the engine's own dict state, the per-row loop of
:meth:`~repro.runtime.shared_windows.MultiWindowLinearEngine._fold_segment`
for a unit whose classes all fold deferred (scalar ``SEQ(P, K+)``), the run
fold of every other class, scalar or vector, split columns included
(``_fold_run``: eager classes, the optimizer's runs, the per-event fast
path), the readout of a scalar unit with no split columns and no event
store, and the close sweep of such a unit (:mod:`repro.runtime.close`);
the Cover stage's walk (:mod:`repro.runtime.cover`), which folds a deferred
unit's segments itself; and the column kernels, which answer a typed
column's per-row questions in place and leave every decision to Python: a
frame's least time, highest codes, shape rows and row slots
(:mod:`repro.events.columnar`), the order and lateness scans
(:mod:`repro.runtime.reorder`), ``EventBlock.select``'s gather and the
close sweep's memory sample.  The Python loops (for runs,
:class:`~repro.core.kernels.PythonKernelBackend`) stay the *reference*,
taken where :data:`core` is ``None`` or its shape does not apply: bit for
bit the same state either way.  Tests select the reference
with ``foldcore.core = None``; nothing else does.

The core is built at first import with the C compiler ``cc`` and cached
beside this module, in ``__pycache__``, keyed by a hash of the source, the
flags and the interpreter's ``EXT_SUFFIX``; the artifact is written to a
temporary file and renamed into place, so concurrent importers never see
half of one; a build deletes this interpreter's artifacts of older
sources.  Any failure — no compiler, no ``Python.h``, an unwritable cache,
a corrupt artifact (deleted, so the next import rebuilds it) — leaves
:data:`core` ``None`` and says why in :data:`reason`: the run falls back to
the reference fold (CI asserts the core loaded).
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.machinery
import importlib.util
import os
import subprocess
import sysconfig
import tempfile
from pathlib import Path
from types import ModuleType
from typing import TYPE_CHECKING, Optional, Sequence

from repro.core.kernels import MutableAggregate
from repro.runtime.results import WindowValues

if TYPE_CHECKING:
    from repro.runtime.shared_windows import MultiWindowLinearEngine, _TypePlan

SOURCE = Path(__file__).with_name("_foldcore.c")
#: ``-ffp-contract=off``: a fused multiply-add rounds once where the
#: reference's ``total * power + prefix * (power - 1.0)`` rounds twice.
FLAGS = ("-O2", "-fno-fast-math", "-ffp-contract=off", "-fPIC", "-shared")
COMPILER = "cc"


def artifact_path(cache: Path) -> Path:
    """Where the core built from this source, with these flags, for this
    interpreter lives in ``cache``."""
    suffix = sysconfig.get_config_var("EXT_SUFFIX") or ".so"
    digest = hashlib.sha256(SOURCE.read_bytes())
    digest.update("\0".join((*FLAGS, suffix)).encode())
    return cache / f"_foldcore.{digest.hexdigest()[:16]}{suffix}"


def build(target: Path, compiler: str = COMPILER) -> None:
    """Compile the core into ``target``, atomically."""
    target.parent.mkdir(parents=True, exist_ok=True)
    handle, scratch = tempfile.mkstemp(suffix=".so", prefix=".foldcore-", dir=target.parent)
    os.close(handle)
    try:
        include = sysconfig.get_paths()["include"]
        command = [compiler, *FLAGS, f"-I{include}", str(SOURCE), "-o", scratch]
        done = subprocess.run(command, capture_output=True, text=True)
        if done.returncode != 0:
            raise OSError(f"{compiler} exited with {done.returncode}: {done.stderr.strip()[-400:]}")
        os.replace(scratch, target)
        # Artifacts of older sources for this interpreter are never loaded again.
        for stale in target.parent.glob("_foldcore.*." + target.name.split(".", 2)[2]):
            if stale != target:
                with contextlib.suppress(OSError):
                    stale.unlink()
    finally:
        if os.path.exists(scratch):
            os.unlink(scratch)


def load(
    cache: Optional[Path] = None, compiler: str = COMPILER
) -> tuple[Optional[ModuleType], str]:
    """The core from ``cache`` (default: this package's ``__pycache__``),
    built first if absent, and ``""``; or ``None`` and why not."""
    cached = False
    try:
        target = artifact_path(Path(__file__).with_name("__pycache__") if cache is None else cache)
        cached = target.exists()
        if not cached:
            build(target, compiler)
        loader = importlib.machinery.ExtensionFileLoader("_foldcore", str(target))
        spec = importlib.util.spec_from_loader("_foldcore", loader)
        if spec is None:
            raise ImportError(f"no module spec for {target}")
        module = importlib.util.module_from_spec(spec)
        loader.exec_module(module)
    except (OSError, ImportError) as error:
        if cached:  # a corrupt artifact: the next import builds a fresh one
            with contextlib.suppress(OSError):
                target.unlink()
        return None, f"fold core unavailable, the reference fold runs: {error}"
    return module, ""


def fold_segment(
    engine: "MultiWindowLinearEngine",
    feeds: dict,
    types: Sequence[str],
    lows: Sequence[int],
    highs: Sequence[int],
) -> tuple[int, int, int, int]:
    """Fold the segment's leading rows in the core, where every class of
    the unit folds deferred: ``(ops, created, armings)`` they owe the
    engine's books and how many rows it folded (the reference folds the rest)."""
    if core is None or engine._eager:
        return 0, 0, 0, 0
    return core.fold_deferred(feeds, types, lows, highs)


def fold_run(
    engine: "MultiWindowLinearEngine",
    plan: "_TypePlan",
    armed: dict,
    count: int,
    rows: Optional[Sequence[tuple[float, ...]]],
    targets: tuple[dict, ...],
) -> Optional[tuple[int, int]]:
    """Fold a run of ``count`` rows into every column of ``targets`` over
    the ``armed`` windows in the core: ``(canonical, replica)`` entries it
    created, or ``None`` where the reference fold runs (no core)."""
    if core is None:
        return None
    unit = engine.unit
    return core.fold_run(
        targets, plan.total_map, plan.pred_maps, armed, 1.0 if plan.is_start else 0.0, count,
        None if unit.scalar else rows, unit.dimension, MutableAggregate,
    )


def close_window(engine: "MultiWindowLinearEngine", index: int) -> Optional[WindowValues]:
    """The readout of window ``index`` by the core, or ``None`` where the
    reference readout runs (no core, a vector unit, a split column or an
    event store)."""
    unit = engine.unit
    if core is None or not unit.scalar or engine._store is not None or engine._columns:
        return None
    values, disarmed, evicted = core.close_scalar(
        index,
        engine._armed,
        engine._deferred if engine._unsettled else None,
        engine._end_maps,
        engine._evict_maps,
    )
    engine._armed_entries -= disarmed
    engine._coeff_entries -= evicted
    engine._ops += len(unit.classes)
    return WindowValues(unit.layout, values)


#: The loaded core, or ``None`` (then :data:`reason` says why).
core, reason = load()
