"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import faulthandler
import sys
from contextlib import contextmanager
from unittest import mock

import pytest

from repro.core import HamletEngine
from repro.events import Event, EventStream
from repro.query import Query, Window, count_trends, kleene, max_of, seq
from repro.runtime import foldcore
from repro.runtime.shared_windows import MultiWindowLinearEngine

#: Parametrizes a test over both folds as ``fold``: ``"compiled"`` (the fold
#: core; skipped where it did not load) and ``"reference"`` (the Python loops).
on_both_folds = pytest.mark.parametrize(
    "fold",
    (
        pytest.param(
            "compiled", marks=pytest.mark.skipif(foldcore.core is None, reason=foldcore.reason)
        ),
        "reference",
    ),
)


@contextmanager
def selected_fold(fold: str):
    """Run the body on ``fold``: the reference is ``foldcore.core = None``."""
    with mock.patch.object(foldcore, "core", foldcore.core if fold == "compiled" else None):
        yield


class RunFolds:
    """The row count of every ``MultiWindowLinearEngine._fold_run`` call,
    on either fold; :meth:`check` asserts that the core, where it runs,
    folded exactly those runs (its ``run_counts()``)."""

    def __init__(self, monkeypatch) -> None:
        self.counts: list[int] = []
        self._core = foldcore.core
        self._start = None if self._core is None else self._core.run_counts()
        fold_run = MultiWindowLinearEngine._fold_run

        def counting(engine, plan, armed, count, rows, targets=None):
            self.counts.append(count)
            return fold_run(engine, plan, armed, count, rows, targets)

        monkeypatch.setattr(MultiWindowLinearEngine, "_fold_run", counting)

    def check(self) -> None:
        if self._core is not None:
            runs, rows = self._core.run_counts()
            folded = (runs - self._start[0], rows - self._start[1])
            assert folded == (len(self.counts), sum(self.counts))


def make_events(spec: str, *, spacing: float = 1.0, start: float = 0.0, **payloads) -> list[Event]:
    """Build a list of events from a compact spec string.

    ``spec`` is a whitespace-separated list of event type names; events are
    timestamped ``start, start + spacing, ...`` in order.  Keyword arguments
    of the form ``<lowercased type name>=dict(...)`` attach the same payload
    to every event of that type, e.g. ``make_events("A B B", b={"v": 2.0})``.
    """
    events = []
    for index, type_name in enumerate(spec.split()):
        payload = payloads.get(type_name.lower(), {})
        events.append(
            Event(event_type=type_name, time=start + index * spacing, payload=dict(payload))
        )
    return events


def decision_counters(report):
    """The deterministic half of a report's ``OptimizerStatistics`` (all but
    the wall-clock ``decision_seconds``); ``None`` for a run without one."""
    statistics = report.optimizer_statistics
    if statistics is None:
        return None
    return (
        statistics.decisions,
        statistics.shared_bursts,
        statistics.non_shared_bursts,
        statistics.merges,
        statistics.splits,
    )


#: Ways a streaming unit ends up with one pooled engine per window instance
#: (``InstanceWindowEngine``) instead of a shared-window engine.
PER_INSTANCE_KINDS = ("instances", "extremum", "unshared-factory", "opaque-factory")


def per_instance_setup(kind: str, queries: list[Query]) -> tuple[list[Query], dict]:
    """``(queries, StreamingExecutor options)`` putting the workload — for
    ``"extremum"``, one added MAX query on GRETA — on per-instance engines.
    The factories are lambdas on purpose: nothing a caller passes in may
    reach a snapshot's pickle."""
    if kind == "instances":
        return queries, {"shared_windows": False}
    if kind == "extremum":
        first = queries[0]
        extremum = Query.build(
            seq("A", kleene("B")),
            aggregate=max_of("B", "v"),
            group_by=first.group_by,
            window=first.window,
            name="per_instance_max",
        )
        return [*queries, extremum], {}
    if kind == "unshared-factory":  # no shared-window flavour to lift
        return queries, {
            "engine_factory": lambda: HamletEngine(fast_predecessor_totals=False)
        }
    assert kind == "opaque-factory"  # its probe engine seeds the pool
    return queries, {"engine_factory": lambda: HamletEngine(), "shared_windows": False}


#: Seconds a process-spawning recovery test may take (they take ~1).
HARD_DEADLINE_SECONDS = 120.0


@pytest.fixture
def hard_deadline(request):
    """A driver that hangs on a dead worker must fail, not wedge the job:
    past the deadline every thread's traceback goes to pytest's own
    uncaptured stderr (the faulthandler plugin's descriptor) and the
    process exits."""
    try:
        from _pytest.faulthandler import fault_handler_stderr_fd_key

        stderr = request.config.stash[fault_handler_stderr_fd_key]
    except (ImportError, AttributeError, KeyError):  # another pytest: captured
        stderr = sys.__stderr__
    faulthandler.dump_traceback_later(HARD_DEADLINE_SECONDS, file=stderr, exit=True)
    yield
    faulthandler.cancel_dump_traceback_later()


@pytest.fixture
def ab_query() -> Query:
    """The paper's running example q1: ``SEQ(A, B+)`` counting trends."""
    return Query.build(
        seq("A", kleene("B")),
        aggregate=count_trends(),
        window=Window(1000.0),
        name="q_ab",
    )


@pytest.fixture
def cb_query() -> Query:
    """The paper's running example q2: ``SEQ(C, B+)`` counting trends."""
    return Query.build(
        seq("C", kleene("B")),
        aggregate=count_trends(),
        window=Window(1000.0),
        name="q_cb",
    )


@pytest.fixture
def figure4_events() -> list[Event]:
    """The stream of Figure 4: a1, a2, c1 then b3, b4, b5, b6 (one pane).

    Timestamps keep the arrival order of the paper's example: the A/C events
    precede the burst of B events.
    """
    return make_events("A A C B B B B")


@pytest.fixture
def stream(figure4_events) -> EventStream:
    return EventStream(figure4_events, name="figure4")
