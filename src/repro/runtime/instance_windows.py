"""Per-instance window evaluation behind the multi-window engine contract.

Engines without a shared-window implementation (the baselines, GRETA on
MIN/MAX units, HAMLET with ``fast_predecessor_totals=False``) and the
``shared_windows=False`` semantics reference evaluate one
:class:`~repro.interfaces.TrendAggregationEngine` per ``(group key, window
instance)``.  :class:`InstanceWindowEngine` packs the live instances of one
``(group key, execution unit)`` pair behind
:class:`~repro.interfaces.MultiWindowEngine`, so the streaming executor
drives them through the same window lifecycle as a shared-window engine.
An instance opens lazily, on the first event it covers whose type is one
of the unit's opening types, as the shared-window engine arms a window.
"""

from __future__ import annotations

from array import array
from typing import Optional, Sequence

from repro.events.event import Event, EventType
from repro.interfaces import MultiWindowEngine, TrendAggregationEngine
from repro.query.query import Query
from repro.runtime.executor import EngineFactory
from repro.runtime.results import ResultLayout, WindowValues


class EnginePool:
    """The idle single-window engines of one execution unit.

    Shared by every group of the unit: a closed instance's engine restarts
    for whichever group opens a window next, keeping its compiled templates.
    """

    def __init__(self, build: EngineFactory) -> None:
        self.build = build
        self.idle: list[TrendAggregationEngine] = []
        #: Engines that exist: idle here, or serving a live window instance.
        self.created = 0

    def take(self) -> TrendAggregationEngine:
        if self.idle:
            return self.idle.pop()
        self.created += 1
        return self.build()

    def __getstate__(self) -> dict:
        # A snapshot ships engines, never what the caller passed in: the
        # factory may be a lambda, and the restoring executor has its own.
        return {key: value for key, value in self.__dict__.items() if key != "build"}


class InstanceWindowEngine(MultiWindowEngine):
    """One pooled single-window engine per live window instance of a group."""

    def __init__(
        self,
        queries: Sequence[Query],
        pool: EnginePool,
        opening_types: frozenset[EventType],
        layout: Optional[ResultLayout] = None,
    ) -> None:
        self.queries = queries
        self.pool = pool
        #: An instance opens on the first event of one of these types it
        #: covers: a unit's trend-start types, or every relevant type of a
        #: MIN/MAX unit (GRETA's extrema can come from start-less chains).
        self.opening_types = opening_types
        #: The unit's result names (the executor shares one per unit).
        self.layout = layout if layout is not None else ResultLayout(q.name for q in queries)
        self._live: dict[int, TrendAggregationEngine] = {}
        self._operations = 0
        self._read_out_units = 0

    def process(self, event: Event, lo: int, hi: int) -> None:
        live = self._live
        opens = event.event_type in self.opening_types
        for index in range(lo, hi + 1):
            engine = live.get(index)
            if engine is None:
                if not opens:
                    continue  # no trend can have started in it: inert here
                engine = live[index] = self.pool.take()
                engine.start(self.queries)
            engine.process(event)

    def close_window(self, index: int) -> WindowValues:
        engine = self._live.pop(index)
        results = engine.results()
        self._operations += engine.operations()
        # The readout can be where an instance's state peaks (the two-step
        # baseline materializes its trends there): the next sample sees it.
        self._read_out_units = max(self._read_out_units, engine.memory_units())
        engine.close()
        self.pool.idle.append(engine)
        names = self.layout.names
        return WindowValues(self.layout, array("d", [results[name] for name in names]))

    def memory_units(self) -> int:
        """The largest instance held since the previous call: live now, or
        read out in between.  Overlapping instances duplicate a shared
        suffix of events and the oldest one's state subsumes its younger
        overlaps — summing would multiply it by the overlap factor."""
        live = (engine.memory_units() for engine in self._live.values())
        units, self._read_out_units = max([self._read_out_units, *live]), 0
        return units

    def operations(self) -> int:
        return self._operations
