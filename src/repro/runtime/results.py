"""Closed windows' results as compact, read-only rows, and the run's totals.

A :class:`ResultLayout` holds an execution unit's query names once (in the
readout's class-major order) and the *readout slot* each name reads; a
:class:`WindowValues` row is the layout plus one ``array('d')``: members of
a sharing class computing the same aggregate are identical (Definition 5)
and read one slot, one double per distinct value.  A closed window is one
:class:`WindowResult`, the one row type of every sink, which
:class:`RunningTotals` folds into the ``totals`` as it is emitted.
"""

from __future__ import annotations

from array import array
from collections.abc import ItemsView, Iterable, Iterator, Mapping, ValuesView
from dataclasses import dataclass
from operator import attrgetter
from typing import Optional


class ResultLayout:
    """The query names of one execution unit and the slot each one reads:
    ``slot_of[i]`` is ``names[i]``'s (``None``: one slot per name)."""

    __slots__ = ("names", "slot_of", "index")

    def __init__(self, names: Iterable[str], slot_of: Optional[Iterable[int]] = None) -> None:
        self.names: tuple[str, ...] = tuple(names)
        self.slot_of = tuple(range(len(self.names)) if slot_of is None else slot_of)
        self.index: dict[str, int] = dict(zip(self.names, self.slot_of))

    def __reduce__(self) -> tuple[object, ...]:
        # The index is derived; a dump memoizes the layout (names ship once).
        return (ResultLayout, (self.names, self.slot_of))

    def __repr__(self) -> str:
        return f"ResultLayout({self.names!r}, {self.slot_of!r})"


class _Values(ValuesView):
    __slots__ = ()

    def __iter__(self) -> Iterator[float]:
        row = self._mapping
        return map(row.slots.__getitem__, row.layout.slot_of)


class _Items(ItemsView):
    __slots__ = ()

    def __iter__(self) -> Iterator[tuple[str, float]]:
        row = self._mapping
        return zip(row.layout.names, map(row.slots.__getitem__, row.layout.slot_of))


class WindowValues(Mapping[str, float]):
    """``query name -> result`` of one closed window: a layout plus slots —
    a read-only :class:`~collections.abc.Mapping`, equal to the ``dict`` of
    its items and iterated in layout order, whose float64 slots come back
    bit for bit.  Names that share a slot read the same double."""

    __slots__ = ("layout", "slots")

    def __init__(self, layout: ResultLayout, slots: array) -> None:
        self.layout = layout
        self.slots = slots

    def __getitem__(self, name: str) -> float:
        return self.slots[self.layout.index[name]]

    def __contains__(self, name: object) -> bool:
        return name in self.layout.index

    def __iter__(self) -> Iterator[str]:
        return iter(self.layout.names)

    def __len__(self) -> int:
        return len(self.layout.names)

    def values(self) -> _Values:
        return _Values(self)

    def items(self) -> _Items:
        return _Items(self)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, WindowValues) and _same_layout(self.layout, other.layout):
            return self.slots == other.slots
        return Mapping.__eq__(self, other)

    def __reduce__(self) -> tuple[object, ...]:
        return (_window_values, (self.layout, self.slots.tobytes()))

    def __repr__(self) -> str:
        return f"WindowValues({dict(self.items())!r})"


def _same_layout(first: ResultLayout, second: ResultLayout) -> bool:
    """Equal names reading equal slots (distinct objects across pickles)."""
    return first is second or (first.names == second.names and first.slot_of == second.slot_of)


def _window_values(layout: ResultLayout, raw: bytes) -> WindowValues:
    """Unpickle a row: its slots travel as raw native-order doubles."""
    return WindowValues(layout, array("d", raw))


class RunningTotals:
    """Per-query totals folded one emitted row at a time, per slot of each
    ``(names, slot_of)`` (equal layouts from different shards share one),
    from ``0.0`` in emission order: a running ``totals[name] += value``, bit
    for bit.  ``recombined``: decomposed OR/AND sums, a ``combine`` per key."""

    __slots__ = ("_sums", "_by_layout", "recombined")

    def __init__(self) -> None:
        self._sums: dict[tuple, array] = {}
        self._by_layout: dict[ResultLayout, array] = {}  # identity cache: tuple keys rehash
        self.recombined: dict[str, float] = {}

    def add(self, values: WindowValues) -> None:
        """Fold one emitted row's values into the sums, in place."""
        sums = self._by_layout.get(values.layout)
        if sums is None:
            sums = self.sums_of(values)
        for slot, value in enumerate(values.slots):
            sums[slot] += value

    def sums_of(self, values: WindowValues) -> array:
        """``values``' layout's sums, made at its first row (also by the core)."""
        layout = values.layout
        key, zeros = (layout.names, layout.slot_of), array("d", bytes(8 * len(values.slots)))
        sums = self._by_layout[layout] = self._sums.setdefault(key, zeros)
        return sums

    def add_recombined(self, name: str, value: float) -> None:
        """Fold one window's value of the decomposed query ``name``."""
        self.recombined[name] = self.recombined.get(name, 0.0) + value

    def totals(self) -> dict[str, float]:
        """``query name -> total``, in first-seen layout order."""
        totals: dict[str, float] = {}
        for (names, slot_of), sums in self._sums.items():
            totals.update(zip(names, map(sums.__getitem__, slot_of)))
        return totals


@dataclass(frozen=True, slots=True)
class WindowResult:
    """One closed window, emitted the moment the stream passes it: the one row
    type of every sink (no engine seconds: only the batch executor times any)."""

    group_key: tuple
    #: Integer window-instance index (instance spans ``[k*slide, k*slide+size)``).
    window_index: int
    window_start: float
    window_end: float
    #: Per query of the instance's unit (streaming: a :class:`WindowValues`).
    results: Mapping[str, float]
    #: Group events fed between the instance's opening and its close.
    events: int
    #: Wall-clock seconds from the arrival of the instance's last contributing
    #: event to the emission of this result (0.0 from the batch executor).
    emission_latency: float
    #: ``late_policy="retract"``: True when this row *replaces* its unit's
    #: earlier one for the window, whose value a late event changed.
    retraction: bool = False

    def __getstate__(self) -> tuple:  # slot by slot: shard reports and logs
        return _slot_values(self)

    def __setstate__(self, state: tuple) -> None:  # not the frozen __setattr__
        for set_slot, value in zip(_SET_SLOTS, state):
            set_slot(self, value)


_slot_values = attrgetter(*WindowResult.__slots__)
_SET_SLOTS = tuple(getattr(WindowResult, name).__set__ for name in WindowResult.__slots__)
_KEY, _INDEX, _START, _END, _RESULTS, _EVENTS, _LATENCY, _RETRACTION = _SET_SLOTS


def window_row(
    group_key: tuple, window_index: int, window_start: float, window_end: float,
    results: Mapping[str, float], events: int, emission_latency: float,
) -> WindowResult:
    """``WindowResult(...)`` built through its slots' ``__set__``, as
    ``__setstate__`` does: the frozen ``__init__``'s ``object.__setattr__``
    per field costs ~1.4 us a row, this ~0.9 (the rows Python closes build)."""
    row = object.__new__(WindowResult)
    _KEY(row, group_key)
    _INDEX(row, window_index)
    _START(row, window_start)
    _END(row, window_end)
    _RESULTS(row, results)
    _EVENTS(row, events)
    _LATENCY(row, emission_latency)
    _RETRACTION(row, False)
    return row
