"""One closed window's results as a compact, read-only row.

A streaming report keeps one row per closed window for the whole run, and
a unit's rows all name the same queries.  A :class:`ResultLayout` holds
those names once per execution unit (in the readout's class-major order)
with a ``name -> slot`` index; a :class:`WindowValues` row is the layout
plus one ``array('d')`` of slot values, so a closed window costs its
doubles, not a name table and a float object per query of its own.

:func:`window_totals` is the one place a report's per-query ``totals`` are
summed from its rows.
"""

from __future__ import annotations

from array import array
from collections.abc import ItemsView, Iterable, Iterator, Mapping, ValuesView
from functools import reduce
from operator import add
from typing import Any, Sequence


class ResultLayout:
    """The query names of one execution unit, in slot order."""

    __slots__ = ("names", "index")

    def __init__(self, names: Iterable[str]) -> None:
        self.names: tuple[str, ...] = tuple(names)
        self.index: dict[str, int] = {name: slot for slot, name in enumerate(self.names)}

    def __reduce__(self) -> tuple[object, ...]:
        # The index is derived; a pickle memoizes the layout, so rows
        # sharing one in a dump ship its names once.
        return (ResultLayout, (self.names,))

    def __repr__(self) -> str:
        return f"ResultLayout({self.names!r})"


class _Values(ValuesView):
    __slots__ = ()

    def __iter__(self) -> Iterator[float]:
        return iter(self._mapping.slots)


class _Items(ItemsView):
    __slots__ = ()

    def __iter__(self) -> Iterator[tuple[str, float]]:
        return zip(self._mapping.layout.names, self._mapping.slots)


class WindowValues(Mapping[str, float]):
    """``query name -> result`` of one closed window: a layout plus slots.

    A read-only :class:`~collections.abc.Mapping` — equal to the ``dict``
    it replaces, iterated in the same order — whose values are float64
    slots of one array, so the doubles come back bit for bit.
    """

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
        return len(self.slots)

    def values(self) -> _Values:
        return _Values(self)

    def items(self) -> _Items:
        return _Items(self)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, WindowValues) and other.layout.names == self.layout.names:
            return self.slots == other.slots
        return Mapping.__eq__(self, other)

    def __reduce__(self) -> tuple[object, ...]:
        return (_window_values, (self.layout, self.slots.tobytes()))

    def __repr__(self) -> str:
        return f"WindowValues({dict(self.items())!r})"


def _window_values(layout: ResultLayout, raw: bytes) -> WindowValues:
    """Unpickle a row: its slots travel as raw native-order doubles."""
    return WindowValues(layout, array("d", raw))


def window_totals(rows: Sequence[Any]) -> dict[str, float]:
    """Per-query sums of the rows' :class:`WindowValues`, in row order.

    Every name sees the same additions in the same order as a running
    ``totals[name] += value`` over the rows, so the sums are bit-identical
    to it.  Rows are bucketed by layout *names*: rows unpickled from
    different shards carry equal but distinct layouts.
    """
    columns: dict[tuple[str, ...], list[array]] = {}
    by_layout: dict[ResultLayout, list[array]] = {}
    for row in rows:
        values = row.results
        slots = by_layout.get(values.layout)
        if slots is None:
            slots = by_layout[values.layout] = columns.setdefault(values.layout.names, [])
        slots.append(values.slots)
    return {
        name: reduce(add, column, 0.0)
        for names, arrays in columns.items()
        for name, column in zip(names, zip(*arrays))
    }
