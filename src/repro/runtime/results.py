"""One closed window's results as a compact, read-only row.

A streaming report keeps one row per closed window for the whole run, and
a unit's rows all name the same queries.  A :class:`ResultLayout` holds
those names once per execution unit (in the readout's class-major order)
and the *readout slot* each name reads; a :class:`WindowValues` row is the
layout plus one ``array('d')`` of slot values.  The layout is many-to-one:
members of a sharing class that compute the same aggregate are
computationally identical, so they read one slot (Definition 5: sharable
queries compute one value), and a closed window costs one double per
distinct value, not a name table and a float object per query.

:func:`window_totals` is the one place a report's per-query ``totals`` are
summed from its rows.
"""

from __future__ import annotations

from array import array
from collections.abc import ItemsView, Iterable, Iterator, Mapping, ValuesView
from functools import reduce
from operator import add
from typing import Any, Optional, Sequence


class ResultLayout:
    """The query names of one execution unit and the slot each one reads.

    ``slot_of[i]`` is the slot of ``names[i]``; ``None`` is the identity
    (one slot per name, what per-instance units use).
    """

    __slots__ = ("names", "slot_of", "index")

    def __init__(self, names: Iterable[str], slot_of: Optional[Iterable[int]] = None) -> None:
        self.names: tuple[str, ...] = tuple(names)
        self.slot_of: tuple[int, ...] = (
            tuple(range(len(self.names))) if slot_of is None else tuple(slot_of)
        )
        self.index: dict[str, int] = dict(zip(self.names, self.slot_of))

    def __reduce__(self) -> tuple[object, ...]:
        # The index is derived; a pickle memoizes the layout, so rows
        # sharing one in a dump ship its names once.
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
    """``query name -> result`` of one closed window: a layout plus slots.

    A read-only :class:`~collections.abc.Mapping` — equal to the ``dict``
    of its items, iterated in layout order — whose values are float64
    slots of one array, so the doubles come back bit for bit.  Names that
    share a slot read the same double.
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


def window_totals(rows: Sequence[Any]) -> dict[str, float]:
    """Per-query sums of the rows' :class:`WindowValues`, in row order.

    Sums per slot, then fans the sums out to the names reading them: every
    name sees the same additions in the same order as a running
    ``totals[name] += value`` over the rows, so the sums are bit-identical
    to it.  Rows are bucketed by ``(names, slot_of)``: rows unpickled from
    different shards carry equal but distinct layouts.
    """
    columns: dict[tuple, list[array]] = {}
    by_layout: dict[ResultLayout, list[array]] = {}
    for row in rows:
        values = row.results
        layout = values.layout
        slots = by_layout.get(layout)
        if slots is None:
            slots = by_layout[layout] = columns.setdefault((layout.names, layout.slot_of), [])
        slots.append(values.slots)
    totals: dict[str, float] = {}
    for (names, slot_of), arrays in columns.items():
        sums = [reduce(add, column, 0.0) for column in zip(*arrays)]
        totals.update(zip(names, map(sums.__getitem__, slot_of)))
    return totals
