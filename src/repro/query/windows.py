"""Sliding window specifications (``WITHIN w SLIDE s``).

Windows are time based.  A window of size ``w`` sliding by ``s`` produces the
window instances ``[k*s, k*s + w)`` for ``k = 0, 1, 2, ...``.  Tumbling
windows are the special case ``s == w``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

from repro.errors import WindowError
from repro.events.time import Timestamp


def _finite(value: float) -> bool:
    """Whether ``value`` is a finite float (an int past the float range is not)."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


@dataclass(frozen=True)
class Window:
    """A sliding window specification.

    Attributes:
        size: Window length in seconds (``WITHIN``).
        slide: Slide interval in seconds (``SLIDE``); defaults to the size,
            i.e. a tumbling window.
    """

    size: float
    slide: float = 0.0

    def __post_init__(self) -> None:
        # NaN passes every ``<=`` test: check finiteness first, here rather
        # than mid-stream in the index arithmetic.
        if not _finite(self.size) or self.size <= 0:
            raise WindowError(f"window size must be positive and finite, got {self.size!r}")
        if self.slide == 0.0:
            object.__setattr__(self, "slide", self.size)
        if not _finite(self.slide) or self.slide <= 0:
            raise WindowError(f"window slide must be positive and finite, got {self.slide!r}")
        if self.slide > self.size:
            raise WindowError(
                f"window slide ({self.slide}) must not exceed the window size ({self.size})"
            )
        if not _finite(self.size / self.slide):
            raise WindowError(
                f"window size / slide overflows: {self.size!r} / {self.slide!r}"
            )

    @classmethod
    def minutes(cls, size: float, slide: float | None = None) -> "Window":
        """Construct a window whose size/slide are given in minutes."""
        return cls(size * 60.0, (slide * 60.0) if slide is not None else 0.0)

    @property
    def is_tumbling(self) -> bool:
        """True if consecutive window instances do not overlap."""
        return self.slide == self.size

    # ------------------------------------------------------------------ #
    # Window instance arithmetic
    # ------------------------------------------------------------------ #
    # Window instances are identified by their *integer index* ``k``: instance
    # ``k`` spans ``[k*slide, k*slide + size)``.  All membership arithmetic is
    # done on indices; ``k*slide`` floats are derived values for reporting
    # only.  Keying state by the index (not the float start) is what keeps
    # partitions of different execution units equal for fractional slides,
    # where ``k*slide`` accumulates rounding error (``3*0.1 != 0.3``).

    def _snap_tolerance(self, timestamp: float) -> float:
        """How far below the next integer an edge quotient of ``timestamp``
        still counts as that integer, from the operands' magnitude ``m =
        (timestamp + size) / slide``: four ulps of ``m`` (the rounding that
        ``timestamp - size`` and the division leave), or one part in 1e12
        of ``m`` (a time accumulated from decimal steps, ``clock += 0.03``)
        — but never more than 1e-9 of a slide.  Non-decreasing in
        ``timestamp``, so the snapped indices of sorted times are too."""
        magnitude = (timestamp + self.size) / self.slide
        return max(4.0 * math.ulp(magnitude), min(1e-12 * magnitude, 1e-9))

    def _floor_index(self, value: float, tolerance: float) -> int:
        """``floor(value / slide)``, snapped up at exact-multiple boundaries.

        Plain float division places ``0.3 / 0.1`` at ``2.9999...`` and would
        assign a boundary event to the previous instance; a quotient within
        ``tolerance`` (:meth:`_snap_tolerance`) of the next integer is
        treated as an exact multiple.  ``value`` may be negative (the lower
        window edge ``timestamp - size``), where the same snap applies —
        e.g. ``-7e-17`` counts as multiple 0.  The relative part is capped:
        uncapped, at Unix-epoch times (1e-12 of 8.5e8 is 1.7 ms at a 2 s
        slide) it moved events into a window that starts after them.
        """
        quotient = value / self.slide
        index = math.floor(quotient)
        if index + 1 - quotient <= tolerance:
            index += 1
        return index

    @property
    def instances_per_event(self) -> int:
        """``ceil(size / slide)`` — max window instances covering one event."""
        quotient = self.size / self.slide
        floor_q = math.floor(quotient)
        if math.isclose(floor_q, quotient, rel_tol=1e-12, abs_tol=1e-12):
            return int(floor_q)
        return int(floor_q) + 1

    @property
    def index_limit(self) -> float:
        """Times below this have covering-index quotients below 2**52, where
        a double holds every integer and its successor exactly (the
        compiled Cover walk's bound; it leaves later times to Python)."""
        return self.slide * 2.0**52

    def instance_indices_covering(self, timestamp: Timestamp) -> range:
        """Indices ``k`` of every window instance containing ``timestamp``.

        A timestamp belongs to instance ``k`` when
        ``k*slide <= timestamp < k*slide + size``; at most
        :attr:`instances_per_event` indices are returned.
        """
        first, last = self.covering_bounds(timestamp)
        return range(first, last + 1)

    def covering_bounds(self, timestamp: Timestamp) -> tuple[int, int]:
        """``(first, last)`` index of the instances containing ``timestamp``
        (``last < first`` when none does) — the per-event hot path's form of
        :meth:`instance_indices_covering`, with no ``range`` in between."""
        if timestamp < 0:
            raise WindowError(f"timestamp must be non-negative, got {timestamp!r}")
        # Covered iff k*slide > timestamp - size, i.e. strictly after the
        # boundary: an instance ending exactly at ``timestamp`` (half-open)
        # does not contain it.  Both edges go through the same snapped
        # division — a raw ``timestamp < size`` test here would disagree with
        # the snapped ``last`` for timestamps a few ulps below a boundary and
        # admit one extra, mutually-exclusive instance.
        tolerance = self._snap_tolerance(timestamp)
        first = self._floor_index(timestamp - self.size, tolerance) + 1
        return (first if first > 0 else 0), self._floor_index(timestamp, tolerance)

    def instance_range_columns(
        self, times: "Sequence[Timestamp]", start: int = 0, stop: int | None = None
    ) -> tuple[list[int], list[int]]:
        """Covering ranges for a whole time column: ``(lows, highs)``.

        ``times[start:stop]`` must be non-decreasing (the executors' arrival
        order, which they enforce separately).  For every position the pair
        ``(lows[i], highs[i])`` equals
        ``instance_indices_covering(t).start, .stop - 1`` — the same snapped
        floor division on both edges, inlined over the column (this is the
        block-ingest hot path; per-element equality with the scalar method
        is pinned by the window tests).
        """
        if stop is None:
            stop = len(times)
        slide = self.slide
        size = self.size
        floor = math.floor
        ulp = math.ulp
        lows: list[int] = []
        highs: list[int] = []
        lows_append = lows.append
        highs_append = highs.append
        # Monotone skip: for sorted times the snapped floor indices are
        # non-decreasing, so while the quotient stays a margin below the
        # previous index's next integer the previous index is provably
        # unchanged and the floor+snap work is skipped.  The margin,
        # ``2e-9`` plus sixteen ulps of ``|index| + 2 + 2 * size / slide``,
        # exceeds the snap tolerance of any time the skip can reach (at most
        # 1e-9 or eight ulps of that magnitude); whenever the margin is
        # crossed the full formula runs, so the results are bit-identical.
        reach = 2.0 + 2.0 * size / slide
        high = 0
        high_limit = -1.0  # quotients below this keep the previous high
        low = 0
        low_limit = float("-inf")
        for position in range(start, stop):
            timestamp = times[position]
            if timestamp < 0:
                raise WindowError(
                    f"timestamp must be non-negative, got {timestamp!r}"
                )
            quotient = timestamp / slide
            lower = (timestamp - size) / slide
            if quotient >= high_limit or lower >= low_limit:
                tolerance = self._snap_tolerance(timestamp)
                if quotient >= high_limit:
                    high = floor(quotient)
                    if high + 1 - quotient <= tolerance:
                        high += 1
                    high_limit = high + 1 - (2e-9 + 16.0 * ulp(high + reach))
                if lower >= low_limit:
                    low = floor(lower)
                    if low + 1 - lower <= tolerance:
                        low += 1
                    low_limit = low + 1 - (2e-9 + 16.0 * ulp(abs(low) + reach))
                    low += 1
                    if low < 0:
                        low = 0
            lows_append(low)
            highs_append(high)
        return lows, highs

    def instance_bounds(self, index: int) -> tuple[float, float]:
        """Return the ``(start, end)`` bounds of window instance ``index``."""
        start = index * self.slide
        return (start, start + self.size)

    def end_after(self, timestamp: Timestamp) -> float:
        """The smallest instance end strictly after ``timestamp``: the first
        covering instance's, or the one before it when ``timestamp`` was
        snapped onto that instance's end (not covered, yet before it)."""
        first = self.covering_bounds(timestamp)[0]
        if first and self.instance_bounds(first - 1)[1] > timestamp:
            return self.instance_bounds(first - 1)[1]
        return self.instance_bounds(first)[1]

    def instances_covering(self, timestamp: Timestamp) -> Iterator[tuple[float, float]]:
        """Yield ``(start, end)`` of every window instance containing ``timestamp``."""
        for index in self.instance_indices_covering(timestamp):
            yield self.instance_bounds(index)

    def overlaps(self, other: "Window") -> bool:
        """Return True if instances of this window can overlap instances of ``other``.

        Time-based sliding windows anchored at zero always overlap somewhere,
        so this is True for any pair of windows; the method exists to keep the
        Definition 5 check explicit and testable.
        """
        return True

    def describe(self) -> str:
        """Canonical textual form, e.g. ``WITHIN 600s SLIDE 300s``."""
        return f"WITHIN {self.size:g}s SLIDE {self.slide:g}s"

    def __repr__(self) -> str:
        return self.describe()
