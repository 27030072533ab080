"""``Window.instance_range_columns`` vs the scalar covering arithmetic.

The vectorized covering-range pass is the block-ingest hot path; its
monotone-skip optimization must be *invisible*: for any non-decreasing time
column, every ``(lows[i], highs[i])`` pair must equal the scalar
``instance_indices_covering`` range — including at exact-multiple
boundaries, a few ulps around them, and for fractional slides where the
float quotient accumulates error.
"""

from __future__ import annotations

import math
import random

import pytest

from repro.errors import WindowError
from repro.query import Window

WINDOWS = [
    Window(32.0),
    Window(32.0, 8.0),
    Window(16.0, 3.2),
    Window(0.3, 0.1),
    Window(10.0, 2.0),
    Window(1.0, 1.0),
    Window(7.0, 3.0),
]


def reference_ranges(window: Window, times):
    lows, highs = [], []
    for timestamp in times:
        covering = window.instance_indices_covering(timestamp)
        lows.append(covering.start)
        highs.append(covering.stop - 1)
    return lows, highs


@pytest.mark.parametrize("window", WINDOWS, ids=[w.describe() for w in WINDOWS])
@pytest.mark.parametrize("seed", range(5))
def test_matches_scalar_on_random_sorted_times(window, seed):
    rng = random.Random(seed)
    times = sorted(
        rng.uniform(0.0, 50.0 * window.slide) for _ in range(300)
    )
    assert window.instance_range_columns(times) == reference_ranges(window, times)


@pytest.mark.parametrize("window", WINDOWS, ids=[w.describe() for w in WINDOWS])
def test_matches_scalar_at_boundaries(window):
    # Exact multiples of the slide, and a few ulps around them: the scalar
    # path snaps quotients within 1e-12 of the next integer; the column pass
    # must snap the same values.
    times = []
    for k in range(0, 40):
        boundary = k * window.slide
        for value in (
            boundary,
            math.nextafter(boundary, math.inf),
            math.nextafter(boundary, -math.inf),
            boundary + window.slide / 2,
        ):
            if value >= 0:
                times.append(value)
    times.sort()
    assert window.instance_range_columns(times) == reference_ranges(window, times)


def test_matches_scalar_on_repeated_and_dense_times():
    window = Window(10.0, 2.0)
    times = [0.0, 0.0, 0.0, 1.999999999999, 2.0, 2.0, 2.0000000000001, 7.5, 7.5, 30.0]
    assert window.instance_range_columns(times) == reference_ranges(window, times)


def test_subrange_slicing():
    window = Window(10.0, 2.0)
    times = [float(i) for i in range(50)]
    lows, highs = window.instance_range_columns(times, 10, 20)
    ref_lows, ref_highs = reference_ranges(window, times[10:20])
    assert (lows, highs) == (ref_lows, ref_highs)


def test_large_time_jumps():
    # Jumps far beyond the previous covering range must recompute, not skip.
    window = Window(10.0, 2.0)
    times = [0.0, 1.0, 1000.0, 1000.5, 1e6, 1e6 + 3.0]
    assert window.instance_range_columns(times) == reference_ranges(window, times)


def test_negative_timestamp_raises():
    window = Window(10.0, 2.0)
    with pytest.raises(WindowError):
        window.instance_range_columns([-1.0])


# --------------------------------------------------------------------- #
# The snap rule's isclose-free fast path
# --------------------------------------------------------------------- #
SNAP_WINDOWS = [Window(1.0, 0.1), Window(0.9, 0.3), Window(1.0, 1 / 3), Window(7.0, 3.0)]


def isclose_floor_index(window: Window, value: float) -> int:
    """The snap rule as written before its fast path: always ``isclose``."""
    quotient = value / window.slide
    index = math.floor(quotient)
    if math.isclose(index + 1, quotient, rel_tol=1e-12, abs_tol=1e-12):
        index += 1
    return int(index)


def ulp_neighbours(value: float, steps: int = 4) -> list[float]:
    """``value`` and its ``steps`` float neighbours on either side."""
    out = [value]
    for direction in (math.inf, -math.inf):
        neighbour = value
        for _ in range(steps):
            neighbour = math.nextafter(neighbour, direction)
            out.append(neighbour)
    return out


def snap_probes(window: Window) -> list[float]:
    """Exact slide multiples and their +-1..4-ulp neighbours, both signs
    (``t - size`` is negative early on), at small times and near 1e9."""
    probes = []
    for base in (0, round(1e9 / window.slide)):
        for k in range(base - 40, base + 40):
            for boundary in (k * window.slide, k * window.slide - window.size):
                probes.extend(ulp_neighbours(boundary))
                probes.append(boundary + window.slide / 2)
    return probes


@pytest.mark.parametrize("window", SNAP_WINDOWS, ids=[w.describe() for w in SNAP_WINDOWS])
def test_floor_index_equals_the_isclose_reference(window):
    probes = snap_probes(window)
    assert [window._floor_index(v) for v in probes] == [
        isclose_floor_index(window, v) for v in probes
    ]
    snapped = sum(
        window._floor_index(v) != math.floor(v / window.slide) for v in probes
    )
    assert snapped  # the probes do reach the isclose branch


@pytest.mark.parametrize("window", SNAP_WINDOWS, ids=[w.describe() for w in SNAP_WINDOWS])
def test_covering_bounds_equal_the_range_columns(window):
    rng = random.Random(3)
    times = sorted(
        [v for v in snap_probes(window) if v >= 0]
        + [rng.uniform(0.0, 60.0 * window.slide) for _ in range(300)]
    )
    lows, highs = window.instance_range_columns(times)
    assert [window.covering_bounds(t) for t in times] == list(zip(lows, highs))
    with pytest.raises(WindowError):
        window.covering_bounds(-1.0)
