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
    # path snaps quotients within a few ulps of the next integer; the column pass
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
# The snap rule
# --------------------------------------------------------------------- #
SNAP_WINDOWS = [Window(1.0, 0.1), Window(0.9, 0.3), Window(1.0, 1 / 3), Window(7.0, 3.0)]


def snap_rule_bounds(window: Window, timestamp: float) -> tuple[int, int]:
    """The snap rule, written out: both edges' quotients snap up to the next
    integer within four ulps of ``m = (timestamp + size) / slide``, or one
    part in 1e12 of ``m`` but at most 1e-9."""
    magnitude = (timestamp + window.size) / window.slide
    tolerance = max(4 * math.ulp(magnitude), min(1e-12 * magnitude, 1e-9))

    def floor_index(value: float) -> int:
        quotient = value / window.slide
        index = math.floor(quotient)
        return index + 1 if index + 1 - quotient <= tolerance else index

    return max(floor_index(timestamp - window.size) + 1, 0), floor_index(timestamp)


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
def test_floor_index_equals_the_snap_rule_model(window):
    probes = [t for v in snap_probes(window) for t in (v, v + window.size) if t >= 0]
    assert [window.covering_bounds(t) for t in probes] == [
        snap_rule_bounds(window, t) for t in probes
    ]
    snapped = sum(
        window.covering_bounds(t)[1] != math.floor(t / window.slide) for t in probes
    )
    assert snapped  # the probes do reach the snap


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


# --------------------------------------------------------------------- #
# Unix-epoch times, and the fold core's twin of the arithmetic
# --------------------------------------------------------------------- #
#: An uncapped relative snap (1e-12 of the quotient: 1.7 ms at 8.5e8) moved these
#: events into a window that starts after them.
EPOCH_CASES = [
    (Window(10.0, 2.0), 1_700_000_001.999, (849_999_996, 850_000_000)),
    (Window(10_000.0, 2_000.0), 1.7e12 + 1_999.0, (849_999_996, 850_000_000)),
]


@pytest.mark.parametrize("window, timestamp, expected", EPOCH_CASES)
def test_epoch_times_land_in_the_windows_containing_them(window, timestamp, expected):
    assert window.covering_bounds(timestamp) == expected
    lows, highs = window.instance_range_columns([timestamp])
    assert (lows[0], highs[0]) == expected
    for index in range(expected[0], expected[1] + 1):
        start, end = window.instance_bounds(index)
        assert start <= timestamp < end
    assert window.instance_bounds(expected[1] + 1)[0] > timestamp


def epoch_probes(window: Window) -> list[float]:
    """Slide multiples near 1.7e9 seconds and 1.7e12 milliseconds, their
    +-4-ulp neighbours, and the two epoch cases."""
    probes = []
    for base in (1.7e9, 1.7e12):
        k = round(base / window.slide)
        for boundary in (k * window.slide, k * window.slide + window.size):
            probes.extend(ulp_neighbours(boundary))
            probes.append(boundary - 0.001)
    return sorted(probes + [case[1] for case in EPOCH_CASES])


@pytest.mark.parametrize("window", SNAP_WINDOWS + [case[0] for case in EPOCH_CASES],
                         ids=[w.describe() for w in SNAP_WINDOWS + [c[0] for c in EPOCH_CASES]])
def test_scalar_columns_and_compiled_ranges_agree(window):
    from repro.runtime import foldcore

    times = sorted(v for v in snap_probes(window) if v >= 0) + epoch_probes(window)
    times = [t for t in times if t < window.index_limit]
    scalar = [window.covering_bounds(t) for t in times]
    lows, highs = window.instance_range_columns(times)
    assert list(zip(lows, highs)) == scalar
    assert [snap_rule_bounds(window, t) for t in times] == scalar
    if foldcore.core is None:
        pytest.skip(foldcore.reason)
    assert compiled_ranges(window, times) == scalar


def compiled_ranges(window: Window, times) -> list[tuple[int, int]]:
    """The core's covering range of each row, as its Cover walk hands one
    group's rows over to the engine's ``process_block_run``."""
    from array import array

    from repro.runtime import cover, foldcore, streaming
    from repro.runtime.close import CloseStage
    from repro.runtime.metrics import ExecutionMetrics

    handed: list[tuple[int, int]] = []

    class Engine:
        def process_block_run(self, types, times, sequences, lows, highs, rows, views):
            handed.extend(zip(lows, highs))
            return True

    group = streaming._Group(engine=Engine(), evicts=False, sort_key=(), metas={0: None})
    zeros = array("q", bytes(8 * len(times)))
    stage = CloseStage.__new__(CloseStage)
    stage.rebuild(math.inf, 1, 0)
    walker = foldcore.core.Walk(
        list(times), list(range(len(times))), zeros, ("A",), 0, len(times), ((0,),), 0.0, 1,
        stage, ExecutionMetrics(), streaming._WindowMeta,
    )
    try:
        # One group, armed past every range and not qualifying: every row is
        # fed without a handback; no cursor: the run goes to the engine.
        walker.attach(
            0, None, {}, ((),), zeros, [group], array("q", [2**62]), bytes(1), None, None, None,
            window.size, window.slide, array("q"),
        )
        assert walker.run(0, -1)[:2] == (len(times), cover.DONE)
        walker.fold()
    finally:
        walker.close()
    return handed
