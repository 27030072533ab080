"""The settle rule of the deferred Kleene fold, on its own.

``settle_kleene(prefix, total, steps)`` must be the iterated fold ``total +=
prefix + total`` (``steps`` times) bit for bit — by closed form where that is
exact (every intermediate an integer below 2**53), by iterating elsewhere.
Compared by ``float.hex()``: past 2**53 every add rounds and any other
association shows in the last bits.

Every test runs on both implementations: the reference in
``repro.core.kernels`` and the compiled core's (``runtime/foldcore.py``),
which must also agree with each other bit for bit.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import kernels
from repro.runtime import foldcore

LIMIT = 2**53

SETTLES = (
    pytest.param(kernels.settle_kleene, id="reference"),
    pytest.param(
        getattr(foldcore.core, "settle_kleene", None),
        id="compiled",
        marks=pytest.mark.skipif(foldcore.core is None, reason=foldcore.reason),
    ),
)
each_settle = pytest.mark.parametrize("settle_kleene", SETTLES)


def iterated(prefix: float, total: float, steps: int) -> float:
    for _ in range(steps):
        total += prefix + total
    return total


def exact(prefix: int, total: int, steps: int) -> int:
    return total * 2**steps + prefix * (2**steps - 1)


def assert_same(settle_kleene, prefix: float, total: float, steps: int) -> None:
    expected = iterated(prefix, total, steps).hex()
    assert settle_kleene(prefix, total, steps).hex() == expected
    assert kernels.settle_kleene(prefix, total, steps).hex() == expected


@each_settle
@settings(deadline=None, derandomize=True, max_examples=600)
@given(
    prefix=st.integers(min_value=0, max_value=2**30),
    total=st.one_of(
        st.integers(min_value=0, max_value=2**30),
        st.integers(min_value=0, max_value=2**70),
    ),
    steps=st.integers(min_value=0, max_value=70),
)
def test_equals_the_iterated_fold_on_integer_valued_state(settle_kleene, prefix, total, steps):
    assert_same(settle_kleene, float(prefix), float(total), steps)
    if exact(prefix, total, steps) < LIMIT and steps <= 53:
        # The closed form's side of the guard: an exact integer.
        assert settle_kleene(float(prefix), float(total), steps) == exact(prefix, total, steps)


@each_settle
@pytest.mark.parametrize("steps", (1, 2, 7, 30, 52, 53))
@pytest.mark.parametrize("offset", (-3, -2, -1, 0, 1, 2, 3))
def test_results_around_two_to_the_53rd(settle_kleene, steps, offset):
    # Solve ``total * 2**steps + prefix * (2**steps - 1) == 2**53 + offset``
    # for a small prefix: just below, at and just above the guard.
    target = LIMIT + offset
    for prefix in range(0, 4):
        rest = target - prefix * (2**steps - 1)
        if rest >= 0 and rest % 2**steps == 0:
            total = rest // 2**steps
            assert exact(prefix, total, steps) == target
            assert_same(settle_kleene, float(prefix), float(total), steps)
            if target < LIMIT:
                assert settle_kleene(float(prefix), float(total), steps) == float(target)


@each_settle
@pytest.mark.parametrize(
    "prefix, total, steps",
    [
        (1.0, 0.0, 53),  # 2**53 - 1: the largest closed-form result
        (1.0, 1.0, 52),  # 2**53 - 1 again, from a non-zero total
        (0.0, 1.0, 53),  # exactly 2**53: iterates
        (1.0, 0.0, 54),  # one step past the power table
        (3.0, 5.0, 54),
        (1.0, 0.0, 1100),  # overflows to inf on the way
        (7.0, 2.0**53, 3),  # totals already past 2**53
        (7.0, 2.0**53 + 2.0, 9),
        (123456789.0, 2.0**60 + 2.0**9, 40),
        (1.0, 1.7e308, 2),
        (1.0, math.inf, 0),
        (1.0, math.inf, 5),
        (0.0, 0.0, 0),
        (0.0, 0.0, 60),
        (5.0, 0.0, 0),
    ],
)
def test_boundaries(settle_kleene, prefix, total, steps):
    assert_same(settle_kleene, prefix, total, steps)


@each_settle
@pytest.mark.parametrize("steps", (0, 1, 53, 54, 2_000))
@pytest.mark.parametrize(
    "total",
    (0.0, 1.0, 2.0**52, 2.0**53 - 1.0, 2.0**53, 2.0**53 + 2.0, 2.0**70, math.inf),
    ids=("zero", "one", "2^52", "2^53-1", "2^53", "2^53+2", "2^70", "inf"),
)
@pytest.mark.parametrize("prefix", (0.0, 1.0, 3.0, 2.0**40), ids=("zero", "one", "three", "2^40"))
def test_the_contract_grid(settle_kleene, prefix, total, steps):
    # Steps on both sides of the power table and far past it, totals
    # straddling the 2**53 guard, inf and a zero prefix: the same bits as
    # the iterated fold, from both implementations.
    assert_same(settle_kleene, prefix, total, steps)


@each_settle
def test_settling_in_parts_is_settling_at_once(settle_kleene):
    # A cell is settled whenever a reader comes by: any partition of the
    # owed steps must land on the same double, also across the guard.
    for prefix, total, parts in (
        (1.0, 0.0, (10, 20, 30)),
        (3.0, 11.0, (50, 1, 2, 3)),
        (2.0, 0.0, (53, 53)),
        (9.0, 2.0**52, (0, 1, 0, 70)),
    ):
        settled = total
        for steps in parts:
            settled = settle_kleene(prefix, settled, steps)
        assert settled.hex() == iterated(prefix, total, sum(parts)).hex()


@pytest.mark.skipif(foldcore.core is None, reason=foldcore.reason)
@settings(deadline=None, derandomize=True, max_examples=400)
@given(
    prefix=st.floats(min_value=0.0, max_value=1e6),
    total=st.floats(min_value=0.0, max_value=1e9),
    steps=st.integers(min_value=0, max_value=60),
)
def test_compiled_is_the_reference_on_any_doubles(prefix, total, steps):
    # Fractional values round inside the closed form itself: the compiled
    # core must round where the reference does (no fused multiply-add).
    compiled = foldcore.core.settle_kleene(prefix, total, steps)
    assert compiled.hex() == kernels.settle_kleene(prefix, total, steps).hex()
