"""The settle rule of the deferred Kleene fold, on its own.

``settle_kleene(prefix, total, steps)`` must be the iterated fold ``total +=
prefix + total`` (``steps`` times) bit for bit — by closed form where that is
exact (every intermediate an integer below 2**53), by iterating elsewhere.
Compared by ``float.hex()``: past 2**53 every add rounds and any other
association shows in the last bits.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.kernels import settle_kleene

LIMIT = 2**53


def iterated(prefix: float, total: float, steps: int) -> float:
    for _ in range(steps):
        total += prefix + total
    return total


def exact(prefix: int, total: int, steps: int) -> int:
    return total * 2**steps + prefix * (2**steps - 1)


def assert_same(prefix: float, total: float, steps: int) -> None:
    assert settle_kleene(prefix, total, steps).hex() == iterated(prefix, total, steps).hex()


@settings(deadline=None, derandomize=True, max_examples=600)
@given(
    prefix=st.integers(min_value=0, max_value=2**30),
    total=st.one_of(
        st.integers(min_value=0, max_value=2**30),
        st.integers(min_value=0, max_value=2**70),
    ),
    steps=st.integers(min_value=0, max_value=70),
)
def test_equals_the_iterated_fold_on_integer_valued_state(prefix, total, steps):
    assert_same(float(prefix), float(total), steps)
    if exact(prefix, total, steps) < LIMIT and steps <= 53:
        # The closed form's side of the guard: an exact integer.
        assert settle_kleene(float(prefix), float(total), steps) == exact(prefix, total, steps)


@pytest.mark.parametrize("steps", (1, 2, 7, 30, 52, 53))
@pytest.mark.parametrize("offset", (-3, -2, -1, 0, 1, 2, 3))
def test_results_around_two_to_the_53rd(steps, offset):
    # Solve ``total * 2**steps + prefix * (2**steps - 1) == 2**53 + offset``
    # for a small prefix: just below, at and just above the guard.
    target = LIMIT + offset
    for prefix in range(0, 4):
        rest = target - prefix * (2**steps - 1)
        if rest >= 0 and rest % 2**steps == 0:
            total = rest // 2**steps
            assert exact(prefix, total, steps) == target
            assert_same(float(prefix), float(total), steps)
            if target < LIMIT:
                assert settle_kleene(float(prefix), float(total), steps) == float(target)


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
def test_boundaries(prefix, total, steps):
    assert_same(prefix, total, steps)


def test_settling_in_parts_is_settling_at_once():
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
