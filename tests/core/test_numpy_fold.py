"""The closed-form NumPy fold against the reference fold, at fold level.

No executor runs :class:`~repro.core.kernels_numpy.NumpyKernelBackend`;
the end-to-end harness probes its fold rate, and this file pins its
equivalence contract: bit-identical while every intermediate is an integer
below 2**53, relative ``1e-9`` on non-integer values (the closed form
reassociates the float sums), and the same entries created as the
reference fold.
"""

from __future__ import annotations

import random

import pytest

pytest.importorskip("numpy")

from repro.core.kernels import MutableAggregate, PythonKernelBackend  # noqa: E402
from repro.core.kernels_numpy import NumpyKernelBackend  # noqa: E402

REFERENCE = PythonKernelBackend()
CLOSED_FORM = NumpyKernelBackend()


def scalar_case(rng: random.Random, integers: bool):
    draw = (lambda: float(rng.randint(0, 9))) if integers else rng.random
    windows = range(rng.randint(1, 6))
    totals = {w: draw() for w in windows if rng.random() < 0.5}
    others = [{w: draw() for w in windows if rng.random() < 0.7} for _ in range(rng.randint(0, 2))]
    return list(windows), totals, others


def vector_case(rng: random.Random, integers: bool, dimension: int):
    draw = (lambda: float(rng.randint(0, 9))) if integers else rng.random

    def entry() -> MutableAggregate:
        value = MutableAggregate(dimension)
        value.count = draw()
        value.measures = [draw() for _ in range(dimension)]
        return value

    windows = range(rng.randint(1, 6))
    totals = {w: entry() for w in windows if rng.random() < 0.5}
    others = [{w: entry() for w in windows if rng.random() < 0.7} for _ in range(rng.randint(0, 2))]
    rows = [tuple(draw() for _ in range(dimension)) for _ in range(rng.randint(1, 9))]
    return list(windows), totals, others, rows


def with_self_loop(total_map: dict, others: list, self_loop: bool) -> tuple:
    return (total_map, *others) if self_loop else tuple(others)


def assert_close(ours: float, theirs: float, integers: bool) -> None:
    if integers:
        assert ours == theirs
    else:
        assert ours == pytest.approx(theirs, rel=1e-9)


@pytest.mark.parametrize("integers", (True, False))
@pytest.mark.parametrize("self_loop", (False, True))
def test_scalar_closed_form_meets_the_contract(integers, self_loop):
    for seed in range(60):
        rng = random.Random(seed)
        indices, totals, others = scalar_case(rng, integers)
        count = rng.randint(1, 20)
        ours, theirs = dict(totals), dict(totals)
        made = CLOSED_FORM.fold_scalar_run(
            ours, indices, with_self_loop(ours, others, self_loop), 1.0, count
        )
        expected = REFERENCE.fold_scalar_run(
            theirs, indices, with_self_loop(theirs, others, self_loop), 1.0, count
        )
        assert made == expected
        assert ours.keys() == theirs.keys()
        for index, value in theirs.items():
            assert_close(ours[index], value, integers)


@pytest.mark.parametrize("integers", (True, False))
@pytest.mark.parametrize("self_loop", (False, True))
@pytest.mark.parametrize("dimension", (1, 3))
def test_vector_closed_form_meets_the_contract(integers, self_loop, dimension):
    for seed in range(60):
        rng = random.Random(seed)
        indices, totals, others, rows = vector_case(rng, integers, dimension)
        ours = {w: entry.copy() for w, entry in totals.items()}
        theirs = {w: entry.copy() for w, entry in totals.items()}
        made = CLOSED_FORM.fold_vector_run(
            ours, indices, with_self_loop(ours, others, self_loop), 0.0, rows, dimension
        )
        expected = REFERENCE.fold_vector_run(
            theirs, indices, with_self_loop(theirs, others, self_loop), 0.0, rows, dimension
        )
        assert made == expected
        assert ours.keys() == theirs.keys()
        for index, value in theirs.items():
            assert_close(ours[index].count, value.count, integers)
            for got, want in zip(ours[index].measures, value.measures):
                assert_close(got, want, integers)
