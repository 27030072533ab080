"""Compiled-vs-reference differential for an int key column's group codes.

``EventBlock.group_codes`` of one ``array('q')`` column (a decoded frame's
int key column) is built in the fold core (``_foldcore.group_codes``) where
it is loaded; the Python function ``block.group_codes`` stays the reference,
and codes every other column (``array('d')``, lists, several attributes).
Both must give the same table — equal keys, in first-appearance order, each
a 1-tuple of an ``int`` — and the same ``array('I')`` codes.  Keys that
differ only in their high bits do not pile up in the core's table, and the
core leaks nothing.
"""

from __future__ import annotations

import gc
import time
import tracemalloc
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.events import Event
from repro.events.block import EventBlock, group_codes
from repro.events.event import GROUP_NAN
from repro.runtime import foldcore

needs_core = pytest.mark.skipif(foldcore.core is None, reason=foldcore.reason)

INTS = st.integers(min_value=-(2**63), max_value=2**63 - 1)
SMALL_INTS = st.integers(min_value=-3, max_value=3)


def assert_same_codes(column: array) -> None:
    got_table, got_codes = foldcore.core.group_codes(column)
    want_table, want_codes = group_codes(("g",), [column], len(column))
    assert type(got_table) is tuple and type(got_codes) is array
    assert got_codes.typecode == want_codes.typecode == "I"
    assert got_codes == want_codes
    assert got_table == want_table
    assert all(type(key) is tuple and len(key) == 1 and type(key[0]) is int for key in got_table)


@needs_core
@settings(deadline=None, derandomize=True, max_examples=300)
@given(values=st.lists(st.one_of(INTS, SMALL_INTS), max_size=200))
def test_int_key_columns_code_as_the_reference(values):
    assert_same_codes(array("q", values))


@needs_core
@pytest.mark.parametrize(
    "column",
    [
        array("q"),
        array("q", [2**53 + 1]),
        array("q", [2**53, 2**53 + 1, 2**53, -(2**63), 2**63 - 1]),
        array("q", range(1000)),  # the core's table grows past its first size
        array("q", [(key % 37) << 40 for key in range(5000)]),
    ],
    ids=lambda column: f"q{len(column)}-{column[-1] if column else ''}",
)
def test_edge_columns_code_as_the_reference(column):
    assert_same_codes(column)


def best_time(column: array) -> float:
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        foldcore.core.group_codes(column)
        best = min(best, time.perf_counter() - start)
    return best


@needs_core
@pytest.mark.parametrize("shift", [29, 32, 44])
def test_keys_apart_only_in_high_bits_spread_over_the_table(shift):
    # A hash that keeps a key's trailing zero bits sends every multiple of
    # 2**shift to one slot of a small table, and linear probing then makes
    # coding n distinct keys O(n**2): hundreds of times the spread keys' time.
    keys = 8000
    spread = array("q", range(-keys, keys))
    piled = array("q", [key << shift for key in range(-keys, keys)])
    assert_same_codes(piled)
    assert best_time(piled) < 10 * best_time(spread) + 0.002


@needs_core
def test_only_an_int_key_column_is_coded_in_the_core():
    rows = [
        Event("A", float(i), {"g": [0.0, -0.0, 2.5, float("nan")][i % 4], "n": i % 3})
        for i in range(40)
    ]
    block = EventBlock.from_bytes(EventBlock.from_events(rows).to_bytes())
    assert block.payload_column("g").typecode == "d"
    assert block.payload_column("n").typecode == "q"
    calls = []

    class Spy:
        def __getattr__(self, name):
            calls.append(name)
            return getattr(core, name)

    core = foldcore.core
    foldcore.core = Spy()
    try:
        floats = block.group_codes(("g",))
        assert calls == []
        ints = block.group_codes(("n",))
    finally:
        foldcore.core = core
    assert calls == ["group_codes"]
    assert floats[0] == ((0.0,), (2.5,), (GROUP_NAN,)) and floats[0][2][0] is GROUP_NAN
    assert list(floats[1]) == [0, 0, 1, 2] * 10
    assert ints[0] == ((0,), (1,), (2,))
    assert list(ints[1]) == [i % 3 for i in range(40)]


@needs_core
def test_group_codes_leak_nothing():
    columns = [array("q", [3, 1, 3, 2**62, -5] * 40), array("q", range(300)), array("q")]

    def loop():
        for column in columns:
            foldcore.core.group_codes(column)
        for bad in ([1, 2], array("I", [1]), array("d", [1.0])):
            try:
                foldcore.core.group_codes(bad)
            except TypeError:
                bad.append(1)  # (a buffer still exported would refuse to resize)
                bad.pop()
            else:
                raise AssertionError(bad)

    for _ in range(50):  # warm caches and free lists
        loop()
    gc.collect()
    tracemalloc.start()
    try:
        loop()
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(1000):
            loop()
        gc.collect()
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    # A leak of one object per loop would be tens of kilobytes.
    assert after - before < 8 * 1024, after - before
