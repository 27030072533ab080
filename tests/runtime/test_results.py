"""One compact row per closed window (``runtime/results.py``).

A streaming report keeps a :class:`WindowValues` per closed window — the
unit's shared :class:`ResultLayout` plus one ``array('d')`` — instead of a
``dict`` naming every query again.  Pinned here: the row is a faithful
``Mapping`` (equal to the dict it replaced, same order, same bits), it
pickles its layout once per dump, it costs a fraction of the dict's bytes,
callbacks still get plain dicts, ``report.totals`` is bit-identical to a
running sum over the rows (1-3 shards, a retraction's rollback) and
``results_by_partition`` reports only the partitions holding the query.
"""

from __future__ import annotations

import gc
import pickle
import random
import struct
import tracemalloc
from array import array

import pytest

from repro.events import Event
from repro.query import Query, Window, kleene, max_of, seq, sum_of
from repro.runtime import (
    ResultLayout,
    StreamingExecutor,
    WindowValues,
    run_sharded,
    run_streaming,
    run_workload,
)
from repro.runtime.results import window_totals

NAMES = ("q_a", "q_b", "q_c")


def _row(values, layout=None) -> WindowValues:
    return WindowValues(layout or ResultLayout(NAMES), array("d", values))


def _bits(values) -> bytes:
    values = list(values)
    return struct.pack(f"<{len(values)}d", *values)


# --------------------------------------------------------------------- #
# The row against the Mapping contract
# --------------------------------------------------------------------- #
def test_row_behaves_like_the_dict_it_replaces():
    plain = {"q_a": 1.0, "q_b": 2.5, "q_c": 0.0}
    row = _row(plain.values())
    assert row == plain and plain == row
    assert not (row != plain)
    assert row != {"q_a": 1.0, "q_b": 2.5, "q_c": 1.0}
    assert row != {"q_a": 1.0, "q_b": 2.5}
    assert row != [1.0, 2.5, 0.0]
    assert dict(row) == plain and type(dict(row)) is dict
    assert list(row) == list(row.keys()) == list(plain)
    assert list(row.items()) == list(plain.items())
    assert list(row.values()) == list(plain.values())
    assert len(row) == len(row.items()) == 3
    assert ("q_b", 2.5) in row.items() and 2.5 in row.values()
    assert "q_a" in row and "missing" not in row
    assert row["q_b"] == 2.5 and row.get("q_b") == 2.5
    assert row.get("missing") is None and row.get("missing", -1.0) == -1.0
    with pytest.raises(KeyError):
        row["missing"]
    with pytest.raises(TypeError):
        row["q_a"] = 3.0  # type: ignore[index]  # read-only
    with pytest.raises(TypeError):
        hash(row)
    # Same names under a distinct layout object (another shard's pickle).
    assert row == _row(plain.values(), ResultLayout(NAMES))
    # Same name set in another order: still equal, as dicts are.
    reordered = WindowValues(ResultLayout(("q_c", "q_a", "q_b")), array("d", [0.0, 1.0, 2.5]))
    assert row == reordered
    assert "q_b" in repr(row)


def test_rows_share_the_units_layout_and_no_dict_stays_in_the_report():
    report = run_streaming(_queries(), _events(4, 300))
    rows = report.partition_results
    assert rows and all(isinstance(row.results, WindowValues) for row in rows)
    assert not any(isinstance(row.results, dict) for row in rows)
    # One layout per execution unit, however many windows closed.
    layouts = {id(row.results.layout) for row in rows}
    assert len(layouts) == 4 < len(rows)


def test_compiled_layout_is_class_major():
    from repro.runtime import UnitCompilation

    window = Window(10.0)
    queries = [
        Query.build(seq("A", kleene("B")), window=window, name="first"),
        Query.build(seq("C", kleene("B")), window=window, name="second"),
        Query.build(seq("A", kleene("B")), window=window, name="third"),
    ]
    unit = UnitCompilation(queries, share_classes=True)
    assert unit.layout.names == ("first", "third", "second")
    assert unit.layout.index == {"first": 0, "third": 1, "second": 2}


# --------------------------------------------------------------------- #
# Pickling and bits
# --------------------------------------------------------------------- #
def test_a_pickle_ships_a_shared_layout_once():
    names = tuple(f"wide_query_{index:02d}" for index in range(50))
    layout = ResultLayout(names)
    rows = [
        WindowValues(layout, array("d", [float(index + slot) for slot in range(50)]))
        for index in range(200)
    ]
    data = pickle.dumps(rows, protocol=pickle.HIGHEST_PROTOCOL)
    assert data.count(b"wide_query_07") == 1
    # 200 x 400 bytes of doubles, plus small per-row framing.
    assert len(data) < 200 * (50 * 8 + 64)
    loaded = pickle.loads(data)
    assert loaded == rows
    assert all(row.layout is loaded[0].layout for row in loaded)
    assert loaded[0].layout is not layout and loaded[0].layout.names == names
    assert loaded[0].layout.index == layout.index


def test_doubles_come_back_bit_for_bit():
    payload_nan = struct.unpack("<d", b"\x01\x00\x00\x00\x00\x00\xf8\x7f")[0]
    values = [-0.0, float("nan"), float("inf"), float("-inf"), 5e-324, 1 / 3, payload_nan]
    names = tuple(f"v{index}" for index in range(len(values)))
    row = WindowValues(ResultLayout(names), array("d", values))
    expected = _bits(values)
    assert _bits(row.values()) == expected
    assert _bits(row[name] for name in names) == expected
    assert _bits(value for _, value in row.items()) == expected
    assert _bits(dict(row).values()) == expected
    restored = pickle.loads(pickle.dumps(row))
    assert _bits(restored.values()) == expected
    assert restored.layout.names == names


def test_totals_key_by_names_across_distinct_layouts():
    """Rows unpickled from different dumps (shards) carry equal but
    distinct layouts; their sums still land on one name, in row order."""
    rng = random.Random(3)
    first = [_row([rng.random() for _ in NAMES]) for _ in range(20)]
    second = pickle.loads(pickle.dumps([_row([rng.random() for _ in NAMES]) for _ in range(20)]))
    assert first[0].layout is not second[0].layout
    rows = [_Partition(values) for pair in zip(first, second) for values in pair]
    expected: dict[str, float] = {}
    for row in rows:
        for name, value in row.results.items():
            expected[name] = expected.get(name, 0.0) + value
    assert _hex(window_totals(rows)) == _hex(expected)
    zeros = [_Partition(_row([-0.0, 0.0, -0.0]))]
    assert _hex(window_totals(zeros)) == {name: (0.0).hex() for name in NAMES}


class _Partition:
    """The one attribute :func:`window_totals` reads of a report row."""

    __slots__ = ("results",)

    def __init__(self, results: WindowValues) -> None:
        self.results = results


# --------------------------------------------------------------------- #
# The streaming report
# --------------------------------------------------------------------- #
def _queries() -> list[Query]:
    """Four units: a scalar one, a vector one (SUM over float values),
    another window shape, and a per-instance MAX unit."""
    sliding, tumbling = Window(16.0, 4.0), Window(10.0)
    return [
        Query.build(seq("A", kleene("B")), group_by=("g",), window=sliding, name="cnt_ab"),
        Query.build(seq("C", kleene("B")), group_by=("g",), window=sliding, name="cnt_cb"),
        Query.build(
            seq("A", kleene("B")),
            aggregate=sum_of("B", "v"),
            group_by=("g",),
            window=tumbling,
            name="sum_ab",
        ),
        Query.build(
            seq("C", kleene("B")),
            aggregate=max_of("B", "v"),
            group_by=("g",),
            window=tumbling,
            name="max_cb",
        ),
        Query.build(seq("A", kleene("B")), group_by=("g",), window=Window(8.0), name="cnt_8"),
    ]


def _events(seed: int, size: int) -> list[Event]:
    rng = random.Random(seed)
    return [
        Event(
            rng.choices("ABC", weights=(1, 4, 1))[0],
            index * 0.25,
            {"v": rng.uniform(0.0, 3.0), "g": float(rng.randint(1, 4))},
        )
        for index in range(size)
    ]


def _hex(totals) -> dict[str, str]:
    return {name: float(value).hex() for name, value in totals.items()}


def _running_totals(report) -> dict[str, str]:
    """A running ``totals[name] += value`` over the rows, in row order."""
    totals: dict[str, float] = {}
    for row in report.partition_results:
        for name, value in row.results.items():
            totals[name] = totals.get(name, 0.0) + value
    return _hex(totals)


def test_every_emitted_result_equals_its_report_row():
    emitted: list = []
    report = StreamingExecutor(_queries(), on_window=emitted.append).run(_events(5, 400))
    rows = report.partition_results
    assert len(emitted) == len(rows) > 20
    for result, row in zip(emitted, rows):
        assert (result.group_key, result.window_index) == row.key
        assert type(result.results) is dict
        assert result.results == row.results
        assert list(result.results.items()) == list(row.results.items())
        assert _bits(result.results.values()) == _bits(row.results.values())
    # The callback owns its dict: mutating it leaves the report alone.
    before = dict(rows[0].results)
    emitted[0].results.clear()
    assert dict(rows[0].results) == before


@pytest.mark.parametrize("shards", (1, 2, 3))
def test_totals_are_the_running_sum_of_the_rows_on_any_shard_count(shards):
    queries, events = _queries(), _events(6, 600)
    single = run_streaming(queries, events)
    assert _hex(single.totals) == _running_totals(single)
    sharded = run_sharded(queries, events, workers=0, shards=shards)
    assert _hex(sharded.totals) == _running_totals(sharded) == _hex(single.totals)
    assert any(float(value).hex() != float(round(value)).hex() for value in single.totals.values())


def test_totals_survive_a_retraction_rollback():
    """``late_policy="retract"`` cuts the rows back to a snapshot's mark and
    re-closes them; the totals are summed from the final rows at finish —
    bit-identical to the ordered run's."""
    queries = _queries()
    ordered = _events(7, 500)
    arrivals = list(ordered)
    for index in range(37, 400, 37):
        arrivals.insert(index + 40, arrivals.pop(index))  # 10 time units late
    retracting = StreamingExecutor(queries, allowed_lateness=4.0, late_policy="retract")
    report = retracting.run(arrivals)
    assert report.metrics.late_retracted > 0
    assert _hex(report.totals) == _running_totals(report)
    assert _hex(report.totals) == _hex(run_streaming(queries, ordered).totals)


def test_report_bytes_per_closed_window_stay_compact():
    """A 50-query scalar unit: a closed window costs its row, one slot per
    query, not a 50-entry dict (~720 B per window here against ~1.8 KB
    with the dict, measured on CPython 3.11)."""
    window = Window(8.0, 4.0)
    queries = [
        Query.build(seq("A", kleene("B")), group_by=("g",), window=window, name=f"wide_{i:02d}")
        for i in range(50)
    ]
    rng = random.Random(11)
    events = [
        Event("AB"[rng.random() < 0.7], index * 0.5, {"g": float(rng.randint(1, 8))})
        for index in range(1_500)
    ]
    executor = StreamingExecutor(queries)
    gc.collect()
    tracemalloc.start()
    try:
        report = executor.run(events)
        windows = len(report.partition_results)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
        report.partition_results = []
        gc.collect()
        released = held - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert windows > 100
    # Slots (400 B) + array + row + PartitionResult and its floats.
    assert released / windows < 900


# --------------------------------------------------------------------- #
# ExecutionReport.results_by_partition
# --------------------------------------------------------------------- #
def _partition_workload():
    queries = [
        Query.build(seq("A", kleene("B")), window=Window(60.0), name="cnt"),
        Query.build(seq("C", kleene("D")), window=Window(30.0), name="other"),
        Query.build(seq("A", kleene("B")) | seq("C", kleene("D")), window=Window(60.0), name="sor_q"),
    ]
    stream = [Event("A", 0.0), Event("B", 1.0), Event("C", 2.0), Event("D", 3.0), Event("D", 4.0)]
    return queries, stream


def _assert_partitions(report):
    # Another unit's row under the same (group, window) key no longer
    # overwrites a query's value with 0.0 ...
    assert report.results_by_partition("cnt") == {((), 0): 1.0}
    assert report.results_by_partition("other") == {((), 0): report.result_for("other")}
    # ... and a decomposed OR query reports its recombined value.
    assert report.result_for("sor_q") == 4.0
    assert report.results_by_partition("sor_q") == {((), 0): 4.0}
    assert report.results_by_partition("absent") == {}


def test_results_by_partition_streaming():
    _assert_partitions(run_streaming(*_partition_workload()))


def test_results_by_partition_batch():
    _assert_partitions(run_workload(*_partition_workload()))


def test_results_by_partition_two_shard_driver(hard_deadline):
    queries, stream = _partition_workload()
    report = run_sharded(queries, stream, workers=2, batch_size=2)
    assert len(report.shards) == 2
    _assert_partitions(report)
    assert _running_totals(report).items() <= _hex(report.totals).items()
