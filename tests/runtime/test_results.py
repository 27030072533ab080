"""One compact row per closed window (``runtime/results.py``).

A closed window's row is a :class:`WindowValues` — the unit's shared
:class:`ResultLayout` plus one ``array('d')`` with one slot per distinct
value: per sharing class and aggregate, not per query.  Pinned here: the
layout's slot counts, the row as a faithful ``Mapping`` (equal to the dict
of its items, same order, same bits, one-to-one or many-to-one), one
layout per pickle dump, a fraction of a dict's bytes, ``on_window`` handed
the row a callback-less report keeps, ``report.totals`` bit-identical to a
running sum over the rows (1-3 shards, a retraction's rollback), the
class-slot invariant under split columns, and ``results_by_partition``
reporting only the partitions holding the query.
"""

from __future__ import annotations

import dataclasses
import gc
import pickle
import random
import struct
import tracemalloc
from array import array

import pytest

from repro.bench.workloads import kleene_sharing_workload, multi_aggregate_workload
from repro.core.kernels import MutableAggregate
from repro.events import Event
from repro.query import (
    Query,
    Window,
    avg,
    count_events,
    kleene,
    max_of,
    parse_pattern,
    seq,
    sum_of,
)
from repro.runtime import (
    MultiWindowLinearEngine,
    ResultLayout,
    StreamingExecutor,
    UnitCompilation,
    WindowValues,
    run_sharded,
    run_streaming,
    run_workload,
)
from repro.runtime.results import RunningTotals, WindowResult, window_row

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


#: Four names reading two slots: ``twin_*`` share their sibling's value.
MANY = ResultLayout(("cnt", "twin_cnt", "sum", "twin_sum"), (0, 0, 1, 1))


def test_many_to_one_row_is_the_mapping_of_its_names():
    row = WindowValues(MANY, array("d", [3.0, -0.0]))
    plain = {"cnt": 3.0, "twin_cnt": 3.0, "sum": -0.0, "twin_sum": -0.0}
    assert row == plain and plain == row and not (row != plain)
    assert row != {**plain, "twin_sum": 1.0} and row != {"cnt": 3.0, "sum": -0.0}
    assert dict(row) == plain and list(dict(row)) == list(plain)
    assert list(row) == list(MANY.names) and len(row) == len(row.values()) == 4
    assert list(row.items()) == list(plain.items())
    assert _bits(row.values()) == _bits(plain.values())
    assert row["twin_cnt"] == 3.0 and row.get("twin_sum") == 0.0 and row.get("x") is None
    assert "twin_sum" in row and "x" not in row and ("twin_cnt", 3.0) in row.items()
    assert len(row.slots) == 2
    # Equal to the one-to-one row of the same items, both ways, and not to
    # another many-to-one row whose names read other slots.
    identity = WindowValues(ResultLayout(MANY.names), array("d", plain.values()))
    assert row == identity and identity == row
    crossed = WindowValues(ResultLayout(MANY.names, (0, 1, 1, 0)), array("d", [3.0, -0.0]))
    assert row != crossed
    with pytest.raises(TypeError):
        row["cnt"] = 1.0  # type: ignore[index]  # read-only
    assert "twin_cnt" in repr(row) and "slot_of" not in repr(row)


# --------------------------------------------------------------------- #
# The layout: one slot per sharing class and aggregate
# --------------------------------------------------------------------- #
def test_rows_share_the_units_layout_and_no_dict_stays_in_the_report():
    report = run_streaming(_queries(), _events(4, 300))
    rows = report.partition_results
    assert rows and all(isinstance(row.results, WindowValues) for row in rows)
    assert not any(isinstance(row.results, dict) for row in rows)
    # One layout per execution unit, however many windows closed.
    layouts = {id(row.results.layout) for row in rows}
    assert len(layouts) == 4 < len(rows)


def test_compiled_layout_is_class_major_with_one_slot_per_class():
    window = Window(10.0)
    queries = [
        Query.build(seq("A", kleene("B")), window=window, name="first"),
        Query.build(seq("C", kleene("B")), window=window, name="second"),
        Query.build(seq("A", kleene("B")), window=window, name="third"),
    ]
    unit = UnitCompilation(queries, share_classes=True)
    assert unit.layout.names == ("first", "third", "second")
    assert unit.layout.slot_of == (0, 0, 1)
    assert unit.layout.index == {"first": 0, "third": 0, "second": 1}
    # GRETA's flavour shares no class: every query reads its own slot.
    assert UnitCompilation(queries, share_classes=False).layout.slot_of == (0, 1, 2)


def test_a_vector_class_gets_one_slot_per_distinct_projection():
    window = Window(10.0)
    pattern = lambda: seq("A", kleene("B"))  # noqa: E731
    queries = [
        Query.build(pattern(), aggregate=sum_of("B", "v"), window=window, name="sum"),
        Query.build(pattern(), window=window, name="cnt"),
        Query.build(pattern(), aggregate=sum_of("B", "v"), window=window, name="sum_twin"),
        Query.build(pattern(), aggregate=avg("B", "v"), window=window, name="avg"),
        Query.build(pattern(), aggregate=count_events("B"), window=window, name="events"),
        Query.build(pattern(), aggregate=sum_of("B", "w"), window=window, name="sum_w"),
        Query.build(seq("C", kleene("B")), window=window, name="other"),
        Query.build(pattern(), window=window, name="cnt_twin"),
    ]
    unit = UnitCompilation(queries, share_classes=True)
    assert [spec.index for spec in unit.classes] == [0, 1]
    assert unit.layout.names == (
        "sum", "cnt", "sum_twin", "avg", "events", "sum_w", "cnt_twin", "other"
    )
    assert unit.layout.slot_of == (0, 1, 0, 2, 3, 4, 1, 5)
    assert [len(spec.projections) for spec in unit.classes] == [5, 1]


@pytest.mark.parametrize(
    ("queries", "names", "slots"),
    (
        (lambda: kleene_sharing_workload(50, kleene_type="Travel", name="fig9"), 50, 19),
        (
            lambda: kleene_sharing_workload(
                10, kleene_type="Travel", prefix_types=("Surge", "Breakdown"), name="ingest"
            ),
            10,
            2,
        ),
        (
            lambda: multi_aggregate_workload(
                8, kleene_type="Travel", prefix_types=("Request", "Surge"), name="bursty"
            ),
            8,
            8,
        ),
    ),
    ids=("fig9", "ingest", "bursty"),
)
def test_slot_counts_of_the_benchmark_query_sets(queries, names, slots):
    layouts = [unit.layout for unit in StreamingExecutor(queries())._units]
    assert sum(len(layout.names) for layout in layouts) == names
    assert sum(len(set(layout.slot_of)) for layout in layouts) == slots
    for layout in layouts:
        assert sorted(set(layout.slot_of)) == list(range(len(set(layout.slot_of))))


# --------------------------------------------------------------------- #
# Pickling and bits
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("width", (50, 19))
def test_a_pickle_ships_a_shared_layout_once(width):
    names = tuple(f"wide_query_{index:02d}" for index in range(50))
    layout = ResultLayout(names, [index * width // 50 for index in range(50)])
    rows = [
        WindowValues(layout, array("d", [float(index + slot) for slot in range(width)]))
        for index in range(200)
    ]
    data = pickle.dumps(rows, protocol=pickle.HIGHEST_PROTOCOL)
    assert data.count(b"wide_query_07") == 1
    # 200 x 8 bytes per slot, plus small per-row framing.
    assert len(data) < 200 * (width * 8 + 64)
    loaded = pickle.loads(data)
    assert loaded == rows
    assert all(row.layout is loaded[0].layout for row in loaded)
    assert loaded[0].layout is not layout and loaded[0].layout.names == names
    assert loaded[0].layout.slot_of == layout.slot_of
    assert loaded[0].layout.index == layout.index
    assert [dict(row) for row in loaded] == [dict(row) for row in rows]


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
    # A slot read by two names comes back twice, bit for bit.
    shared = WindowValues(ResultLayout(("a", "b", "c"), (0, 1, 0)), array("d", values[-2:]))
    assert _bits(pickle.loads(pickle.dumps(shared)).values()) == _bits(
        [values[-2], values[-1], values[-2]]
    )


def test_a_row_built_through_the_slots_is_the_constructed_row():
    # window_row (how the Python closers make rows) against the frozen __init__:
    # equal, the same hash, the same pickle, and frozen all the same.
    values = WindowValues(ResultLayout(("a", "b")), array("d", [1.5, -0.0]))
    fields = (("g", 2.0), 4, 8.0, 18.0, values, 5, 0.25)
    built, constructed = window_row(*fields), WindowResult(*fields)
    assert type(built) is WindowResult and built == constructed
    assert not built.retraction
    assert pickle.dumps(built) == pickle.dumps(constructed)
    assert pickle.loads(pickle.dumps(built)) == constructed
    hashable = (*fields[:4], (1.5, -0.0), *fields[5:])
    assert hash(window_row(*hashable)) == hash(WindowResult(*hashable))
    with pytest.raises(dataclasses.FrozenInstanceError):
        built.events = 6  # type: ignore[misc]


def test_totals_key_by_names_across_distinct_layouts():
    """Rows unpickled from different dumps (shards) carry equal but
    distinct layouts; their sums still land on one name, in row order."""
    rng = random.Random(3)
    first = [_row([rng.random() for _ in NAMES]) for _ in range(20)]
    second = pickle.loads(pickle.dumps([_row([rng.random() for _ in NAMES]) for _ in range(20)]))
    assert first[0].layout is not second[0].layout
    many = [WindowValues(MANY, array("d", [rng.random(), rng.random()])) for _ in range(20)]
    many += pickle.loads(pickle.dumps(many[:7]))
    rows = [values for pair in zip(first, second) for values in pair]
    rows += many
    expected: dict[str, float] = {}
    for row in rows:
        for name, value in row.items():
            expected[name] = expected.get(name, 0.0) + value
    assert _hex(_fold(rows)) == _hex(expected)
    assert list(_fold(rows)) == [*NAMES, *MANY.names]
    zeros = [_row([-0.0, 0.0, -0.0])]
    assert _hex(_fold(zeros)) == {name: (0.0).hex() for name in NAMES}
    # A pickled fold resumes where it stopped: same sums, same bits.
    totals = RunningTotals()
    for row in rows[:25]:
        totals.add(row)
    resumed = pickle.loads(pickle.dumps(totals))
    for row in rows[25:]:
        resumed.add(row)
    assert _hex(resumed.totals()) == _hex(expected)


def _fold(rows) -> dict[str, float]:
    totals = RunningTotals()
    for row in rows:
        totals.add(row)
    return totals.totals()


# --------------------------------------------------------------------- #
# The streaming report
# --------------------------------------------------------------------- #
def _queries() -> list[Query]:
    """Four units: a scalar one with a two-member class, a vector one (SUM
    over float values and its twin), another window shape, and a
    per-instance MAX unit."""
    sliding, tumbling = Window(16.0, 4.0), Window(10.0)
    return [
        Query.build(seq("A", kleene("B")), group_by=("g",), window=sliding, name="cnt_ab"),
        Query.build(seq("C", kleene("B")), group_by=("g",), window=sliding, name="cnt_cb"),
        Query.build(seq("A", kleene("B")), group_by=("g",), window=sliding, name="cnt_ab_twin"),
        Query.build(
            seq("A", kleene("B")),
            aggregate=sum_of("B", "v"),
            group_by=("g",),
            window=tumbling,
            name="sum_ab",
        ),
        Query.build(
            seq("A", kleene("B")),
            aggregate=sum_of("B", "v"),
            group_by=("g",),
            window=tumbling,
            name="sum_ab_twin",
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


def test_on_window_is_handed_the_row_the_report_would_keep():
    emitted: list = []
    report = StreamingExecutor(_queries(), on_window=emitted.append).run(_events(5, 400))
    assert report.partition_results == []  # the callback is the one sink
    rows = run_streaming(_queries(), _events(5, 400)).partition_results
    assert len(emitted) == len(rows) > 20
    widths = set()
    for result, row in zip(emitted, rows):
        assert (result.group_key, result.window_index) == (row.group_key, row.window_index)
        assert isinstance(result.results, WindowValues)
        assert result.results.layout.names == row.results.layout.names
        assert result.results.layout.slot_of == row.results.layout.slot_of
        assert result.results.slots.tobytes() == row.results.slots.tobytes()
        widths.add((len(result.results), len(result.results.slots)))
    assert widths == {(3, 2), (2, 1), (1, 1)}  # two many-to-one units, two of one query
    # Read-only: a caller that needs to mutate takes a dict.
    with pytest.raises(TypeError):
        emitted[0].results["cnt_ab"] = 0.0
    copy = dict(emitted[0].results)
    copy.clear()
    assert len(rows[0].results) > 0


@pytest.mark.parametrize("shards", (1, 2, 3))
def test_totals_are_the_running_sum_of_the_rows_on_any_shard_count(shards):
    queries, events = _queries(), _events(6, 600)
    single = run_streaming(queries, events)
    assert _hex(single.totals) == _running_totals(single)
    assert single.totals["cnt_ab"] == single.totals["cnt_ab_twin"]
    assert single.totals["sum_ab"] == single.totals["sum_ab_twin"]
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


def test_a_reclose_that_changes_nothing_is_suppressed():
    window = Window(60.0, 30.0)
    queries = [
        Query.build(seq("A", kleene("B")), window=window, name=name) for name in ("rw", "rw_twin")
    ]
    events = [
        Event("A", 10.0, sequence=0),
        Event("B", 20.0, sequence=1),
        Event("B", 70.0, sequence=2),
        Event("B", 130.0, sequence=3),
        Event("A", 25.0, sequence=4),  # late but changes nothing in [0, 60)
        Event("B", 140.0, sequence=5),
    ]
    emitted: list = []
    report = run_streaming(
        queries, events, allowed_lateness=50.0, late_policy="retract", on_window=emitted.append
    )
    assert report.metrics.late_retracted == 1
    assert [r for r in emitted if r.retraction] == []
    closes = [(r.group_key, r.window_index) for r in emitted]
    assert len(closes) == len(set(closes))  # each window emitted once
    assert all(len(r.results.slots) == 1 < len(r.results) for r in emitted)


def test_report_bytes_per_closed_window_stay_compact():
    """A 50-query scalar unit of one sharing class: a closed window costs
    its row with one slot, not 50 (~325 B per window here against ~717 B
    with a slot per query and ~1.8 KB with a dict, CPython 3.11)."""
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
    # One slot + array + values row + WindowResult and its floats.
    assert released / windows < 400


# --------------------------------------------------------------------- #
# The class-slot invariant
# --------------------------------------------------------------------- #
def _slot_queries() -> list[Query]:
    """Three units: COUNT(*) twins in a plain and a trailing-NOT class; SUM
    twins with AVG and COUNT(E) in one vector class; three COUNT(*) members
    of one class on another window."""
    vector, scalar = Window(32.0, 8.0), Window(16.0, 4.0)
    queries = []
    for name, aggregate in (
        ("cnt", None),
        ("sum", sum_of("B", "v")),
        ("avg", avg("B", "v")),
        ("events", count_events("B")),
        ("cnt_twin", None),
        ("sum_twin", sum_of("B", "v")),
    ):
        extra = {} if aggregate is None else {"aggregate": aggregate}
        queries.append(
            Query.build(
                seq("A", kleene("B")), **extra, group_by=("g",), window=vector, name=f"v_{name}"
            )
        )
    for name in ("t_cnt", "t_twin"):
        queries.append(
            Query.build(
                parse_pattern("SEQ(C, B+, NOT X)"), group_by=("g",), window=vector, name=name
            )
        )
    for name in ("s_one", "s_two", "s_three"):
        queries.append(Query.build(seq("C", kleene("B")), group_by=("g",), window=scalar, name=name))
    return queries


def _bursty_events(seed: int, runs: int) -> list[Event]:
    """Same-type runs of varying length; small integers keep sums exact."""
    rng = random.Random(seed)
    events, clock = [], 0.0
    for _ in range(runs):
        kind, length = rng.choice("AABBBCX"), rng.randint(1, 9)
        clock += float(rng.randint(1, 4))
        for _ in range(length):
            payload = {"v": float(rng.randint(0, 6)), "g": float(rng.randint(1, 2))}
            events.append(Event(kind, clock, payload))
            clock += 1.0
    return events


def _cell_bits(value):
    if isinstance(value, MutableAggregate):
        return (value.count.hex(), tuple(measure.hex() for measure in value.measures))
    return None if value is None else value.hex()


@pytest.mark.parametrize("policy", ("dynamic", "never"))
def test_every_member_reads_its_class_slot_bit_for_bit(policy, monkeypatch):
    """Under split columns every member of a class still holds the
    canonical column's values bit for bit at each readout — so the slot its
    aggregate reads is what that member would read — and the rows equal a
    per-instance run that evaluates every query on its own."""
    checked: list[int] = []
    readout = MultiWindowLinearEngine.close_window

    def checking_readout(engine, index):
        for key, replicas in engine._columns.items():
            canonical = _cell_bits(engine._coefficients.window_map(key).get(index))
            for window_map in replicas:
                assert _cell_bits(window_map.get(index)) == canonical
            checked.append(1 + len(replicas))
        return readout(engine, index)

    monkeypatch.setattr(MultiWindowLinearEngine, "close_window", checking_readout)
    queries, events = _slot_queries(), _bursty_events(seed=21, runs=160)
    report = run_streaming(queries, events, optimizer=policy)
    assert max(checked) > 1  # split columns were read out
    assert report.optimizer_statistics.splits > 0 or policy == "never"  # never shared
    reference = run_streaming(queries, events, shared_windows=False)

    def by_name(result):
        return {
            ((row.group_key, row.window_index), name): value.hex()
            for row in result.partition_results
            for name, value in row.results.items()
        }

    assert by_name(report) == by_name(reference)
    assert _hex(report.totals) == _hex(reference.totals)
    twins = [("v_cnt", "v_cnt_twin"), ("v_sum", "v_sum_twin"), ("t_cnt", "t_twin")]
    assert all(report.totals[one] == report.totals[two] for one, two in twins)
    widths = {(len(row.results), len(row.results.slots)) for row in report.partition_results}
    assert widths == {(3, 1), (4, 2), (4, 3)}  # COUNT(*) x 2 classes; SUM twins, AVG, COUNT(E)


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
