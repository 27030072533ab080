"""Figure 11: HAMLET versus GRETA on the NYC-taxi and smart-home simulators.

Paper's shape: in the high-rate setting only the two online Kleene engines
run; HAMLET's shared execution keeps latency orders of magnitude below
GRETA's, and the gap widens as the arrival rate and the workload size grow.

The orderings are asserted on the seeded abstract operation counts
(``row.extra["operations"]``), the machine-independent cost behind the
latency and throughput columns; wall-clock latency and throughput are
printed only, since a loaded machine can shrink a millisecond-scale gap.
Memory units are deterministic and asserted as before.

Streaming scenarios: the simulators model live feeds consumed online in
one pass.  They generate in-order arrivals; unsorted real feeds run
through the same executors with ``allowed_lateness`` (the reorder buffer,
PR 10) and must match these ordered runs bit-identically within the
horizon — `tests/runtime/test_reorder.py` pins that differential.
"""

from __future__ import annotations

from conftest import metric_by_approach, print_rows, run_once

from repro.bench.fig11 import (
    figure11_nyc_events_sweep,
    figure11_queries_sweep,
    figure11_smart_home_events_sweep,
)

EVENT_VALUES = (500, 1000, 1500)
QUERY_VALUES = (10, 20, 30)


def operations_by_approach(rows, value) -> dict[str, int]:
    """``approach -> abstract operations`` for one swept-parameter value."""
    return {row.approach: row.extra["operations"] for row in rows if row.value == value}


def gap(rows, value) -> float:
    """How many times GRETA's operation count HAMLET's is."""
    operations = operations_by_approach(rows, value)
    return operations["greta"] / operations["hamlet"]


def test_fig11ace_nyc_latency_throughput_memory_vs_events(benchmark):
    rows = run_once(benchmark, lambda: figure11_nyc_events_sweep(EVENT_VALUES, num_queries=10))
    print_rows(rows)
    for value in EVENT_VALUES:
        operations = operations_by_approach(rows, value)
        memory = metric_by_approach(rows, value, "memory_units")
        assert operations["hamlet"] < operations["greta"]
        assert memory["hamlet"] < memory["greta"]
    # The gap grows with the arrival rate (~45x at 500 events/min, ~150x at 1500).
    gaps = [gap(rows, value) for value in EVENT_VALUES]
    assert gaps == sorted(gaps) and gaps[-1] > 2 * gaps[0]


def test_fig11bdf_smart_home_vs_events(benchmark):
    rows = run_once(
        benchmark, lambda: figure11_smart_home_events_sweep(EVENT_VALUES, num_queries=10)
    )
    print_rows(rows)
    for value in EVENT_VALUES:
        operations = operations_by_approach(rows, value)
        assert operations["hamlet"] < operations["greta"]


def test_fig11gh_nyc_vs_queries(benchmark):
    rows = run_once(
        benchmark, lambda: figure11_queries_sweep(QUERY_VALUES, events_per_minute=1000)
    )
    print_rows(rows, metrics=["latency_seconds", "throughput_eps"])
    for value in QUERY_VALUES:
        # Same events for both engines: fewer operations is the higher
        # throughput and the lower latency.
        operations = operations_by_approach(rows, value)
        assert operations["hamlet"] < operations["greta"]
    # The gap grows with the workload size too.
    assert gap(rows, QUERY_VALUES[-1]) > gap(rows, QUERY_VALUES[0])
