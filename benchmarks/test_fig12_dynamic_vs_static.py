"""Figure 12: dynamic versus static sharing decisions on the stock stream.

Paper's shape: the dynamic optimizer shares roughly 90 % of the bursts,
creates about half as many snapshots as the static always-share plan and
achieves a 21–34 % latency / 27–52 % throughput improvement over it.

The assertions are on counts the seeded runs repeat exactly — snapshots,
shared-burst fraction, abstract operations — not on the printed wall-clock
columns: at 300-900 events a latency envelope measures the box's load
(ROADMAP items 3 and 9a).
"""

from __future__ import annotations

from conftest import print_rows, run_once

from repro.bench.fig12 import figure12_events_sweep, figure12_queries_sweep

EVENT_VALUES = (300, 600, 900)
QUERY_VALUES = (8, 16, 24)


def _by_approach(rows, value):
    return {row.approach: row for row in rows if row.value == value}


def _assert_dynamic_lands_between(rows, values):
    for value in values:
        per_approach = _by_approach(rows, value)
        dynamic = per_approach["hamlet-dynamic"]
        static = per_approach["hamlet-static"]
        never = per_approach["hamlet-non-shared"]
        # The dynamic optimizer never creates more snapshots than always-share,
        # shares some bursts but not all of them ...
        assert dynamic.extra["snapshots"] <= static.extra["snapshots"]
        assert 0.0 < dynamic.extra["shared_fraction"] < 1.0
        assert (static.extra["shared_fraction"], never.extra["shared_fraction"]) == (1.0, 0.0)
        # ... and does no more work than the better static plan (1 %: at 8
        # queries it trails always-share by 6 operations in 26,433).
        better = min(static.extra["operations"], never.extra["operations"])
        assert dynamic.extra["operations"] <= better * 1.01
        assert dynamic.memory_units <= min(static.memory_units, never.memory_units)


def test_fig12ac_latency_throughput_vs_events(benchmark):
    rows = run_once(benchmark, lambda: figure12_events_sweep(EVENT_VALUES, num_queries=12))
    print_rows(rows, metrics=["latency_seconds", "throughput_eps"])
    _assert_dynamic_lands_between(rows, EVENT_VALUES)


def test_fig12bd_latency_throughput_vs_queries(benchmark):
    rows = run_once(benchmark, lambda: figure12_queries_sweep(QUERY_VALUES, events_per_minute=600))
    print_rows(rows, metrics=["latency_seconds", "throughput_eps"])
    _assert_dynamic_lands_between(rows, QUERY_VALUES)
