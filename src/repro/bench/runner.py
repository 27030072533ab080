"""Experiment runner: evaluate several engines over identical inputs.

Every figure of the paper compares approaches over the same stream and
workload while one parameter (events per minute, number of queries) is
swept.  :func:`run_comparison` runs one configuration for a set of engines
and converts each execution report into an :class:`ExperimentRow`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from repro.baselines.flat_sequences import FlatSequenceEngine
from repro.baselines.two_step import TwoStepEngine
from repro.bench.reporting import ExperimentRow
from repro.core.engine import HamletEngine
from repro.events.stream import EventStream
from repro.greta.engine import GretaEngine
from repro.interfaces import TrendAggregationEngine
from repro.optimizer.decisions import DynamicSharingOptimizer
from repro.optimizer.static import AlwaysShareOptimizer, NeverShareOptimizer
from repro.query.workload import Workload
from repro.runtime.executor import WorkloadExecutor


@dataclass(frozen=True)
class EngineSpec:
    """A named engine factory used by the comparison runner."""

    name: str
    factory: Callable[[], TrendAggregationEngine]


def default_engines(include_exponential: bool = True) -> tuple[EngineSpec, ...]:
    """The four approaches of Figures 9–10.

    ``include_exponential=False`` drops the two-step (MCEP-style) and
    SHARON-style baselines — the paper does the same in Figure 11 because
    they cannot keep up with higher rates.
    """
    engines = [
        EngineSpec("hamlet", lambda: HamletEngine(DynamicSharingOptimizer())),
        EngineSpec("greta", GretaEngine),
    ]
    if include_exponential:
        engines.append(EngineSpec("mcep-two-step", lambda: TwoStepEngine(max_events=4096)))
        engines.append(EngineSpec("sharon-flat", FlatSequenceEngine))
    return tuple(engines)


def dynamic_vs_static_engines() -> tuple[EngineSpec, ...]:
    """The two executors compared in Figures 12–13."""
    return (
        EngineSpec("hamlet-dynamic", lambda: HamletEngine(DynamicSharingOptimizer())),
        EngineSpec("hamlet-static", lambda: HamletEngine(AlwaysShareOptimizer())),
        EngineSpec("hamlet-non-shared", lambda: HamletEngine(NeverShareOptimizer())),
    )


def run_comparison(
    experiment: str,
    parameter: str,
    value: float,
    workload: Workload,
    stream: EventStream,
    engines: Sequence[EngineSpec],
) -> list[ExperimentRow]:
    """Run every engine over the same workload and stream.

    Returns one row per engine carrying latency, throughput and memory, plus
    optimizer statistics (shared-burst fraction, snapshot counts) for HAMLET
    configurations.
    """
    rows: list[ExperimentRow] = []
    for spec in engines:
        executor = WorkloadExecutor(workload, spec.factory)
        report = executor.run(stream)
        extra: dict = {
            "partitions": report.metrics.partitions,
            "operations": report.metrics.operations,
        }
        if report.optimizer_statistics is not None:
            stats = report.optimizer_statistics
            extra.update(
                {
                    "decisions": stats.decisions,
                    "shared_fraction": round(stats.shared_fraction, 3),
                    "decision_seconds": stats.decision_seconds,
                    "merges": stats.merges,
                    "splits": stats.splits,
                }
            )
        engine = executor._shared_engine
        if isinstance(engine, HamletEngine):
            extra["snapshots"] = engine.total_snapshots_created()
        rows.append(
            ExperimentRow(
                experiment=experiment,
                parameter=parameter,
                value=value,
                approach=spec.name,
                latency_seconds=report.metrics.average_latency,
                throughput_eps=report.metrics.throughput_engine,
                memory_units=report.metrics.peak_memory_units,
                extra=extra,
            )
        )
    return rows


def sweep(
    experiment: str,
    parameter: str,
    values: Iterable[float],
    build: Callable[[float], tuple[Workload, EventStream]],
    engines: Sequence[EngineSpec],
) -> list[ExperimentRow]:
    """Sweep a parameter, building the workload/stream per value."""
    rows: list[ExperimentRow] = []
    for value in values:
        workload, stream = build(value)
        rows.extend(run_comparison(experiment, parameter, value, workload, stream, engines))
    return rows
