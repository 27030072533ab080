"""Tests of the e2e benchmark harness itself (collected by tier-1).

They run every workload at ``--scale tiny`` — the numbers mean nothing at
that size; what is pinned is the harness: every metric is reported, results
are checked against the reference and against each other, sabotage is
caught, a vanished probe target reads ``null`` instead of failing the run,
and the files later PRs may not edit import only the agreed product surface.
"""

from __future__ import annotations

import ast
import gc
import json
import subprocess
import sys
from pathlib import Path

import pytest

from e2e import layers, run, spans, workloads

HERE = Path(__file__).resolve().parent
REPO_ROOT = HERE.parents[1]
SECONDS = 0.2


@pytest.fixture(autouse=True)
def _unscrub(monkeypatch):
    """Runs scrub the environment: give the next test the settings back."""
    for variable in run.SCRUBBED_ENVIRONMENT:
        monkeypatch.setenv(variable, "python" if "BACKEND" in variable else "64")


@pytest.fixture(scope="module", autouse=True)
def _leave_the_collector_as_found():
    """Runs freeze the heap.  Thaw it and collect once when this module is
    done: until a full collection has recounted a thawed heap, full
    collections come often, and the timing tests that run next would pay."""
    yield
    gc.unfreeze()
    gc.collect()


@pytest.fixture(scope="module")
def tiny_outcomes():
    """Every workload once untraced and once traced, at the tiny scale."""
    outcomes = {}
    with pytest.MonkeyPatch.context() as patch:
        for variable in run.SCRUBBED_ENVIRONMENT:  # what run.main() does
            patch.delenv(variable, raising=False)
        for spec in workloads.SPECS:
            outcomes[spec.name] = (
                run.measure_end_to_end(spec, 7, SECONDS, "tiny"),
                run.measure_layers(spec, 7, SECONDS, "tiny", None),
            )
    return outcomes


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def test_every_metric_is_reported_with_a_unit(tiny_outcomes):
    for name, (untraced, traced) in tiny_outcomes.items():
        assert set(untraced["metrics"]) == {entry["name"] for entry in run.END_TO_END}
        for entry in run.END_TO_END:
            metric = untraced["metrics"][entry["name"]]
            assert metric["unit"] == entry["unit"]
            assert _is_number(metric["value"]) and metric["value"] > 0, (name, entry)
        assert list(traced["metrics"]) == [entry["name"] for entry in layers.PER_LAYER]
        for entry in layers.PER_LAYER:
            metric = traced["metrics"][entry["name"]]
            assert metric["unit"] == entry["unit"]
            assert _is_number(metric["value"]), (name, entry)


def test_no_operation_fails_and_nothing_leaks(tiny_outcomes):
    for name, outcomes in tiny_outcomes.items():
        for outcome in outcomes:
            assert outcome["correct"] and outcome["failed"] == 0, (name, outcome["detail"])
            assert outcome["attempted"] >= 1
            assert outcome["detail"]["environment"]["nproc"] >= 1
    assert run.leaked(set()) == []


def test_ingest_family_agrees_on_the_common_prefix(tiny_outcomes):
    family = [spec.name for spec in workloads.SPECS if spec.ingest_family]
    assert len(family) == 4
    digests = {
        outcome["detail"]["prefix_digest"]
        for name in family
        for outcome in tiny_outcomes[name]
    }
    assert len(digests) == 1 and digests != {0}


def test_layers_sum_to_the_traced_wall(tiny_outcomes):
    for name, (_, traced) in tiny_outcomes.items():
        metrics = {key: entry["value"] for key, entry in traced["metrics"].items()}
        total = metrics["harness.self_s"] + sum(
            metrics[f"{layer}.self_s"] for layer in layers.LAYERS
        )
        assert total == pytest.approx(metrics["trace.wall_s"], rel=0.02), name
        assert metrics["trace.overhead_ratio"] > 0
    bursty = tiny_outcomes["bursty-dynamic"][1]["metrics"]
    assert bursty["optimizer.decisions"]["value"] > 0
    for name in ("ingest", "fig9-50q", "ooo-paced", "ooo-scalar", "sharded-full"):
        assert tiny_outcomes[name][1]["metrics"]["optimizer.calls"]["value"] == 0
    paced = tiny_outcomes["ooo-paced"][1]["metrics"]
    assert paced["load.utilisation"]["value"] > 0
    sharded = tiny_outcomes["sharded-full"][1]["metrics"]
    assert sharded["runtime.sharding.spawn_s"]["value"] > 0
    assert sharded["worker.runtime.streaming.self_s"]["value"] > 0
    assert sharded["runtime.checkpoint.writes"]["value"] > 0


# ---------------------------------------------------------------------- #
# Sabotage: a wrong or missing result must show up as a failed operation
# ---------------------------------------------------------------------- #
class _FlipOneValue(workloads.Sink):
    def fold(self, latency, group_key, window_index, window_end, results):
        if group_key in self.checker._sampled and not getattr(self, "done", False):
            self.done = True
            results = dict(results)
            name = next(iter(results))
            results[name] = results[name] * 2.0 + 1.0
        super().fold(latency, group_key, window_index, window_end, results)


class _DropOneWindow(workloads.Sink):
    def fold(self, latency, group_key, window_index, window_end, results):
        if group_key in self.checker._sampled and not getattr(self, "done", False):
            self.done = True
            return
        super().fold(latency, group_key, window_index, window_end, results)


@pytest.mark.parametrize("sink_type", [_FlipOneValue, _DropOneWindow])
@pytest.mark.parametrize("workload", ["ingest", "sharded-full"])
def test_sabotage_is_counted_as_failed(sink_type, workload):
    inputs = workloads.build_inputs(workloads.SPEC_BY_NAME[workload], 7, "tiny")
    honest = workloads.Sink(workloads.Checker(inputs))
    sabotaged = sink_type(workloads.Checker(inputs))
    for sink in (honest, sabotaged):
        with run.checkpoint_dir(inputs.spec) as directory:
            workloads.run_pass(inputs, sink, checkpoint_dir=directory)
        sink.settle()
        sink.checker.close()
    assert honest.checker.failed == 0 and honest.checker.attempted > 0
    assert sabotaged.checker.failed == 1
    assert sabotaged.checker.digest != honest.checker.digest
    tally = run.Tally()
    tally.add(honest.checker)
    tally.add(sabotaged.checker)
    assert tally.failed >= 2  # the reference miss and the digest that no longer repeats


def test_results_compare_bit_exact_where_float_arithmetic_is_exact():
    import struct

    def same(ours, theirs, average=False):
        packed = [None if v is None else struct.pack(f"<{len(v)}d", *v) for v in (ours, theirs)]
        return workloads.same_values(*packed, [average] * len(ours))

    assert same([3.0, 0.0], [3.0, 0.0])
    assert not same([3.0], [4.0])
    assert not same([2.0**53], [2.0**53 - 1])
    assert not same([2.0**53 + 2], [2.0**53])
    # a COUNT or SUM inside the exact range is never "close enough"
    assert not same([3.0000000001], [3.0])
    assert not same([33.28038507840001], [33.280385078400016])
    # beyond 2**53 a trend count depends on the order of its additions
    assert same([9007203549708286.0], [9007203549708288.0])
    assert not same([9.0e15], [9.1e15])
    # an AVG is a quotient of two such sums
    assert same([33.28038507840001], [33.280385078400016], average=True)
    assert not same([33.28], [33.29], average=True)
    assert not same([1.0], None)
    assert not same([1.0], [1.0, 2.0])


def test_average_queries_are_the_only_inexact_small_values():
    bursty = workloads.build_inputs(workloads.SPEC_BY_NAME["bursty-dynamic"], 7, "tiny")
    assert len(bursty.averages) == 2
    assert not workloads.build_inputs(workloads.SPEC_BY_NAME["ingest"], 7, "tiny").averages


def test_cross_path_mismatch_is_counted_as_failed(monkeypatch):
    inputs = workloads.build_inputs(workloads.SPEC_BY_NAME["fig9-50q"], 7, "tiny")
    tally = run.Tally()
    run.warm_up(inputs, tally)
    assert (tally.attempted, tally.failed) == (1, 0)

    sinks = []

    class FlipOnTheOtherPath(workloads.Sink):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            sinks.append(self)

        def fold(self, latency, group_key, window_index, window_end, results):
            if len(sinks) == 2 and not getattr(self, "done", False):
                self.done = True
                results = {name: value + 1.0 for name, value in results.items()}
            super().fold(latency, group_key, window_index, window_end, results)

    monkeypatch.setattr(workloads, "Sink", FlipOnTheOtherPath)
    run.warm_up(inputs, tally)
    assert (tally.attempted, tally.failed) == (2, 1)
    assert "other ingest path" in tally.notes[0]


# ---------------------------------------------------------------------- #
# Probe robustness: a vanished symbol reads null, warns once, exits 0
# ---------------------------------------------------------------------- #
def test_a_vanished_probe_target_reads_null(monkeypatch, capsys, tmp_path):
    real = spans.resolve

    def without_reorder_buffer(dotted):
        if "ReorderBuffer" in dotted:
            raise LookupError(f"{dotted}: gone")
        return real(dotted)

    monkeypatch.setattr(spans, "resolve", without_reorder_buffer)
    monkeypatch.setattr(layers, "resolve", without_reorder_buffer)
    monkeypatch.setattr(spans, "_GONE", set())
    code = run.main(
        ["--workload", "ooo-scalar", "--seed", "7", "--seconds", str(SECONDS),
         "--trace", "1", "--scale", "tiny", "--spans-out", str(tmp_path / "spans.json")]
    )
    captured = capsys.readouterr()
    assert code == 0
    written = json.loads((tmp_path / "spans.json").read_text(encoding="utf-8"))
    assert written["layers"][0] == spans.ROOT and "runtime.reorder" in written["layers"]
    assert len(written["start"]) == len(written["end"]) == len(written["parent"]) > 1000
    result = json.loads(captured.out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    for name, metric in result["metrics"].items():
        if name.startswith("runtime.reorder."):
            assert metric["value"] is None, name
        else:
            assert metric["value"] is not None, name
    warnings = [line for line in captured.err.splitlines() if "runtime.reorder" in line]
    assert len(warnings) == 1


def test_a_vanished_trace_target_is_skipped():
    tracer = spans.Tracer()
    tracer.install([spans.Target("some.layer", "repro.runtime.reorder.NoSuchClass.push")])
    assert tracer.missing_layers == {"some.layer"}
    assert tracer.run(lambda: 41 + 1) == 42
    tracer.uninstall()
    assert layers.span_metrics(tracer, ("some.layer",)) == {
        "some.layer.self_s": None, "some.layer.calls": None, "some.layer.rows": None
    }


@pytest.mark.parametrize("profile", [[], ["--profile"]])
def test_one_layer_runs_alone(profile, capsys):
    code = layers.main(["query.windows", "--workload", "ingest", "--scale", "tiny", *profile])
    lines = capsys.readouterr().out.splitlines()
    assert code == 0
    name, value, unit = lines[-1].split()
    assert (name, unit) == ("query.windows.range_rows_s", "1/s") and float(value) > 0
    assert any("cumulative" in line for line in lines) == bool(profile)


def test_tracing_restores_the_product_classes():
    from repro.events import EventBlock
    from repro.events import columnar

    before = (EventBlock.__dict__["from_bytes"], columnar.decode_events, workloads.decode_events)
    tracer = spans.Tracer()
    tracer.install(layers.TARGETS)
    assert EventBlock.__dict__["from_bytes"] is not before[0]
    assert workloads.decode_events is not before[2]
    tracer.uninstall()
    after = (EventBlock.__dict__["from_bytes"], columnar.decode_events, workloads.decode_events)
    assert after == before and not tracer.missing_layers


# ---------------------------------------------------------------------- #
# The product surface the frozen files may import
# ---------------------------------------------------------------------- #
ALLOWED_IMPORTS = {
    ("repro", "Window"),
    ("repro.bench.workloads", "kleene_sharing_workload"),
    ("repro.bench.workloads", "multi_aggregate_workload"),
    ("repro.datasets", "BurstModel"),
    ("repro.datasets", "RidesharingGenerator"),
    ("repro.datasets", "StreamGenerator"),
    ("repro.events", "EventBlock"),
    ("repro.events.columnar", "decode_events"),
    ("repro.runtime", "ShardedStreamingExecutor"),
    ("repro.runtime", "StreamingExecutor"),
}
#: Names the untraced path must never mention: it measures product defaults.
FORBIDDEN_NAMES = {
    "kernel_backend", "transport", "slab_bytes", "EventBatch", "WorkloadExecutor",
    "run_workload", "engine_factory",
}


def test_untraced_path_imports_only_the_agreed_surface():
    imported = set()
    for path in (HERE / "run.py", HERE / "workloads.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    assert not alias.name.startswith("repro"), (path.name, alias.name)
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("repro"):
                imported |= {(node.module, alias.name) for alias in node.names}
            elif isinstance(node, ast.Name):
                assert node.id not in FORBIDDEN_NAMES, (path.name, node.id)
            elif isinstance(node, ast.Attribute):
                assert node.attr not in FORBIDDEN_NAMES, (path.name, node.attr)
            elif isinstance(node, ast.keyword):
                assert node.arg not in FORBIDDEN_NAMES, (path.name, node.arg)
    assert imported <= ALLOWED_IMPORTS
    assert imported  # the scan found the imports it is meant to police


# ---------------------------------------------------------------------- #
# BENCHMARK.json and the command-line contract
# ---------------------------------------------------------------------- #
def test_benchmark_json_mirrors_the_code():
    declared = json.loads((REPO_ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert set(declared) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert declared["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert declared["paths"] == ["benchmarks/e2e"]
    assert declared["end_to_end"] == run.END_TO_END
    assert declared["per_layer"] == layers.PER_LAYER
    assert declared["workloads"] == [
        {"name": spec.name, "why": spec.why} for spec in workloads.SPECS
    ]
    assert all(len(spec.why) <= 200 for spec in workloads.SPECS)
    runs = 4 + 22 * len(declared["workloads"])
    assert 1 <= declared["run_seconds"] <= 60
    # set-up x3 + warm-up + cross-path check + memory pass ride on top of
    # the measuring time: 8 s or less at these sizes on the reference box
    assert runs * (declared["run_seconds"] + 12) < 3420


def test_command_line_contract_in_a_fresh_process(tmp_path):
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", "ingest", "--seed", "11",
        "--seconds", str(SECONDS), "--trace", "0", "--scale", "tiny",
    ]
    done = subprocess.run(command, capture_output=True, text=True, cwd=tmp_path, timeout=120)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {entry["name"] for entry in run.END_TO_END}
    for metric in result["metrics"].values():
        assert set(metric) == {"value", "unit"}


def test_times_are_scaled_to_the_reference_machine_speed(monkeypatch):
    """A machine that runs the reference loop at half speed reports twice
    the clocked throughput and half the clocked times; memory is not scaled."""
    monkeypatch.setattr(
        run, "reference_loops", lambda: [2.0 * run.REFERENCE_LOOP_S] * run.LOOPS_PER_SAMPLE
    )
    outcome = run.measure_end_to_end(workloads.SPEC_BY_NAME["ingest"], 7, SECONDS, "tiny")
    clocked = outcome["detail"]["as_clocked"]
    metrics = {name: metric["value"] for name, metric in outcome["metrics"].items()}
    assert clocked["machine_slowdown"] == clocked["machine_slowdown_setup"] == 2.0
    assert metrics["throughput_eps"] == pytest.approx(2.0 * clocked["throughput_eps"])
    assert metrics["emit_latency_p50_ms"] == pytest.approx(clocked["emit_latency_p50_ms"] / 2.0)
    assert metrics["setup_s"] == pytest.approx(clocked["setup_s"] / 2.0)
    assert run.slowdown([1.0, 1.0], [1.0, 9.0]) == 1.0 / run.REFERENCE_LOOP_S  # one stalled loop


_LEAVES_NO_PROCESS = """
import sys
sys.path[:0] = {paths!r}
from e2e import run
arguments = ["--seed", "11", "--seconds", "{seconds}", "--trace", "1", "--scale", "tiny"]
assert run.main(["--workload", "{workload}"] + arguments) == 0
started = run.child_pids()
run.stop_children()
print()
print(len(started), len(run.child_pids()))
"""


@pytest.mark.parametrize("workload", ["ingest", "sharded-full"])
def test_a_run_ends_every_process_it_started(workload, tmp_path):
    """The traced run maps shared memory, which spawns multiprocessing's
    resource tracker; it and any worker must have ended before the run does."""
    script = _LEAVES_NO_PROCESS.format(
        paths=[str(REPO_ROOT / "src"), str(HERE.parent)], seconds=SECONDS, workload=workload
    )
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, cwd=tmp_path, timeout=120
    )
    assert done.returncode == 0, done.stderr
    started, left = map(int, done.stdout.split()[-2:])
    assert started >= 1 and left == 0


def _canned_child(values):
    """A ``run_child`` stand-in: the given setup_s per call, the rest fixed."""
    calls = iter(values)

    def child(workload, seed, seconds, trace, scale):
        metrics = {
            entry["name"]: {"value": 100.0, "unit": entry["unit"]} for entry in run.END_TO_END
        }
        metrics["throughput_eps"]["value"] = next(calls)
        return {"workload": workload, "correct": True, "attempted": 1, "failed": 0,
                "metrics": metrics, "detail": {}, "text": ""}

    return child


def test_selfcheck_compares_medians_against_the_bounds(monkeypatch, capsys):
    workload_count = len(workloads.SPECS)
    bound = run.END_TO_END[0]["bound"]
    assert run.END_TO_END[0]["name"] == "throughput_eps"
    steady = [1000.0] * workload_count + [1000.0 * (1 - bound / 2)] * workload_count
    monkeypatch.setattr(run, "run_child", _canned_child(steady))
    assert run.selfcheck(7, SECONDS, "tiny", 1) == 0
    slower = [1000.0] * workload_count + [1000.0 * (1 - bound * 1.2)] * workload_count
    monkeypatch.setattr(run, "run_child", _canned_child(slower))
    assert run.selfcheck(7, SECONDS, "tiny", 1) == 1
    summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert summary["misses"] == workload_count and summary["claim"] is None


def test_suite_summary_claims_nothing(monkeypatch, capsys, tmp_path, tiny_outcomes):
    def child(workload, seed, seconds, trace, scale):
        outcome = dict(tiny_outcomes[workload][trace])
        outcome["text"] = f"# {workload}"
        return outcome

    monkeypatch.setattr(run, "run_child", child)
    target = tmp_path / "LAYERS.md"
    assert run.run_suite(7, SECONDS, "tiny", str(target)) == 0
    table = target.read_text(encoding="utf-8")
    summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert summary["claim"] is None and summary["failed_share"] == 0
    assert len(summary["common_prefix_digest"]) == 1
    for spec in workloads.SPECS:
        assert f"## {spec.name}" in table
    assert table.count("Largest self time") == len(workloads.SPECS)
