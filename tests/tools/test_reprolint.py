"""Fixture-based tests for the reprolint invariant checker.

Every rule gets at least one *bad* fixture (a seeded violation the rule
must flag) and one *good* fixture (idiomatic code the rule must not
flag), plus suppression-comment handling, CLI exit codes, and a
self-check that the shipped ``src/repro`` tree is violation-free with
zero suppressions.

Scoped rules match against *package-relative* paths, so fixtures pass
relpaths shaped like the shipped tree (``repro/runtime/mod.py``).
"""

from __future__ import annotations

import ast
import textwrap
from pathlib import Path

import pytest

from reprolint import ALL_RULES, lint_paths, lint_source
from reprolint.cli import main
from reprolint.framework import normalize_relpath, parse_suppressions
from reprolint.rules.atomicity import AtomicCheckpointWriteRule
from reprolint.rules.blocks import EventConstructionRule
from reprolint.rules.determinism import NondeterminismRule, UnstableIdentityOrderingRule
from reprolint.rules.exceptions import ExceptionDisciplineRule
from reprolint.rules.imports import NumpyImportRule
from reprolint.rules.ordering import RawOrderComparisonRule
from reprolint.rules.process import ProcessBoundaryCallableRule
from reprolint.rules.resources import SharedMemoryUnlinkRule
from reprolint.rules.slots import SlotsRule
from reprolint.rules.windows import FloatWindowIndexRule

REPO_ROOT = Path(__file__).resolve().parents[2]


def run_rule(rule, source: str, relpath: str):
    """Lint dedented ``source`` at ``relpath`` with a single rule."""
    return lint_source(textwrap.dedent(source), relpath, rules=[rule])


def rule_ids(violations) -> list[str]:
    return [violation.rule_id for violation in violations]


# --------------------------------------------------------------------- #
# RL001 — hash()/id()/repr-keyed ordering on routing/merge paths
# --------------------------------------------------------------------- #
class TestRL001:
    RULE = UnstableIdentityOrderingRule()

    def test_bad_hash_and_id_routing(self):
        bad = """
            def route(key, shards):
                return hash(key) % shards

            def owner(obj):
                return id(obj)
            """
        violations = run_rule(self.RULE, bad, "repro/runtime/router.py")
        assert rule_ids(violations) == ["RL001", "RL001"]
        assert "stable_shard_hash" in violations[0].message

    def test_bad_repr_keyed_sorts(self):
        bad = """
            def merge(units, groups):
                ordered = sorted(units.items(), key=lambda item: repr(item[0]))
                groups.sort(key=str)
                top = max(groups, key=lambda g: str(g))
                return ordered, top
            """
        violations = run_rule(self.RULE, bad, "repro/runtime/merge.py")
        assert rule_ids(violations) == ["RL001", "RL001", "RL001"]

    def test_good_typed_sort_key(self):
        good = """
            def merge(units):
                return sorted(units.items(), key=lambda item: item[0])

            def order(groups):
                groups.sort(key=lambda g: (g.size, g.slide))
                return groups
            """
        assert run_rule(self.RULE, good, "repro/runtime/merge.py") == []

    def test_out_of_scope_path_not_flagged(self):
        bad = "value = hash('name')\n"
        assert run_rule(self.RULE, bad, "repro/datasets/synthetic.py") == []


# --------------------------------------------------------------------- #
# RL002 — float arithmetic on window-instance indices
# --------------------------------------------------------------------- #
class TestRL002:
    RULE = FloatWindowIndexRule()

    def test_bad_division_over_slide(self):
        bad = """
            def index_of(timestamp, window):
                return int(timestamp / window.slide)
            """
        violations = run_rule(self.RULE, bad, "repro/greta/graph.py")
        assert rule_ids(violations) == ["RL002"]
        assert "float" in violations[0].message

    def test_bad_division_inside_helper_call(self):
        bad = """
            def covering(window, timestamp):
                return window.instance_indices_covering(timestamp / 2.0)
            """
        violations = run_rule(self.RULE, bad, "repro/core/engine.py")
        assert rule_ids(violations) == ["RL002"]

    def test_good_integer_index_math(self):
        good = """
            def start_of(index, window):
                return index * window.slide

            def covering(window, timestamp):
                return window.instance_indices_covering(timestamp)
            """
        assert run_rule(self.RULE, good, "repro/core/engine.py") == []

    def test_windows_module_is_excluded(self):
        bad = """
            def _floor_index(self, timestamp):
                return int(timestamp / self.slide)
            """
        assert run_rule(self.RULE, bad, "repro/query/windows.py") == []


# --------------------------------------------------------------------- #
# RL003 — process-boundary callables must be importable
# --------------------------------------------------------------------- #
class TestRL003:
    RULE = ProcessBoundaryCallableRule()

    def test_bad_lambda_factory(self):
        bad = """
            def drive(workload, stream):
                return run_sharded(workload, stream, engine_factory=lambda: Engine())
            """
        violations = run_rule(self.RULE, bad, "repro/runtime/driver.py")
        assert rule_ids(violations) == ["RL003"]
        assert "lambda" in violations[0].message

    def test_bad_nested_function_factory(self):
        bad = """
            def drive(workload):
                def make_engine():
                    return Engine()
                return ShardedStreamingExecutor(workload, engine_factory=make_engine)
            """
        violations = run_rule(self.RULE, bad, "repro/runtime/driver.py")
        assert rule_ids(violations) == ["RL003"]
        assert "make_engine" in violations[0].message

    def test_bad_boundary_keyword_anywhere(self):
        bad = """
            def configure(runner):
                runner.setup(kernel_factory=lambda: make_kernel())
            """
        violations = run_rule(self.RULE, bad, "repro/bench/run.py")
        assert rule_ids(violations) == ["RL003"]

    def test_good_module_level_factory(self):
        good = """
            def make_engine():
                return Engine()

            def drive(workload, stream):
                return run_sharded(workload, stream, engine_factory=make_engine)
            """
        assert run_rule(self.RULE, good, "repro/runtime/driver.py") == []

    def test_good_non_boundary_lambda(self):
        good = """
            def wait(ring, deadline):
                return ring.acquire(on_stall=lambda: check_workers(deadline))
            """
        assert run_rule(self.RULE, good, "repro/runtime/sharding.py") == []


# --------------------------------------------------------------------- #
# RL004 — SharedMemory(create=True) needs an immediate unlink guard
# --------------------------------------------------------------------- #
class TestRL004:
    RULE = SharedMemoryUnlinkRule()

    def test_bad_statement_between_create_and_guard(self):
        # The PR 6 incident shape: Pipe() can raise between creation and
        # the finalize registration, leaking the segment.
        bad = """
            def open_ring(size):
                segment = SharedMemory(create=True, size=size)
                reader, writer = Pipe(duplex=False)
                guard = weakref.finalize(segment, segment.unlink)
                return segment, reader, writer, guard
            """
        violations = run_rule(self.RULE, bad, "repro/runtime/transport.py")
        assert rule_ids(violations) == ["RL004"]

    def test_bad_no_guard_at_all(self):
        bad = """
            def open_segment(size):
                return SharedMemory(create=True, size=size)
            """
        violations = run_rule(self.RULE, bad, "repro/runtime/transport.py")
        assert rule_ids(violations) == ["RL004"]

    def test_good_finalize_next_statement(self):
        good = """
            def open_ring(size):
                segment = SharedMemory(create=True, size=size)
                guard = weakref.finalize(segment, _unlink_quietly, segment)
                reader, writer = Pipe(duplex=False)
                return segment, guard, reader, writer
            """
        assert run_rule(self.RULE, good, "repro/runtime/transport.py") == []

    def test_good_try_finally_unlink(self):
        good = """
            def with_segment(size):
                try:
                    segment = SharedMemory(create=True, size=size)
                    return use(segment)
                finally:
                    _unlink_quietly(segment)
            """
        assert run_rule(self.RULE, good, "repro/runtime/transport.py") == []

    def test_good_attach_without_create(self):
        good = """
            def attach(name):
                return SharedMemory(name=name)
            """
        assert run_rule(self.RULE, good, "repro/runtime/transport.py") == []


# --------------------------------------------------------------------- #
# RL005 — numpy quarantined in core/kernels_numpy.py
# --------------------------------------------------------------------- #
class TestRL005:
    RULE = NumpyImportRule()

    def test_bad_top_level_import(self):
        bad = "import numpy as np\n"
        violations = run_rule(self.RULE, bad, "repro/core/engine.py")
        assert rule_ids(violations) == ["RL005"]

    def test_bad_import_probe_in_try(self):
        bad = """
            try:
                from numpy import ndarray
            except ImportError:
                ndarray = None
            """
        violations = run_rule(self.RULE, bad, "repro/runtime/transport.py")
        assert rule_ids(violations) == ["RL005"]

    def test_good_function_scoped_import(self):
        good = """
            def load_backend():
                import numpy
                return numpy
            """
        assert run_rule(self.RULE, good, "repro/core/kernels.py") == []

    def test_good_type_checking_gate(self):
        good = """
            from typing import TYPE_CHECKING

            if TYPE_CHECKING:
                import numpy
            """
        assert run_rule(self.RULE, good, "repro/core/kernels.py") == []

    def test_kernels_numpy_module_is_excluded(self):
        bad = "import numpy\n"
        assert run_rule(self.RULE, bad, "repro/core/kernels_numpy.py") == []


# --------------------------------------------------------------------- #
# RL006 — clocks, global RNG, set iteration on result paths
# --------------------------------------------------------------------- #
class TestRL006:
    RULE = NondeterminismRule()

    def test_bad_wall_clock_and_global_rng(self):
        bad = """
            def stamp(report):
                report.created = time.time()
                report.jitter = random.random()
                return report
            """
        violations = run_rule(self.RULE, bad, "repro/runtime/report.py")
        assert rule_ids(violations) == ["RL006", "RL006"]

    def test_bad_set_iteration(self):
        bad = """
            def merge_keys(left, right):
                out = []
                for key in set(left) | set(right):
                    out.append(key)
                return out

            def collect(keys):
                return [k for k in {normalize(k) for k in keys}]
            """
        violations = run_rule(self.RULE, bad, "repro/core/merge.py")
        # The for-loop iterates a BinOp of sets (not flagged — only the
        # direct set expression shape is), but the comprehension over a
        # SetComp is.
        assert "RL006" in rule_ids(violations)

    def test_bad_datetime_now(self):
        bad = """
            def label(run):
                return datetime.datetime.now().isoformat()
            """
        violations = run_rule(self.RULE, bad, "repro/greta/runs.py")
        assert rule_ids(violations) == ["RL006"]

    def test_good_seeded_rng_and_monotonic_clock(self):
        good = """
            def generate(seed):
                rng = random.Random(seed)
                return rng.random()

            def measure():
                return time.perf_counter()

            def ordered(keys):
                return list(dict.fromkeys(keys))
            """
        assert run_rule(self.RULE, good, "repro/runtime/report.py") == []

    def test_good_sorted_iteration(self):
        good = """
            def merge_keys(left, right):
                return sorted(set(left) | set(right))
            """
        assert run_rule(self.RULE, good, "repro/core/merge.py") == []

    def test_out_of_scope_bench_timing_allowed(self):
        good = "started = time.time()\n"
        assert run_rule(self.RULE, good, "repro/bench/harness.py") == []


# --------------------------------------------------------------------- #
# RL007 — __slots__ on per-event classes
# --------------------------------------------------------------------- #
class TestRL007:
    RULE = SlotsRule()

    def test_bad_plain_class_without_slots(self):
        bad = """
            class Event:
                def __init__(self, event_type, time):
                    self.event_type = event_type
                    self.time = time
            """
        violations = run_rule(self.RULE, bad, "repro/events/event.py")
        assert rule_ids(violations) == ["RL007"]
        assert "__slots__" in violations[0].message

    def test_bad_dataclass_without_slots(self):
        bad = """
            @dataclass(frozen=True)
            class Snapshot:
                value: float
            """
        violations = run_rule(self.RULE, bad, "repro/core/snapshot.py")
        assert rule_ids(violations) == ["RL007"]
        assert "slots=True" in violations[0].message

    def test_good_slotted_variants(self):
        good = """
            class EventStream:
                __slots__ = ("name", "_events")

            @dataclass(frozen=True, slots=True)
            class Event:
                time: float
            """
        assert run_rule(self.RULE, good, "repro/events/stream.py") == []

    def test_bad_window_result_row_without_slots(self):
        """A per-window report row regressing to an instance ``__dict__``."""
        bad = """
            class WindowValues(Mapping[str, float]):
                def __init__(self, layout, slots):
                    self.layout = layout
                    self.slots = slots
            """
        violations = run_rule(self.RULE, bad, "repro/runtime/results.py")
        assert rule_ids(violations) == ["RL007"]
        assert "WindowValues" in violations[0].message

    def test_good_slotted_window_result_row(self):
        good = """
            class ResultLayout:
                __slots__ = ("names", "index")

            class WindowValues(Mapping[str, float]):
                __slots__ = ("layout", "slots")

            class _Items(ItemsView):
                __slots__ = ()
            """
        assert run_rule(self.RULE, good, "repro/runtime/results.py") == []
        # The rest of runtime/ is out of this rule's scope.
        unslotted = "class Lateness:\n    pass\n"
        assert run_rule(self.RULE, unslotted, "repro/runtime/lateness.py") == []

    def test_exempt_bases(self):
        good = """
            class Kind(Enum):
                A = 1

            class StreamError(ReproError):
                pass

            class Sink(Protocol):
                def push(self, event): ...
            """
        assert run_rule(self.RULE, good, "repro/events/kinds.py") == []

    def test_out_of_scope_path_not_flagged(self):
        bad = """
            class PlanCache:
                pass
            """
        assert run_rule(self.RULE, bad, "repro/optimizer/cache.py") == []


# --------------------------------------------------------------------- #
# RL008 — exception discipline in worker loops
# --------------------------------------------------------------------- #
class TestRL008:
    RULE = ExceptionDisciplineRule()

    def test_bad_bare_except(self):
        bad = """
            def drain(queue):
                try:
                    return queue.get()
                except:
                    return None
            """
        violations = run_rule(self.RULE, bad, "repro/runtime/sharding.py")
        assert rule_ids(violations) == ["RL008"]

    def test_bad_swallowing_broad_handler(self):
        bad = """
            def cleanup(segment):
                try:
                    segment.close()
                except Exception:
                    pass
            """
        violations = run_rule(self.RULE, bad, "repro/runtime/transport.py")
        assert rule_ids(violations) == ["RL008"]

    def test_bad_worker_loop_not_reporting(self):
        bad = """
            def shard_worker(inbox, outbox):
                while True:
                    try:
                        outbox.put(process(inbox.get()))
                    except Exception:
                        outbox.put(None)
            """
        violations = run_rule(self.RULE, bad, "repro/runtime/sharding.py")
        assert rule_ids(violations) == ["RL008"]
        assert "worker" in violations[0].message

    def test_good_worker_ships_traceback(self):
        good = """
            def shard_worker(inbox, outbox):
                while True:
                    try:
                        outbox.put(process(inbox.get()))
                    except Exception:
                        outbox.put(("error", traceback.format_exc()))
                        break
            """
        assert run_rule(self.RULE, good, "repro/runtime/sharding.py") == []

    def test_good_narrow_best_effort_handler(self):
        good = """
            def cleanup(segment):
                try:
                    segment.unlink()
                except FileNotFoundError:
                    pass
            """
        assert run_rule(self.RULE, good, "repro/runtime/transport.py") == []

    def test_good_broad_handler_that_handles(self):
        good = """
            def attach(name):
                try:
                    return SharedMemory(name=name)
                except Exception as error:
                    raise ExecutionError(f"attach failed: {error}") from error
            """
        assert run_rule(self.RULE, good, "repro/runtime/transport.py") == []


# --------------------------------------------------------------------- #
# RL009 — atomic (write-temp + fsync + rename) checkpoint writes
# --------------------------------------------------------------------- #
class TestRL009:
    RULE = AtomicCheckpointWriteRule()

    def test_bad_in_place_open_write(self):
        bad = """
            def save(path, blob):
                with open(path, "wb") as handle:
                    handle.write(blob)
            """
        violations = run_rule(self.RULE, bad, "repro/runtime/checkpoint.py")
        assert rule_ids(violations) == ["RL009"]
        assert "os.replace" in violations[0].message

    def test_bad_pathlib_write_bytes(self):
        bad = """
            def save(path, blob):
                path.write_bytes(blob)
            """
        violations = run_rule(self.RULE, bad, "repro/runtime/checkpoint.py")
        assert rule_ids(violations) == ["RL009"]

    def test_bad_rename_without_fsync(self):
        bad = """
            import os

            def save(path, blob):
                temp = path + ".tmp"
                with open(temp, "wb") as handle:
                    handle.write(blob)
                os.replace(temp, path)
            """
        violations = run_rule(self.RULE, bad, "repro/runtime/checkpoint.py")
        assert rule_ids(violations) == ["RL009"]
        assert "os.fsync" in violations[0].message

    def test_good_write_temp_fsync_rename(self):
        good = """
            import os

            def save(path, blob):
                temp = path + ".tmp"
                with open(temp, "wb") as handle:
                    handle.write(blob)
                    handle.flush()
                    os.fsync(handle.fileno())
                os.replace(temp, path)
            """
        assert run_rule(self.RULE, good, "repro/runtime/checkpoint.py") == []

    def test_good_read_only_open(self):
        good = """
            def load(path):
                with open(path, "rb") as handle:
                    return handle.read()
            """
        assert run_rule(self.RULE, good, "repro/runtime/checkpoint.py") == []

    def test_good_log_writer_appends_in_place_with_fsync(self):
        """The second sanctioned shape: open-append + write + fsync, in
        the named output-log writer only (no rename: a torn append is an
        uncovered tail, not a torn checkpoint)."""
        good = """
            import os

            def _append_log(path, record):
                with open(path, "ab") as handle:
                    handle.write(record)
                    handle.flush()
                    os.fsync(handle.fileno())
            """
        assert run_rule(self.RULE, good, "repro/runtime/checkpoint.py") == []

    def test_bad_log_append_outside_the_named_writer(self):
        bad = """
            import os

            def append_record(path, record):
                with open(path, "ab") as handle:
                    handle.write(record)
                    handle.flush()
                    os.fsync(handle.fileno())
            """
        violations = run_rule(self.RULE, bad, "repro/runtime/checkpoint.py")
        assert rule_ids(violations) == ["RL009"]
        assert "_append_log" in violations[0].message

    def test_bad_log_writer_without_fsync_or_with_another_mode(self):
        unsynced = """
            def _append_log(path, record):
                with open(path, "ab") as handle:
                    handle.write(record)
            """
        violations = run_rule(self.RULE, unsynced, "repro/runtime/checkpoint.py")
        assert rule_ids(violations) == ["RL009"]
        assert "os.fsync" in violations[0].message
        assert "os.replace" not in violations[0].message.split("(")[0]
        rewriting = """
            import os

            def _append_log(path, record):
                with open(path, "r+b") as handle:
                    handle.write(record)
                    os.fsync(handle.fileno())
            """
        violations = run_rule(self.RULE, rewriting, "repro/runtime/checkpoint.py")
        assert rule_ids(violations) == ["RL009"]
        assert "os.replace" in violations[0].message.split("(")[0]

    def test_scope_is_checkpoint_basenames_only(self):
        bad = """
            def save(path, blob):
                with open(path, "wb") as handle:
                    handle.write(blob)
            """
        assert run_rule(self.RULE, bad, "repro/runtime/sharding.py") == []
        flagged = run_rule(self.RULE, bad, "tools/snapshot_checkpoint_io.py")
        assert rule_ids(flagged) == ["RL009"]


# --------------------------------------------------------------------- #
# RL010 — no Event(...) construction on the block hot path
# --------------------------------------------------------------------- #
class TestRL010:
    RULE = EventConstructionRule()

    def test_bad_event_construction_in_streaming(self):
        bad = """
            def rematerialize(block):
                return [
                    Event(block.types[i], block.times[i], block.payload(i))
                    for i in range(len(block))
                ]
            """
        violations = run_rule(self.RULE, bad, "repro/runtime/streaming.py")
        assert rule_ids(violations) == ["RL010"]
        assert "event_at" in violations[0].message

    def test_bad_qualified_constructor_in_worker(self):
        bad = """
            def decode(payload):
                return [event.Event(t, time, attrs) for t, time, attrs in payload]
            """
        violations = run_rule(self.RULE, bad, "repro/runtime/sharding.py")
        assert rule_ids(violations) == ["RL010"]

    def test_good_block_views(self):
        good = """
            def route(block, router):
                selections = router.route_block(block)
                return [block.select(indices) for indices in selections]

            def edge_view(block, position):
                return block.event_at(position)
            """
        assert run_rule(self.RULE, good, "repro/runtime/sharding.py") == []

    def test_out_of_scope_decoder_may_build_events(self):
        allowed = """
            def decode(view):
                return [Event(t, time, attrs) for t, time, attrs in rows(view)]
            """
        assert run_rule(self.RULE, allowed, "repro/events/columnar.py") == []
        assert run_rule(self.RULE, allowed, "repro/runtime/checkpoint.py") == []

    def test_bad_row_views_in_a_loop(self):
        # The pre-PR-15 unsorted-block fallback, shape for shape.
        bad = """
            def _buffer_rows(self, block, buffer):
                for local in range(len(block)):
                    buffer.add(block.times[local], local, block.event_at(local))
                while block:
                    block = self.consume(block.to_events())
                return [block.event_at(i) for i in self.pending]
            """
        for module in ("streaming", "lateness", "reorder", "sharding", "routing"):
            violations = run_rule(self.RULE, bad, f"repro/runtime/{module}.py")
            assert rule_ids(violations) == ["RL010"] * 3
            assert "VIEW_EDGES" in violations[0].message

    def test_good_row_views_at_the_named_edges(self):
        good = """
            def offer_block(self, block):
                for index in self.buffer.late_rows(block.times):
                    self._late(index, lambda: block.event_at(index))

            def _cover(self, block):
                for local in range(len(block)):
                    def fallback():
                        return block.event_at(local)
                    self._feed(fallback())

            def single_view(block, position):
                return block.event_at(position), block.to_events()
            """
        assert run_rule(self.RULE, good, "repro/runtime/streaming.py") == []
        assert run_rule(self.RULE, good, "repro/runtime/lateness.py") == []

    @staticmethod
    def block_path_functions() -> dict[str, list[ast.FunctionDef]]:
        """Every function of the rule's scope modules, by name."""
        functions: dict[str, list[ast.FunctionDef]] = {}
        for relpath in EventConstructionRule.scope:
            tree = ast.parse((REPO_ROOT / "src" / relpath).read_text(encoding="utf-8"))
            for node in ast.walk(tree):
                if isinstance(node, ast.FunctionDef):
                    functions.setdefault(node.name, []).append(node)
        return functions

    def test_view_edges_name_functions_that_exist(self):
        # The allow-list is by function name: a renamed edge must not leave
        # a stale entry behind that a new per-row loop could hide under.
        from reprolint.rules.blocks import VIEW_EDGES

        functions = self.block_path_functions()
        assert [name for name in VIEW_EDGES if name not in functions] == []

    def test_view_edges_still_build_views(self):
        # An edge that stopped materializing row views is a stale entry too.
        from reprolint.rules.blocks import VIEW_EDGES

        functions = self.block_path_functions()
        for name in VIEW_EDGES:
            calls = {
                node.func.attr
                for function in functions[name]
                for node in ast.walk(function)
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            }
            assert calls & {"event_at", "to_events"}, name


# --------------------------------------------------------------------- #
# RL011 — no raw event-time-vs-cursor ordering comparisons
# --------------------------------------------------------------------- #
class TestRL011:
    RULE = RawOrderComparisonRule()

    def test_bad_time_vs_clock_check(self):
        # The exact shape the pre-PR-10 executors used inline.
        bad = """
            def process(self, event):
                if event.time < self._clock:
                    raise ExecutionError("out of order")
                self._clock = event.time
            """
        violations = run_rule(self.RULE, bad, "repro/runtime/sharding.py")
        assert rule_ids(violations) == ["RL011"]
        assert "ensure_in_order" in violations[0].message

    def test_bad_latest_event_comparison(self):
        # The shared-window engines' drifted copy: time-only, backwards
        # message — the drift RL011 exists to prevent recurring.
        bad = """
            def process(self, event):
                latest = self._latest_event
                if latest is not None and latest.time > event.time:
                    raise ExecutionError("strictly ordered arrival required")
            """
        violations = run_rule(self.RULE, bad, "repro/runtime/shared_windows.py")
        assert rule_ids(violations) == ["RL011"]

    def test_bad_chained_comparison(self):
        bad = """
            def stale(self, event):
                return self._clock >= event.sequence >= 0
            """
        assert rule_ids(run_rule(self.RULE, bad, "repro/runtime/streaming.py")) == [
            "RL011"
        ]

    def test_good_helper_calls_and_unrelated_compares(self):
        good = """
            def process(self, event):
                ensure_in_order(event.time, self._clock)
                self._clock = max(self._clock, event.time)
                if event.time >= self._window_end:
                    self._close()
            """
        assert run_rule(self.RULE, good, "repro/runtime/streaming.py") == []

    def test_sanctioned_homes_are_excluded(self):
        raw = """
            def append(self, event):
                if event.time < self._last_time:
                    raise StreamError("out-of-order append")
            """
        assert run_rule(self.RULE, raw, "repro/events/stream.py") == []
        assert run_rule(self.RULE, raw, "repro/runtime/reorder.py") == []
        # Pattern engines compare events for pattern semantics, not
        # arrival order — out of scope.
        assert run_rule(self.RULE, raw, "repro/core/hamlet_graph.py") == []


# --------------------------------------------------------------------- #
# Suppressions
# --------------------------------------------------------------------- #
class TestSuppressions:
    def test_disable_comment_silences_rule(self):
        source = "value = hash(key)  # reprolint: disable=RL001\n"
        assert lint_source(source, "repro/runtime/router.py") == []

    def test_disable_all(self):
        source = "value = hash(key)  # reprolint: disable=ALL\n"
        assert lint_source(source, "repro/runtime/router.py") == []

    def test_disable_other_rule_does_not_silence(self):
        source = "value = hash(key)  # reprolint: disable=RL006\n"
        violations = lint_source(source, "repro/runtime/router.py")
        assert rule_ids(violations) == ["RL001"]

    def test_parse_suppressions_multi_id(self):
        lines = ["x = 1", "y = 2  # reprolint: disable=RL001, RL006"]
        assert parse_suppressions(lines) == {2: frozenset({"RL001", "RL006"})}


# --------------------------------------------------------------------- #
# Framework plumbing
# --------------------------------------------------------------------- #
class TestFramework:
    def test_normalize_relpath_slices_at_repro(self):
        path = Path("/tmp/fixtures/src/repro/runtime/sharding.py")
        assert normalize_relpath(path) == "repro/runtime/sharding.py"

    def test_normalize_relpath_falls_back_to_root_relative(self):
        path = Path("/work/tools/reprolint/cli.py")
        assert normalize_relpath(path, Path("/work")) == "tools/reprolint/cli.py"

    def test_syntax_error_reported_as_rl000(self):
        violations = lint_source("def broken(:\n", "repro/runtime/bad.py")
        assert rule_ids(violations) == ["RL000"]

    def test_rule_catalogue_ids_unique_and_documented(self):
        ids = [rule_class.id for rule_class in ALL_RULES]
        assert len(ids) == len(set(ids)) == 11
        assert ids == sorted(ids)
        for rule_class in ALL_RULES:
            assert rule_class.title, rule_class.id
            assert rule_class.rationale, rule_class.id


# --------------------------------------------------------------------- #
# CLI behavior
# --------------------------------------------------------------------- #
class TestCli:
    def test_exit_zero_on_clean_file(self, tmp_path, capsys):
        clean = tmp_path / "clean.py"
        clean.write_text("x = 1\n", encoding="utf-8")
        assert main([str(clean)]) == 0
        assert "reprolint: clean" in capsys.readouterr().out

    def test_exit_one_on_violation(self, tmp_path, capsys):
        fixture_dir = tmp_path / "repro" / "runtime"
        fixture_dir.mkdir(parents=True)
        bad = fixture_dir / "router.py"
        bad.write_text("value = hash(key)\n", encoding="utf-8")
        assert main([str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "RL001" in out
        assert "1 violation(s)" in out

    def test_exit_two_on_missing_path(self, tmp_path, capsys):
        assert main([str(tmp_path / "nope")]) == 2
        assert "no such path" in capsys.readouterr().err

    def test_exit_two_on_unknown_rule_id(self, tmp_path, capsys):
        clean = tmp_path / "clean.py"
        clean.write_text("x = 1\n", encoding="utf-8")
        assert main(["--select", "RL999", str(clean)]) == 2
        assert "unknown rule ids" in capsys.readouterr().err

    def test_select_limits_rules(self, tmp_path):
        fixture_dir = tmp_path / "repro" / "runtime"
        fixture_dir.mkdir(parents=True)
        bad = fixture_dir / "router.py"
        bad.write_text("value = hash(key)\n", encoding="utf-8")
        assert main(["--select", "RL006", "-q", str(tmp_path)]) == 0
        assert main(["--select", "RL001", "-q", str(tmp_path)]) == 1

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_class in ALL_RULES:
            assert rule_class.id in out

    def test_syntax_error_counts_as_violation(self, tmp_path):
        broken = tmp_path / "broken.py"
        broken.write_text("def broken(:\n", encoding="utf-8")
        assert main(["-q", str(broken)]) == 1


# --------------------------------------------------------------------- #
# Self-check: the shipped tree obeys its own invariants
# --------------------------------------------------------------------- #
class TestShippedTree:
    def test_src_repro_is_violation_free(self):
        violations = lint_paths([REPO_ROOT / "src"])
        rendered = "\n".join(violation.render() for violation in violations)
        assert violations == [], f"src tree has violations:\n{rendered}"

    def test_src_repro_has_zero_suppressions(self):
        offenders = []
        for path in sorted((REPO_ROOT / "src").rglob("*.py")):
            lines = path.read_text(encoding="utf-8").splitlines()
            if parse_suppressions(lines):
                offenders.append(str(path))
        assert offenders == [], f"suppression comments in shipped tree: {offenders}"

    def test_tools_reprolint_is_violation_free(self):
        violations = lint_paths([REPO_ROOT / "tools"])
        rendered = "\n".join(violation.render() for violation in violations)
        assert violations == [], f"tools tree has violations:\n{rendered}"


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))
