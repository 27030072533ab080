"""Perf-smoke digest properties and the benchmark trajectory renderer."""

from __future__ import annotations

import math
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
if str(REPO_ROOT / "benchmarks") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "benchmarks"))

import trend
from perf_smoke import result_digest


class TestResultDigest:
    def test_order_independent(self):
        totals = {"q1": 1.5, "q2": -2.25, "q3": 1e36}
        reordered = dict(reversed(list(totals.items())))
        assert result_digest(totals) == result_digest(reordered)

    def test_single_ulp_changes_digest(self):
        # The float-sum checksum this replaced could not see last-ulp
        # drift without a tolerance; the digest must see every bit.
        value = 1.918063337094774e36
        nudged = math.nextafter(value, math.inf)
        assert result_digest({"q": value}) != result_digest({"q": nudged})

    def test_name_sensitive_and_64_bit(self):
        assert result_digest({"a": 1.0}) != result_digest({"b": 1.0})
        assert 0 <= result_digest({"a": 1.0, "b": 2.0}) < 2**64

    def test_negative_zero_distinct(self):
        # Bit-pattern hashing: -0.0 == 0.0 compares equal but is a
        # different result, and the digest distinguishes them.
        assert result_digest({"q": 0.0}) != result_digest({"q": -0.0})


class TestTrajectoryTable:
    def test_checked_in_table_is_current(self):
        # Same check CI runs: the doc must be regenerated whenever a
        # BENCH_PR*.json changes.
        assert trend.DOC_PATH.read_text() == trend.render()

    def test_check_mode_exit_codes(self, monkeypatch, tmp_path):
        assert trend.main(["--check"]) == 0
        stale = tmp_path / "BENCH_TRAJECTORY.md"
        stale.write_text("out of date\n")
        monkeypatch.setattr(trend, "DOC_PATH", stale)
        assert trend.main(["--check"]) == 1

    def test_render_covers_every_recorded_file(self):
        rendered = trend.render()
        for number, _ in trend.bench_files():
            assert f"| {number} |" in rendered
        # The PR 9 headline is present.
        assert "speedup_block_over_per_event" in rendered


class TestGateBaseline:
    ROW = {
        "operations": 100,
        "result_digest": 7,
        "decisions": 10,
        "merges": 2,
        "splits": 1,
        "shared_fraction": 0.5,
    }

    def test_later_labels_replace_earlier_rows_one_by_one(self):
        runs = {"pr13": {"b": 5}, "after": {"a": 1, "b": 2}, "before": {"a": 0, "c": 3}}
        assert trend.baseline_rows(runs) == {"a": 1, "b": 5, "c": 3}
        assert trend.baseline_rows({}) == {}

    def test_gate_compares_the_decision_counters(self, capsys):
        import perf_smoke

        suite = perf_smoke.SUITES["bursty"]
        recorded = {"runs": {"after": {"adaptive_dynamic": dict(self.ROW)}}}
        assert perf_smoke.gate(recorded, {"adaptive_dynamic": dict(self.ROW)}, suite) == 0
        # Same work, same (decision-invariant) digest, one merge more.
        drifted = dict(self.ROW, merges=3)
        assert perf_smoke.gate(recorded, {"adaptive_dynamic": drifted}, suite) == 1
        assert "merges changed (2 -> 3)" in capsys.readouterr().out
