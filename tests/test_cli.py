"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


class TestCli:
    def test_demo_command_runs(self, capsys):
        assert main(["demo"]) == 0
        output = capsys.readouterr().out
        assert "HAMLET (shared)" in output
        assert "'q1': 30" in output

    def test_table1_figure_runs(self, capsys):
        assert main(["figures", "table1"]) == 0
        output = capsys.readouterr().out
        assert "hamlet" in output
        assert "dynamic" in output

    def test_stream_command_emits_window_results(self, capsys):
        assert main(["stream", "--queries", "2", "--minutes", "0.5", "--events-per-minute", "600"]) == 0
        output = capsys.readouterr().out
        assert "window [" in output
        assert "active" in output
        assert "shared-window execution" in output
        assert "overlap factor 5" in output
        assert "per event" in output

    def test_stream_command_per_instance_fallback_flag(self, capsys):
        assert (
            main(
                [
                    "stream",
                    "--queries",
                    "2",
                    "--minutes",
                    "0.5",
                    "--events-per-minute",
                    "600",
                    "--no-shared-windows",
                ]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert "per-instance execution" in output
        assert "overlap factor 5" in output

    def test_stream_command_sharded_in_process(self, capsys):
        assert (
            main(
                [
                    "stream",
                    "--queries",
                    "2",
                    "--minutes",
                    "0.5",
                    "--events-per-minute",
                    "600",
                    "--workers",
                    "0",
                    "--shard-batch",
                    "64",
                ]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert "sharded execution: 1 shard(s), 0 worker process(es)" in output
        assert "routing by group" in output
        assert "shard 0:" in output
        assert "events/s wall-clock" in output

    def test_stream_command_sharded_worker_processes(self, capsys):
        assert (
            main(
                [
                    "stream",
                    "--queries",
                    "2",
                    "--minutes",
                    "0.5",
                    "--events-per-minute",
                    "600",
                    "--workers",
                    "2",
                    "--shard-batch",
                    "32",
                ]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert "2 shard(s), 2 worker process(es)" in output
        assert "batches of 32" in output
        assert "shard 0:" in output and "shard 1:" in output
        assert "events/s wall-clock" in output

    def test_stream_command_optimizer_prints_decision_summary(self, capsys):
        assert (
            main(
                [
                    "stream",
                    "--queries",
                    "8",
                    "--minutes",
                    "0.5",
                    "--events-per-minute",
                    "600",
                    "--optimizer",
                    "dynamic",
                ]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert "optimizer dynamic:" in output
        assert "decisions" in output
        assert "shared fraction" in output
        assert "merges" in output and "splits" in output

    def test_stream_command_optimizer_never_reports_zero_shared_fraction(self, capsys):
        assert (
            main(
                [
                    "stream",
                    "--queries",
                    "8",
                    "--minutes",
                    "0.5",
                    "--events-per-minute",
                    "600",
                    "--optimizer",
                    "never",
                ]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert "optimizer never:" in output
        assert "shared fraction 0.0%" in output

    def test_stream_command_optimizer_propagates_to_sharded_run(self, capsys):
        assert (
            main(
                [
                    "stream",
                    "--queries",
                    "8",
                    "--minutes",
                    "0.5",
                    "--events-per-minute",
                    "600",
                    "--optimizer",
                    "always",
                    "--workers",
                    "0",
                ]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert "sharded execution" in output
        assert "optimizer always:" in output
        assert "shared fraction 100.0%" in output

    def test_stream_command_rejects_unknown_optimizer(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["stream", "--optimizer", "sometimes"])

    @pytest.mark.parametrize("flag", ("--burst-size", "--kernel-backend"))
    def test_stream_command_has_no_burst_or_backend_knob(self, flag, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["stream", flag, "python"])
        assert exit_info.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        ("arguments", "message"),
        (
            (["--allowed-lateness", "-1"], "allowed_lateness must be >= 0, got -1.0"),
            (["--allowed-lateness", "nan"], "allowed_lateness must be >= 0, got nan"),
            (["--late-policy", "drop"], "late_policy='drop' requires allowed_lateness"),
            (
                ["--allowed-lateness", "1", "--late-policy", "side_output", "--workers", "2"],
                "--late-policy side_output requires --workers 0",
            ),
        ),
    )
    def test_stream_command_rejects_invalid_lateness_options(self, arguments, message, capsys):
        # The executors' own validators run before dispatch: a usage error
        # (exit 2), never a traceback out of a constructor.
        with pytest.raises(SystemExit) as exit_info:
            main(["stream", "--minutes", "0.05", *arguments])
        assert exit_info.value.code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        ("flag", "value"),
        (
            ("--queries", "0"),
            ("--queries", "-3"),
            ("--queries", "2.5"),
            ("--minutes", "0"),
            ("--minutes", "nan"),
            ("--minutes", "inf"),
            ("--minutes", "-1"),
            ("--events-per-minute", "0"),
            ("--events-per-minute", "nan"),
            ("--events-per-minute", "-inf"),
            ("--events-per-minute", "1e400"),
        ),
    )
    def test_stream_command_rejects_bad_sizes(self, flag, value, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["stream", flag, value])
        assert exit_info.value.code == 2
        assert f"argument {flag}" in capsys.readouterr().err

    def test_stream_command_prints_wall_clock_throughput(self, capsys):
        assert main(["stream", "--queries", "2", "--minutes", "0.3", "--events-per-minute", "600"]) == 0
        output = capsys.readouterr().out
        assert "wall-clock throughput:" in output

    def test_stream_command_checkpointing_prints_recovery_summary(self, capsys, tmp_path):
        assert (
            main(
                [
                    "stream",
                    "--queries",
                    "2",
                    "--minutes",
                    "0.5",
                    "--events-per-minute",
                    "600",
                    "--workers",
                    "2",
                    "--shard-batch",
                    "32",
                    "--checkpoint-dir",
                    str(tmp_path),
                    "--checkpoint-interval",
                    "2",
                    "--max-restarts",
                    "1",
                ]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert "recovery:" in output
        assert "restart(s)" in output
        assert "checkpoint(s)" in output
        assert "driver waited" in output

    def test_stream_command_without_checkpoint_dir_prints_no_recovery(self, capsys):
        assert (
            main(
                ["stream", "--queries", "2", "--minutes", "0.3", "--events-per-minute", "600"]
            )
            == 0
        )
        assert "recovery:" not in capsys.readouterr().out

    def test_stream_command_checkpoint_dir_requires_workers(self, capsys, tmp_path):
        with pytest.raises(SystemExit):
            main(["stream", "--checkpoint-dir", str(tmp_path)])
        assert "--checkpoint-dir requires --workers" in capsys.readouterr().err

    def test_stream_command_rejects_bad_checkpoint_arguments(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["stream", "--checkpoint-interval", "0"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["stream", "--max-restarts", "-1"])

    def test_unknown_figure_rejected(self):
        with pytest.raises(SystemExit):
            main(["figures", "fig99"])

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])
