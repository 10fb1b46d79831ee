"""Unit tests for the command-line interface."""

import pytest

from repro.cli import main


class TestCli:
    def test_models_lists_zoo(self, capsys):
        assert main(["models"]) == 0
        out = capsys.readouterr().out
        assert "ds-cnn" in out and "mobilenet-v1-0.25" in out

    def test_platforms_lists_presets(self, capsys):
        assert main(["platforms"]) == 0
        out = capsys.readouterr().out
        assert "f746-qspi" in out

    def test_plan_doorbell(self, capsys):
        assert main(["plan", "doorbell"]) == 0
        out = capsys.readouterr().out
        assert "admitted: True" in out
        assert "kws" in out and "SRAM" in out

    def test_plan_with_platform_override(self, capsys):
        assert main(["plan", "doorbell", "--platform", "h743-octal"]) == 0
        out = capsys.readouterr().out
        assert "STM32H743" in out

    def test_simulate_doorbell(self, capsys):
        assert main(["simulate", "doorbell", "--duration", "2.0"]) == 0
        out = capsys.readouterr().out
        assert "misses: 0" in out
        assert "cpu" in out and "dma" in out  # gantt rows

    def test_exp_t2(self, capsys):
        assert main(["exp", "EXP-T2"]) == 0
        out = capsys.readouterr().out
        assert "EXP-T2" in out and "bytes_per_cycle" in out

    def test_exp_lowercase_id(self, capsys):
        assert main(["exp", "exp-t1"]) == 0
        assert "EXP-T1" in capsys.readouterr().out

    def test_exp_unknown_id(self):
        with pytest.raises(KeyError, match="available"):
            main(["exp", "EXP-Z9"])

    def test_exp_jobs_and_n_sets(self, capsys):
        assert main(
            ["exp", "EXP-F4", "--scale", "0.1", "--n-sets", "4", "--jobs", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "EXP-F4" in out and "plan cache:" in out

    def test_exp_profile_prints_hotspots(self, capsys):
        assert main(["exp", "EXP-T2", "--profile"]) == 0
        out = capsys.readouterr().out
        assert "profile (top 25 by cumulative time)" in out
        assert "cumtime" in out

    def test_exp_help_documents_tuning_flags(self, capsys):
        with pytest.raises(SystemExit):
            main(["exp", "--help"])
        out = capsys.readouterr().out
        for flag in ("--scale", "--n-sets", "--jobs", "--profile"):
            assert flag in out
        assert "REPRO_JOBS" in out  # the env default is discoverable

    def test_bad_scenario_rejected(self):
        with pytest.raises(SystemExit):
            main(["plan", "nonexistent"])

    def test_no_command_rejected(self):
        with pytest.raises(SystemExit):
            main([])


class TestJsonOutput:
    def test_plan_json(self, capsys):
        import json

        assert main(["plan", "doorbell", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "rtmdm-plan/1"
        assert payload["admitted"] is True
        assert {row["task"] for row in payload["tasks"]} >= {"kws"}
        assert payload["sram"]["used_bytes"] <= payload["sram"]["capacity_bytes"]

    def test_simulate_json(self, capsys):
        import json

        assert main(["simulate", "doorbell", "--duration", "1.0", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "rtmdm-sim/1"
        assert payload["no_misses"] is True
        assert all("worst_ms" in t for t in payload["tasks"].values())


class TestServe:
    def test_serve_generated_trace(self, capsys):
        assert main(
            ["serve", "--rate", "1.0", "--duration", "4.0", "--seed", "5"]
        ) == 0
        out = capsys.readouterr().out
        assert "trace: poisson" in out
        assert "admitted" in out

    def test_serve_json_event_log(self, capsys):
        import json

        assert main(
            ["serve", "--rate", "1.5", "--duration", "4.0", "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "rtmdm-serve/1"
        assert payload["sound"] is True
        assert payload["requests"] == len(payload["decisions"])
        assert payload["sim"]["total_misses"] == 0
        # The event log must be bit-identical across same-seed runs, so
        # wall-clock decision latency stays out of it (suite meta only).
        assert all("latency_us" not in d for d in payload["decisions"])

    def test_serve_trace_file(self, capsys, tmp_path):
        import json

        from repro.online.events import Request, RequestKind, RequestTrace

        trace = RequestTrace.of(
            [
                Request(time_s=0.1, kind=RequestKind.ADMIT, task="kws",
                        model="ds-cnn", period_s=0.4),
                Request(time_s=1.5, kind=RequestKind.REMOVE, task="kws"),
            ],
            duration_s=3.0,
        )
        path = tmp_path / "trace.json"
        path.write_text(trace.to_json(), encoding="utf-8")
        assert main(["serve", "--trace", str(path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["admitted"] == 1
        assert payload["removed"] == 1

    def test_serve_no_sim_and_overrides(self, capsys):
        assert main(
            ["serve", "--rate", "1.0", "--duration", "3.0", "--sram", "256",
             "--protocol", "drain", "--no-sim", "--json"]
        ) in (0, 1)
        import json

        payload = json.loads(capsys.readouterr().out)
        assert payload["protocol"] == "drain"
        assert "sim" not in payload


class TestDurableServe:
    def test_journal_then_restore(self, capsys, tmp_path):
        journal = str(tmp_path / "j.jsonl")
        args = ["serve", "--rate", "1.5", "--duration", "4.0", "--seed", "7",
                "--journal", journal, "--checkpoint-interval", "4", "--no-sim"]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "checkpoints" in out and "invariants" in out
        assert main(args + ["--restore"]) == 0
        out = capsys.readouterr().out
        assert "recovered from" in out and "replayed" in out

    def test_json_carries_durable_section(self, capsys, tmp_path):
        import json

        journal = str(tmp_path / "j.jsonl")
        assert main(
            ["serve", "--rate", "1.5", "--duration", "4.0", "--seed", "7",
             "--journal", journal, "--no-sim", "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        durable = payload["durable"]
        assert durable["records"] > 0
        assert set(durable["invariants"]) == {
            "sram-capacity", "admitted-screen", "modechange-accounting",
            "decision-log",
        }
        assert durable["gate"]["emitted"] == payload["requests"]

    def test_restore_without_journal_is_typed_error(self, capsys):
        assert main(["serve", "--restore", "--no-sim"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ValueError:")
        assert "--journal" in err

    def test_quiet_suppresses_decision_log(self, capsys):
        assert main(
            ["serve", "--rate", "1.5", "--duration", "4.0", "--no-sim",
             "--quiet"]
        ) == 0
        out = capsys.readouterr().out
        assert "admitted" in out
        assert "t=" not in out  # no per-decision lines


class TestTypedErrors:
    def test_missing_trace_file(self, capsys):
        assert main(["serve", "--trace", "/no/such/file.json"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: FileNotFoundError:")
        assert "\n" == err[err.index("\n"):]  # a single line, no traceback

    def test_malformed_trace_file(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"schema": "bogus"}', encoding="utf-8")
        assert main(["serve", "--trace", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: TraceFormatError:")

    def test_damaged_journal_on_restore(self, capsys, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("not-a-journal\n", encoding="utf-8")
        assert main(
            ["serve", "--journal", str(path), "--restore", "--no-sim"]
        ) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: JournalError:")

    @pytest.mark.parametrize("argv", [
        ["fleet", "--duration", "nan"],
        ["fleet", "--rate", "inf"],
        ["serve", "--duration", "inf"],
        ["chaos", "--rate", "nan"],
        ["chaos", "--fleet", "--rate", "nan"],
    ])
    def test_non_finite_trace_parameter(self, capsys, argv):
        # Each would loop forever drawing arrivals if it reached the
        # trace generator unchecked.
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: ValueError:")
        assert "must be finite" in lines[0]


class TestChaosCommand:
    def test_reduced_matrix_smoke(self, capsys):
        assert main(
            ["chaos", "--duration", "2.5", "--rate", "1.5", "--seed", "7",
             "--crash-stride", "4", "--modes", "none,duplicate"]
        ) == 0
        out = capsys.readouterr().out
        assert "chaos matrix: OK" in out
        assert "bit-identical" in out
        assert "invariants:" in out

    def test_json_report(self, capsys):
        import json

        assert main(
            ["chaos", "--duration", "2.0", "--seed", "7", "--crash-stride",
             "5", "--modes", "truncate-journal", "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "rtmdm-chaos/1"
        assert payload["ok"] is True
        assert payload["cells"]

    def test_unknown_mode_is_typed_error(self, capsys):
        assert main(["chaos", "--modes", "meteor"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ValueError:")


class TestRobustArguments:
    @pytest.mark.parametrize("argv", [
        ["--inflation", "inf"],
        ["--inflation", "nan"],
    ])
    def test_bad_input_rejected_before_any_output(self, argv, capsys):
        assert main(["robust", "doorbell", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")


class TestDurationArguments:
    @pytest.mark.parametrize("duration", ["inf", "1e300", "nan", "0", "-1"])
    @pytest.mark.parametrize("command", ["simulate", "energy", "robust", "recover"])
    def test_bad_duration_is_typed_error(self, command, duration, capsys):
        assert main([command, "doorbell", "--duration", duration]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ValueError:")


class TestQuietFlag:
    def test_plan_quiet(self, capsys):
        assert main(["plan", "doorbell", "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "admitted: True" in out
        assert "prio=" not in out  # table suppressed

    def test_recover_quiet(self, capsys):
        assert main(
            ["recover", "doorbell", "--duration", "2.0", "--quiet",
             "--bad-frac", "0.0"]
        ) in (0, 1)
        out = capsys.readouterr().out
        assert "survives:" in out
        assert "ladder" not in out  # table suppressed


class TestFleetCommand:
    ARGS = ["fleet", "--devices", "60", "--shards", "2", "--duration", "2",
            "--rate", "20", "--arrival", "bursty", "--seed", "11",
            "--batch", "4", "--queue-depth", "8", "--service-us", "400"]

    def test_degrade_and_timeout_flags(self, capsys):
        assert main(
            self.ARGS + ["--degrade-watermark", "4", "--timeout-ms", "5"]
        ) == 0
        out = capsys.readouterr().out
        assert "resilience:" in out
        assert "degraded admits" in out

    def test_json_reports_per_rung_counters(self, capsys):
        import json

        assert main(
            self.ARGS + ["--degrade-watermark", "4", "--timeout-ms", "5",
                         "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "rtmdm-fleet/1"
        assert payload["degraded_admits"] > 0
        assert payload["timeout_retries"] >= 0
        assert payload["recovered"] == 0
        assert payload["shards"][0]["timeouts"] >= 0
        assert payload["shards"][0]["degraded_admits"] >= 0

    def test_crash_at_recovers(self, capsys, tmp_path):
        import json

        assert main(
            ["fleet", "--devices", "30", "--shards", "2", "--duration", "1",
             "--rate", "5", "--journal-dir", str(tmp_path),
             "--checkpoint-interval", "16", "--crash-at", "0:5",
             "--crash-at", "1:9", "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["recovered"] == 2
        assert sum(s["recovered"] for s in payload["shards"]) == 2

    def test_crash_at_parse_error(self, capsys):
        assert main(
            ["fleet", "--journal-dir", "/tmp/x", "--crash-at", "bogus"]
        ) == 2
        assert "--crash-at expects SHARD:INDEX" in capsys.readouterr().err

    def test_crash_at_without_journal_is_typed_error(self, capsys):
        assert main(["fleet", "--crash-at", "0:1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ValueError:")

    @pytest.mark.parametrize("flag, value", [
        ("--service-us", "nan"),
        ("--service-us", "inf"),
        ("--timeout-ms", "nan"),
        ("--timeout-ms", "inf"),
        ("--backoff-ms", "nan"),
    ])
    def test_non_finite_number_is_typed_error(self, capsys, flag, value):
        assert main(["fleet", "--devices", "4", flag, value]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: ValueError:")
        assert flag.lstrip("-").replace("-", "_") in lines[0]


class TestFleetChaosCommand:
    def test_fleet_matrix_smoke(self, capsys):
        assert main(
            ["chaos", "--fleet", "--devices", "12", "--duration", "1",
             "--rate", "5", "--shard-counts", "1,2",
             "--modes", "none,reorder"]
        ) == 0
        out = capsys.readouterr().out
        assert "fleet chaos matrix: OK" in out
        assert "bit-identical" in out

    def test_fleet_matrix_json(self, capsys):
        import json

        assert main(
            ["chaos", "--fleet", "--devices", "12", "--duration", "1",
             "--rate", "5", "--shard-counts", "2", "--modes", "skew",
             "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "rtmdm-fleet-chaos/1"
        assert payload["ok"] is True
        assert payload["invariants"]["decision-dense"] > 0
