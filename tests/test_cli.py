"""Unit tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["teleport"])

    def test_design_defaults(self):
        args = build_parser().parse_args(["design"])
        assert args.pins == 72
        assert args.clock_mhz == 10.0


class TestDesign:
    def test_prints_paper_point(self, capsys):
        assert main(["design"]) == 0
        out = capsys.readouterr().out
        assert "785" in out
        assert "P_w=2, P_k=6" in out

    def test_custom_pins(self, capsys):
        assert main(["design", "--pins", "144"]) == 0
        out = capsys.readouterr().out
        assert "144" not in ""  # smoke: runs without error
        assert "Optimal engine designs" in out


class TestCompare:
    def test_summary(self, capsys):
        assert main(["compare"]) == 0
        out = capsys.readouterr().out
        assert "WSA-E" in out
        assert "12x faster" in out


class TestSimulate:
    def test_reference_run_conserves(self, capsys):
        assert (
            main(
                [
                    "simulate",
                    "--rows",
                    "16",
                    "--cols",
                    "16",
                    "--steps",
                    "10",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "momentum drift" in out
        # conserved up to float accumulation on the periodic default
        drift_line = next(l for l in out.splitlines() if "momentum drift" in l)
        drift = float(drift_line.split()[-1])
        assert drift < 1e-9

    @pytest.mark.parametrize("engine", ["serial", "wsa", "spa", "wsa-e"])
    def test_engines_match(self, capsys, engine):
        code = main(
            [
                "simulate",
                "--engine",
                engine,
                "--rows",
                "12",
                "--cols",
                "12",
                "--steps",
                "4",
                "--depth",
                "2",
                "--slice-width",
                "6",
            ]
        )
        assert code == 0
        assert "bit-exact" in capsys.readouterr().out

    def test_hpp_model(self, capsys):
        assert main(["simulate", "--model", "hpp", "--steps", "5"]) == 0

    def test_saturated_model(self, capsys):
        assert main(["simulate", "--model", "fhp-sat", "--steps", "5"]) == 0

    def test_bitplane_backend(self, capsys):
        assert (
            main(
                [
                    "simulate",
                    "--model",
                    "fhp6",
                    "--rows",
                    "16",
                    "--cols",
                    "70",
                    "--steps",
                    "8",
                    "--backend",
                    "bitplane",
                ]
            )
            == 0
        )

    def test_bitplane_backend_engine_bit_exact(self, capsys):
        code = main(
            [
                "simulate",
                "--model",
                "hpp",
                "--rows",
                "12",
                "--cols",
                "66",
                "--steps",
                "6",
                "--engine",
                "serial",
                "--backend",
                "bitplane",
            ]
        )
        assert code == 0
        assert "bit-exact" in capsys.readouterr().out

    def test_corrupted_engine_stream_is_a_mismatch(self, capsys, monkeypatch):
        """With --backend bitplane the engine still runs its own PE stream,
        so a stage that flips one bit per generation is caught."""
        from repro.engines.streaming_core import PipelineStage

        process = PipelineStage.process

        def corrupted(self, stream, generation):
            out = process(self, stream, generation)
            out[0] ^= 1
            return out

        monkeypatch.setattr(PipelineStage, "process", corrupted)
        code = main(
            [
                "simulate", "--model", "hpp", "--rows", "12", "--cols", "66",
                "--steps", "6", "--engine", "serial", "--backend", "bitplane",
            ]
        )
        assert code == 1
        assert "MISMATCH" in capsys.readouterr().out

    def test_unknown_backend_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--backend", "parallel", "--steps", "2"])
        assert exc.value.code == 2
        assert "invalid choice: 'parallel'" in capsys.readouterr().err

    def test_workers_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--backend", "bitplane", "--workers", "2", "--steps", "2"])
        assert exc.value.code == 2
        assert "--workers" in capsys.readouterr().err


class TestBounds:
    def test_ceiling(self, capsys):
        assert main(["bounds", "--storage", "1600", "--bandwidth", "1e6"]) == 0
        assert "320 Mupdates/s" in capsys.readouterr().out

    def test_inversions(self, capsys):
        assert main(["bounds", "--target-rate", "2e7"]) == 0
        out = capsys.readouterr().out
        assert "S needed" in out and "B needed" in out


class TestMachines:
    def test_table(self, capsys):
        assert main(["machines"]) == 0
        out = capsys.readouterr().out
        assert "CRAY X-MP/1" in out
        assert "Connection Machine" in out

    def test_prototype_row_matches_section8(self, capsys):
        main(["machines"])
        out = capsys.readouterr().out
        line = next(l for l in out.splitlines() if "prototype" in l)
        assert "1 Mupdates/s" in line and "5%" in line


class TestMachinesRegistry:
    def test_list_table(self, capsys):
        assert main(["machines", "list"]) == 0
        out = capsys.readouterr().out
        for name in ("serial", "wsa", "spa", "wsa-e"):
            assert name in out
        assert "PartitionedEngine" in out

    def test_list_json_is_schema_versioned(self, capsys):
        assert main(["machines", "list", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "repro-machine"
        assert payload["version"] == 2
        assert [m["name"] for m in payload["machines"]] == [
            "serial",
            "wsa",
            "spa",
            "wsa-e",
        ]

    def test_describe_table(self, capsys):
        assert main(["machines", "describe", "wsa"]) == 0
        out = capsys.readouterr().out
        assert "WideSerialEngine" in out
        assert "lanes" in out

    def test_describe_json(self, capsys):
        assert main(["machines", "describe", "spa", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "repro-machine"
        assert payload["name"] == "spa"
        assert payload["capabilities"]["side_channel"] is True
        assert payload["parameters"]["defaults"] == {"slice_width": 8}
        assert "design" in payload

    def test_describe_unknown_machine_exits_2(self, capsys):
        assert main(["machines", "describe", "cray"]) == 2
        err = capsys.readouterr().err
        assert "unknown machine 'cray'" in err

    def test_legacy_bare_machines_still_works(self, capsys):
        assert main(["machines"]) == 0
        assert "CRAY X-MP/1" in capsys.readouterr().out


class TestViscosity:
    def test_measurement(self, capsys):
        assert main(["viscosity", "--size", "64", "--steps", "120"]) == 0
        out = capsys.readouterr().out
        assert "measured ν" in out and "Boltzmann" in out


class TestRegimes:
    def test_unconstrained(self, capsys):
        assert main(["regimes"]) == 0
        out = capsys.readouterr().out
        assert "SPA" in out

    def test_budget_produces_three_regimes(self, capsys):
        assert main(["regimes", "--bandwidth-budget", "64"]) == 0
        out = capsys.readouterr().out
        assert "WSA-E" in out and "WSA" in out and "SPA" in out


class TestPebble:
    def test_schedule_table(self, capsys):
        assert main(["pebble", "--side", "8", "--generations", "3"]) == 0
        out = capsys.readouterr().out
        assert "per-site" in out
        assert "pipeline k=1" in out
        assert "trapezoid" in out
        assert "LRU" in out

    def test_1d(self, capsys):
        assert main(["pebble", "--dimension", "1", "--side", "24"]) == 0
        assert "C_1" in capsys.readouterr().out


class TestLint:
    def test_repo_sources_are_clean(self, capsys):
        import repro

        src = str(__import__("pathlib").Path(repro.__file__).parent)
        assert main(["lint", src]) == 0
        assert "0 error(s)" in capsys.readouterr().out

    def test_violation_exits_nonzero(self, capsys, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("def f(x=[]):\n    return x\n")
        assert main(["lint", str(bad)]) == 1
        out = capsys.readouterr().out
        assert f"{bad}:1:" in out
        assert "RPR001" in out

    def test_json_format(self, capsys, tmp_path):
        import json

        bad = tmp_path / "bad.py"
        bad.write_text("try:\n    pass\nexcept:\n    pass\n")
        assert main(["lint", "--format", "json", str(bad)]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["errors"] == 1
        assert payload["diagnostics"][0]["rule"] == "RPR005"

    def test_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        assert "RPR001" in out
        assert "RPR006" in out

    def test_missing_path_is_usage_error(self, capsys):
        assert main(["lint", "no/such/path.py"]) == 2
        assert "no/such/path.py" in capsys.readouterr().err

    def test_unknown_rule_is_usage_error(self, capsys):
        assert main(["lint", "--select", "RPR999", "src/repro"]) == 2
        assert "RPR999" in capsys.readouterr().err

    def test_explain_known_rule(self, capsys):
        assert main(["lint", "--explain", "RPR103"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("RPR103:")
        assert "StepClock" in out  # the fakeable-clock rationale

    def test_explain_unknown_rule_is_usage_error(self, capsys):
        assert main(["lint", "--explain", "RPR999"]) == 2
        err = capsys.readouterr().err
        assert "RPR999" in err
        assert "RPR103" in err  # the valid ids are listed

    def test_github_format(self, capsys, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("def f(x=[]):\n    return x\n")
        assert main(["lint", "--format", "github", str(bad)]) == 1
        out = capsys.readouterr().out
        assert f"::error file={bad},line=1," in out
        assert "title=RPR001::" in out

    def test_github_format_clean_tree_prints_nothing(self, capsys, tmp_path):
        (tmp_path / "ok.py").write_text("X = 1\n")
        assert main(["lint", "--format", "github", str(tmp_path)]) == 0
        assert capsys.readouterr().out == ""

    def test_noqa_suppresses_and_is_counted(self, capsys, tmp_path):
        import json

        bad = tmp_path / "bad.py"
        bad.write_text("def f(x=[]):  # repro: noqa[RPR001]\n    return x\n")
        assert main(["lint", "--format", "json", str(bad)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["errors"] == 0
        assert payload["summary"]["suppressed"] == 1

    def test_noqa_other_rule_does_not_suppress(self, capsys, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("def f(x=[]):  # repro: noqa[RPR005]\n    return x\n")
        assert main(["lint", str(bad)]) == 1

    def test_retired_rule_is_usage_error(self, capsys):
        # RPR101 (hot-path allocation) became tests/test_hot_paths.py.
        assert main(["lint", "--select", "RPR101", "src/repro"]) == 2
        assert "RPR101" in capsys.readouterr().err


class TestSanitize:
    def test_all_checks_pass(self, capsys):
        assert main(["sanitize"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        assert "FAIL" not in out
        assert "checks passed" in out

    def test_single_group(self, capsys):
        assert main(["sanitize", "--check", "hpp"]) == 0
        out = capsys.readouterr().out
        assert "hpp/conservation" in out
        assert "16/16" in out

    def test_json_format(self, capsys):
        import json

        assert main(["sanitize", "--check", "design", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["failed"] == 0

    def test_list_checks(self, capsys):
        assert main(["sanitize", "--list-checks"]) == 0
        out = capsys.readouterr().out
        assert "hpp" in out
        assert "design" in out

    def test_unknown_group_is_usage_error(self, capsys):
        assert main(["sanitize", "--check", "warp-drive"]) == 2
        assert "warp-drive" in capsys.readouterr().err


class TestRun:
    def test_direct_run(self, capsys):
        assert main(["run", "--rows", "16", "--cols", "16", "--generations", "4"]) == 0
        out = capsys.readouterr().out
        assert "Direct run" in out
        assert "final particles" in out

    def test_supervised_run_with_kill_is_bit_identical(self, capsys):
        import json

        args = [
            "run",
            "--supervised",
            "--rows", "16",
            "--cols", "16",
            "--generations", "8",
            "--workers", "2",
            "--checkpoint-interval", "4",
            "--restart-delay", "0.05",
            "--induce", "kill:0@5",
            "--verify",
            "--json",
        ]
        assert main(args) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["outcome"] == "complete"
        assert payload["num_restarts"] == 1
        assert payload["bit_identical"] is True

    def test_bad_induce_spec_is_usage_error(self, capsys):
        args = ["run", "--supervised", "--induce", "meteor:0@5"]
        assert main(args) == 2
        assert "meteor" in capsys.readouterr().err

    def test_induce_on_a_missing_worker_is_usage_error(self, capsys):
        args = [
            "run", "--supervised", "--workers", "2", "--generations", "8",
            "--induce", "kill:2@4",
        ]
        assert main(args) == 2
        assert "induced" in capsys.readouterr().err

    def test_direct_run_rejects_workers(self, capsys):
        args = [
            "run", "--rows", "32", "--cols", "32", "--generations", "4",
            "--backend", "bitplane", "--workers", "2",
        ]
        assert main(args) == 2
        assert "requires --supervised" in capsys.readouterr().err

    def test_supervised_rejects_parallel_backend(self, capsys):
        args = ["run", "--supervised", "--backend", "parallel"]
        with pytest.raises(SystemExit) as exc:
            main(args)
        assert exc.value.code == 2
        assert "invalid choice: 'parallel'" in capsys.readouterr().err

    def test_supervised_rejects_non_integer_workers(self, capsys):
        args = ["run", "--supervised", "--workers", "auto"]
        assert main(args) == 2
        assert "integer" in capsys.readouterr().err

    def test_faults_rejects_workers(self, capsys):
        args = ["faults", "--workers", "2"]
        with pytest.raises(SystemExit) as exc:
            main(args)
        assert exc.value.code == 2
        assert "--workers" in capsys.readouterr().err

    def test_faults_has_no_backend_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["faults", "--backend", "reference"])
        assert exc.value.code == 2
        assert "--backend" in capsys.readouterr().err

    def test_bad_induce_generation_is_usage_error(self, capsys):
        args = ["run", "--supervised", "--induce", "kill:0@notanumber"]
        assert main(args) == 2

    @pytest.mark.parametrize(
        "spec",
        [
            "kill:0@5:lives=x",
            "kill:0@5:lives=2.5",
            "stall:0@5:seconds=abc",
            "stall:0@5:seconds=inf",
        ],
    )
    def test_malformed_induce_value_is_usage_error(self, capsys, spec):
        assert main(["run", "--supervised", "--induce", spec]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.startswith("repro run: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "spec", ["backend-error:0@3", "kill:0@3:backend=bitplane"]
    )
    def test_removed_backend_attributed_fault_is_usage_error(self, capsys, spec):
        assert main(["run", "--supervised", "--induce", spec]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro run: ")
        assert err.count("\n") == 1

    def test_degraded_run_exits_3(self, capsys):
        args = [
            "run",
            "--supervised",
            "--rows", "16",
            "--cols", "16",
            "--generations", "8",
            "--checkpoint-interval", "4",
            "--restart-delay", "0.05",
            "--max-worker-restarts", "1",
            "--induce", "kill:1@5:lives=99",
            "--allow-degraded",
            "--json",
        ]
        assert main(args) == 3
        import json

        payload = json.loads(capsys.readouterr().out)
        assert payload["outcome"] == "degraded"
        assert payload["degraded_shards"]


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--rows", "0"],
        ["simulate", "--engine", "serial", "--depth", "0"],
        ["run", "--density", "2"],
        ["run", "--generations", "-1"],
        ["pebble", "--side", "0"],
        ["bounds", "--storage", "-1"],
    ],
    ids=" ".join,
)
def test_out_of_range_number_is_usage_error(capsys, argv):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith(f"repro {argv[0]}: ")
    assert err.count("\n") == 1


class TestTelemetry:
    def write_report(self, tmp_path, name="base.json"):
        path = tmp_path / name
        args = [
            "simulate", "--rows", "16", "--cols", "16", "--steps", "8",
            "--backend", "bitplane", "--telemetry", str(path),
        ]
        assert main(args) == 0
        return path

    def test_summarize_text(self, tmp_path, capsys):
        path = self.write_report(tmp_path)
        capsys.readouterr()
        assert main(["telemetry", "summarize", str(path)]) == 0
        out = capsys.readouterr().out
        assert "telemetry report" in out
        assert "kernel.bitplane.generations = 8" in out
        assert "run: " in out

    def test_summarize_json(self, tmp_path, capsys):
        path = self.write_report(tmp_path)
        capsys.readouterr()
        assert main(["telemetry", "summarize", "--json", str(path)]) == 0
        digest = json.loads(capsys.readouterr().out)
        assert digest["schema"] == "repro-telemetry"
        assert digest["counters"]["kernel.bitplane.generations"] == 8
        assert "buckets" not in next(iter(digest["timers"].values()))

    def test_supervised_run_writes_merged_v2_report(self, tmp_path, capsys):
        from repro.telemetry import TelemetryReport, validate_report

        path = tmp_path / "run.json"
        args = [
            "run", "--supervised",
            "--rows", "16", "--cols", "16", "--generations", "8",
            "--workers", "2", "--checkpoint-interval", "4",
            "--restart-delay", "0.05",
            "--telemetry", str(path), "--json",
        ]
        assert main(args) == 0
        capsys.readouterr()
        payload = json.loads(path.read_text())
        assert payload["schema_version"] == 2
        assert validate_report(payload) == []
        report = TelemetryReport.load(path)
        names = [p["name"] for p in report.processes]
        assert names == ["coordinator", "worker-0.0", "worker-1.0"]
        assert report.meta["command"] == "run"
        assert report.counters["shard.generations"] == 16

    def test_trace_default_output_path(self, tmp_path, capsys):
        path = self.write_report(tmp_path)
        capsys.readouterr()
        assert main(["telemetry", "trace", str(path)]) == 0
        out = capsys.readouterr().out
        trace_path = tmp_path / "base.trace.json"
        assert str(trace_path) in out
        payload = json.loads(trace_path.read_text())
        assert payload["traceEvents"]
        assert payload["displayTimeUnit"] == "ms"

    def test_trace_explicit_output(self, tmp_path, capsys):
        path = self.write_report(tmp_path)
        out_path = tmp_path / "custom.json"
        assert main(["telemetry", "trace", str(path), "-o", str(out_path)]) == 0
        assert json.loads(out_path.read_text())["traceEvents"]

    def test_diff_identical_reports_exits_zero(self, tmp_path, capsys):
        path = self.write_report(tmp_path)
        capsys.readouterr()
        assert main(["telemetry", "diff", str(path), str(path)]) == 0
        out = capsys.readouterr().out
        assert "0 regression(s)" in out

    def test_diff_flags_injected_slowdown(self, tmp_path, capsys):
        base = self.write_report(tmp_path)
        head = tmp_path / "head.json"
        payload = json.loads(base.read_text())
        for t in payload["timers"].values():
            t["mean_seconds"] *= 1.2
            t["total_seconds"] *= 1.2
        head.write_text(json.dumps(payload))
        capsys.readouterr()
        assert main([
            "telemetry", "diff", str(base), str(head),
            "--fail-on-regression", "10",
        ]) == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_diff_threshold_above_slowdown_passes(self, tmp_path, capsys):
        base = self.write_report(tmp_path)
        head = tmp_path / "head.json"
        payload = json.loads(base.read_text())
        for t in payload["timers"].values():
            t["mean_seconds"] *= 1.2
            t["total_seconds"] *= 1.2
        head.write_text(json.dumps(payload))
        assert main([
            "telemetry", "diff", str(base), str(head),
            "--fail-on-regression", "30",
        ]) == 0

    def test_diff_missing_file_is_usage_error(self, tmp_path, capsys):
        path = self.write_report(tmp_path)
        assert main(["telemetry", "diff", str(path), str(tmp_path / "no.json")]) == 2
        assert "cannot read" in capsys.readouterr().err


class TestVersion:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "repro 1.0.0" in capsys.readouterr().out
