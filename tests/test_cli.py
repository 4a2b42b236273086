"""CLI: argument parsing and end-to-end subcommand runs."""

import json
import os

import numpy as np
import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_slam_defaults(self):
        args = build_parser().parse_args(["slam"])
        assert args.algorithm == "splatam"
        assert args.mode == "sparse"

    def test_render_requires_out(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["render"])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fly"])

    def test_trace_defaults(self):
        args = build_parser().parse_args(["trace"])
        assert args.out == "trace.json"
        assert args.frames == 4

    def test_global_verbosity_flags(self):
        args = build_parser().parse_args(["-vv", "info"])
        assert args.verbose == 2 and args.quiet == 0
        args = build_parser().parse_args(["-q", "info"])
        assert args.quiet == 1

    def test_bench_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bench"])

    def test_bench_run_defaults(self):
        args = build_parser().parse_args(["bench", "run"])
        assert args.bench_command == "run"
        assert args.size == "small"
        assert args.reps == 3
        assert args.out == "BENCH_trajectory.json"

    def test_bench_compare_defaults(self):
        args = build_parser().parse_args(["bench", "compare"])
        assert args.baseline == "BENCH_baseline.json"
        assert args.current == "BENCH_trajectory.json"
        assert not args.counters_only

    @pytest.mark.parametrize("argv", [
        ["bench", "run", "--size", "bogus"],
        ["bench", "attrib", "--size", "bogus"],
        ["bench", "run", "--reps", "0"],
        ["bench", "run", "--reps", "-2"],
    ])
    def test_bench_rejects_bad_values(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2
        assert "invalid" in capsys.readouterr().err

    def test_bench_attrib_trace_out_does_not_shadow_global_trace(self):
        args = build_parser().parse_args(
            ["bench", "attrib", "--trace-out", "units.json"])
        assert args.unit_trace_out == "units.json"
        assert args.trace_out is None  # the global --trace flag


class TestCommands:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "splatam" in out
        assert "SPLATONIC-HW" in out

    def test_figure_list(self, capsys):
        assert main(["figure", "list"]) == 0
        out = capsys.readouterr().out
        assert "fig22" in out and "area" in out

    def test_figure_unknown(self):
        with pytest.raises(SystemExit):
            main(["figure", "fig99"])

    def test_figure_area(self, capsys):
        assert main(["figure", "area"]) == 0
        assert "TOTAL" in capsys.readouterr().out

    def test_render_writes_files(self, tmp_path, capsys):
        out = str(tmp_path / "v.ppm")
        depth = str(tmp_path / "d.pgm")
        code = main(["render", "--out", out, "--depth-out", depth,
                     "--width", "32", "--height", "24"])
        assert code == 0
        assert open(out, "rb").read(2) == b"P6"
        assert open(depth, "rb").read(2) == b"P5"

    def test_render_saved_cloud(self, tmp_path):
        from repro.gaussians import GaussianCloud
        from repro.io import save_cloud
        rng = np.random.default_rng(0)
        cloud = GaussianCloud.create(
            means=np.stack([rng.uniform(-1, 1, 20),
                            rng.uniform(-1, 1, 20),
                            rng.uniform(1, 4, 20)], axis=-1),
            scales=rng.uniform(0.05, 0.2, 20),
            opacities=rng.uniform(0.3, 0.9, 20),
            colors=rng.uniform(0, 1, (20, 3)))
        cloud_path = str(tmp_path / "c.npz")
        save_cloud(cloud_path, cloud)
        out = str(tmp_path / "v.ppm")
        assert main(["render", "--cloud", cloud_path, "--out", out,
                     "--width", "32", "--height", "24"]) == 0
        assert os.path.exists(out)

    def test_trace_writes_chrome_trace_and_table(self, tmp_path, capsys):
        out = str(tmp_path / "trace.json")
        metrics_out = str(tmp_path / "metrics.json")
        code = main(["trace", "--frames", "2", "--width", "32",
                     "--height", "24", "--out", out,
                     "--metrics-out", metrics_out])
        assert code == 0
        events = json.loads(open(out).read())
        assert isinstance(events, list) and events
        for ev in events:
            assert set(ev) >= {"name", "ph", "ts", "dur", "pid", "tid"}
            assert ev["ph"] == "X"
        names = {ev["name"] for ev in events}
        printed = capsys.readouterr().out
        for stage in ("tracking_fwd", "tracking_bwd", "mapping_fwd",
                      "mapping_bwd"):
            assert stage in names
            assert stage in printed  # the per-stage summary table
        exported = json.loads(open(metrics_out).read())
        assert "tracking_fwd.num_pixels" in exported["counters"]

    def test_trace_json_mode_prints_parseable_payload(self, tmp_path,
                                                      capsys):
        out = str(tmp_path / "trace.json")
        code = main(["trace", "--frames", "2", "--width", "32",
                     "--height", "24", "--out", out, "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["scenario"]["frames"] == 2
        assert payload["trace_events"] > 0
        spans = {row["span"] for row in payload["stages"]}
        assert "tracking_fwd" in spans
        # Key-sorted canonical output for stable diffs.
        assert (json.dumps(payload, indent=1, sort_keys=True)
                == json.dumps(payload, indent=1))

    def test_quiet_silences_narration(self, tmp_path, capsys):
        out = str(tmp_path / "v.ppm")
        assert main(["-qq", "render", "--out", out, "--width", "32",
                     "--height", "24"]) == 0
        assert "wrote" not in capsys.readouterr().out.lower()

class TestBenchCommands:
    """End-to-end `repro bench run|compare|attrib` flows (tiny suite)."""

    def test_run_compare_and_injected_regression(self, tmp_path, capsys):
        traj = str(tmp_path / "traj.json")
        # Keep the CLI round-trip fast: one scenario, one repetition.
        code = main(["-q", "bench", "run", "--size", "tiny", "--reps", "1",
                     "--scenarios", "hw_units", "--out", traj])
        assert code == 0
        doc = json.loads(open(traj).read())
        assert doc["schema_version"] == 1
        assert "hw_units" in doc["scenarios"]
        capsys.readouterr()

        # Clean self-comparison gates green ...
        assert main(["-q", "bench", "compare", "--baseline", traj,
                     "--current", traj]) == 0
        assert "PASS" in capsys.readouterr().out

        # ... an injected counter regression gates red with attribution.
        doc["scenarios"]["hw_units"]["counters"]["sorter.keys"] += 1
        bad = str(tmp_path / "bad.json")
        json.dump(doc, open(bad, "w"))
        report_out = str(tmp_path / "report.json")
        code = main(["-q", "bench", "compare", "--baseline", traj,
                     "--current", bad, "--counters-only",
                     "--json-out", report_out])
        assert code == 1
        printed = capsys.readouterr().out
        assert "FAIL" in printed and "sorter.keys" in printed
        report = json.loads(open(report_out).read())
        assert report["passed"] is False

    def test_compare_missing_baseline_exits_2(self, tmp_path, capsys):
        code = main(["-q", "bench", "compare",
                     "--baseline", str(tmp_path / "missing.json"),
                     "--current", str(tmp_path / "also_missing.json")])
        assert code == 2
        assert "not found" in capsys.readouterr().out

    def test_bench_run_unknown_size_errors(self):
        with pytest.raises(SystemExit) as exc:
            main(["-q", "bench", "run", "--size", "galactic"])
        assert exc.value.code == 2

    def test_bench_run_unknown_scenario_names_the_valid_ones(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["-q", "bench", "run", "--size", "tiny",
                  "--scenarios", "hw_units,nope",
                  "--out", str(tmp_path / "traj.json")])
        message = str(exc.value.code)
        assert "nope" in message and "hw_units" in message
        assert "obs_overhead" in message
        assert not (tmp_path / "traj.json").exists()

    def test_compare_scenarios_missing_baseline_prints_hint(self, tmp_path,
                                                            capsys):
        code = main(["-q", "bench", "compare",
                     "--baseline", str(tmp_path / "missing.json"),
                     "--current", str(tmp_path / "also_missing.json"),
                     "--scenarios", "obs_overhead"])
        assert code == 2
        out = capsys.readouterr().out
        assert "baseline file not found" in out
        assert "record one with `repro bench run" in out

    def test_attrib_prints_table_and_writes_exports(self, tmp_path, capsys):
        out = str(tmp_path / "attrib.json")
        units = str(tmp_path / "units.json")
        code = main(["-q", "bench", "attrib", "--scenario", "tracking",
                     "--size", "tiny", "--out", out, "--trace-out", units])
        assert code == 0
        printed = capsys.readouterr().out
        assert "cycle attribution" in printed
        assert "<-- bottleneck" in printed
        assert "measured wall time" in printed
        doc = json.loads(open(out).read())
        assert doc["bottlenecks"]["forward"]
        events = json.loads(open(units).read())
        assert {e["ph"] for e in events} == {"M", "X"}


class TestSlamEndToEnd:
    @pytest.mark.slow
    def test_slam_end_to_end(self, tmp_path, capsys):
        out_dir = str(tmp_path / "run")
        code = main(["slam", "--frames", "5", "--width", "40",
                     "--height", "30", "--tracking-tile", "8",
                     "--out", out_dir])
        assert code == 0
        printed = capsys.readouterr().out
        assert "ATE" in printed and "PSNR" in printed
        for name in ("trajectory_est.txt", "trajectory_gt.txt",
                     "cloud.npz", "final_view.ppm"):
            assert os.path.exists(os.path.join(out_dir, name)), name


class TestReportParser:
    def test_defaults(self):
        args = build_parser().parse_args(["report", "run.jsonl"])
        assert args.records == ["run.jsonl"]
        assert not args.diff
        assert args.format == "markdown"
        assert args.out is None

    def test_diff_takes_two_records(self):
        args = build_parser().parse_args(
            ["report", "--diff", "a.jsonl", "b.jsonl"])
        assert args.diff and args.records == ["a.jsonl", "b.jsonl"]

    def test_requires_a_record(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["report"])

    def test_slam_flight_record_flags(self):
        args = build_parser().parse_args(
            ["slam", "--flight-record", "run.jsonl", "--on-alert", "raise"])
        assert args.flight_record == "run.jsonl"
        assert args.on_alert == "raise"
        args = build_parser().parse_args(["slam"])
        assert args.flight_record is None and args.on_alert == "warn"


class TestReportCommand:
    @pytest.fixture(scope="class")
    def record_path(self, tmp_path_factory):
        path = str(tmp_path_factory.mktemp("cli-flight") / "run.jsonl")
        code = main(["-q", "slam", "--frames", "3", "--width", "24",
                     "--height", "18", "--tracking-tile", "8",
                     "--flight-record", path])
        assert code == 0
        return path

    def test_report_prints_markdown(self, record_path, capsys):
        assert main(["report", record_path]) == 0
        out = capsys.readouterr().out
        assert out.startswith("# flight report")
        assert "per-frame detail" in out

    def test_report_html_to_file(self, record_path, tmp_path):
        out = str(tmp_path / "report.html")
        assert main(["-q", "report", record_path,
                     "--format", "html", "--out", out]) == 0
        with open(out) as f:
            text = f.read()
        assert text.startswith("<!DOCTYPE html>")

    def test_self_diff_is_clean_and_exits_zero(self, record_path, capsys):
        assert main(["report", "--diff", record_path, record_path]) == 0
        assert "no divergence" in capsys.readouterr().out

    def test_diff_of_different_runs_exits_one(self, record_path, tmp_path,
                                              capsys):
        other = str(tmp_path / "other.jsonl")
        code = main(["-q", "slam", "--frames", "3", "--width", "24",
                     "--height", "18", "--tracking-tile", "8",
                     "--seed", "7", "--flight-record", other])
        assert code == 0
        capsys.readouterr()
        assert main(["report", "--diff", record_path, other]) == 1
        assert "first divergence at frame" in capsys.readouterr().out

    def test_diff_requires_exactly_two(self, record_path):
        with pytest.raises(SystemExit):
            main(["report", "--diff", record_path])

    def test_single_report_rejects_two_records(self, record_path):
        with pytest.raises(SystemExit):
            main(["report", record_path, record_path])


class TestHelpSmoke:
    """Every subcommand (and bench sub-subcommand) has working --help."""

    COMMANDS = [
        [],
        ["slam"],
        ["render"],
        ["figure"],
        ["trace"],
        ["bench"],
        ["bench", "run"],
        ["bench", "compare"],
        ["bench", "attrib"],
        ["report"],
        ["atlas"],
        ["top"],
        ["info"],
        ["runs"],
        ["runs", "list"],
        ["runs", "show"],
        ["runs", "ingest"],
        ["runs", "trend"],
        ["runs", "triage"],
        ["runs", "prune"],
    ]

    @pytest.mark.parametrize("command", COMMANDS,
                             ids=[" ".join(c) or "root" for c in COMMANDS])
    def test_help_exits_zero(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([*command, "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "usage:" in out

    def test_root_help_lists_every_subcommand(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        out = capsys.readouterr().out
        for name in ("slam", "render", "figure", "trace", "bench",
                     "report", "atlas", "top", "info", "runs"):
            assert name in out

    def test_version_prints_schema_inventory(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith("repro ")
        assert "artifact schema versions:" in out
        for artifact in ("flight record", "bench trajectory",
                         "sparsity atlas", "telemetry stream",
                         "span profile", "run registry"):
            assert artifact in out


class TestRegistryFlags:
    def test_slam_registry_defaults_off(self):
        args = build_parser().parse_args(["slam"])
        assert args.registry is None

    def test_slam_registry_bare_uses_default_root(self):
        from repro.obs.runsdb import DEFAULT_REGISTRY_ROOT
        args = build_parser().parse_args(["slam", "--registry"])
        assert args.registry == DEFAULT_REGISTRY_ROOT

    def test_slam_registry_explicit_dir(self):
        args = build_parser().parse_args(["slam", "--registry", "/tmp/reg"])
        assert args.registry == "/tmp/reg"

    def test_runs_trend_parses_metric_globs(self):
        args = build_parser().parse_args(
            ["runs", "trend", "--metric", "slam.wall.*,slam.ate.*"])
        assert args.metric == "slam.wall.*,slam.ate.*"

    def test_runs_triage_defaults_to_last_two(self):
        args = build_parser().parse_args(["runs", "triage"])
        assert args.base == "-2" and args.current == "-1"

    def test_runs_prune_requires_keep(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["runs", "prune"])


class TestRunsEndToEnd:
    """`repro slam --registry` twice, then the whole `repro runs`
    surface against the resulting registry."""

    @pytest.fixture(scope="class")
    def registry_dir(self, tmp_path_factory):
        reg = str(tmp_path_factory.mktemp("cli-runs") / "reg")
        for tile in ("8", "4"):
            code = main(["-q", "slam", "--frames", "4", "--width", "32",
                         "--height", "24", "--tracking-tile", tile,
                         "--registry", reg])
            assert code == 0
        return reg

    def test_list_shows_both_runs_and_stats(self, registry_dir, capsys):
        assert main(["runs", "list", "--registry", registry_dir]) == 0
        out = capsys.readouterr().out
        assert out.count("slam") >= 2
        assert "2 runs" in out

    def test_list_json_is_parseable(self, registry_dir, capsys):
        assert main(["runs", "list", "--registry", registry_dir,
                     "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == 2
        assert [r["seq"] for r in rows] == [1, 2]

    def test_show_renders_metrics(self, registry_dir, capsys):
        assert main(["runs", "show", "-1",
                     "--registry", registry_dir]) == 0
        out = capsys.readouterr().out
        assert "slam.ate.rmse_m" in out
        assert "tracking_tile" in out

    def test_trend_detects_no_step_on_two_runs(self, registry_dir, tmp_path,
                                               capsys):
        json_out = str(tmp_path / "trend.json")
        assert main(["runs", "trend", "--registry", registry_dir,
                     "--json-out", json_out]) == 0
        assert "slam.wall.mean_s" in capsys.readouterr().out
        doc = json.loads(open(json_out).read())
        assert "slam.wall.mean_s" in doc
        assert len(doc["slam.wall.mean_s"]["series"]) == 2

    def test_triage_names_the_perturbed_stage(self, registry_dir, tmp_path,
                                              capsys):
        json_out = str(tmp_path / "triage.json")
        md_out = str(tmp_path / "triage.md")
        assert main(["runs", "triage", "--registry", registry_dir,
                     "--json-out", json_out, "--out", md_out]) == 0
        capsys.readouterr()
        text = open(md_out).read()
        assert text.startswith("### run triage")
        assert "top culprit: tracking" in text
        doc = json.loads(open(json_out).read())
        assert doc["culprits"][0]["stage"] == "tracking"
        assert "tracking_tile" in {d["key"] for d in doc["config_delta"]}

    def test_triage_prints_to_stdout_without_out(self, registry_dir, capsys):
        assert main(["runs", "triage", "--registry", registry_dir]) == 0
        assert "top culprit: tracking" in capsys.readouterr().out

    def test_unknown_run_show_exits_nonzero(self, registry_dir):
        with pytest.raises(SystemExit):
            main(["runs", "show", "zzz", "--registry", registry_dir])

    def test_prune_runs_last(self, registry_dir, capsys):
        # Keep both runs so earlier tests' registry stays intact; this
        # class is ordered, prune is the final surface exercised.
        assert main(["runs", "prune", "--keep", "2",
                     "--registry", registry_dir]) == 0
        out = capsys.readouterr().out
        assert "2 runs kept" in out


class TestTelemetryFlags:
    def test_slam_telemetry_defaults_off(self):
        args = build_parser().parse_args(["slam"])
        assert args.serve_telemetry is None
        assert args.telemetry_stream is None
        assert args.telemetry_host == "127.0.0.1"
        assert args.telemetry_linger == 0.0

    def test_serve_telemetry_bare_means_default_port(self):
        args = build_parser().parse_args(["slam", "--serve-telemetry"])
        assert args.serve_telemetry == -1    # sentinel: DEFAULT_PORT

    def test_serve_telemetry_explicit_port(self):
        args = build_parser().parse_args(
            ["slam", "--serve-telemetry", "0", "--telemetry-host", "0.0.0.0"])
        assert args.serve_telemetry == 0
        assert args.telemetry_host == "0.0.0.0"

    def test_telemetry_stream_target(self):
        args = build_parser().parse_args(
            ["slam", "--telemetry-stream", "tcp://localhost:5005"])
        assert args.telemetry_stream == "tcp://localhost:5005"

    def test_top_defaults(self):
        args = build_parser().parse_args(["top"])
        assert args.endpoint is None and args.from_flight is None
        assert args.once is False
        assert args.interval == 0.5
        assert args.width == 100
        assert args.no_color is False

    def test_top_flags(self):
        args = build_parser().parse_args(
            ["top", "--endpoint", "localhost:9464", "--once", "--no-color",
             "--interval", "0.1", "--width", "72"])
        assert args.endpoint == "localhost:9464"
        assert args.once and args.no_color
        assert args.interval == 0.1 and args.width == 72


class TestSlamTelemetryEndToEnd:
    def test_serve_and_stream_during_run(self, tmp_path):
        """`repro slam --serve-telemetry 0 --telemetry-stream FILE`
        streams the whole run as JSONL and leaves the bus disabled (and
        subscriber-free) afterwards."""
        from repro.obs.telemetry import bus

        stream = str(tmp_path / "stream.jsonl")
        code = main(["-q", "slam", "--frames", "3", "--width", "24",
                     "--height", "18", "--tracking-tile", "8",
                     "--serve-telemetry", "0",
                     "--telemetry-stream", stream])
        assert code == 0
        assert not bus.enabled           # CLI tears the bus down
        assert bus.subscriber_count == 0
        lines = [json.loads(l) for l in open(stream).read().splitlines()]
        kinds = [l["kind"] for l in lines]
        assert kinds[0] == "header"
        # The run stream ends with the summary, then the CLI publishes
        # one final post-run metrics snapshot (stage stats ingested).
        assert "summary" in kinds
        assert kinds[-1] == "metrics"
        assert kinds.count("frame") == 3
        assert kinds.count("metrics") >= 3

    def test_stream_alone_enables_the_bus(self, tmp_path):
        from repro.obs.telemetry import bus

        stream = str(tmp_path / "s.jsonl")
        assert main(["-q", "slam", "--frames", "3", "--width", "24",
                     "--height", "18", "--tracking-tile", "8",
                     "--telemetry-stream", stream]) == 0
        assert not bus.enabled
        assert open(stream).read().count('"kind": "frame"') == 3
