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

    @pytest.mark.parametrize("argv", [["top"], ["runs", "trend"],
                                      ["runs", "triage"],
                                      ["slam", "--telemetry-stream", "x"],
                                      ["slam", "--serve-telemetry"],
                                      ["slam", "--telemetry-host", "x"],
                                      ["slam", "--telemetry-linger", "1"],
                                      ["atlas", "x"],
                                      ["slam", "--atlas", "x"],
                                      ["slam", "--atlas-tile", "8"],
                                      ["runs", "ingest", "--atlas", "x"],
                                      ["bench", "compare",
                                       "--counters-only"],
                                      ["slam", "--per-pixel-records"],
                                      ["trace", "--profile-top", "5"],
                                      ["trace", "--profile-out", "x"],
                                      ["bench", "run", "--size",
                                       "default"]],
                             ids=["top", "runs trend", "runs triage",
                                  "slam --telemetry-stream",
                                  "slam --serve-telemetry",
                                  "slam --telemetry-host",
                                  "slam --telemetry-linger",
                                  "atlas",
                                  "slam --atlas",
                                  "slam --atlas-tile",
                                  "runs ingest --atlas",
                                  "bench compare --counters-only",
                                  "slam --per-pixel-records",
                                  "trace --profile-top",
                                  "trace --profile-out",
                                  "bench run --size default"])
    def test_deleted_commands_are_rejected(self, argv):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2

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
        assert args.sections is None

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

    def test_trace_profile_memory_carries_every_column(self, tmp_path,
                                                       capsys):
        """Under --profile-memory the one stage table, markdown and JSON,
        carries wall and CPU self time, alloc and peak for every span."""
        out = str(tmp_path / "trace.json")
        argv = ["trace", "--frames", "2", "--width", "32", "--height", "24",
                "--out", out, "--profile-memory"]
        assert main(argv + ["--json"]) == 0
        rows = json.loads(capsys.readouterr().out)["stages"]
        assert rows
        for row in rows:
            assert {"self_s", "cpu_self_s", "alloc_bytes",
                    "peak_bytes"} <= set(row)
        assert [row["self_s"] for row in rows] == sorted(
            (row["self_s"] for row in rows), reverse=True)
        assert main(argv) == 0
        table = capsys.readouterr().out
        assert "| self ms | self % | cpu self ms | alloc | peak |" in table
        assert "tracking_fwd" in table

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
                     "--current", bad, "--sections", "counters",
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

    @pytest.mark.parametrize("scenario", ["tracking", "mapping"])
    def test_attrib_traces_only_the_attributed_pixel_iteration(
            self, scenario, capsys):
        """The wall-time fold sits beside the pixel workload's cycles, so
        neither the probe-map build nor the Org./Org.+S variants may
        enter it."""
        from repro.obs import trace

        assert main(["-q", "bench", "attrib", "--scenario", scenario,
                     "--size", "tiny"]) == 0
        records = trace.records
        assert any(r.attrs.get("pipeline") == "pixel" for r in records)
        for r in records:
            assert r.name != "bench.build_bundle"
            assert not r.name.startswith("mapping_")
            assert r.attrs.get("pipeline") != "tile", r.name


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
        ["info"],
        ["runs"],
        ["runs", "list"],
        ["runs", "show"],
        ["runs", "ingest"],
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
                     "report", "info", "runs"):
            assert name in out

    def test_version_prints_schema_inventory(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith("repro ")
        assert "artifact schema versions:" in out
        for artifact in ("flight record", "bench trajectory",
                         "run registry"):
            assert artifact in out
        assert "span profile" not in out


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

    def test_list_json_tells_the_two_configs_apart(self, registry_dir,
                                                   capsys):
        # The two runs differ only in --tracking-tile.
        assert main(["runs", "list", "--registry", registry_dir,
                     "--json"]) == 0
        first, second = json.loads(capsys.readouterr().out)
        assert first["key"]["config_hash"] != second["key"]["config_hash"]

    def test_show_renders_metrics(self, registry_dir, capsys):
        assert main(["runs", "show", "-1",
                     "--registry", registry_dir]) == 0
        out = capsys.readouterr().out
        assert "slam.ate.rmse_m" in out
        assert "tracking_tile" in out

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


class TestSlamOnAlert:
    """`--on-alert raise` aborts any `repro slam` run at the first alert
    with EXIT_HEALTH_ABORT instead of a traceback."""

    ARGS = ["-q", "slam", "--frames", "4", "--width", "24", "--height", "18",
            "--tracking-tile", "8", "--on-alert", "raise"]

    @pytest.fixture
    def fires_on_frame_1(self, monkeypatch):
        from repro.obs.health import HealthMonitor

        original = HealthMonitor.observe_frame

        def observe_frame(self, record):
            if record["frame"] == 1:
                self._alert("pose_jump", "forced alert", frame=1)
            return original(self, record)

        monkeypatch.setattr(HealthMonitor, "observe_frame", observe_frame)

    def test_raise_alone_aborts_with_exit_code(self, fires_on_frame_1):
        from repro.cli import EXIT_HEALTH_ABORT

        assert main(self.ARGS) == EXIT_HEALTH_ABORT

    def test_raise_with_registry_aborts_and_registers_nothing(
            self, fires_on_frame_1, tmp_path):
        from repro.cli import EXIT_HEALTH_ABORT
        from repro.obs.runsdb import RunRegistry

        root = str(tmp_path / "reg")
        assert main(self.ARGS + ["--registry", root]) == EXIT_HEALTH_ABORT
        assert RunRegistry(root).runs() == []

    def test_aborting_alert_reaches_the_stream_once(self, fires_on_frame_1,
                                                    tmp_path, capsys):
        """The aborting alert closes the flight record, once, after the
        frames before the abort, and `repro report` names it."""
        from repro.cli import EXIT_HEALTH_ABORT

        record = str(tmp_path / "run.jsonl")
        assert main(self.ARGS + ["--flight-record", record]) \
            == EXIT_HEALTH_ABORT
        lines = [json.loads(l) for l in open(record).read().splitlines()]
        assert [l["type"] for l in lines] == ["header", "frame", "alert"]
        assert lines[-1]["monitor"] == "pose_jump"
        assert lines[-1]["frame"] == 1
        capsys.readouterr()
        assert main(["report", record]) == 0
        report = capsys.readouterr().out
        assert "- **health alerts**: 1" in report
        assert "| 1 | pose_jump | forced alert |" in report

    def test_warn_policy_completes(self, fires_on_frame_1, tmp_path):
        record = str(tmp_path / "run.jsonl")
        args = [a if a != "raise" else "warn" for a in self.ARGS]
        assert main(args + ["--flight-record", record]) == 0
