"""Command-line interface.

Ten subcommands::

    repro slam --sequence room0 --out results/      # run SLAM, save outputs
    repro render --scene-seed 7 --out view.ppm      # render a scene
    repro figure fig22                              # regenerate one figure
    repro trace --frames 4 --out trace.json         # traced proxy SLAM run
    repro bench run|compare|attrib                  # perf-trajectory suite
    repro report run.jsonl                          # flight-record report
    repro atlas atlas.jsonl.gz                      # sparsity-atlas heatmaps
    repro top --endpoint localhost:9464             # live run dashboard
    repro runs list|show|ingest|trend|triage|prune  # run registry
    repro info                                      # presets + hw summary

``repro bench`` is the workload-counter harness: ``run`` executes the
benchmark suite and writes ``BENCH_trajectory.json`` (exact counters,
hardware-model outputs, and the observability-overhead ratios; wall
time is ``perfbench/``'s job), ``compare`` gates a trajectory against a
committed ``BENCH_baseline.json`` (non-zero exit on regression — wire it
into CI), and ``attrib`` prints the per-hardware-unit cycle-attribution
table with an optional flamegraph export.

``repro slam --flight-record run.jsonl`` records one structured record
per frame (poses, losses, sampling composition, health alerts); ``repro
report run.jsonl`` renders it as a markdown/HTML run report and ``repro
report --diff a.jsonl b.jsonl`` aligns two runs frame-by-frame and
reports where they first diverged (exit 1 on divergence, diff-style).

``repro slam --serve-telemetry`` turns on the live telemetry bus and a
background HTTP exporter (``/metrics`` in Prometheus text format,
``/healthz``, and a ``/runz`` JSON run snapshot); ``repro top
--endpoint localhost:9464`` renders that endpoint as a live terminal
dashboard, and ``repro top --once --from-flight run.jsonl`` renders a
recorded flight log's final snapshot.  ``repro slam --telemetry-stream
TARGET`` additionally streams every bus event as newline-JSON to a
file, ``tcp://host:port``, or ``unix:///path`` socket.

``repro slam --atlas atlas.jsonl.gz`` additionally records the sparsity
atlas — per-frame spatial heatmaps of sampled pixels, candidate/contrib
pairs, Gaussian incidence, and atomic adds — and ``repro atlas`` renders
the artifact as unicode (or HTML) heatmaps with occupancy histograms and
measured-vs-modeled tables.  ``repro trace --profile-memory
--profile-top 15`` adds per-span CPU time and tracemalloc allocation
deltas and prints the top-N self-time/alloc table.

``repro slam --registry [DIR]`` / ``repro bench run --registry [DIR]``
register the finished run (metrics + content-addressed artifacts) in
the append-only run registry (default ``.repro/runs/``); ``repro runs``
is the longitudinal layer on top — ``list``/``show`` browse the index,
``ingest`` registers existing artifacts after the fact, ``trend``
renders per-metric sparkline time series with median+MAD changepoint
detection, ``triage`` walks the evidence chain between two runs and
ranks culprit stages/units, and ``prune`` bounds history.

Global flags: ``-v``/``-q`` adjust log verbosity, ``--version`` prints
the package plus artifact schema versions, and ``--trace PATH``
captures a Chrome trace of *any* subcommand (open it in Perfetto or
``chrome://tracing``; see README "Observability").

Installed as the ``repro`` console script; also runnable via
``python -m repro.cli``.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

import numpy as np

from .obs import configure, get_logger, trace
from .obs.bench import SIZES

__all__ = ["main", "build_parser"]

log = get_logger("cli")


def _version_text() -> str:
    """Package version plus every artifact format's schema version."""
    from . import __version__
    from .obs.atlas import ATLAS_SCHEMA_VERSION
    from .obs.bench import SCHEMA_VERSION as BENCH_SCHEMA_VERSION
    from .obs.flight import FLIGHT_SCHEMA_VERSION
    from .obs.prof import PROFILE_SCHEMA_VERSION
    from .obs.runsdb import REGISTRY_SCHEMA_VERSION
    from .obs.telemetry import STREAM_SCHEMA_VERSION

    lines = [f"repro {__version__}", "artifact schema versions:"]
    for name, version in (
            ("flight record", FLIGHT_SCHEMA_VERSION),
            ("bench trajectory", BENCH_SCHEMA_VERSION),
            ("sparsity atlas", ATLAS_SCHEMA_VERSION),
            ("telemetry stream", STREAM_SCHEMA_VERSION),
            ("span profile", PROFILE_SCHEMA_VERSION),
            ("run registry", REGISTRY_SCHEMA_VERSION)):
        lines.append(f"  {name:18s} v{version}")
    return "\n".join(lines)


class _VersionAction(argparse.Action):
    """``--version``: print package + schema versions, then exit."""

    def __init__(self, option_strings, dest, **kwargs):
        super().__init__(option_strings, dest, nargs=0, **kwargs)

    def __call__(self, parser, namespace, values, option_string=None):
        print(_version_text())
        parser.exit(0)


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"invalid positive int value: {text!r}")
    return value


def _add_registry_option(parser, default=None) -> None:
    from .obs.runsdb import DEFAULT_REGISTRY_ROOT

    if default is None:
        # Recording commands: off unless requested, bare flag = default
        # root.  `repro runs` subcommands always have a registry.
        parser.add_argument(
            "--registry", metavar="DIR", nargs="?",
            const=DEFAULT_REGISTRY_ROOT, default=None,
            help="register the finished run in the run registry at DIR "
                 f"(default: {DEFAULT_REGISTRY_ROOT})")
    else:
        parser.add_argument(
            "--registry", metavar="DIR", default=default,
            help=f"run-registry root (default: {default})")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SPLATONIC: sparse-processing 3DGS SLAM (reproduction)")
    parser.add_argument("-v", "--verbose", action="count", default=0,
                        help="more log output (repeatable)")
    parser.add_argument("-q", "--quiet", action="count", default=0,
                        help="less log output (repeatable)")
    parser.add_argument("--trace", dest="trace_out", metavar="PATH",
                        default=None,
                        help="capture a Chrome trace of the subcommand "
                             "and write it to PATH")
    parser.add_argument("--version", action=_VersionAction,
                        help="print the package version and every "
                             "artifact format's schema version")
    sub = parser.add_subparsers(dest="command", required=True)

    p_slam = sub.add_parser("slam", help="run SLAM on a synthetic sequence")
    p_slam.add_argument("--sequence", default="room0")
    p_slam.add_argument("--dataset", choices=["replica", "tum"],
                        default="replica")
    p_slam.add_argument("--algorithm", default="splatam",
                        choices=["splatam", "monogs", "gsslam", "flashslam"])
    p_slam.add_argument("--mode", choices=["sparse", "dense"],
                        default="sparse")
    p_slam.add_argument("--frames", type=int, default=12)
    p_slam.add_argument("--width", type=int, default=64)
    p_slam.add_argument("--height", type=int, default=48)
    p_slam.add_argument("--tracking-tile", type=int, default=8)
    p_slam.add_argument("--render-cache", action="store_true", default=None,
                        help="enable the temporal-coherence render cache "
                             "(cross-iteration candidate reuse with exact "
                             "revalidation; bit-identical outputs; default: "
                             "$REPRO_RENDER_CACHE or off)")
    p_slam.add_argument("--per-pixel-records", action="store_true",
                        help="keep the per-item stats record lists during "
                             "the run (off by default: nothing in this "
                             "command reads them)")
    p_slam.add_argument("--seed", type=int, default=0)
    p_slam.add_argument("--out", default=None,
                        help="directory for trajectory/cloud/render outputs")
    p_slam.add_argument("--flight-record", metavar="PATH", default=None,
                        help="record per-frame flight telemetry (JSONL) "
                             "to PATH; render it with `repro report`")
    p_slam.add_argument("--on-alert", choices=["warn", "raise"],
                        default="warn",
                        help="health-monitor escalation policy "
                             "(default: warn)")
    p_slam.add_argument("--atlas", metavar="PATH", default=None,
                        help="record the sparsity atlas (gzip JSONL) to "
                             "PATH; render it with `repro atlas`")
    p_slam.add_argument("--atlas-tile", type=int, default=None,
                        help="atlas binning tile in pixels (default: 8)")
    p_slam.add_argument("--serve-telemetry", metavar="PORT", nargs="?",
                        type=int, const=-1, default=None,
                        help="enable the live telemetry bus and serve "
                             "/metrics /healthz /runz over HTTP "
                             "(default port: 9464; 0 picks an ephemeral "
                             "port); watch it with `repro top`")
    p_slam.add_argument("--telemetry-host", default="127.0.0.1",
                        help="bind host of the telemetry exporter "
                             "(default: 127.0.0.1)")
    p_slam.add_argument("--telemetry-linger", type=float, default=0.0,
                        metavar="SEC",
                        help="keep the telemetry endpoint serving this "
                             "many seconds after the run finishes")
    p_slam.add_argument("--telemetry-stream", metavar="TARGET", default=None,
                        help="stream bus events as newline-JSON to TARGET "
                             "(file path, tcp://host:port, or "
                             "unix:///path); implies the telemetry bus")
    _add_registry_option(p_slam)

    p_render = sub.add_parser("render", help="render a procedural scene or "
                                             "a saved cloud")
    p_render.add_argument("--cloud", default=None,
                          help=".npz cloud saved by `repro slam`")
    p_render.add_argument("--scene-seed", type=int, default=0,
                          help="procedural scene seed (when no --cloud)")
    p_render.add_argument("--width", type=int, default=160)
    p_render.add_argument("--height", type=int, default=120)
    p_render.add_argument("--out", required=True, help="output .ppm path")
    p_render.add_argument("--depth-out", default=None,
                          help="optional depth .pgm path")

    p_fig = sub.add_parser("figure", help="regenerate one paper figure")
    p_fig.add_argument("name", help="e.g. fig11, fig22, area "
                                    "(see `repro figure list`)")

    p_trace = sub.add_parser(
        "trace", help="run a traced proxy SLAM sequence and report the "
                      "per-stage time breakdown")
    p_trace.add_argument("--sequence", default="room0")
    p_trace.add_argument("--dataset", choices=["replica", "tum"],
                         default="replica")
    p_trace.add_argument("--algorithm", default="splatam",
                         choices=["splatam", "monogs", "gsslam", "flashslam"])
    p_trace.add_argument("--mode", choices=["sparse", "dense"],
                         default="sparse")
    p_trace.add_argument("--frames", type=int, default=4)
    p_trace.add_argument("--width", type=int, default=48)
    p_trace.add_argument("--height", type=int, default=36)
    p_trace.add_argument("--tracking-tile", type=int, default=8)
    p_trace.add_argument("--render-cache", action="store_true", default=None,
                         help="enable the temporal-coherence render cache "
                              "(default: $REPRO_RENDER_CACHE or off); the "
                              "trace gains render.cache_validate/_rebuild "
                              "spans")
    p_trace.add_argument("--seed", type=int, default=0)
    p_trace.add_argument("--out", default="trace.json",
                         help="Chrome trace-event JSON output path")
    p_trace.add_argument("--metrics-out", default=None,
                         help="optional metrics-registry JSON output path")
    p_trace.add_argument("--json", action="store_true",
                         help="print the stage table as key-sorted JSON "
                              "instead of markdown")
    p_trace.add_argument("--profile-memory", action="store_true",
                         help="profile per-span allocations with "
                              "tracemalloc (adds overhead)")
    p_trace.add_argument("--profile-top", type=int, default=0,
                         metavar="N",
                         help="print the top-N spans by self time (and "
                              "allocations with --profile-memory)")
    p_trace.add_argument("--profile-out", default=None, metavar="PATH",
                         help="write the span profile as key-sorted JSON")

    p_bench = sub.add_parser(
        "bench", help="perf-trajectory suite: run / compare / attrib")
    bench_sub = p_bench.add_subparsers(dest="bench_command", required=True)

    b_run = bench_sub.add_parser(
        "run", help="execute the benchmark suite and write a trajectory")
    b_run.add_argument("--size", default="small", choices=sorted(SIZES),
                       help="suite size")
    b_run.add_argument("--reps", type=_positive_int, default=3,
                       help="repetitions per scenario (counters must match "
                            "across them; overhead ratios take the median)")
    b_run.add_argument("--scenarios", default=None,
                       help="comma-separated scenario subset (default: all)")
    b_run.add_argument("--sequence", default="room0")
    b_run.add_argument("--seed", type=int, default=0)
    b_run.add_argument("--out", default="BENCH_trajectory.json",
                       help="trajectory JSON output path")
    _add_registry_option(b_run)

    b_cmp = bench_sub.add_parser(
        "compare", help="gate a trajectory against a committed baseline "
                        "(exit 1 on regression, 2 on structural errors)")
    b_cmp.add_argument("--baseline", default="BENCH_baseline.json")
    b_cmp.add_argument("--current", default="BENCH_trajectory.json")
    b_cmp.add_argument("--counters-only", action="store_true",
                       help="gate only the exact workload counters "
                            "(machine-portable; use in CI)")
    b_cmp.add_argument("--scenarios", default=None,
                       help="comma-separated scenario subset to compare "
                            "(default: every scenario in the baseline)")
    b_cmp.add_argument("--sections", default=None,
                       help="comma-separated section subset "
                            "(counters,model,overhead); overrides "
                            "--counters-only")
    b_cmp.add_argument("--json-out", default=None,
                       help="optional machine-readable report output path")

    b_att = bench_sub.add_parser(
        "attrib", help="per-hardware-unit cycle attribution of one "
                       "scenario workload")
    b_att.add_argument("--scenario", default="tracking",
                       choices=["tracking", "mapping"])
    b_att.add_argument("--size", default="small", choices=sorted(SIZES),
                       help="suite size")
    b_att.add_argument("--sequence", default="room0")
    b_att.add_argument("--seed", type=int, default=0)
    b_att.add_argument("--out", default=None,
                       help="optional attribution-report JSON output path")
    b_att.add_argument("--trace-out", dest="unit_trace_out", default=None,
                       help="optional per-unit Chrome-trace/flamegraph "
                            "output path")

    p_report = sub.add_parser(
        "report", help="render a flight-record run report, or diff two "
                       "runs frame-by-frame")
    p_report.add_argument("records", nargs="+", metavar="RECORD",
                          help="flight-record JSONL path(s): one to "
                               "report, two with --diff")
    p_report.add_argument("--diff", action="store_true",
                          help="align two records frame-by-frame and "
                               "report the first divergence "
                               "(exit 1 when the runs diverge)")
    p_report.add_argument("--format", choices=["markdown", "html"],
                          default="markdown",
                          help="report output format (default: markdown)")
    p_report.add_argument("--out", default=None,
                          help="write the report here instead of stdout")

    p_atlas = sub.add_parser(
        "atlas", help="render a sparsity-atlas artifact as spatial "
                      "work heatmaps")
    p_atlas.add_argument("artifact", metavar="ARTIFACT",
                         help="atlas path recorded by `repro slam --atlas`")
    p_atlas.add_argument("--channel", default=None,
                         choices=["sampled", "candidates", "contribs",
                                  "gaussians", "atomics"],
                         help="restrict the heatmaps to one channel "
                              "(default: all)")
    p_atlas.add_argument("--frame", type=int, default=None,
                         help="render one frame's grids instead of the "
                              "run aggregates")
    p_atlas.add_argument("--format", choices=["markdown", "html"],
                         default="markdown",
                         help="report output format (default: markdown)")
    p_atlas.add_argument("--out", default=None,
                         help="write the report here instead of stdout")

    p_top = sub.add_parser(
        "top", help="live terminal dashboard over a telemetry endpoint "
                    "or a recorded flight log")
    p_top.add_argument("--endpoint", metavar="URL", default=None,
                       help="telemetry exporter to poll, e.g. "
                            "localhost:9464 (from `repro slam "
                            "--serve-telemetry`)")
    p_top.add_argument("--from-flight", metavar="PATH", default=None,
                       help="render a recorded flight-record JSONL "
                            "instead of a live endpoint")
    p_top.add_argument("--once", action="store_true",
                       help="render one snapshot and exit (scriptable; "
                            "no screen clearing)")
    p_top.add_argument("--interval", type=float, default=0.5,
                       help="refresh interval in seconds (default: 0.5)")
    p_top.add_argument("--width", type=int, default=100,
                       help="dashboard width in columns (default: 100)")
    p_top.add_argument("--no-color", action="store_true",
                       help="plain-text output (no ANSI styling or "
                            "screen clearing)")

    from .obs.runsdb import DEFAULT_REGISTRY_ROOT

    p_runs = sub.add_parser(
        "runs", help="run registry: list / show / ingest / trend / "
                     "triage / prune")
    runs_sub = p_runs.add_subparsers(dest="runs_command", required=True)

    r_list = runs_sub.add_parser(
        "list", help="list registered runs (newest last)")
    _add_registry_option(r_list, default=DEFAULT_REGISTRY_ROOT)
    r_list.add_argument("--kind", default=None,
                        help="restrict to one run kind (slam, bench, ...)")
    r_list.add_argument("--limit", type=int, default=0, metavar="N",
                        help="show only the N most recent runs")
    r_list.add_argument("--json", action="store_true",
                        help="print the index records as JSON")

    r_show = runs_sub.add_parser(
        "show", help="show one registered run's record")
    _add_registry_option(r_show, default=DEFAULT_REGISTRY_ROOT)
    r_show.add_argument("run", metavar="RUN",
                        help="run id, unique id prefix, or sequence "
                             "number (-1 = latest)")

    r_ingest = runs_sub.add_parser(
        "ingest", help="register existing artifacts after the fact")
    _add_registry_option(r_ingest, default=DEFAULT_REGISTRY_ROOT)
    r_ingest.add_argument("--flight", metavar="PATH", default=None,
                          help="flight-record JSONL to ingest as a slam "
                               "run")
    r_ingest.add_argument("--bench", metavar="PATH", default=None,
                          help="BENCH_trajectory.json to ingest as a "
                               "bench run")
    r_ingest.add_argument("--atlas", metavar="PATH", default=None,
                          help="sparsity-atlas artifact to attach")
    r_ingest.add_argument("--attrib", metavar="PATH", default=None,
                          help="cycle-attribution JSON to attach")
    r_ingest.add_argument("--regress", metavar="PATH", default=None,
                          help="bench-compare report JSON to attach")
    r_ingest.add_argument("--sequence", default=None,
                          help="dataset/sequence name override")

    r_trend = runs_sub.add_parser(
        "trend", help="per-metric time series with changepoint detection")
    _add_registry_option(r_trend, default=DEFAULT_REGISTRY_ROOT)
    r_trend.add_argument("--metric", default=None, metavar="GLOBS",
                         help="comma-separated metric-name globs "
                              "(default: wall/ATE/cycles/sparsity "
                              "headline set)")
    r_trend.add_argument("--kind", default=None,
                         help="restrict to one run kind (slam, bench, ...)")
    r_trend.add_argument("--json-out", default=None, metavar="PATH",
                         help="also write the raw series + changepoints "
                              "as JSON")

    r_triage = runs_sub.add_parser(
        "triage", help="walk the evidence chain between two runs and "
                       "rank culprit stages/units")
    _add_registry_option(r_triage, default=DEFAULT_REGISTRY_ROOT)
    r_triage.add_argument("base", metavar="BASE", nargs="?", default="-2",
                          help="baseline run ref (default: second-latest)")
    r_triage.add_argument("current", metavar="CURRENT", nargs="?",
                          default="-1",
                          help="current run ref (default: latest)")
    r_triage.add_argument("--json-out", default=None, metavar="PATH",
                          help="machine-readable report output path")
    r_triage.add_argument("--out", default=None, metavar="PATH",
                          help="write the markdown report here instead "
                               "of stdout")

    r_prune = runs_sub.add_parser(
        "prune", help="keep the N most recent runs; drop unreferenced "
                      "artifact objects")
    _add_registry_option(r_prune, default=DEFAULT_REGISTRY_ROOT)
    r_prune.add_argument("--keep", type=int, required=True, metavar="N",
                         help="number of most recent runs to keep")

    sub.add_parser("info", help="print presets and hardware configuration")
    return parser


def _make_sequence(args, note=None):
    from .datasets import make_replica_sequence, make_tum_sequence

    maker = (make_replica_sequence if args.dataset == "replica"
             else make_tum_sequence)
    (note or log.info)(f"building {args.dataset}/{args.sequence} "
                       f"({args.frames} frames, {args.width}x{args.height}) ...")
    return maker(args.sequence, n_frames=args.frames, width=args.width,
                 height=args.height, surface_density=10)


def _cmd_slam(args) -> int:
    import time as _time

    from .core import SplatonicConfig
    from .io import save_cloud, save_ppm, save_trajectory_tum
    from .metrics import rpe
    from .obs import ingest_pipeline_stats, metrics
    from .obs.atlas import AtlasCollector, DEFAULT_ATLAS_TILE
    from .obs.flight import FlightRecorder
    from .obs.health import HealthConfig, HealthMonitor
    from .obs.telemetry import (
        DEFAULT_PORT,
        TelemetryConfig,
        TelemetryStreamer,
        bus,
    )
    from .render import render_full
    from .gaussians import Camera
    from .slam import SLAMSystem

    sequence = _make_sequence(args)
    system = SLAMSystem(
        args.algorithm, mode=args.mode,
        splatonic_config=SplatonicConfig(
            tracking_tile=args.tracking_tile,
            record_per_pixel=args.per_pixel_records,
            render_cache=args.render_cache),
        seed=args.seed)
    telemetry_on = (args.serve_telemetry is not None
                    or args.telemetry_stream is not None)
    flight = health = atlas = None
    observers = []
    if args.flight_record or telemetry_on:
        # Recorded and live runs watch health, so alerts reach the record
        # and the ticker under the chosen policy.
        health = HealthMonitor(HealthConfig(on_alert=args.on_alert))
        observers.append(health)
    if args.flight_record:
        flight = FlightRecorder()
        flight.enable(args.flight_record)
        observers.append(flight)
    if args.atlas:
        atlas = AtlasCollector(tile=args.atlas_tile or DEFAULT_ATLAS_TILE)
        atlas.enable(args.atlas)
        observers.append(atlas)
    if args.registry:
        from .obs.runsdb import RunRegistry

        observers.append(RunRegistry(args.registry))

    server = None
    streamer = None
    if telemetry_on:
        from .obs.promexport import serve_telemetry

        bus.enable()
        if args.serve_telemetry is not None:
            port = (DEFAULT_PORT if args.serve_telemetry < 0
                    else args.serve_telemetry)
            server = serve_telemetry(TelemetryConfig(
                host=args.telemetry_host, port=port))
            log.info(f"serving telemetry on {server.url} "
                     f"(/metrics /healthz /runz); watch with "
                     f"`repro top --endpoint {server.url}`")
        if args.telemetry_stream is not None:
            streamer = TelemetryStreamer(args.telemetry_stream).start()
            if streamer.failed:
                log.warning(f"telemetry stream target "
                            f"{args.telemetry_stream} unavailable "
                            f"({streamer.error}); run continues, events "
                            f"count as dropped")
            else:
                log.info(f"streaming telemetry to {args.telemetry_stream}")

    log.info(f"running {args.algorithm} ({args.mode}) ...")
    try:
        result = system.run(sequence, observers=observers)
        if telemetry_on:
            # Fold the run's stage totals into the registry so the final
            # /metrics scrape carries the workload counters too.
            for stage in SLAMSystem.STAGES:
                ingest_pipeline_stats(stage, result.stage_stats[stage])
            metrics.publish_snapshot()
    finally:
        if telemetry_on and args.telemetry_linger > 0:
            log.info(f"telemetry endpoint lingering "
                     f"{args.telemetry_linger:g} s ...")
            _time.sleep(args.telemetry_linger)
        if streamer is not None:
            stats = streamer.stop()
            log.info(f"telemetry stream: {stats['lines']} lines to "
                     f"{stats['target']} ({stats['dropped']} dropped)")
        if server is not None:
            stats = server.stop()
            log.info(f"telemetry endpoint {stats['url']} closed "
                     f"({stats['delivered']} events, "
                     f"{stats['dropped']} dropped)")
        if telemetry_on:
            bus.disable()
        if flight is not None:
            flight.disable()
        if atlas is not None:
            atlas.disable()
    if flight is not None:
        n_alerts = len(health.alerts)
        log.info(f"wrote {len(flight.records)} flight records to "
                 f"{args.flight_record} ({n_alerts} health alerts); "
                 f"render with `repro report {args.flight_record}`")
    if atlas is not None:
        log.info(f"wrote sparsity atlas ({atlas.tile}px tiles) to "
                 f"{args.atlas}; render with `repro atlas {args.atlas}`")
    if result.run_id is not None:
        log.info(f"registered run {result.run_id} in {args.registry}; "
                 f"inspect with `repro runs show {result.run_id} "
                 f"--registry {args.registry}`")

    ate = result.ate()
    drift = rpe(result.est_trajectory, result.gt_trajectory)
    quality = result.eval_quality(sequence)
    log.info(f"ATE  : {ate.rmse * 100:.2f} cm (rmse), "
             f"{ate.median * 100:.2f} cm (median)")
    log.info(f"RPE  : {drift.trans_rmse * 100:.2f} cm, "
             f"{np.rad2deg(drift.rot_rmse):.2f} deg per frame")
    log.info(f"PSNR : {quality['psnr']:.2f} dB   "
             f"SSIM: {quality['ssim']:.3f}   "
             f"depth L1: {quality['depth_l1']:.3f} m")
    log.info(f"map  : {len(result.cloud)} Gaussians after "
             f"{result.mapping_invocations} mapping invocations")

    if args.out:
        os.makedirs(args.out, exist_ok=True)
        save_trajectory_tum(os.path.join(args.out, "trajectory_est.txt"),
                            result.est_trajectory)
        save_trajectory_tum(os.path.join(args.out, "trajectory_gt.txt"),
                            result.gt_trajectory)
        save_cloud(os.path.join(args.out, "cloud.npz"), result.cloud)
        cam = Camera(sequence.intrinsics, result.est_trajectory[-1])
        view = render_full(result.cloud, cam, np.full(3, 0.05),
                           keep_cache=False)
        save_ppm(os.path.join(args.out, "final_view.ppm"), view.color)
        log.info(f"wrote trajectory_est.txt / trajectory_gt.txt / cloud.npz "
                 f"/ final_view.ppm to {args.out}")
    return 0


def _cmd_render(args) -> int:
    from .datasets import SceneSpec, make_room_scene
    from .datasets.trajectory import look_at
    from .gaussians import Camera, Intrinsics
    from .io import load_cloud, save_pgm, save_ppm
    from .render import render_full

    if args.cloud:
        cloud = load_cloud(args.cloud)
        from .render.anisotropic import AnisotropicCloud
        if isinstance(cloud, AnisotropicCloud):
            raise SystemExit(
                "render: anisotropic clouds render through "
                "repro.render.render_sparse_anisotropic (API only)")
    else:
        cloud = make_room_scene(SceneSpec(seed=args.scene_seed))
    intr = Intrinsics.from_fov(args.width, args.height, 75.0)
    camera = Camera(intr, look_at(np.array([0.3, -0.2, -0.3]),
                                  np.array([2.5, 0.0, 1.0])))
    result = render_full(cloud, camera, np.full(3, 0.05), keep_cache=False)
    save_ppm(args.out, result.color)
    log.info(f"wrote {args.out} ({args.width}x{args.height}, "
             f"{len(cloud)} Gaussians)")
    if args.depth_out:
        save_pgm(args.depth_out, result.depth)
        log.info(f"wrote {args.depth_out}")
    return 0


_FIGURES = {
    "fig04": "fig04_latency", "fig05": "fig05_breakdown",
    "fig07": "fig07_utilization", "fig08": "fig08_aggregation",
    "fig09": "fig09_alpha_share", "fig10": "fig10_strategies",
    "fig11": "fig11_raster_speedup", "fig14": "fig14_bottleneck_shift",
    "fig17": "fig17_replica_accuracy", "fig18": "fig18_tum_accuracy",
    "fig19": "fig19_gpu_e2e", "fig20": "fig20_mapping_gpu",
    "fig21": "fig21_stage_speedup", "fig22": "fig22_accel_tracking",
    "fig23": "fig23_accel_mapping", "fig24": "fig24_mapping_ablation",
    "fig25": "fig25_sampling_sensitivity",
    "fig26": "fig26_accuracy_sensitivity",
    "fig27": "fig27_unit_sensitivity", "area": "area_table",
    "lut": "ablation_lut", "aggregation": "ablation_aggregation_unit",
    "gamma-cache": "ablation_gamma_cache",
    "bbox-index": "ablation_bbox_indexing",
    "preemptive": "ablation_preemptive_alpha",
}


def _cmd_figure(args) -> int:
    from .bench import figures, print_table

    if args.name == "list":
        for key in sorted(_FIGURES):
            fn = getattr(figures, _FIGURES[key])
            summary = (fn.__doc__ or "").strip().splitlines()[0]
            print(f"{key:8s} {summary}")
        return 0
    if args.name not in _FIGURES:
        raise SystemExit(
            f"unknown figure {args.name!r}; try `repro figure list`")
    fn = getattr(figures, _FIGURES[args.name])
    log.info(f"running {args.name} ({fn.__name__}) — this may take a "
             f"while ...")
    rows = fn()
    print_table(args.name, rows)
    return 0


def _cmd_trace(args) -> int:
    """Run a proxy SLAM sequence under the tracer and report per stage."""
    import json

    from .core import SplatonicConfig
    from .obs import ingest_pipeline_stats, metrics
    from .slam import SLAMSystem

    # In --json mode keep stdout parseable at default verbosity.
    note = log.debug if args.json else log.info

    sequence = _make_sequence(args, note=note)
    # Per-item records stay on: ingest_pipeline_stats derives the
    # warp-utilization metrics from them.
    system = SLAMSystem(
        args.algorithm, mode=args.mode,
        splatonic_config=SplatonicConfig(
            tracking_tile=args.tracking_tile,
            render_cache=args.render_cache),
        seed=args.seed)
    note(f"tracing {args.algorithm} ({args.mode}) ...")
    with trace.capture(memory=args.profile_memory or None):
        result = system.run(sequence)

    for stage in SLAMSystem.STAGES:
        ingest_pipeline_stats(stage, result.stage_stats[stage])

    n_events = trace.write_chrome_trace(args.out)
    top_n = args.profile_top
    if top_n <= 0 and args.profile_memory:
        top_n = 10  # memory profiling without a table would be silent
    if args.json:
        payload = {
            "scenario": {
                "algorithm": args.algorithm,
                "mode": args.mode,
                "sequence": args.sequence,
                "frames": result.num_frames,
                "width": args.width,
                "height": args.height,
            },
            "stages": [
                {"span": row["span"], "count": row["count"],
                 "total_s": round(row["total_s"], 6),
                 "self_s": round(row["self_s"], 6)}
                for row in trace.stage_table()
            ],
            "trace_events": n_events,
            "trace_path": args.out,
        }
        if top_n > 0:
            from .obs import prof
            payload["profile"] = prof.top_spans(n=top_n)
        print(json.dumps(payload, indent=1, sort_keys=True))
    else:
        print(trace.format_summary(
            title=f"stage times — {args.algorithm}/{args.mode}, "
                  f"{result.num_frames} frames"))
        if top_n > 0:
            from .obs import prof
            print(prof.format_top_table(n=top_n))
    note(f"wrote {n_events} trace events to {args.out} "
         f"(load in Perfetto / chrome://tracing)")
    if args.profile_out:
        from .obs import prof
        prof.write_profile(args.profile_out)
        note(f"wrote span profile to {args.profile_out}")
    if args.metrics_out:
        metrics.write_json(args.metrics_out)
        note(f"wrote metrics registry to {args.metrics_out}")
    return 0


def _cmd_bench(args) -> int:
    handlers = {
        "run": _cmd_bench_run,
        "compare": _cmd_bench_compare,
        "attrib": _cmd_bench_attrib,
    }
    return handlers[args.bench_command](args)


def _cmd_bench_run(args) -> int:
    from .obs import bench as obs_bench

    cfg = obs_bench.SuiteConfig(size=args.size, repetitions=args.reps,
                                sequence=args.sequence, seed=args.seed)
    names = ([s.strip() for s in args.scenarios.split(",") if s.strip()]
             if args.scenarios else None)
    unknown = sorted(set(names or ()) - set(obs_bench.SCENARIOS))
    if unknown:
        raise SystemExit(f"unknown scenarios {unknown}; choose from "
                         f"{sorted(obs_bench.SCENARIOS)}")
    payload = obs_bench.run_suite(cfg, scenarios=names)
    obs_bench.write_trajectory(payload, args.out)
    log.info(f"wrote {len(payload['scenarios'])} scenarios to {args.out} "
             f"(schema v{payload['schema_version']})")
    if args.registry:
        from .obs.runsdb import RunRegistry, ingest_bench_payload

        record = ingest_bench_payload(RunRegistry(args.registry), payload)
        log.info(f"registered bench run {record['run_id']} in "
                 f"{args.registry}")
    return 0


def _cmd_bench_compare(args) -> int:
    from .obs import regress

    if args.sections:
        sections = [s.strip() for s in args.sections.split(",") if s.strip()]
        unknown = set(sections) - set(regress.DEFAULT_SECTIONS)
        if unknown:
            raise SystemExit(f"unknown sections {sorted(unknown)}; choose "
                             f"from {list(regress.DEFAULT_SECTIONS)}")
    elif args.counters_only:
        sections = ["counters"]
    else:
        sections = list(regress.DEFAULT_SECTIONS)

    scenarios = ([s.strip() for s in args.scenarios.split(",") if s.strip()]
                 if args.scenarios else None)
    report = regress.compare_files(args.current, args.baseline,
                                   sections=sections, scenarios=scenarios)
    print(report.format_markdown())
    if args.json_out:
        report.write_json(args.json_out)
        log.info(f"wrote comparison report to {args.json_out}")
    return report.exit_code


def _cmd_bench_attrib(args) -> int:
    from .bench.scenarios import (
        build_bundle,
        mapping_workloads,
        tracking_workloads,
    )
    from .obs import attrib as obs_attrib

    spec = SIZES[args.size]
    log.info(f"building {args.scenario} workload "
             f"({spec.width}x{spec.height}, {spec.frames} frames) ...")
    # Capture the workload measurement so the report can fold measured
    # wall self-times per paper stage next to the modeled cycles.
    with trace.capture():
        bundle = build_bundle(args.sequence, width=spec.width,
                              height=spec.height, n_frames=spec.frames,
                              seed=args.seed)
        if args.scenario == "tracking":
            workloads = tracking_workloads(bundle, tile=spec.tracking_tile,
                                           seed=args.seed)
        else:
            workloads = mapping_workloads(bundle, tile=spec.mapping_tile,
                                          seed=args.seed)
    report = obs_attrib.attribute_workload(
        workloads["pixel"], scenario=f"{args.scenario}/{args.size}",
        tracer=trace)
    print(report.format_table())
    if args.out:
        report.write_json(args.out)
        log.info(f"wrote attribution report to {args.out}")
    if args.unit_trace_out:
        n_events = report.write_chrome_trace(args.unit_trace_out)
        log.info(f"wrote {n_events} per-unit trace events to "
                 f"{args.unit_trace_out}")
    return 0


def _cmd_runs(args) -> int:
    handlers = {
        "list": _cmd_runs_list,
        "show": _cmd_runs_show,
        "ingest": _cmd_runs_ingest,
        "trend": _cmd_runs_trend,
        "triage": _cmd_runs_triage,
        "prune": _cmd_runs_prune,
    }
    return handlers[args.runs_command](args)


def _cmd_runs_list(args) -> int:
    import json

    from .obs.runsdb import RunRegistry

    registry = RunRegistry(args.registry)
    try:
        records = registry.runs(kind=args.kind)
    except ValueError as exc:
        raise SystemExit(f"runs list: {exc}")
    if args.limit > 0:
        records = records[-args.limit:]
    if args.json:
        print(json.dumps(records, indent=1, sort_keys=True))
        return 0
    if not records:
        print(f"registry {args.registry} is empty; record runs with "
              f"`repro slam --registry` / `repro bench run --registry` "
              f"or `repro runs ingest`")
        return 0
    print(f"| seq | run id | kind | created | dataset | config | "
          f"artifacts |")
    print(f"|---:|---|---|---|---|---|---|")
    for record in records:
        key = record.get("key") or {}
        arts = ",".join(sorted(record.get("artifacts") or {})) or "—"
        print(f"| {record.get('seq')} | {record.get('run_id')} "
              f"| {record.get('kind')} | {record.get('created')} "
              f"| {key.get('dataset') or '—'} "
              f"| {key.get('config_hash') or '—'} | {arts} |")
    stats = registry.stats()
    print(f"\n{stats['runs']} runs, {stats['objects']} objects, "
          f"{stats['bytes']} bytes in {stats['root']}")
    return 0


def _cmd_runs_show(args) -> int:
    import json

    from .obs.runsdb import RunRegistry

    registry = RunRegistry(args.registry)
    try:
        record = registry.get(args.run)
    except (KeyError, ValueError) as exc:
        raise SystemExit(f"runs show: {exc}")
    print(json.dumps(record, indent=1, sort_keys=True))
    return 0


def _cmd_runs_ingest(args) -> int:
    import json

    from .obs import runsdb

    sources = [s for s in (args.flight, args.bench) if s]
    if len(sources) != 1:
        raise SystemExit("runs ingest needs exactly one of --flight PATH "
                         "or --bench PATH")
    registry = runsdb.RunRegistry(args.registry)
    extra = {}
    for name, path in (("atlas", args.atlas), ("attrib", args.attrib),
                       ("regress", args.regress)):
        if path:
            extra[name] = path
    try:
        if args.flight:
            with open(args.flight, encoding="utf-8") as f:
                records = [json.loads(line) for line in f if line.strip()]
            record = runsdb.ingest_slam_run(
                registry, records, sequence=args.sequence,
                extra_artifacts=extra or None)
        else:
            from .obs.regress import load_trajectory

            record = runsdb.ingest_bench_payload(
                registry, load_trajectory(args.bench),
                extra_artifacts=extra or None)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        raise SystemExit(f"runs ingest: {exc}")
    log.info(f"registered {record['kind']} run {record['run_id']} "
             f"(seq {record['seq']}, "
             f"{len(record['artifacts'])} artifacts) in {args.registry}")
    print(record["run_id"])
    return 0


def _cmd_runs_trend(args) -> int:
    import json

    from .obs import triage as obs_triage
    from .obs.runsdb import RunRegistry

    registry = RunRegistry(args.registry)
    try:
        records = registry.runs(kind=args.kind)
    except ValueError as exc:
        raise SystemExit(f"runs trend: {exc}")
    patterns = ([p.strip() for p in args.metric.split(",") if p.strip()]
                if args.metric else None)
    print(obs_triage.format_trend(records, patterns=patterns))
    if args.json_out:
        selected = obs_triage.select_metrics(records, patterns)
        payload = {}
        for name in selected:
            series = obs_triage.metric_series(records, name)
            if len(series) < 2:
                continue
            step = obs_triage.detect_step(
                [v for _s, _r, v in series],
                seqs=[s for s, _r, _v in series])
            payload[name] = {
                "series": [{"seq": s, "run_id": r, "value": v}
                           for s, r, v in series],
                "changepoint": None if step is None else {
                    "seq": step.seq, "before": step.before,
                    "after": step.after, "rel": step.rel},
            }
        with open(args.json_out, "w") as f:
            json.dump(payload, f, indent=1, sort_keys=True)
            f.write("\n")
        log.info(f"wrote trend series to {args.json_out}")
    return 0


def _cmd_runs_triage(args) -> int:
    from .obs import triage as obs_triage
    from .obs.runsdb import RunRegistry

    registry = RunRegistry(args.registry)
    try:
        base = registry.get(args.base)
        current = registry.get(args.current)
    except (KeyError, ValueError) as exc:
        raise SystemExit(f"runs triage: {exc} (registry {args.registry})")
    report = obs_triage.triage_runs(registry, base, current)
    text = report.format_markdown()
    if args.out:
        with open(args.out, "w") as f:
            f.write(text)
        log.info(f"wrote triage report to {args.out}")
    else:
        print(text, end="")
    if args.json_out:
        report.write_json(args.json_out)
        log.info(f"wrote triage report to {args.json_out}")
    return 0


def _cmd_runs_prune(args) -> int:
    from .obs.runsdb import RunRegistry

    registry = RunRegistry(args.registry)
    try:
        result = registry.prune(args.keep)
    except ValueError as exc:
        raise SystemExit(f"runs prune: {exc}")
    log.info(f"pruned {result['removed_runs']} runs, "
             f"{result['removed_objects']} objects "
             f"({result['freed_bytes']} bytes freed); "
             f"{result['kept_runs']} runs kept")
    return 0


def _cmd_report(args) -> int:
    from .obs.flight import read_flight_record
    from .obs.report import diff_runs, render_report

    def _emit(text: str) -> None:
        if args.out:
            with open(args.out, "w") as f:
                f.write(text)
            log.info(f"wrote report to {args.out}")
        else:
            print(text, end="")

    if args.diff:
        if len(args.records) != 2:
            raise SystemExit("report --diff needs exactly two records")
        a = read_flight_record(args.records[0])
        b = read_flight_record(args.records[1])
        diff = diff_runs(a, b)
        _emit(diff.format_markdown())
        # diff-style exit code: 0 identical, 1 diverged.
        return 1 if diff.diverged else 0
    if len(args.records) != 1:
        raise SystemExit("report renders exactly one record "
                         "(use --diff for two)")
    log_data = read_flight_record(args.records[0])
    _emit(render_report(log_data, fmt=args.format))
    return 0


def _cmd_atlas(args) -> int:
    from .obs.atlas import read_atlas
    from .obs.report import render_atlas_report

    atlas_log = read_atlas(args.artifact)
    if args.frame is not None and not (
            0 <= args.frame < atlas_log.num_frames):
        raise SystemExit(f"frame {args.frame} out of range "
                         f"(artifact has {atlas_log.num_frames} frames)")
    text = render_atlas_report(atlas_log, fmt=args.format,
                               channel=args.channel, frame=args.frame)
    if args.out:
        with open(args.out, "w") as f:
            f.write(text)
        log.info(f"wrote atlas report to {args.out}")
    else:
        print(text, end="")
    return 0


def _cmd_top(args) -> int:
    from .obs import top as obs_top

    if bool(args.endpoint) == bool(args.from_flight):
        raise SystemExit("top needs exactly one of --endpoint URL or "
                         "--from-flight PATH")
    if args.from_flight:
        try:
            source = obs_top.FlightSource(args.from_flight)
        except (OSError, ValueError) as exc:
            raise SystemExit(f"top: cannot read flight record: {exc}")
    else:
        source = obs_top.HttpSource(args.endpoint)
    try:
        obs_top.run_top(source, interval=args.interval, once=args.once,
                        width=args.width, color=not args.no_color)
    except OSError as exc:
        raise SystemExit(f"top: cannot reach {args.endpoint}: {exc}")
    return 0


def _cmd_info(_args) -> int:
    from . import __version__
    from .hw import GpuSpec, SplatonicHwConfig, splatonic_area
    from .slam import ALGORITHMS

    log.info(f"repro {__version__} — SPLATONIC reproduction (HPCA 2026)")
    log.info("\nalgorithm presets:")
    for name, cfg in ALGORITHMS.items():
        log.info(f"  {name:10s} track_iters={cfg.tracking_iters:3d} "
                 f"map_iters={cfg.mapping_iters:3d} "
                 f"map_every={cfg.map_every} "
                 f"kf_window={cfg.keyframe_window}")
    spec = GpuSpec()
    log.info(f"\nGPU model: {spec.name}, {spec.sms} SMs x "
             f"{spec.cores_per_sm} cores @ {spec.clock_hz / 1e6:.0f} MHz")
    hw = SplatonicHwConfig()
    area = splatonic_area(hw)
    log.info(f"SPLATONIC-HW: {hw.projection_units} projection units x "
             f"{hw.alpha_filters_per_unit} alpha-filters, "
             f"{hw.sorting_units} sorters, {hw.raster_engines} raster "
             f"engines, {area.total:.2f} mm^2 @ 16 nm")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    configure(args.verbose - args.quiet)
    handlers = {
        "slam": _cmd_slam,
        "render": _cmd_render,
        "figure": _cmd_figure,
        "trace": _cmd_trace,
        "bench": _cmd_bench,
        "report": _cmd_report,
        "atlas": _cmd_atlas,
        "top": _cmd_top,
        "runs": _cmd_runs,
        "info": _cmd_info,
    }
    # Global --trace: capture the whole subcommand (the `trace` and `bench`
    # subcommands manage their own capture windows and output paths).
    capture_path = (args.trace_out
                    if args.command not in ("trace", "bench") else None)
    if capture_path:
        trace.enable(reset=True)
    try:
        code = handlers[args.command](args)
    finally:
        if capture_path:
            trace.disable()
            n_events = trace.write_chrome_trace(capture_path)
            print(trace.format_summary(title=f"trace — {args.command}"))
            log.info(f"wrote {n_events} trace events to {capture_path}")
    return code


if __name__ == "__main__":
    sys.exit(main())
