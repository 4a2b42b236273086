"""Observability: tracing, metrics, benchmarking, and regression gating.

Six cooperating pieces.  The core three are stdlib-only at import time
(no imports from the rest of the package, so any layer may instrument
itself without cycles); the perf-trajectory trio keeps its module-level
imports stdlib-only too and pulls in the scenario/hardware layers lazily
inside functions:

- :mod:`repro.obs.tracing` — the :data:`trace` span tracer.  Wrap stages
  in ``with trace.span("tracking_fwd", frame=i):``; export Chrome
  trace-event JSON for Perfetto plus a markdown per-stage time table.
  Disabled by default at near-zero cost.
- :mod:`repro.obs.metrics` — the :data:`metrics` registry (counters /
  gauges / histograms) and ``ingest_*`` bridges that pull in
  ``PipelineStats`` counters and hardware-model outputs so algorithmic
  and wall-clock views share one export path.
- :mod:`repro.obs.log` — ``get_logger`` / ``configure`` for the CLI's
  ``-v``/``-q`` leveled output.
- :mod:`repro.obs.bench` — the benchmark runner: executes the scenario
  suite with N repetitions and emits the versioned
  ``BENCH_trajectory.json`` payload (exact workload counters, modeled
  cycles, observability-overhead ratios, environment fingerprint).
  Wall time is ``perfbench/``'s job.
- :mod:`repro.obs.regress` — the regression gate: diffs a trajectory
  against a committed baseline with per-kind tolerances (exact for
  counters, tiny-rel for model floats, a hard budget for the overhead
  ratios).
- :mod:`repro.obs.attrib` — cycle attribution: maps modeled cycles and
  traced wall time onto the paper's pipeline stages per hardware unit,
  with bottleneck tables and a per-unit Chrome-trace export.
- :mod:`repro.obs.flight` — the schema of ``SLAMSystem.run``'s event
  stream (header, one record per frame with poses, loss curves,
  sampling composition, workload counters and stage wall times, summary)
  and the flight recorder, the observer that writes it as JSONL.  The
  health monitor, atlas, run registry and telemetry bus observe the
  same stream; with no observer the run builds no record.
- :mod:`repro.obs.health` — online health monitors over the run stream
  (NaN/∞, pose jumps, loss divergence, coverage collapse,
  runaway densification) with a ``warn``/``raise`` escalation policy.
- :mod:`repro.obs.report` — run reports (markdown/HTML, sparkline
  summaries) and frame-aligned run-to-run diffing for flight records.
- :mod:`repro.obs.atlas` — the sparsity atlas: per-frame spatial work
  heatmaps (sampled pixels, candidate/contrib pairs, per-tile Gaussian
  incidence, atomic adds) collected from both kernel backends into a
  schema-versioned gzip artifact, with aggregation + heatmap rendering.
- :mod:`repro.obs.prof` — the continuous profiler: per-span CPU time
  and opt-in tracemalloc allocation/peak deltas on the tracer, plus
  top-N self-time/alloc tables and a JSON profile export.
- :mod:`repro.obs.telemetry` — the live telemetry :data:`~repro.obs.
  telemetry.bus`: a backpressure-safe in-process pub/sub bus (bounded
  per-subscriber rings, drop counters, disabled == free) that observes
  the SLAM run stream and that the health monitors, metrics registry,
  and tracer publish onto,
  plus the :class:`~repro.obs.telemetry.RunAggregator` live run snapshot
  and the newline-JSON :class:`~repro.obs.telemetry.TelemetryStreamer`.
- :mod:`repro.obs.promexport` — the stdlib-only HTTP exporter over the
  bus: ``/metrics`` (Prometheus text exposition), ``/healthz``, and the
  ``/runz`` JSON run snapshot, behind ``repro slam --serve-telemetry``.
- :mod:`repro.obs.top` — the ``repro top`` live terminal dashboard:
  renders the run snapshot (fps, pose RMSE, loss sparklines, sampling
  composition, alert ticker) from the in-process bus, a remote
  endpoint, or a recorded flight log.
- :mod:`repro.obs.runsdb` — the run registry: an append-only JSONL run
  index plus a content-addressed artifact store under ``.repro/runs/``,
  keyed by environment fingerprint / git SHA / config hash / dataset,
  ingesting flight logs, bench payloads, atlas archives, and
  attribution reports behind ``--registry`` (disabled == free).
- :mod:`repro.obs.triage` — cross-run analytics over the registry:
  per-metric trend sparklines with median+MAD changepoint detection
  (``repro runs trend``) and automated regression triage that walks the
  evidence chain — metrics, regress verdict, cycle attribution, atlas
  totals, flight differ — into a ranked culprit report
  (``repro runs triage``).

See README "Observability" / "Watching a run" / "Run registry" and
EXPERIMENTS.md "Perf trajectory" / "Flight recorder" / "Sparsity atlas
& profiler" / "Live telemetry" / "Longitudinal analysis" for the
workflow, and DESIGN.md for the span name ↔ paper stage mapping.
"""

from . import (
    atlas,
    attrib,
    bench,
    flight,
    health,
    prof,
    promexport,
    regress,
    report,
    runsdb,
    telemetry,
    top,
    triage,
)
from .atlas import AtlasCollector, AtlasLog, read_atlas
from .attrib import AttributionReport, attribute_workload
from .bench import SuiteConfig, run_suite, write_trajectory
from .flight import FlightLog, FlightRecorder, read_flight_record
from .health import (
    HealthAlert,
    HealthConfig,
    HealthError,
    HealthMonitor,
    get_monitor,
    set_monitor,
)
from .log import configure, get_logger
from .metrics import (
    Histogram,
    MetricsRegistry,
    ingest_aggregation_trace,
    ingest_dram_stats,
    ingest_pipeline_stats,
    ingest_stage_times,
    metrics,
)
from .prof import format_top_table, profile, top_spans, write_profile
from .promexport import (
    TelemetryHTTPServer,
    parse_prometheus_text,
    render_prometheus,
    serve_telemetry,
)
from .regress import RegressionReport, TolerancePolicy, compare_files, compare_runs
from .report import RunDiff, diff_runs, render_atlas_report, render_report
from .runsdb import (
    RunRegistry,
    ingest_bench_payload,
    ingest_slam_run,
)
from .telemetry import (
    RunAggregator,
    TelemetryBus,
    TelemetryConfig,
    TelemetryStreamer,
    bus,
)
from .tracing import SpanRecord, Tracer, trace
from .triage import TriageReport, format_trend, triage_runs

__all__ = [
    "trace",
    "Tracer",
    "SpanRecord",
    "metrics",
    "MetricsRegistry",
    "Histogram",
    "ingest_pipeline_stats",
    "ingest_stage_times",
    "ingest_aggregation_trace",
    "ingest_dram_stats",
    "get_logger",
    "configure",
    "bench",
    "regress",
    "attrib",
    "SuiteConfig",
    "run_suite",
    "write_trajectory",
    "RegressionReport",
    "TolerancePolicy",
    "compare_runs",
    "compare_files",
    "AttributionReport",
    "attribute_workload",
    "flight",
    "health",
    "report",
    "FlightRecorder",
    "FlightLog",
    "read_flight_record",
    "HealthAlert",
    "HealthConfig",
    "HealthError",
    "HealthMonitor",
    "get_monitor",
    "set_monitor",
    "RunDiff",
    "diff_runs",
    "render_report",
    "atlas",
    "prof",
    "AtlasCollector",
    "AtlasLog",
    "read_atlas",
    "render_atlas_report",
    "profile",
    "top_spans",
    "format_top_table",
    "write_profile",
    "telemetry",
    "promexport",
    "top",
    "bus",
    "TelemetryBus",
    "TelemetryConfig",
    "TelemetryStreamer",
    "RunAggregator",
    "TelemetryHTTPServer",
    "serve_telemetry",
    "render_prometheus",
    "parse_prometheus_text",
    "runsdb",
    "triage",
    "RunRegistry",
    "ingest_slam_run",
    "ingest_bench_payload",
    "TriageReport",
    "format_trend",
    "triage_runs",
]
