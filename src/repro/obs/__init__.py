"""Observability: tracing, metrics, benchmarking, and regression gating.

Ten modules, listed below.  The core three are stdlib-only at
import time (no imports from the rest of the package, so any layer may
instrument itself without cycles); the perf-trajectory trio keeps its
module-level imports stdlib-only too and pulls in the scenario/hardware
layers lazily inside functions:

- :mod:`repro.obs.tracing` — the :data:`trace` span tracer.  Wrap stages
  in ``with trace.span("tracking_fwd", frame=i):``; export Chrome
  trace-event JSON for Perfetto plus a markdown per-stage time table.
  Disabled by default at near-zero cost.  Every span also records CPU
  time and, behind the opt-in memory flag, tracemalloc allocation/peak
  deltas; the per-stage table carries them all.
- :mod:`repro.obs.metrics` — the :data:`metrics` registry (counters /
  gauges) and the ``ingest_pipeline_stats`` bridge that pulls in
  ``PipelineStats`` counters, so algorithmic and wall-clock views share
  one export path.
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
  and the flight recorder, the observer that writes it as JSONL, one
  flushed line per record — the one file that carries a run's events,
  readable with ``tail -f`` while the run executes.  The health monitor
  and run registry observe the same stream; with no observer the run
  builds no record.
- :mod:`repro.obs.health` — online health monitors over the run stream
  (NaN/∞, pose jumps, loss divergence, coverage collapse,
  runaway densification) with a ``warn``/``raise`` escalation policy.
- :mod:`repro.obs.report` — run reports (markdown/HTML, sparkline
  summaries) and frame-aligned run-to-run diffing for flight records.
- :mod:`repro.obs.runsdb` — the run registry: an append-only JSONL run
  index plus a content-addressed artifact store under ``.repro/runs/``,
  keyed by environment fingerprint / git SHA / config hash / dataset,
  ingesting flight logs, bench payloads and attribution reports behind
  ``--registry`` (disabled == free).

See README "Observability" / "Watching a run" / "Run registry" and
EXPERIMENTS.md "Perf trajectory" / "Flight recorder" for
the workflow, and DESIGN.md for the
span name ↔ paper stage mapping and the obs surface audit.
"""

from . import (
    attrib,
    bench,
    flight,
    health,
    regress,
    report,
    runsdb,
)
from .attrib import AttributionReport, attribute_workload
from .bench import SuiteConfig, run_suite, write_trajectory
from .flight import FlightLog, FlightRecorder, read_flight_record
from .health import (
    HealthAlert,
    HealthError,
    HealthMonitor,
    get_monitor,
    set_monitor,
)
from .log import configure, get_logger
from .metrics import MetricsRegistry, ingest_pipeline_stats, metrics
from .regress import RegressionReport, compare_files, compare_runs
from .report import RunDiff, diff_runs, render_report
from .runsdb import (
    RunRegistry,
    ingest_bench_payload,
    ingest_slam_run,
)
from .tracing import SpanRecord, Tracer, trace

__all__ = [
    "trace",
    "Tracer",
    "SpanRecord",
    "metrics",
    "MetricsRegistry",
    "ingest_pipeline_stats",
    "get_logger",
    "configure",
    "bench",
    "regress",
    "attrib",
    "SuiteConfig",
    "run_suite",
    "write_trajectory",
    "RegressionReport",
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
    "HealthError",
    "HealthMonitor",
    "get_monitor",
    "set_monitor",
    "RunDiff",
    "diff_runs",
    "render_report",
    "runsdb",
    "RunRegistry",
    "ingest_slam_run",
    "ingest_bench_payload",
]
