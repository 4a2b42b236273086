"""Benchmark orchestration: the curated perf-trajectory suite.

``run_suite`` executes a registry of scenarios — tracking / mapping
iteration workloads, a proxy SLAM end-to-end run, and hardware-unit
replays — repeating each one ``repetitions`` times (counters must not
vary between repetitions), and emits a canonical, schema-versioned
``BENCH_trajectory.json``:

- **counters** — deterministic workload counters (pixel–Gaussian pairs,
  sort keys, atomic adds, ...).  Exact across runs on the same code; the
  regression gate (:mod:`repro.obs.regress`) diffs them bit-for-bit.
- **model**   — modeled latencies/cycles/bytes from the hardware models.
  Deterministic functions of the counters; compared with a tiny relative
  tolerance.  All model metrics are oriented so *smaller is better*.
- **info**    — contextual rates (hit rates, utilization, modeled
  speedups) that are reported but never gated.
- **overhead** — ``obs_overhead`` only: the instrumented / all-off wall
  ratio (median + MAD over the repetitions), gated against a budget.

Wall time is not measured here; ``perfbench/`` owns it.  The only clock
read in this module forms the ``obs_overhead`` ratio.

The file also carries an environment fingerprint (python/numpy versions,
platform, CPU count) so a trajectory can be interpreted — and overhead
ratios distrusted — across machines.

This module keeps its imports stdlib-only at module level; scenario
bodies import the rest of the package lazily, so ``repro.obs`` stays
cycle-free.
"""

from __future__ import annotations

import json
import os
import platform
import sys
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from .log import get_logger
from .tracing import trace

__all__ = [
    "SCHEMA_VERSION",
    "SIZES",
    "SCENARIOS",
    "SizeSpec",
    "SuiteConfig",
    "Scenario",
    "scenario",
    "median_mad",
    "environment_fingerprint",
    "run_suite",
    "write_trajectory",
]

log = get_logger("obs.bench")

#: Version of the ``BENCH_trajectory.json`` layout.  Bump on any breaking
#: change to the payload structure; the comparator refuses mismatches.
SCHEMA_VERSION = 1

#: Headline PipelineStats counters recorded per pass.
_PASS_COUNTERS = (
    "num_projected",
    "num_pixels",
    "num_candidate_pairs",
    "num_contrib_pairs",
    "num_sort_keys",
    "num_alpha_checks",
    "num_atomic_adds",
)


@dataclass(frozen=True)
class SizeSpec:
    """Proxy-scenario dimensions for one suite size."""

    width: int
    height: int
    frames: int
    tracking_tile: int
    mapping_tile: int


#: Suite sizes.  ``small`` is the CI point; ``tiny`` exists for tests.
SIZES: Dict[str, SizeSpec] = {
    "tiny": SizeSpec(32, 24, 6, 8, 4),
    "small": SizeSpec(48, 36, 6, 8, 4),
}


@dataclass(frozen=True)
class SuiteConfig:
    """One suite invocation: scenario dimensions + repetition policy."""

    size: str = "small"
    repetitions: int = 3
    sequence: str = "room0"
    seed: int = 0

    def __post_init__(self) -> None:
        if self.size not in SIZES:
            raise ValueError(
                f"unknown size {self.size!r}; choose from {sorted(SIZES)}")
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")

    @property
    def spec(self) -> SizeSpec:
        return SIZES[self.size]


@dataclass(frozen=True)
class Scenario:
    """A named, repeatable measurement.

    ``run(config)`` returns the sections —
    ``{"counters": {...}, "model": {...}, "info": {...}}`` plus an
    optional ``"overhead": {"ratio": ...}`` the suite runner aggregates.
    """

    name: str
    description: str
    run: Callable[[SuiteConfig], Dict[str, Dict[str, float]]]


#: Registry of curated scenarios, in registration (execution) order.
SCENARIOS: Dict[str, Scenario] = {}


def scenario(name: str, description: str):
    """Register a suite scenario (decorator)."""
    def deco(fn):
        SCENARIOS[name] = Scenario(name, description, fn)
        return fn
    return deco


# ---------------------------------------------------------------------------
# Statistics + fingerprint
# ---------------------------------------------------------------------------

def median_mad(samples: Iterable[float]) -> Tuple[float, float]:
    """Median and median absolute deviation of ``samples``."""
    xs = sorted(float(s) for s in samples)
    if not xs:
        return 0.0, 0.0

    def _median(values: List[float]) -> float:
        n = len(values)
        mid = n // 2
        if n % 2:
            return values[mid]
        return 0.5 * (values[mid - 1] + values[mid])

    med = _median(xs)
    mad = _median(sorted(abs(x - med) for x in xs))
    return med, mad


def environment_fingerprint() -> Dict[str, Any]:
    """Identify the machine/toolchain a trajectory was recorded on."""
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:  # pragma: no cover - numpy is a hard dependency
        numpy_version = "unavailable"
    return {
        "python": platform.python_version(),
        "python_implementation": platform.python_implementation(),
        "numpy": numpy_version,
        "platform": sys.platform,
        "machine": platform.machine(),
        "cpu_count": os.cpu_count() or 0,
    }


# ---------------------------------------------------------------------------
# Curated scenarios
# ---------------------------------------------------------------------------

def _bundle(cfg: SuiteConfig):
    from ..bench.scenarios import build_bundle

    spec = cfg.spec
    return build_bundle(cfg.sequence, width=spec.width, height=spec.height,
                        n_frames=spec.frames, seed=cfg.seed)


def _sequence(cfg: SuiteConfig):
    from ..bench.scenarios import proxy_sequence

    spec = cfg.spec
    return proxy_sequence(cfg.sequence, spec.width, spec.height, spec.frames)


def _pass_counters(prefix: str, fwd, bwd) -> Dict[str, int]:
    """Headline counters of one forward/backward stats pair."""
    return {f"{prefix}.{pass_name}.{key}": int(getattr(stats, key))
            for pass_name, stats in (("fwd", fwd), ("bwd", bwd))
            for key in _PASS_COUNTERS}


def _iteration_sections(workloads) -> Dict[str, Dict[str, float]]:
    """counters/model/info for one {dense, tile_sparse, pixel} workload set."""
    from ..hw import GpuModel, SplatonicAccelerator

    counters: Dict[str, int] = {}
    model: Dict[str, float] = {}
    info: Dict[str, float] = {}

    gpu = GpuModel()
    gpu_total: Dict[str, float] = {}
    for variant, workload in sorted(workloads.items()):
        counters.update(_pass_counters(variant, workload.fwd, workload.bwd))
        times = gpu.iteration_times(workload)
        gpu_total[variant] = times.total
        model[f"gpu.{variant}.forward_s"] = times.forward
        model[f"gpu.{variant}.backward_s"] = times.backward
        model[f"gpu.{variant}.total_s"] = times.total

    report = SplatonicAccelerator().iteration_report(workloads["pixel"])
    model["accel.forward_s"] = report.forward_s
    model["accel.backward_s"] = report.backward_s
    model["accel.total_s"] = report.total_s
    model["accel.energy_j"] = report.energy_j
    for stage, seconds in sorted(report.stage_seconds.items()):
        model[f"accel.stage.{stage}_s"] = seconds

    info["speedup.accel_over_dense_gpu"] = report.speedup_over(
        gpu_total["dense"])
    info["speedup.pixel_over_dense_gpu"] = (
        gpu_total["dense"] / gpu_total["pixel"] if gpu_total["pixel"] else 0.0)
    fwd = workloads["pixel"].fwd
    info["pixel.alpha_pass_rate"] = fwd.alpha_pass_rate
    info["pixel.warp_utilization"] = fwd.warp_utilization()
    return {"counters": counters, "model": model, "info": info}


def _same_outputs(a, b) -> bool:
    """Whether two ``(render, gradients)`` pairs are bit-identical."""
    import numpy as np

    a_r, a_g = a
    b_r, b_g = b
    return (
        np.array_equal(a_r.color, b_r.color)
        and np.array_equal(a_r.depth, b_r.depth)
        and np.array_equal(a_r.silhouette, b_r.silhouette)
        and np.array_equal(a_g.d_means, b_g.d_means)
        and np.array_equal(a_g.d_colors, b_g.d_colors)
        and a_r.stats.as_dict() == b_r.stats.as_dict()
        and a_g.stats.as_dict() == b_g.stats.as_dict())


@scenario("tracking",
          "sparse tracking iteration: dense/Org.+S/pixel workload counters "
          "+ modeled GPU and SPLATONIC-HW latency")
def _scn_tracking(cfg: SuiteConfig) -> Dict[str, Dict[str, float]]:
    from ..bench.scenarios import tracking_workloads

    bundle = _bundle(cfg)
    workloads = tracking_workloads(bundle, tile=cfg.spec.tracking_tile,
                                   seed=cfg.seed)
    return _iteration_sections(workloads)


@scenario("mapping",
          "mapping iteration: dense/Org.+S/pixel workload counters "
          "+ modeled GPU and SPLATONIC-HW latency")
def _scn_mapping(cfg: SuiteConfig) -> Dict[str, Dict[str, float]]:
    from ..bench.scenarios import mapping_workloads

    bundle = _bundle(cfg)
    workloads = mapping_workloads(bundle, tile=cfg.spec.mapping_tile,
                                  seed=cfg.seed)
    return _iteration_sections(workloads)


@scenario("slam_e2e",
          "proxy SLAM end-to-end run: accumulated per-stage workload "
          "counters + ATE")
def _scn_slam_e2e(cfg: SuiteConfig) -> Dict[str, Dict[str, float]]:
    from ..core import SplatonicConfig
    from ..slam import SLAMSystem

    # Per-pixel record lists are benchmark dead weight (nothing here reads
    # them); scalar counters are unaffected by the flag.
    result = SLAMSystem(
        "splatam", mode="sparse", seed=cfg.seed,
        splatonic_config=SplatonicConfig(record_per_pixel=False),
    ).run(_sequence(cfg))

    counters: Dict[str, float] = {
        "frames": int(result.num_frames),
        "map_gaussians": int(len(result.cloud)),
        "mapping_invocations": int(result.mapping_invocations),
        "tracking_iterations": int(sum(result.tracking_iterations)),
    }
    for stage in SLAMSystem.STAGES:
        stats = result.stage_stats[stage]
        for key in _PASS_COUNTERS:
            counters[f"{stage}.{key}"] = int(getattr(stats, key))
        counters[f"{stage}.image_width"] = int(stats.image_width)
        counters[f"{stage}.image_height"] = int(stats.image_height)

    info: Dict[str, float] = {
        "ate_rmse_m": float(result.ate().rmse),
    }
    return {"counters": counters, "model": {}, "info": info}


#: Tracking lattice tile for the ``kernels`` scenario — denser than the
#: suite's tracking tile, so the per-pixel oracle is checked on a large
#: K-pixel batch.
_KERNEL_TILE = 4


@scenario("kernels",
          "sparse tracking render, reference oracle vs vectorized "
          "kernel: per-backend counters + bit-identity check")
def _scn_kernels(cfg: SuiteConfig) -> Dict[str, Dict[str, float]]:
    import numpy as np

    from ..core.pixel_pipeline import backward_sparse, render_sparse
    from ..core.sampling import sample_tracking_pixels

    bundle = _bundle(cfg)
    spec = cfg.spec
    pixels = sample_tracking_pixels(
        spec.width, spec.height, _KERNEL_TILE, "random",
        np.random.default_rng(cfg.seed))

    counters: Dict[str, float] = {}
    outputs: Dict[str, Any] = {}
    for backend in ("reference", "vectorized"):
        result = render_sparse(
            bundle.cloud, bundle.camera, pixels, backend=backend,
            record_per_pixel=False)
        grads = backward_sparse(
            result, bundle.cloud, bundle.camera,
            np.ones_like(result.color), np.ones_like(result.depth),
            np.ones_like(result.silhouette))
        counters.update(_pass_counters(backend, result.stats, grads.stats))
        outputs[backend] = (result, grads)

    counters["backends_identical"] = int(
        _same_outputs(outputs["reference"], outputs["vectorized"]))
    return {"counters": counters, "model": {}, "info": {}}


@scenario("obs_overhead",
          "observability cost: proxy SLAM with every obs feature off vs "
          "tracer+metrics+flight+health all on — gated ratio")
def _scn_obs_overhead(cfg: SuiteConfig) -> Dict[str, Dict[str, float]]:
    from time import perf_counter

    import numpy as np

    from ..core import SplatonicConfig
    from ..slam import SLAMSystem
    from .flight import FlightRecorder
    from .health import HealthMonitor
    from .metrics import MetricsRegistry, ingest_pipeline_stats

    sequence = _sequence(cfg)

    def run_slam(*observers):
        system = SLAMSystem(
            "splatam", mode="sparse", seed=cfg.seed,
            splatonic_config=SplatonicConfig(record_per_pixel=False))
        return system.run(sequence, observers=observers)

    def timed(*observers):
        start = perf_counter()
        result = run_slam(*observers)
        return result, perf_counter() - start

    def off_leg():
        return timed() + (None,)

    def on_leg():
        # Tracer + in-memory flight recorder + health monitor, then
        # (below) a metrics ingest of the results.
        flight = FlightRecorder()
        flight.enable()
        try:
            with trace.capture(reset=False):
                spans_before = len(trace.records)
                result, seconds = timed(HealthMonitor(), flight)
                spans = len(trace.records) - spans_before
        finally:
            flight.disable()
        return result, seconds, (flight, spans)

    # Every leg but the all-on one runs with the tracer off, even when
    # the caller has it on — otherwise the "off" leg would already pay
    # the span cost.
    was_enabled = trace.enabled
    trace.disable()
    legs = {"off": off_leg, "on": on_leg}
    runs = {name: [] for name in legs}
    try:
        # Untimed warm-up: the first run pays allocator/cache cold-start
        # costs that would otherwise inflate the all-off leg.
        run_slam()
        # The legs run twice, in palindromic order (off, on, on, off), so
        # that both sit at the same mean position in the sequence: drift
        # in the host's speed, and whatever the first timed run still
        # pays, reach both legs alike instead of setting the ratio.
        for name in list(legs) + list(legs)[::-1]:
            runs[name].append(legs[name]())
    finally:
        if was_enabled:
            trace.enable(reset=False)

    def total_s(name):
        return sum(seconds for _, seconds, _ in runs[name])

    off_s, on_s = total_s("off"), total_s("on")
    result_off = runs["off"][0][0]
    result_on, _, (flight, spans) = runs["on"][0]

    registry = MetricsRegistry()
    for stage in SLAMSystem.STAGES:
        ingest_pipeline_stats(stage, result_on.stage_stats[stage],
                              registry=registry)

    # Observability must be passive: the instrumented runs have to
    # produce the bit-identical trajectory, map, and counters.
    def _same(result) -> bool:
        return bool(
            np.array_equal(result_off.est_trajectory, result.est_trajectory)
            and len(result_off.cloud) == len(result.cloud)
            and all(result_off.stage_stats[s].as_dict()
                    == result.stage_stats[s].as_dict()
                    for s in SLAMSystem.STAGES))

    passive = all(_same(result) for name in ("off", "on")
                  for result, _, _ in runs[name])

    export = registry.export()
    counters = {
        "frames": int(result_on.num_frames),
        "obs_passive": int(passive),
        "flight.records": int(len(flight.records)),
        "spans": int(spans),
        "metrics.counters": int(len(export["counters"])),
        "metrics.gauges": int(len(export["gauges"])),
    }
    overhead = {"ratio": (on_s / off_s) if off_s > 0 else 0.0}
    return {"counters": counters, "model": {}, "info": {},
            "overhead": overhead}


@scenario("hw_units",
          "hardware-unit replays on the mapping pixel workload: "
          "aggregation scoreboard, hierarchical sorter, DRAM traffic")
def _scn_hw_units(cfg: SuiteConfig) -> Dict[str, Dict[str, float]]:
    from ..bench.scenarios import mapping_workloads
    from ..hw import AggregationUnit, HierarchicalSorter, SortingUnitConfig

    bundle = _bundle(cfg)
    workloads = mapping_workloads(bundle, tile=cfg.spec.mapping_tile,
                                  seed=cfg.seed)
    pixel = workloads["pixel"]

    agg = AggregationUnit().simulate(pixel.bwd.pixel_contrib_ids)
    counters = {
        "aggregation.tuples": int(agg.tuples),
        "aggregation.cache_hits": int(agg.cache_hits),
        "aggregation.cache_misses": int(agg.cache_misses),
        "aggregation.unique_accumulations": int(agg.unique_accumulations),
        "sorter.keys": int(pixel.fwd.num_sort_keys),
    }
    sorter = HierarchicalSorter(SortingUnitConfig())
    model = {
        "aggregation.cycles": float(agg.cycles),
        "aggregation.stall_cycles": float(agg.stall_cycles),
        "aggregation.dram_bytes": float(agg.dram_bytes),
        "sorter.cycles": float(
            sorter.total_cycles(pixel.fwd.pixel_list_lengths)),
    }
    info = {
        "aggregation.hit_rate": agg.hit_rate,
        "aggregation.cycles_per_tuple": agg.cycles_per_tuple,
    }
    return {"counters": counters, "model": model, "info": info}


# ---------------------------------------------------------------------------
# Suite runner
# ---------------------------------------------------------------------------

def _resolve_scenarios(names: Optional[Iterable[str]]) -> List[Scenario]:
    if names is None:
        return list(SCENARIOS.values())
    out = []
    for name in names:
        if isinstance(name, Scenario):
            out.append(name)
            continue
        if name not in SCENARIOS:
            raise KeyError(
                f"unknown scenario {name!r}; choose from {sorted(SCENARIOS)}")
        out.append(SCENARIOS[name])
    return out


def _ratio_summary(samples: List[float]) -> Dict[str, Any]:
    """Median, MAD and the raw samples of one overhead ratio."""
    med, mad = median_mad(samples)
    return {"ratio": round(med, 4), "mad": round(mad, 4),
            "samples": [round(s, 4) for s in samples]}


def _run_scenario(scn: Scenario, cfg: SuiteConfig) -> Dict[str, Any]:
    ratios: List[float] = []
    sections: Optional[Dict[str, Dict[str, float]]] = None
    stable = True
    for _rep in range(cfg.repetitions):
        out = scn.run(cfg)
        if sections is not None and out["counters"] != sections["counters"]:
            stable = False
        sections = out
        if "overhead" in out:
            ratios.append(float(out["overhead"]["ratio"]))
    assert sections is not None

    if not stable:
        log.warning(f"{scn.name}: counters varied across repetitions — "
                    f"the scenario is not deterministic")
    result: Dict[str, Any] = {
        "description": scn.description,
        "counters": {k: int(v) for k, v in sorted(sections["counters"].items())},
        "model": {k: float(v) for k, v in sorted(sections["model"].items())},
        "info": {k: float(v) for k, v in sorted(sections["info"].items())},
        "stable_counters": stable,
    }
    if ratios:
        # Optional gated section: the observability-overhead ratio
        # (instrumented / all-off wall time), compared by
        # repro.obs.regress against a hard budget.
        result["overhead"] = dict(_ratio_summary(ratios),
                                  repetitions=cfg.repetitions)
    return result


def run_suite(config: Optional[SuiteConfig] = None,
              scenarios: Optional[Iterable[str]] = None) -> Dict[str, Any]:
    """Execute the suite and return the ``BENCH_trajectory`` payload."""
    cfg = config or SuiteConfig()
    selected = _resolve_scenarios(scenarios)
    payload: Dict[str, Any] = {
        "schema_version": SCHEMA_VERSION,
        "suite": cfg.size,
        "sequence": cfg.sequence,
        "repetitions": cfg.repetitions,
        "environment": environment_fingerprint(),
        "scenarios": {},
    }
    for scn in selected:
        log.info(f"scenario {scn.name} ({cfg.size}, "
                 f"{cfg.repetitions} repetitions) ...")
        result = _run_scenario(scn, cfg)
        payload["scenarios"][scn.name] = result
        log.info(f"  {scn.name}: {len(result['counters'])} counters")
    return payload


def write_trajectory(payload: Dict[str, Any], path: str) -> None:
    """Write a suite payload as canonical (key-sorted) JSON."""
    with open(path, "w") as f:
        json.dump(payload, f, indent=1, sort_keys=True)
        f.write("\n")
