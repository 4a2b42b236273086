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
- **overhead** — ``obs_overhead`` only: instrumented / all-off wall
  ratios (median + MAD over the repetitions), gated against a budget.

Wall time is not measured here; ``perfbench/`` owns it.  The only clock
read in this module forms the ``obs_overhead`` ratios.

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
    "default": SizeSpec(96, 64, 10, 16, 4),
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
    optional ``"overhead"`` of ratios the suite runner aggregates.
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


#: Iterations of the temporal-coherence cache legs per scenario run —
#: matches the real mapping optimizer loop (~24 iters/keyframe), so the
#: hit/rebuild counts follow the production loop shape.
_CACHE_ITERS = 24

#: Backend the cache legs render with (the production fast path).
_CACHE_BACKEND = "vectorized"


def _cache_leg_sections(cfg: SuiteConfig, mode: str,
                        counters: Dict[str, float],
                        info: Dict[str, float]) -> None:
    """Check the temporal-coherence render cache on one loop shape.

    Replays a deterministic optimizer-loop proxy — ``tracking``: fixed
    cloud, pose drifting by a constant twist per iteration (lattice
    candidate generation); ``mapping``: fixed camera/pixels, parameters
    drifting by a constant Adam-sized step (chunked candidate
    generation) — once uncached and once through a fresh
    :class:`repro.render.cache.RenderCache`.  Adds the bit-identity flag
    and hit/rebuild counts to ``counters`` (exact-gated: the drift is
    deterministic, so they are rep-stable) and the hit rate and margin
    to ``info``.
    """
    import numpy as np

    from ..core.pixel_pipeline import backward_sparse, render_sparse
    from ..core.sampling import sample_tracking_pixels
    from ..gaussians.camera import Camera
    from ..gaussians.se3 import se3_exp
    from ..render.cache import RenderCache

    bundle = _bundle(cfg)
    spec = cfg.spec
    if mode == "tracking":
        tile = spec.tracking_tile
        lattice_tile = tile
        twist = np.array([2e-3, -1e-3, 1.5e-3, 1e-3, -5e-4, 8e-4])
        param_step = None
        pixel_seed = cfg.seed
    else:
        tile = spec.mapping_tile
        # The mapper's pixel sets are not the tracking lattice; route
        # through the chunked corner-test generator like mapping does.
        lattice_tile = None
        twist = None
        param_step = np.random.default_rng(cfg.seed + 1).normal(
            0.0, 1e-3, bundle.cloud.pack().size)
        pixel_seed = cfg.seed + 1
    pixels = sample_tracking_pixels(
        spec.width, spec.height, tile, "random",
        np.random.default_rng(pixel_seed))

    def run(cache):
        outs = []
        cloud = bundle.cloud
        pose = bundle.camera.pose_c2w
        for _ in range(_CACHE_ITERS):
            camera = Camera(bundle.camera.intrinsics, pose)
            result = render_sparse(
                cloud, camera, pixels, backend=_CACHE_BACKEND,
                lattice_tile=lattice_tile, record_per_pixel=False,
                cache=cache)
            grads = backward_sparse(
                result, cloud, camera,
                np.ones_like(result.color), np.ones_like(result.depth),
                np.ones_like(result.silhouette))
            outs.append((result, grads))
            if twist is not None:
                pose = pose @ se3_exp(twist)
            if param_step is not None:
                cloud = cloud.unpack(cloud.pack() + param_step)
        return outs

    cache = RenderCache(mode=mode)
    identical = all(_same_outputs(off, on)
                    for off, on in zip(run(None), run(cache)))

    counters["cache.identical"] = int(identical)
    counters["cache.hits"] = int(cache.hits)
    counters["cache.misses"] = int(cache.misses)
    counters["cache.rebuilds"] = int(cache.rebuilds)
    info["cache.hit_rate"] = (cache.hits / (cache.hits + cache.misses)
                              if (cache.hits + cache.misses) else 0.0)
    info["cache.margin_px"] = float(cache.margin)


@scenario("tracking",
          "sparse tracking iteration: dense/Org.+S/pixel workload counters "
          "+ modeled GPU and SPLATONIC-HW latency + render-cache leg")
def _scn_tracking(cfg: SuiteConfig) -> Dict[str, Dict[str, float]]:
    from ..bench.scenarios import tracking_workloads

    bundle = _bundle(cfg)
    workloads = tracking_workloads(bundle, tile=cfg.spec.tracking_tile,
                                   seed=cfg.seed)
    sections = _iteration_sections(workloads)
    _cache_leg_sections(cfg, "tracking", sections["counters"],
                        sections["info"])
    return sections


@scenario("mapping",
          "mapping iteration: dense/Org.+S/pixel workload counters "
          "+ modeled GPU and SPLATONIC-HW latency + render-cache leg")
def _scn_mapping(cfg: SuiteConfig) -> Dict[str, Dict[str, float]]:
    from ..bench.scenarios import mapping_workloads

    bundle = _bundle(cfg)
    workloads = mapping_workloads(bundle, tile=cfg.spec.mapping_tile,
                                  seed=cfg.seed)
    sections = _iteration_sections(workloads)
    _cache_leg_sections(cfg, "mapping", sections["counters"],
                        sections["info"])
    return sections


@scenario("slam_e2e",
          "proxy SLAM end-to-end run: accumulated per-stage workload "
          "counters + ATE")
def _scn_slam_e2e(cfg: SuiteConfig) -> Dict[str, Dict[str, float]]:
    from ..slam import SLAMSystem

    bundle = _bundle(cfg)
    # Per-pixel record lists are benchmark dead weight (nothing here reads
    # them); scalar counters are unaffected by the flag.
    result = SLAMSystem("splatam", mode="sparse", seed=cfg.seed,
                        record_per_pixel=False).run(bundle.sequence)

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
            lattice_tile=_KERNEL_TILE, record_per_pixel=False)
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
          "tracer+metrics+flight+atlas+health all on, plus telemetry-bus "
          "legs (publishing with zero and one subscriber) — gated ratios")
def _scn_obs_overhead(cfg: SuiteConfig) -> Dict[str, Dict[str, float]]:
    from time import perf_counter

    import numpy as np

    from ..slam import SLAMSystem
    from .atlas import AtlasCollector, AtlasLog
    from .flight import FlightRecorder
    from .health import HealthConfig, HealthMonitor
    from .metrics import MetricsRegistry, ingest_pipeline_stats
    from .telemetry import bus as telemetry_bus

    bundle = _bundle(cfg)

    def run_slam(flight=None, health=None, atlas=None):
        system = SLAMSystem("splatam", mode="sparse", seed=cfg.seed,
                            record_per_pixel=False)
        return system.run(bundle.sequence, flight=flight, health=health,
                          atlas=atlas)

    def timed(**sinks):
        start = perf_counter()
        result = run_slam(**sinks)
        return result, perf_counter() - start

    # The wall-time spike monitor publishes alerts keyed to real frame
    # timings — nondeterministic — so the bus legs run with it off to
    # keep the published-event count an exact gated counter.
    def bus_health() -> HealthMonitor:
        return HealthMonitor(HealthConfig(frame_time_factor=0))

    # Every leg but the all-on one runs with the tracer off, even when
    # the caller has it on — otherwise the "off" leg would already pay
    # the span cost, and span noise would reach the bus counts.
    was_enabled = trace.enabled
    trace.disable()
    flight = FlightRecorder()
    health = HealthMonitor()
    collector = AtlasCollector(tile=cfg.spec.tracking_tile)
    try:
        # Untimed warm-up: the first run pays allocator/cache cold-start
        # costs that would otherwise inflate the all-off leg and bias
        # the ratio below 1.
        run_slam()
        result_off, off_s = timed()

        # All-on leg: tracer + in-memory flight recorder + health monitor
        # + in-memory atlas collector, then a metrics ingest of the
        # results.
        flight.enable()
        collector.enable()
        with trace.capture(reset=False):
            spans_before = len(trace.records)
            result_on, on_s = timed(flight=flight, health=health,
                                    atlas=collector)
            spans = len(trace.records) - spans_before

        # Telemetry-bus legs: publishing on with nobody listening, then
        # with one (promexport-style) subscriber whose ring is large
        # enough that nothing drops — both must stay passive and inside
        # the gated overhead budget.  The published-event count is the
        # deterministic run stream (header + frames + per-frame metrics
        # snapshots + summary + alerts).
        telemetry_bus.enable()
        result_bus, bus_on_s = timed(health=bus_health())
        published_no_sub = telemetry_bus.published()

        sub = telemetry_bus.subscribe(maxlen=8192, name="bench:obs_overhead")
        telemetry_bus.reset()
        result_bus_sub, bus_sub_s = timed(health=bus_health())
        published_sub = telemetry_bus.published()
        delivered = int(sub.delivered)
        bus_dropped = telemetry_bus.dropped()
        telemetry_bus.unsubscribe(sub)
    finally:
        telemetry_bus.disable()
        flight.disable()
        collector.disable()
        if was_enabled:
            trace.enable(reset=False)

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

    passive = _same(result_on)
    bus_passive = _same(result_bus) and _same(result_bus_sub)

    alog = AtlasLog.from_collector(collector)
    observed = alog.observed_totals()
    export = registry.export()
    counters = {
        "frames": int(result_on.num_frames),
        "obs_passive": int(passive),
        "obs_passive_bus": int(bus_passive),
        "flight.records": int(len(flight.records)),
        "atlas.frames": int(alog.num_frames),
        "atlas.candidates": int(sum(v["candidates"]
                                    for v in observed.values())),
        "atlas.atomics": int(sum(v["atomics"] for v in observed.values())),
        "spans": int(spans),
        "metrics.counters": int(len(export["counters"])),
        "metrics.gauges": int(len(export["gauges"])),
        "telemetry.published": int(published_no_sub),
        "telemetry.published_sub": int(published_sub),
        "telemetry.delivered": int(delivered),
        "telemetry.dropped": int(bus_dropped),
    }
    overhead = {
        "ratio": (on_s / off_s) if off_s > 0 else 0.0,
        "bus_ratio": (bus_on_s / off_s) if off_s > 0 else 0.0,
        "bus_sub_ratio": (bus_sub_s / off_s) if off_s > 0 else 0.0,
    }
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
    overhead_samples: Dict[str, List[float]] = {}
    sections: Optional[Dict[str, Dict[str, float]]] = None
    stable = True
    for _rep in range(cfg.repetitions):
        out = scn.run(cfg)
        if sections is not None and out["counters"] != sections["counters"]:
            stable = False
        sections = out
        for key, value in (out.get("overhead") or {}).items():
            overhead_samples.setdefault(key, []).append(float(value))
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
    if overhead_samples:
        # Optional gated section: the observability-overhead ratios
        # (instrumented / all-off wall time), compared by
        # repro.obs.regress against a hard budget.  The headline "ratio"
        # key keeps the original flat layout; any further named ratios
        # the scenario reports (e.g. the telemetry-bus legs) land under
        # "extra" so old baselines stay comparable.
        result["overhead"] = dict(
            _ratio_summary(overhead_samples.pop("ratio", [])),
            repetitions=cfg.repetitions)
        extra = {key: _ratio_summary(samples)
                 for key, samples in sorted(overhead_samples.items())}
        if extra:
            result["overhead"]["extra"] = extra
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
