"""Experiment drivers regenerating every table/figure of the paper.

Each ``figNN_*`` function runs one experiment and returns its rows (list of
dicts); the ``benchmarks/`` files wrap them in pytest-benchmark and print
the tables.  Shapes — who wins, by roughly what factor, where crossovers
fall — are the reproduction target; EXPERIMENTS.md records paper-vs-
measured for each.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..core import Splatonic, SplatonicConfig, sample_tracking_pixels
from ..datasets import (
    REPLICA_SEQUENCES,
    TUM_SEQUENCES,
    make_replica_sequence,
    make_tum_sequence,
)
from ..gaussians import Camera, se3_exp, se3_inverse, se3_log
from ..hw import (
    COMPARISON_AREAS_MM2,
    AggregationUnit,
    ExpLUT,
    GauSpuAccelerator,
    GpuModel,
    GsArchAccelerator,
    SplatonicAccelerator,
    SplatonicHwConfig,
    Workload,
    measure_iteration,
    splatonic_area,
)
from ..metrics import psnr
from ..render.rasterize import render_full
from ..slam import ALGORITHMS, SLAMSystem, Tracker, get_algorithm
from .scenarios import ProxyBundle, build_bundle, mapping_workloads, tracking_workloads

__all__ = [
    "fig04_latency", "fig05_breakdown", "fig07_utilization",
    "fig08_aggregation", "fig09_alpha_share", "fig10_strategies",
    "fig11_raster_speedup", "fig14_bottleneck_shift", "fig17_replica_accuracy",
    "fig18_tum_accuracy", "fig19_gpu_e2e", "fig20_mapping_gpu",
    "fig21_stage_speedup", "fig22_accel_tracking", "fig23_accel_mapping",
    "fig24_mapping_ablation", "fig25_sampling_sensitivity",
    "fig26_accuracy_sensitivity", "fig27_unit_sensitivity", "area_table",
    "ablation_lut", "ablation_aggregation_unit", "ablation_gamma_cache",
    "ablation_bbox_indexing", "ablation_preemptive_alpha",
]

_BG = np.full(3, 0.05)


# ---------------------------------------------------------------------------
# Sec. III characterization (Figs. 4-9)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=16)
def _slam_stage_workloads(algorithm: str, sequence_name: str = "room0",
                          mode: str = "dense", width: int = 48,
                          height: int = 36, n_frames: int = 8,
                          surface_density: float = 10.0):
    """Run SLAM and return its four accumulated stage workloads + run."""
    seq = make_replica_sequence(sequence_name, n_frames=n_frames,
                                width=width, height=height,
                                surface_density=surface_density)
    result = SLAMSystem(algorithm, mode=mode).run(seq)
    f_p = (1200 * 680) / (width * height)
    f_g = 1e5 / max(len(result.cloud), 1)
    tracking = Workload(
        f"{algorithm}-tracking",
        result.stage_stats["tracking_fwd"],
        result.stage_stats["tracking_bwd"]).upscale(f_p, f_g)
    mapping = Workload(
        f"{algorithm}-mapping",
        result.stage_stats["mapping_fwd"],
        result.stage_stats["mapping_bwd"]).upscale(f_p, f_g)
    return tracking, mapping, result


def fig04_latency(algorithms: Optional[Sequence[str]] = None) -> List[Dict]:
    """Fig. 4: amortized per-frame tracking vs mapping latency (dense GPU)."""
    algorithms = list(algorithms or ALGORITHMS)
    gpu = GpuModel()
    rows = []
    for algo in algorithms:
        tracking, mapping, result = _slam_stage_workloads(algo)
        n = result.num_frames
        t_track = gpu.iteration_times(tracking).total / n
        t_map = gpu.iteration_times(mapping).total / n
        rows.append({
            "algorithm": algo,
            "tracking_ms_per_frame": t_track * 1e3,
            "mapping_ms_per_frame": t_map * 1e3,
            "tracking_share": t_track / (t_track + t_map),
        })
    return rows


def fig05_breakdown(algorithms: Optional[Sequence[str]] = None) -> List[Dict]:
    """Fig. 5: normalized execution breakdown of the dense pipeline."""
    algorithms = list(algorithms or ALGORITHMS)
    gpu = GpuModel()
    rows = []
    for algo in algorithms:
        tracking, _mapping, _result = _slam_stage_workloads(algo)
        t = gpu.iteration_times(tracking)
        compute = (t.projection + t.sorting + t.rasterization
                   + t.reverse_rasterization + t.aggregation + t.reprojection)
        rows.append({
            "algorithm": algo,
            "projection": t.projection / compute,
            "sorting": t.sorting / compute,
            "rasterization": t.rasterization / compute,
            "reverse_rasterization":
                (t.reverse_rasterization + t.aggregation) / compute,
            "reprojection": t.reprojection / compute,
            "raster_stages_share":
                (t.rasterization + t.reverse_rasterization + t.aggregation)
                / compute,
        })
    return rows


@lru_cache(maxsize=16)
def _scene_render_stats(sequence_name: str, width: int = 64, height: int = 48,
                        surface_density: float = 12.0):
    """Dense fwd+bwd stats of a GT-cloud render (cheap per-scene probe)."""
    seq = make_replica_sequence(sequence_name, n_frames=3, width=width,
                                height=height, surface_density=surface_density)
    cam = Camera(seq.intrinsics, seq[1].gt_pose_c2w)
    return measure_iteration(seq.gt_cloud, cam, seq[1].color, seq[1].depth,
                             "tile", background=_BG)


def fig07_utilization(scenes: Optional[Sequence[str]] = None) -> List[Dict]:
    """Fig. 7: GPU thread utilization of dense rasterization per scene."""
    scenes = list(scenes or REPLICA_SEQUENCES)
    rows = []
    for name in scenes:
        w = _scene_render_stats(name)
        rows.append({"scene": name,
                     "thread_utilization": w.fwd.summary()["warp_utilization"]})
    rows.append({"scene": "mean",
                 "thread_utilization":
                     float(np.mean([r["thread_utilization"] for r in rows]))})
    return rows


def fig08_aggregation(scenes: Optional[Sequence[str]] = None) -> List[Dict]:
    """Fig. 8: aggregation share of reverse rasterization (dense GPU)."""
    scenes = list(scenes or REPLICA_SEQUENCES)
    gpu = GpuModel()
    rows = []
    for name in scenes:
        w = _scene_render_stats(name).upscale(
            (1200 * 680) / (64 * 48), 1.0)
        t = gpu.iteration_times(w)
        share = t.aggregation / (t.aggregation + t.reverse_rasterization)
        rows.append({"scene": name, "aggregation_share": share})
    rows.append({"scene": "mean",
                 "aggregation_share":
                     float(np.mean([r["aggregation_share"] for r in rows]))})
    return rows


def fig09_alpha_share(scenes: Optional[Sequence[str]] = None) -> List[Dict]:
    """Fig. 9: α-checking share of raster and reverse-raster (dense GPU)."""
    scenes = list(scenes or REPLICA_SEQUENCES)
    gpu = GpuModel()
    rows = []
    for name in scenes:
        w = _scene_render_stats(name).upscale((1200 * 680) / (64 * 48), 1.0)
        t = gpu.iteration_times(w)
        rows.append({
            "scene": name,
            "alpha_share_raster": t.alpha_check_fwd / t.rasterization,
            "alpha_share_reverse":
                t.alpha_check_bwd / t.reverse_rasterization,
        })
    rows.append({
        "scene": "mean",
        "alpha_share_raster":
            float(np.mean([r["alpha_share_raster"] for r in rows])),
        "alpha_share_reverse":
            float(np.mean([r["alpha_share_reverse"] for r in rows])),
    })
    return rows


# ---------------------------------------------------------------------------
# Sec. IV algorithm (Figs. 10, 11, 14)
# ---------------------------------------------------------------------------

def fig10_strategies(tile_sizes: Sequence[int] = (4, 8, 16, 32),
                     strategies: Sequence[str] = ("random", "harris",
                                                  "lowres", "loss_tile"),
                     n_trials: int = 4, seed: int = 0) -> List[Dict]:
    """Fig. 10: tracking error vs sampling strategy and tile size.

    Isolated-tracker protocol: track perturbed poses against the ground-
    truth cloud so only the pixel-selection strategy differs.
    """
    seq = make_replica_sequence("room0", n_frames=6, width=96, height=64,
                                surface_density=10)
    cloud, intr = seq.gt_cloud, seq.intrinsics
    algo = get_algorithm("splatam")
    rows = []
    for strategy in strategies:
        for tile in tile_sizes:
            rng = np.random.default_rng(seed)
            errors = []
            for trial in range(n_trials):
                frame = seq[1 + trial % (len(seq) - 1)]
                xi = rng.normal(0.0, 0.02, 6)
                init = frame.gt_pose_c2w @ se3_exp(xi)
                splat = Splatonic(
                    SplatonicConfig(tracking_tile=tile,
                                    tracking_strategy=strategy),
                    rng=np.random.default_rng(seed + trial))
                tracker = Tracker(algo, intr, splat, "sparse", _BG)
                if strategy == "loss_tile":
                    # GauSPU selects tiles by rendered loss; bootstrap a
                    # loss map from the initial pose's dense render.
                    cam0 = Camera(intr, init)
                    res0 = render_full(cloud, cam0, _BG, keep_cache=False)
                    loss_map = np.abs(res0.color - frame.color).sum(axis=-1)
                    pixels = splat.sample_tracking(
                        Camera(intr, init), loss_map=loss_map)
                else:
                    pixels = None
                result = tracker.track_frame(
                    cloud, init, frame.color, frame.depth, pixels=pixels)
                err = np.linalg.norm(se3_log(
                    se3_inverse(frame.gt_pose_c2w) @ result.pose_c2w))
                errors.append(err)
            rows.append({
                "strategy": strategy,
                "tile": tile,
                "pose_error_cm": float(np.mean(errors)) * 100.0,
            })
    return rows


def fig11_raster_speedup(bundle: Optional[ProxyBundle] = None) -> List[Dict]:
    """Fig. 11: raster / reverse-raster latency for Org., Org.+S, Ours."""
    bundle = bundle or build_bundle()
    ws = tracking_workloads(bundle)
    gpu = GpuModel()
    t = {k: gpu.iteration_times(w) for k, w in ws.items()}
    base_r = t["dense"].rasterization
    base_rr = t["dense"].reverse_rasterization + t["dense"].aggregation
    rows = []
    for label, key in [("Org.", "dense"), ("Org.+S", "tile_sparse"),
                       ("Ours", "pixel")]:
        tt = t[key]
        rr = tt.reverse_rasterization + tt.aggregation
        rows.append({
            "variant": label,
            "raster_ms": tt.rasterization * 1e3,
            "raster_speedup": base_r / tt.rasterization,
            "reverse_raster_ms": rr * 1e3,
            "reverse_raster_speedup": base_rr / rr,
        })
    return rows


def fig14_bottleneck_shift(bundle: Optional[ProxyBundle] = None) -> List[Dict]:
    """Fig. 14: projection / reverse-raster shares before vs after."""
    bundle = bundle or build_bundle()
    ws = tracking_workloads(bundle)
    gpu = GpuModel()
    rows = []
    for label, key in [("Org.", "dense"), ("Ours", "pixel")]:
        t = gpu.iteration_times(ws[key])
        rr = t.reverse_rasterization + t.aggregation
        rows.append({
            "variant": label,
            "projection_ms": t.projection * 1e3,
            "projection_share_fwd": t.projection / t.forward,
            "reverse_raster_ms": rr * 1e3,
            "reverse_raster_share_bwd": rr / t.backward,
        })
    return rows


# ---------------------------------------------------------------------------
# Sec. VII-A accuracy (Figs. 17, 18, 24, 26)
# ---------------------------------------------------------------------------

def _accuracy_run(sequence, algorithm: str, mode: str,
                  splatonic_config: Optional[SplatonicConfig] = None,
                  seed: int = 0) -> Dict:
    system = SLAMSystem(algorithm, mode=mode,
                        splatonic_config=splatonic_config, seed=seed)
    result = system.run(sequence)
    quality = result.eval_quality(sequence)
    return {
        "ate_cm": result.ate().rmse * 100.0,
        "psnr_db": quality["psnr"],
        "depth_l1": quality["depth_l1"],
    }


def _accuracy_figure(sequences, algorithms, splatonic_config=None) -> List[Dict]:
    # Proxy-scale tracking tile: the paper's w_t = 16 at 1200x680 yields
    # ~3200 samples; at 48x36 the same tile leaves 6 — too few for a
    # stable pose fit.  A 6-pixel tile keeps ~48 samples while preserving
    # a >10x pixel reduction (documented in EXPERIMENTS.md).
    if splatonic_config is None:
        splatonic_config = SplatonicConfig(tracking_tile=6)
    rows = []
    for algo in algorithms:
        for seq in sequences:
            base = _accuracy_run(seq, algo, "dense")
            ours = _accuracy_run(seq, algo, "sparse", splatonic_config)
            rows.append({
                "algorithm": algo,
                "sequence": seq.name,
                "baseline_ate_cm": base["ate_cm"],
                "ours_ate_cm": ours["ate_cm"],
                "baseline_psnr_db": base["psnr_db"],
                "ours_psnr_db": ours["psnr_db"],
            })
    return rows


def fig17_replica_accuracy(
        sequence_names: Sequence[str] = ("room0", "room1", "office0"),
        algorithms: Optional[Sequence[str]] = None,
        width: int = 48, height: int = 36, n_frames: int = 8) -> List[Dict]:
    """Fig. 17: Replica ATE & PSNR, baseline vs sparse sampling.

    Defaults use three sequences for runtime; pass all eight names for the
    full figure.
    """
    algorithms = list(algorithms or ALGORITHMS)
    sequences = [make_replica_sequence(n, n_frames=n_frames, width=width,
                                       height=height, surface_density=9)
                 for n in sequence_names]
    return _accuracy_figure(sequences, algorithms)


def fig18_tum_accuracy(
        sequence_names: Sequence[str] = TUM_SEQUENCES,
        algorithms: Optional[Sequence[str]] = None,
        width: int = 48, height: int = 36, n_frames: int = 8) -> List[Dict]:
    """Fig. 18: TUM-like ATE & PSNR, baseline vs sparse sampling."""
    algorithms = list(algorithms or ALGORITHMS)
    sequences = [make_tum_sequence(n, n_frames=n_frames, width=width,
                                   height=height, surface_density=9)
                 for n in sequence_names]
    return _accuracy_figure(sequences, algorithms)


def fig24_mapping_ablation(sequence_name: str = "room0", width: int = 48,
                           height: int = 36, n_frames: int = 10) -> List[Dict]:
    """Fig. 24: mapping-sampling ablation on SplaTAM (Unseen/Weighted/Comb)."""
    seq = make_replica_sequence(sequence_name, n_frames=n_frames, width=width,
                                height=height, surface_density=9)
    variants = {
        "baseline(dense)": None,
        "unseen": SplatonicConfig(tracking_tile=6, mapping_weighted=False),
        "weighted": SplatonicConfig(tracking_tile=6, mapping_unseen=False),
        "uniform": SplatonicConfig(tracking_tile=6,
                                   mapping_uniform_weights=True),
        "comb": SplatonicConfig(tracking_tile=6),
    }
    rows = []
    for label, cfg in variants.items():
        mode = "dense" if cfg is None else "sparse"
        r = _accuracy_run(seq, "splatam", mode, cfg)
        rows.append({"variant": label, "ate_cm": r["ate_cm"],
                     "psnr_db": r["psnr_db"]})
    return rows


def fig26_accuracy_sensitivity(tile_sizes: Sequence[int] = (2, 4, 8, 16),
                               sequence_name: str = "office2",
                               width: int = 48, height: int = 36,
                               n_frames: int = 8) -> List[Dict]:
    """Fig. 26: mapping accuracy vs mapping tile size (office-2-like)."""
    seq = make_replica_sequence(sequence_name, n_frames=n_frames, width=width,
                                height=height, surface_density=9)
    rows = []
    for tile in tile_sizes:
        cfg = SplatonicConfig(tracking_tile=6, mapping_tile=tile)
        r = _accuracy_run(seq, "splatam", "sparse", cfg)
        rows.append({"mapping_tile": tile, "ate_cm": r["ate_cm"],
                     "psnr_db": r["psnr_db"]})
    return rows


# ---------------------------------------------------------------------------
# Sec. VII-B GPU performance (Figs. 19, 20, 21)
# ---------------------------------------------------------------------------

def fig19_gpu_e2e(algorithms: Optional[Sequence[str]] = None) -> List[Dict]:
    """Fig. 19: end-to-end tracking speedup & energy on the mobile GPU."""
    algorithms = list(algorithms or ALGORITHMS)
    gpu = GpuModel()
    rows = []
    for algo in algorithms:
        bundle = build_bundle(algorithm=algo)
        ws = tracking_workloads(bundle)
        t = {k: gpu.iteration_times(w).total for k, w in ws.items()}
        e = {k: gpu.iteration_energy(w) for k, w in ws.items()}
        rows.append({
            "algorithm": algo,
            "orgs_speedup": t["dense"] / t["tile_sparse"],
            "ours_speedup": t["dense"] / t["pixel"],
            "orgs_energy_saving": 1.0 - e["tile_sparse"] / e["dense"],
            "ours_energy_saving": 1.0 - e["pixel"] / e["dense"],
        })
    rows.append({
        "algorithm": "mean",
        **{k: float(np.mean([r[k] for r in rows]))
           for k in ("orgs_speedup", "ours_speedup",
                     "orgs_energy_saving", "ours_energy_saving")},
    })
    return rows


def fig20_mapping_gpu(bundle: Optional[ProxyBundle] = None) -> List[Dict]:
    """Fig. 20: mapping speedup & energy savings on the mobile GPU."""
    bundle = bundle or build_bundle()
    ws = mapping_workloads(bundle)
    gpu = GpuModel()
    t = {k: gpu.iteration_times(w).total for k, w in ws.items()}
    e = {k: gpu.iteration_energy(w) for k, w in ws.items()}
    return [{
        "variant": label,
        "speedup": t["dense"] / t[key],
        "energy_saving": 1.0 - e[key] / e["dense"],
    } for label, key in [("Org.+S", "tile_sparse"), ("Ours", "pixel")]]


def fig21_stage_speedup(bundle: Optional[ProxyBundle] = None) -> List[Dict]:
    """Fig. 21: bottleneck-stage speedups during tracking."""
    rows = fig11_raster_speedup(bundle)
    return [{
        "variant": r["variant"],
        "raster_speedup": r["raster_speedup"],
        "reverse_raster_speedup": r["reverse_raster_speedup"],
    } for r in rows if r["variant"] != "Org."]


# ---------------------------------------------------------------------------
# Sec. VII-C hardware performance (Figs. 22, 23, 25, 27, area)
# ---------------------------------------------------------------------------

def _accel_rows(ws: Dict[str, Workload]) -> List[Dict]:
    gpu = GpuModel()
    base_t = gpu.iteration_times(ws["dense"]).total
    base_e = gpu.iteration_energy(ws["dense"])
    sw_t = gpu.iteration_times(ws["pixel"]).total
    sw_e = gpu.iteration_energy(ws["pixel"])
    reports = {
        "GauSPU": GauSpuAccelerator().iteration_report(ws["dense"]),
        "GauSPU+S": GauSpuAccelerator().iteration_report(ws["tile_sparse"]),
        "GSArch": GsArchAccelerator().iteration_report(ws["dense"]),
        "GSArch+S": GsArchAccelerator().iteration_report(ws["tile_sparse"]),
        "SPLATONIC-HW": SplatonicAccelerator().iteration_report(ws["pixel"]),
    }
    rows = [{
        "design": "GPU", "speedup": 1.0, "energy_saving": 1.0,
    }, {
        "design": "SPLATONIC-SW",
        "speedup": base_t / sw_t,
        "energy_saving": base_e / sw_e,
    }]
    for name, rep in reports.items():
        rows.append({
            "design": name,
            "speedup": base_t / rep.total_s,
            "energy_saving": base_e / rep.energy_j,
        })
    return rows


def fig22_accel_tracking(bundle: Optional[ProxyBundle] = None) -> List[Dict]:
    """Fig. 22: tracking performance/energy across architectures."""
    bundle = bundle or build_bundle()
    return _accel_rows(tracking_workloads(bundle))


def fig23_accel_mapping(bundle: Optional[ProxyBundle] = None) -> List[Dict]:
    """Fig. 23: mapping speedups across architectures."""
    bundle = bundle or build_bundle()
    return _accel_rows(mapping_workloads(bundle))


def fig25_sampling_sensitivity(
        tile_sizes: Sequence[int] = (1, 2, 4, 8, 16, 32),
        bundle: Optional[ProxyBundle] = None) -> List[Dict]:
    """Fig. 25: speedup vs sampling tile size; tile-based wins when dense."""
    bundle = bundle or build_bundle()
    gpu = GpuModel()
    rows = []
    for tile in tile_sizes:
        ws = tracking_workloads(bundle, tile=tile)
        base_t = gpu.iteration_times(ws["dense"]).total
        hw = SplatonicAccelerator().iteration_report(ws["pixel"])
        gsarch = GsArchAccelerator().iteration_report(ws["tile_sparse"])
        rows.append({
            "tile": tile,
            "pixels": ws["pixel"].fwd.num_pixels,
            "splatonic_hw_speedup": base_t / hw.total_s,
            "gsarch_s_speedup": base_t / gsarch.total_s,
        })
    return rows


def fig27_unit_sensitivity(
        projection_units: Sequence[int] = (2, 4, 8, 16),
        render_units: Sequence[int] = (2, 4, 8),
        bundle: Optional[ProxyBundle] = None) -> List[Dict]:
    """Fig. 27: sensitivity to projection-unit / render-unit counts."""
    bundle = bundle or build_bundle()
    w = tracking_workloads(bundle)["pixel"]
    base = SplatonicAccelerator().iteration_report(w).total_s
    rows = []
    for pu in projection_units:
        for ru in render_units:
            cfg = SplatonicHwConfig(projection_units=pu,
                                    raster_engines=ru)
            rep = SplatonicAccelerator(cfg).iteration_report(w)
            rows.append({
                "projection_units": pu,
                "render_engines": ru,
                "relative_performance": base / rep.total_s,
            })
    return rows


def area_table() -> List[Dict]:
    """Sec. VI area: SPLATONIC breakdown vs GSCore / GSArch totals."""
    breakdown = splatonic_area()
    rows = [{"component": k, "area_mm2": v,
             "share": breakdown.share(k)}
            for k, v in breakdown.components.items()]
    rows.append({"component": "TOTAL (16nm)", "area_mm2": breakdown.total,
                 "share": 1.0})
    for name, mm2 in COMPARISON_AREAS_MM2.items():
        if name != "splatonic":
            rows.append({"component": f"{name} (paper)", "area_mm2": mm2,
                         "share": float("nan")})
    return rows


# ---------------------------------------------------------------------------
# Design-choice ablations (DESIGN.md)
# ---------------------------------------------------------------------------

def ablation_lut(entries_list: Sequence[int] = (8, 16, 32, 64, 128),
                 bundle: Optional[ProxyBundle] = None) -> List[Dict]:
    """Exp-LUT size: approximation error and rendered-color PSNR."""
    bundle = bundle or build_bundle()
    pixels = sample_tracking_pixels(bundle.width, bundle.height, 8,
                                    "random", np.random.default_rng(0))
    from ..core.pixel_pipeline import render_sparse
    exact = render_sparse(bundle.cloud, bundle.camera, pixels, _BG,
                          keep_cache=False)
    rows = []
    for entries in entries_list:
        lut = ExpLUT(entries)
        approx = render_sparse(bundle.cloud, bundle.camera, pixels, _BG,
                               keep_cache=False,
                               exp_fn=lambda x: lut(-np.asarray(x)))
        rows.append({
            "entries": entries,
            "max_exp_error": lut.max_abs_error(20_000),
            "render_psnr_db": psnr(approx.color, exact.color),
        })
    return rows


def ablation_aggregation_unit(bundle: Optional[ProxyBundle] = None) -> List[Dict]:
    """Scoreboard aggregation vs naive off-chip read-modify-write."""
    bundle = bundle or build_bundle()
    w = tracking_workloads(bundle)["pixel"]
    unit = AggregationUnit()
    ids = w.bwd.pixel_contrib_ids
    smart = unit.simulate(ids)
    naive = unit.simulate_naive(ids)
    return [
        {"variant": "scoreboard", "cycles": smart.cycles,
         "dram_bytes": smart.dram_bytes, "hit_rate": smart.hit_rate},
        {"variant": "naive", "cycles": naive.cycles,
         "dram_bytes": naive.dram_bytes, "hit_rate": naive.hit_rate},
        {"variant": "speedup", "cycles": naive.cycles / max(smart.cycles, 1e-9),
         "dram_bytes": naive.dram_bytes / max(smart.dram_bytes, 1e-9),
         "hit_rate": float("nan")},
    ]


def _hw_ablation(bundle: Optional[ProxyBundle], stage: str,
                 **overrides) -> List[Dict]:
    """End-to-end and affected-stage effect of disabling one feature.

    The pipeline overlaps stages, so a disabled feature only moves the
    end-to-end latency once its stage becomes the bottleneck; the stage
    column shows the structural cost either way.
    """
    bundle = bundle or build_bundle()
    w = tracking_workloads(bundle)["pixel"]
    on = SplatonicAccelerator().iteration_report(w)
    off = SplatonicAccelerator(
        SplatonicHwConfig(**overrides)).iteration_report(w)
    rows = [
        {"variant": "enabled", "total_us": on.total_s * 1e6,
         "stage_us": on.stage_seconds[stage] * 1e6},
        {"variant": "disabled", "total_us": off.total_s * 1e6,
         "stage_us": off.stage_seconds[stage] * 1e6},
        {"variant": "slowdown", "total_us": off.total_s / on.total_s,
         "stage_us": (off.stage_seconds[stage]
                      / max(on.stage_seconds[stage], 1e-12))},
    ]
    return rows


def ablation_gamma_cache(bundle: Optional[ProxyBundle] = None) -> List[Dict]:
    """Γ/C on-chip caching in the reverse render units (Sec. V-B)."""
    return _hw_ablation(bundle, "reverse_rasterization", gamma_cache=False)


def ablation_bbox_indexing(bundle: Optional[ProxyBundle] = None) -> List[Dict]:
    """Direct bbox indexing in the projection unit (Sec. V-C)."""
    return _hw_ablation(bundle, "projection", direct_bbox_indexing=False)


def ablation_preemptive_alpha(bundle: Optional[ProxyBundle] = None) -> List[Dict]:
    """Preemptive α-checking: SW workload effect + HW render-unit effect."""
    bundle = bundle or build_bundle()
    frame = bundle.frame
    pixels = sample_tracking_pixels(bundle.width, bundle.height, 16,
                                    "random", np.random.default_rng(0))
    f_p, f_g = bundle.pixel_factor, bundle.gaussian_factor
    with_pre = measure_iteration(bundle.cloud, bundle.camera, frame.color,
                                 frame.depth, "pixel", pixels).upscale(f_p, f_g)
    dense = measure_iteration(bundle.cloud, bundle.camera, frame.color,
                              frame.depth, "tile").upscale(f_p, f_g)
    gpu = GpuModel()
    hw_on = SplatonicAccelerator().iteration_report(with_pre)
    hw_off = SplatonicAccelerator(
        SplatonicHwConfig(preemptive_alpha=False)).iteration_report(with_pre)
    t_dense = gpu.iteration_times(dense)
    return [
        {"variant": "hw_raster_stage_on_us", "value":
            hw_on.stage_seconds["rasterization"] * 1e6},
        {"variant": "hw_raster_stage_off_us", "value":
            hw_off.stage_seconds["rasterization"] * 1e6},
        {"variant": "hw_raster_slowdown_without", "value":
            hw_off.stage_seconds["rasterization"]
            / max(hw_on.stage_seconds["rasterization"], 1e-12)},
        {"variant": "hw_total_slowdown_without", "value":
            hw_off.total_s / hw_on.total_s},
        # What preemption removes on the GPU side: the alpha-check share
        # of rasterization in the conventional (non-preemptive) pipeline.
        {"variant": "sw_alpha_share_without_preemption", "value":
            t_dense.alpha_check_fwd / max(t_dense.rasterization, 1e-12)},
    ]
