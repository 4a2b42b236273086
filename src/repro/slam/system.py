"""The full 3DGS-SLAM loop: alternating tracking and mapping (Fig. 2).

``SLAMSystem.run`` consumes an RGB-D sequence: every frame is tracked
(constant-velocity initialization, then iterative pose optimization);
every ``map_every`` frames the mapper densifies and fine-tunes the map
against a keyframe window.  Workload counters are accumulated separately
for the four stages (tracking/mapping x forward/backward) so the hardware
models can replay exactly the workloads the run produced.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..core.splatonic import Splatonic, SplatonicConfig
from ..gaussians.camera import Camera
from ..gaussians.init import seed_from_rgbd
from ..gaussians.model import GaussianCloud
from ..gaussians.se3 import se3_inverse
from ..metrics.ate import AteResult, ate_rmse
from ..metrics.quality import depth_l1, psnr, ssim
from ..obs import metrics as obs_metrics
from ..obs import trace
from ..obs import flight as obs_flight
from ..obs import atlas as obs_atlas
from ..obs import telemetry as obs_telemetry
from ..obs.health import HealthMonitor, get_monitor, use_monitor
from ..obs.runsdb import RunRegistry
from ..render.rasterize import render_full
from ..render.stats import PipelineStats
from .config import AlgorithmConfig, get_algorithm
from .keyframes import Keyframe, KeyframeBuffer
from .mapper import Mapper
from .tracker import Tracker

__all__ = ["SLAMResult", "SLAMSystem"]


def _ate_stats(ate: AteResult) -> Dict[str, float]:
    return {"rmse": ate.rmse, "mean": ate.mean, "median": ate.median,
            "max": ate.max}


@dataclass
class SLAMResult:
    """Everything a finished SLAM run produced."""

    algorithm: str
    mode: str
    est_trajectory: np.ndarray      # (N, 4, 4)
    gt_trajectory: np.ndarray       # (N, 4, 4)
    cloud: GaussianCloud
    stage_stats: Dict[str, PipelineStats]
    tracking_iterations: List[int] = field(default_factory=list)
    mapping_invocations: int = 0
    num_frames: int = 0
    #: Registry id assigned when the run was recorded into a
    #: :class:`repro.obs.runsdb.RunRegistry` (None otherwise).
    run_id: Optional[str] = None

    def ate(self, align: bool = True) -> AteResult:
        """Absolute trajectory error of the estimated trajectory;
        ``align=False`` skips the similarity alignment to ground truth."""
        return ate_rmse(self.est_trajectory, self.gt_trajectory, align=align)

    def eval_quality(self, sequence, every: int = 4,
                     background: Optional[np.ndarray] = None) -> Dict[str, float]:
        """Render at the estimated poses and compare against the references.

        The returned dict always includes ``frames_evaluated``.  When the
        sampling yields no frames at all (``num_frames == 0`` or a
        non-positive ``every``), the scores are reported as 0.0 with a
        metrics-registry warning instead of silently averaging empty
        lists into NaN.
        """
        bg = np.full(3, 0.05) if background is None else background
        scores_psnr, scores_ssim, scores_d = [], [], []
        with trace.span("slam.eval_quality", every=every):
            for i in range(0, self.num_frames, max(every, 1)):
                cam = Camera(sequence.intrinsics, self.est_trajectory[i])
                res = render_full(self.cloud, cam, bg, keep_cache=False)
                frame = sequence[i]
                scores_psnr.append(psnr(res.color, frame.color))
                scores_ssim.append(ssim(res.color, frame.color))
                scores_d.append(depth_l1(res.depth, frame.depth))
        if not scores_psnr:
            obs_metrics.warn(
                f"eval_quality: no frames sampled (num_frames="
                f"{self.num_frames}, every={every}); returning zero scores")
            return {"psnr": 0.0, "ssim": 0.0, "depth_l1": 0.0,
                    "frames_evaluated": 0}
        return {
            "psnr": float(np.mean(scores_psnr)),
            "ssim": float(np.mean(scores_ssim)),
            "depth_l1": float(np.mean(scores_d)),
            "frames_evaluated": len(scores_psnr),
        }


class SLAMSystem:
    """Orchestrates tracking, keyframing, and mapping over a sequence."""

    STAGES = ("tracking_fwd", "tracking_bwd", "mapping_fwd", "mapping_bwd")

    def __init__(
        self,
        algorithm="splatam",
        mode: str = "sparse",
        splatonic_config: Optional[SplatonicConfig] = None,
        seed: int = 0,
        background: Optional[np.ndarray] = None,
        bootstrap_stride: int = 2,
        record_per_pixel: Optional[bool] = None,
        render_cache: Optional[bool] = None,
    ):
        """``record_per_pixel`` / ``render_cache`` override the matching
        :class:`SplatonicConfig` fields when given (``None`` keeps the
        config's value)."""
        self.algo: AlgorithmConfig = (
            algorithm if isinstance(algorithm, AlgorithmConfig)
            else get_algorithm(algorithm))
        if mode not in ("sparse", "dense"):
            raise ValueError("mode must be 'sparse' or 'dense'")
        self.mode = mode
        config = splatonic_config or SplatonicConfig()
        overrides = {}
        if record_per_pixel is not None:
            overrides["record_per_pixel"] = record_per_pixel
        if render_cache is not None:
            overrides["render_cache"] = render_cache
        if overrides:
            config = config.with_overrides(**overrides)
        self.splatonic = Splatonic(config, rng=np.random.default_rng(seed))
        self.background = (np.full(3, 0.05) if background is None
                           else np.asarray(background, float))
        self.bootstrap_stride = bootstrap_stride

    def run(self, sequence, n_frames: Optional[int] = None,
            observers: Sequence = ()) -> SLAMResult:
        """Run SLAM over ``sequence`` and return the result bundle.

        The run builds one event stream — a header, one record per frame
        and a summary (schema in :mod:`repro.obs.flight`) — and hands each
        event to every observer's ``on_header`` / ``on_frame(record,
        stages)`` / ``on_summary``: flight recorders, health monitors,
        atlas collectors and run registries, plus the telemetry bus while
        it is enabled.  A listened-to run is checked by the attached
        health monitor (else the process default), which also receives
        the tracker/mapper finite-guard alerts.  With no observer and the
        bus off no record is built: the run is bit-identical to an
        uninstrumented one.
        """
        n = len(sequence) if n_frames is None else min(n_frames, len(sequence))
        if n < 2:
            raise ValueError("need at least two frames")
        intr = sequence.intrinsics
        observers = self._listeners(observers)
        listening = bool(observers)

        def emit(event: str, *payload) -> None:
            for observer in observers:
                getattr(observer, event)(*payload)

        tracker = Tracker(self.algo, intr, self.splatonic, self.mode,
                          self.background)
        mapper = Mapper(self.algo, intr, self.splatonic, self.mode,
                        self.background)
        keyframes = KeyframeBuffer(self.algo.keyframe_every,
                                   self.algo.keyframe_window)
        stage_stats = {s: PipelineStats() for s in self.STAGES}
        est_poses: List[np.ndarray] = []
        tracking_iterations: List[int] = []
        mapping_invocations = 0

        monitor = observers[0] if listening else None
        collector = next((o for o in observers
                          if isinstance(o, obs_atlas.AtlasCollector)), None)
        run_span = trace.span("slam.run", algorithm=self.algo.name,
                              mode=self.mode, frames=n)
        # Route the finite-guard alerts into the observing monitor and the
        # render pipelines' spatial work into an observing atlas.
        with use_monitor(monitor), obs_atlas.use_collector(collector), \
                run_span:
            if listening:
                emit("on_header", obs_flight.to_plain(obs_flight.run_header(
                    algorithm=self.algo.name, mode=self.mode,
                    sequence=getattr(sequence, "name", None), frames=n,
                    width=intr.width, height=intr.height,
                    config=self.run_config())))
            for i in range(n):
                frame = sequence[i]
                tr = mp = None
                window: List[Keyframe] = []
                track_s = map_s = 0.0
                if i == 0:
                    # Bootstrap: seed the map at the ground-truth pose.
                    frame_start = perf_counter()
                    pose = frame.gt_pose_c2w.copy()
                    with trace.span("slam.bootstrap"):
                        cloud = self._bootstrap_cloud(intr, pose, frame)
                        window = [Keyframe(0, pose, frame.color, frame.depth)]
                        kf_added = keyframes.maybe_add(0, pose, frame.color,
                                                       frame.depth)
                        mp = mapper.map_frame(cloud, window[0], window,
                                              collect_curve=listening)
                    map_s = perf_counter() - frame_start
                else:
                    init = self._constant_velocity_init(est_poses)
                    frame_start = perf_counter()
                    with trace.span("slam.track", frame=i) as sp:
                        tr = tracker.track_frame(cloud, init, frame.color,
                                                 frame.depth,
                                                 collect_curve=listening)
                        sp.set(iterations=tr.iterations,
                               converged=tr.converged)
                    track_s = perf_counter() - frame_start
                    pose = tr.pose_c2w
                    tracking_iterations.append(tr.iterations)
                    stage_stats["tracking_fwd"].merge(tr.forward_stats)
                    stage_stats["tracking_bwd"].merge(tr.backward_stats)
                    kf_added = keyframes.maybe_add(i, pose, frame.color,
                                                   frame.depth)
                    if i % self.algo.map_every == 0:
                        current = Keyframe(i, pose, frame.color, frame.depth)
                        if self.algo.keyframe_selection == "overlap":
                            window = keyframes.select_by_overlap(
                                current, intr, rng=self.splatonic.rng)
                        else:
                            window = keyframes.select(current)
                        map_start = perf_counter()
                        with trace.span("slam.map", frame=i,
                                        window=len(window)) as sp:
                            mp = mapper.map_frame(cloud, current, window,
                                                  collect_curve=listening)
                            sp.set(seeded=mp.num_seeded, pruned=mp.num_pruned)
                        map_s = perf_counter() - map_start
                est_poses.append(pose)
                if mp is not None:
                    cloud = mp.cloud
                    mapping_invocations += 1
                    stage_stats["mapping_fwd"].merge(mp.forward_stats)
                    stage_stats["mapping_bwd"].merge(mp.backward_stats)
                if not listening:
                    continue

                stages = {name: (res.forward_stats, res.backward_stats)
                          for name, res in (("tracking", tr), ("mapping", mp))
                          if res is not None}
                alpha = (tr or mp).forward_stats
                candidate = alpha.num_candidate_pairs
                contrib = alpha.num_contrib_pairs
                # Render-cache accounting (forward passes own the lookups).
                # Not a diff channel: the cached/uncached equivalence differ
                # must see identical payloads everywhere else.
                cache = PipelineStats()
                for fwd, _ in stages.values():
                    cache.merge(fwd)
                emit("on_frame", obs_flight.to_plain({
                    "type": "frame",
                    "frame": i,
                    "pose_est": pose,
                    "pose_gt": frame.gt_pose_c2w,
                    "pose_error_m": float(np.linalg.norm(
                        pose[:3, 3] - frame.gt_pose_c2w[:3, 3])),
                    "tracking": None if tr is None else {
                        "iterations": tr.iterations,
                        "converged": tr.converged,
                        "final_loss": tr.final_loss,
                        "sampled_pixels": tr.num_sampled_pixels,
                        "loss_curve": tr.loss_curve,
                        "wall_time_s": track_s,
                    },
                    "mapping": None if mp is None else {
                        "invoked": True,
                        "num_seeded": mp.num_seeded,
                        "num_pruned": mp.num_pruned,
                        "final_loss": mp.final_loss,
                        "window": len(window),
                        "sampling": mp.sample_info or None,
                        "loss_curve": mp.loss_curve,
                        "wall_time_s": map_s,
                    },
                    "gaussians": len(cloud),
                    "keyframe": {"added": kf_added,
                                 "buffer_size": len(keyframes)},
                    "alpha": {
                        "candidate_pairs": candidate,
                        "contrib_pairs": contrib,
                        "rejection_rate": (1.0 - contrib / candidate
                                           if candidate else 0.0),
                    },
                    "cache": cache.cache_summary(),
                    "counters": {f"{name}_{way}": stats.headline()
                                 for name, pair in stages.items()
                                 for way, stats in zip(("fwd", "bwd"), pair)},
                    "wall_time_s": perf_counter() - frame_start,
                }), stages)

        result = SLAMResult(
            algorithm=self.algo.name,
            mode=self.mode,
            est_trajectory=np.stack(est_poses),
            gt_trajectory=sequence.gt_trajectory[:n],
            cloud=cloud,
            stage_stats=stage_stats,
            tracking_iterations=tracking_iterations,
            mapping_invocations=mapping_invocations,
            num_frames=n,
        )
        if listening:
            ate = result.ate()
            unaligned = result.ate(align=False)
            emit("on_summary", obs_flight.to_plain({
                "type": "summary",
                "frames": n,
                "ate": {**_ate_stats(ate), "per_frame": ate.per_frame},
                "ate_unaligned": _ate_stats(unaligned),
                "final_gaussians": len(cloud),
                "mapping_invocations": mapping_invocations,
                "tracking_iterations": int(sum(tracking_iterations)),
            }))
            result.run_id = next((o.run_id for o in observers
                                  if isinstance(o, RunRegistry)), None)
        return result

    @staticmethod
    def _listeners(observers: Sequence) -> list:
        """``observers`` plus the telemetry bus while it is enabled, led by
        a health monitor (the process default unless one is attached) so
        that every other observer sees the alerts it attaches."""
        observers = list(observers)
        if obs_telemetry.bus.enabled:
            observers.insert(0, obs_telemetry.bus)
        if not observers:
            return []
        monitor = next((o for o in observers if isinstance(o, HealthMonitor)),
                       get_monitor())
        return [monitor] + [o for o in observers if o is not monitor]

    # ---- helpers ----

    def run_config(self) -> dict:
        """The run's configuration as the flight header records it.

        Execution knobs are *resolved* (config > environment > default),
        so two runs that executed differently never share a config:
        registry triage can attribute wall-time deltas to a backend or
        render-cache change.
        """
        return {
            "tracking_tile": self.splatonic.config.tracking_tile,
            "mapping_tile": self.splatonic.config.mapping_tile,
            "tracking_strategy": self.splatonic.config.tracking_strategy,
            "map_every": self.algo.map_every,
            "keyframe_every": self.algo.keyframe_every,
            "keyframe_window": self.algo.keyframe_window,
            "kernel_backend": self.resolved_kernel_backend(),
            "render_cache": self.resolved_render_cache(),
        }

    def registry_config(self) -> dict:
        """The config the run registry keys a run by (its ``config_hash``):
        :meth:`run_config` plus the algorithm and mode."""
        return {"algorithm": self.algo.name, "mode": self.mode,
                **self.run_config()}

    def resolved_kernel_backend(self) -> str:
        """The sparse-kernel backend this run executes with (the
        registry default)."""
        from ..render.kernels import resolve_backend
        return resolve_backend()

    def resolved_render_cache(self) -> bool:
        """Whether this run renders through the temporal-coherence cache
        (config > ``$REPRO_RENDER_CACHE`` > off)."""
        return self.splatonic.render_cache_enabled()

    def effective_kernel_workers(self) -> int:
        """Always 1: the sparse kernel runs in the calling thread.  Kept
        only because ``perfbench/run.py`` still reports it."""
        return 1

    def _bootstrap_cloud(self, intr, pose0, frame0) -> GaussianCloud:
        """Seed the initial map from a regular grid over frame 0."""
        stride = self.bootstrap_stride
        us = np.arange(0, intr.width, stride)
        vs = np.arange(0, intr.height, stride)
        uu, vv = np.meshgrid(us, vs)
        pixels = np.stack([uu.ravel(), vv.ravel()], axis=-1)
        camera = Camera(intr, pose0)
        return seed_from_rgbd(camera, frame0.color, frame0.depth, pixels,
                              initial_opacity=self.algo.densify_opacity,
                              scale_factor=1.3 * stride)

    @staticmethod
    def _constant_velocity_init(est_poses: List[np.ndarray]) -> np.ndarray:
        """Extrapolate the next pose from the last two estimates."""
        if len(est_poses) < 2:
            return est_poses[-1].copy()
        prev, last = est_poses[-2], est_poses[-1]
        delta = se3_inverse(prev) @ last
        return last @ delta
