"""The three SLAM workloads: set-up, one measured run, its fingerprint.

All three run on the replica-like ``room0`` sequence with the SplaTAM
preset and exactly the configuration ``repro slam`` builds when given no
flags: tracking tile 8, ``surface_density=10``, per-pixel records off, and
no kernel backend, worker count or render cache chosen, so each resolves
to the shipped default.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from time import perf_counter
from typing import Dict, List, Optional

import numpy as np

from repro.core import SplatonicConfig, sample_tracking_pixels
from repro.datasets import make_replica_sequence
from repro.gaussians.camera import Camera
from repro.metrics.ate import ate_rmse
from repro.render.stats import PipelineStats
from repro.slam import SLAMSystem
from repro.slam.tracker import Tracker

import calibrate
from layers import UNTRACED_SITES, Tracer

__all__ = ["Workload", "WORKLOADS", "RunRecord", "setup", "sequence_digest",
           "make_system", "run_once"]

SEQUENCE = "room0"
ALGORITHM = "splatam"
TRACKING_TILE = 8
SURFACE_DENSITY = 10
#: Seconds of host-speed calibration before and after each timed call of
#: an untraced run: long enough for a steady median of the ~2 ms units,
#: short against the host's speed swings.
CALIBRATION_S = 0.05


@dataclass(frozen=True)
class Workload:
    name: str
    mode: str
    frames: int
    width: int
    height: int
    #: Track every frame against the fixed ground-truth map, no mapping.
    localize: bool = False


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("localize_sparse", "sparse", 40, 64, 48, localize=True),
    Workload("slam_sparse", "sparse", 12, 64, 48),
    Workload("slam_dense", "dense", 6, 48, 36),
)}


@dataclass
class RunRecord:
    """What one run of a workload produced and how long it took.

    In an untraced run the per-call times and ``other_s`` are at the
    reference host speed (see ``calibrate``); in a traced run they are as
    measured."""

    wall_s: float                 # loop wall time, calibration excluded
    frames: int                   # frames the loop estimated a pose for
    track_ms: List[float]         # one entry per Tracker.track_frame call
    map_ms: List[float]           # one entry per Mapper.map_frame call
    map_read_ms: List[float]      # localization only, see ``_map_reads``
    other_s: float                # loop time outside those calls
    slowdown: float               # median host slowdown over the calls
    failed_frames: List[int]
    ate_cm: float
    final_size: int
    fingerprint: Dict[str, object]
    tracer: Tracer


def setup(workload: Workload, frames: Optional[int] = None):
    """Synthesize the workload's RGB-D sequence (renders every frame and
    builds the ground-truth map)."""
    return make_replica_sequence(
        SEQUENCE, n_frames=frames or workload.frames, width=workload.width,
        height=workload.height, surface_density=SURFACE_DENSITY)


def make_system(workload: Workload, seed: int) -> SLAMSystem:
    """A fresh system, built the way ``repro slam`` builds one."""
    return SLAMSystem(
        ALGORITHM, mode=workload.mode,
        splatonic_config=SplatonicConfig(tracking_tile=TRACKING_TILE,
                                         record_per_pixel=False),
        seed=seed)


def _digest(*arrays: np.ndarray) -> str:
    h = hashlib.sha256()
    for array in arrays:
        h.update(np.ascontiguousarray(array).tobytes())
    return h.hexdigest()


def sequence_digest(sequence) -> str:
    """Digest of everything the program receives from set-up."""
    return _digest(sequence.gt_cloud.pack(), sequence.gt_trajectory,
                   *(a for f in sequence for a in (f.color, f.depth)))


def _localize(system: SLAMSystem, sequence, n: int):
    """Track frames 1..n-1 against the fixed ground-truth map from
    constant-velocity initialization, as ``SLAMSystem.run`` does."""
    tracker = Tracker(system.algo, sequence.intrinsics, system.splatonic,
                      system.mode, system.background)
    cloud = sequence.gt_cloud
    poses = [sequence[0].gt_pose_c2w.copy()]
    iterations = []
    fwd = PipelineStats(pipeline="sparse")
    bwd = PipelineStats(pipeline="sparse")
    for i in range(1, n):
        frame = sequence[i]
        init = SLAMSystem._constant_velocity_init(poses)
        tr = tracker.track_frame(cloud, init, frame.color, frame.depth)
        poses.append(tr.pose_c2w)
        iterations.append(tr.iterations)
        fwd.merge(tr.forward_stats)
        bwd.merge(tr.backward_stats)
    counters = {"tracking_iterations": iterations,
                "tracking_fwd": fwd.as_dict(), "tracking_bwd": bwd.as_dict()}
    return np.stack(poses), cloud, counters


def _map_reads(system: SLAMSystem, sequence, cloud,
               poses: np.ndarray) -> List[float]:
    """Time (ms, at the reference host speed) of one read of the fixed map
    per estimated pose: a sparse forward render over the tracking lattice
    (tile centres).  Localization never writes its map, so this read is
    its map-side cost."""
    intr = sequence.intrinsics
    tile = system.splatonic.config.tracking_tile
    pixels = sample_tracking_pixels(intr.width, intr.height, tile=tile,
                                    strategy="center")
    times, units = [], calibrate.sample(CALIBRATION_S)
    for pose in poses:
        camera = Camera(intr, pose)
        start = perf_counter()
        system.splatonic.render_sparse(cloud, camera, pixels,
                                       system.background, lattice_tile=tile)
        times.append(1e3 * (perf_counter() - start))
        units += calibrate.sample(0.0)
    factor = calibrate.slowdown(units + calibrate.sample(CALIBRATION_S))
    return [t / factor for t in times]


def run_once(workload: Workload, sequence, seed: int,
             traced: bool = False, frames: Optional[int] = None) -> RunRecord:
    """Run the workload once over ``sequence``.

    Untraced runs wrap only ``Tracker.track_frame`` and
    ``Mapper.map_frame`` (a few dozen calls per run), for their per-call
    time, the host's slowdown around and inside each call and finite-guard
    alerts; traced runs wrap every layer and do not calibrate.
    """
    n = min(frames or len(sequence), len(sequence))
    system = make_system(workload, seed)
    tracer = (Tracer() if traced else
              Tracer(UNTRACED_SITES, kernels=False,
                     calibration_s=CALIBRATION_S))
    with tracer:
        start = perf_counter()
        if workload.localize:
            trajectory, cloud, counters = _localize(system, sequence, n)
        else:
            result = system.run(sequence, n_frames=n)
        wall = perf_counter() - start - tracer.calibration_wall_s
    map_read_ms = []
    if workload.localize:
        map_read_ms = _map_reads(system, sequence, cloud, trajectory)
        gt = sequence.gt_trajectory[:n]
    else:
        trajectory, cloud, gt = (result.est_trajectory, result.cloud,
                                 result.gt_trajectory)
        counters = {
            "tracking_iterations": list(result.tracking_iterations),
            "mapping_invocations": result.mapping_invocations,
            **{stage: stats.as_dict()
               for stage, stats in result.stage_stats.items()},
        }
    track_calls = tracer.kept["slam.tracker"]
    map_calls = tracer.kept["slam.mapper"]
    failed = {i for i in range(n)
              if not np.all(np.isfinite(trajectory[i]))}
    # Tracking call k handles frame k + 1; mapping calls follow
    # ``_map_frames``.
    failed |= {k + 1 for k, (_, fired, _) in enumerate(track_calls)
               if fired}
    failed |= {f for f, (_, fired, _) in zip(_map_frames(system, n),
                                             map_calls) if fired}
    calls = track_calls + map_calls
    slowdown = float(np.median([s for _, _, s in calls]))
    return RunRecord(
        wall_s=wall,
        frames=n - 1 if workload.localize else n,
        track_ms=[1e3 * t / s for t, _, s in track_calls],
        map_ms=[1e3 * t / s for t, _, s in map_calls],
        map_read_ms=map_read_ms,
        other_s=(wall - sum(t for t, _, _ in calls)) / slowdown,
        slowdown=slowdown,
        failed_frames=sorted(failed),
        ate_cm=100.0 * ate_rmse(trajectory, gt).rmse,
        final_size=len(cloud),
        fingerprint={
            "trajectory": _digest(trajectory),
            "map": _digest(cloud.pack()),
            "final_size": len(cloud),
            **counters,
        },
        tracer=tracer,
    )


def _map_frames(system: SLAMSystem, n: int) -> List[int]:
    """Frames at which ``SLAMSystem.run`` maps: 0, then every
    ``map_every``-th frame."""
    return [0] + [i for i in range(1, n) if i % system.algo.map_every == 0]
