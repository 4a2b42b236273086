"""Tracking renders a frozen snapshot of the map: read-only views of the
live cloud with ``scales`` and ``opacities`` computed once per
``track_frame`` call.  The snapshot must be bit-transparent, must refuse
writes, and must never leave the tracker."""

import copy
import pickle

import numpy as np
import pytest

from repro.core import SplatonicConfig
from repro.datasets import make_replica_sequence
from repro.gaussians import Camera
from repro.gaussians.model import FrozenCloud, GaussianCloud
from repro.render.projection import project_gaussians
from repro.slam import SLAMSystem
from repro.slam.mapper import Mapper
from repro.slam import tracker as tracker_module
from repro.slam.tracker import Tracker

ARRAYS = ("means", "log_scales", "logit_opacities", "colors", "scales",
          "opacities")


@pytest.fixture(scope="module")
def sequence():
    return make_replica_sequence("room0", n_frames=4, width=48, height=36,
                                 surface_density=8)


def test_derived_parameters_bit_identical(sequence):
    live = sequence.gt_cloud
    frozen = FrozenCloud(live)
    assert len(frozen) == len(live)
    for name in ARRAYS:
        assert np.array_equal(getattr(frozen, name), getattr(live, name),
                              equal_nan=True), name


@pytest.mark.parametrize("name", ARRAYS)
def test_snapshot_arrays_refuse_writes(sequence, name):
    live = sequence.gt_cloud.copy()
    array = getattr(FrozenCloud(live), name)
    with pytest.raises(ValueError, match="read-only"):
        array[0] = 0.0
    # The live cloud stays writeable.
    assert live.means.flags.writeable


def _track(sequence, seed):
    """Track frame 1 against the ground-truth map from frame 0's pose, as
    the benchmark's localization loop does."""
    system = SLAMSystem(
        "splatam", mode="sparse",
        splatonic_config=SplatonicConfig(tracking_tile=8,
                                         record_per_pixel=False),
        seed=seed)
    tracker = Tracker(system.algo, sequence.intrinsics, system.splatonic,
                      system.mode, system.background)
    frame = sequence[1]
    return tracker.track_frame(sequence.gt_cloud, sequence[0].gt_pose_c2w,
                               frame.color, frame.depth)


@pytest.mark.parametrize("seed", [0, 1])
def test_track_frame_matches_live_cloud(sequence, seed, monkeypatch):
    frozen = _track(sequence, seed)
    # Render the live cloud instead of a snapshot.
    monkeypatch.setattr(tracker_module, "FrozenCloud", lambda cloud: cloud)
    live = _track(sequence, seed)
    assert frozen.pose_c2w.tobytes() == live.pose_c2w.tobytes()
    assert frozen.iterations == live.iterations
    assert frozen.final_loss == live.final_loss
    assert frozen.forward_stats.as_dict() == live.forward_stats.as_dict()
    assert frozen.backward_stats.as_dict() == live.backward_stats.as_dict()


def test_mapper_never_receives_a_snapshot(sequence, monkeypatch):
    tracked, mapped = [], []
    for owner, method, seen in ((Tracker, "track_frame", tracked),
                                (Mapper, "map_frame", mapped)):
        original = getattr(owner, method)

        def spy(self, cloud, *args, _original=original, _seen=seen,
                **kwargs):
            _seen.append(type(cloud))
            return _original(self, cloud, *args, **kwargs)

        monkeypatch.setattr(owner, method, spy)
    SLAMSystem("splatam", mode="sparse",
               splatonic_config=SplatonicConfig(tracking_tile=8)).run(
                   sequence, n_frames=3)
    assert tracked and mapped
    assert set(tracked) == set(mapped) == {GaussianCloud}


def test_projection_keeps_snapshot_pointers(sequence):
    """The projection reads a snapshot's ``scales``, ``opacities`` and
    ``colors`` pointers once and keeps them with it; a copy drops them.
    Every projection matches the live cloud's bit for bit, also when the
    snapshot's colours are not C-contiguous (the kept pointer is then a
    contiguous copy's)."""
    live = sequence.gt_cloud.copy()
    live.colors = np.asfortranarray(live.colors)
    camera = Camera(sequence.intrinsics, sequence[1].gt_pose_c2w)
    frozen = FrozenCloud(live)
    want = project_gaussians(live, camera)
    kept = None
    for cloud in (frozen, frozen, pickle.loads(pickle.dumps(frozen)),
                  copy.deepcopy(frozen)):
        if cloud is not frozen:
            assert not cloud.__dict__.get("_kernel_pointers")
        got = project_gaussians(cloud, camera)
        for name in ("source_index", "p_cam", "mean2d", "sigma2d", "depth",
                     "opacity", "color", "radius", "scale"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
        if cloud is frozen:
            memo = cloud.__dict__["_kernel_pointers"]
            assert set(memo) == {"scales", "opacities", "colors"}
            # The second projection reads the same entries again.
            assert kept is None or all(memo[k] is kept[k] for k in memo)
            kept = dict(memo)
