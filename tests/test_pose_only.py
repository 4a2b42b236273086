"""Pose-only reverse pass (tracking): ``pose_only=True`` must give the
full pass's ``d_pose_twist`` and every backward counter bit for bit, and
leave the map gradients None so that misuse fails loudly."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pixel_pipeline import backward_sparse, render_sparse
from repro.gaussians import Camera, GaussianCloud, Intrinsics
from repro.render import backward_full, render_full
from repro.render.kernels import available_backends

BG = np.array([0.15, 0.25, 0.05])
W, H = 40, 30
CAMERA = Camera(Intrinsics.from_fov(W, H, 75.0))
MAP_FIELDS = ("d_means", "d_log_scales", "d_logit_opacities", "d_colors")
RECORDS = ("per_pixel_contribs", "tile_work", "pixel_list_lengths")


def make_cloud(seed, n=60, culled=False):
    rng = np.random.default_rng(seed)
    z = rng.uniform(-5.0, -1.0, n) if culled else rng.uniform(1.0, 5.0, n)
    return GaussianCloud.create(
        means=np.stack([rng.uniform(-2, 2, n), rng.uniform(-1.5, 1.5, n), z],
                       axis=-1),
        scales=rng.uniform(0.03, 0.3, n),
        opacities=rng.uniform(0.1, 0.99, n),
        # Out-of-range colours exercise the clamp gate the full pass skips.
        colors=rng.uniform(-0.1, 1.1, (n, 3)),
    )


def loss_gradients(seed, shape):
    rng = np.random.default_rng(seed + 1)
    return (rng.normal(size=shape + (3,)), rng.normal(size=shape),
            rng.normal(size=shape))


def assert_pose_only_matches(full, pose):
    assert np.array_equal(pose.d_pose_twist, full.d_pose_twist)
    for name in MAP_FIELDS:
        assert getattr(pose, name) is None, name
        assert getattr(full, name) is not None, name
    assert pose.stats.as_dict() == full.stats.as_dict()
    for name in RECORDS:
        assert getattr(pose.stats, name) == getattr(full.stats, name), name
    assert len(pose.stats.pixel_contrib_ids) == len(full.stats.pixel_contrib_ids)
    for a, b in zip(pose.stats.pixel_contrib_ids, full.stats.pixel_contrib_ids):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("backend", available_backends())
@given(seed=st.integers(0, 10_000), k=st.sampled_from([0, 1, 9, 40]),
       culled=st.booleans())
@settings(max_examples=12, deadline=None)
def test_sparse_pose_only_is_the_full_pass(backend, seed, k, culled):
    cloud = make_cloud(seed, culled=culled)
    rng = np.random.default_rng(seed)
    pixels = np.stack([rng.integers(0, W, k), rng.integers(0, H, k)], axis=-1)
    res = render_sparse(cloud, CAMERA, pixels, BG, backend=backend)
    d = loss_gradients(seed, (k,))
    full = backward_sparse(res, cloud, CAMERA, *d)
    pose = backward_sparse(res, cloud, CAMERA, *d, pose_only=True)
    assert_pose_only_matches(full, pose)


@given(seed=st.integers(0, 10_000),
       subset=st.sampled_from([None, 0, 1, 50]),
       tile_size=st.sampled_from([8, 16]),
       culled=st.booleans(), keep_cache=st.booleans())
@settings(max_examples=16, deadline=None)
def test_dense_pose_only_is_the_full_pass(seed, subset, tile_size, culled,
                                          keep_cache):
    """Full frames and Org.+S pixel subsets (``subset`` pixels; None is
    the whole frame)."""
    cloud = make_cloud(seed, culled=culled)
    pixels = (None if subset is None else
              np.random.default_rng(seed).integers(0, [W, H], (subset, 2)))
    res = render_full(cloud, CAMERA, BG, tile_size=tile_size,
                      keep_cache=keep_cache, pixels=pixels)
    d = loss_gradients(seed, (H, W))
    full = backward_full(res, cloud, CAMERA, *d)
    pose = backward_full(res, cloud, CAMERA, *d, pose_only=True)
    assert_pose_only_matches(full, pose)


def test_pose_only_gradients_refuse_map_use():
    cloud = make_cloud(0)
    res = render_sparse(cloud, CAMERA, np.array([[10, 10], [20, 15]]), BG)
    grads = backward_sparse(res, cloud, CAMERA, *loss_gradients(0, (2,)),
                            pose_only=True)
    with pytest.raises(AttributeError):
        grads.as_cloud_vector()
