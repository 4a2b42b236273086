"""The compiled projection against its numpy oracle
(``tests/projection_oracle.py``): every ``ProjectedGaussians`` field,
bit for bit, on random clouds and on the edge cases — an empty cloud,
points behind ``near`` or exactly on it, NaN and ±inf means and scales,
colours out of [0, 1] or NaN, and splats straddling each image edge."""

import copy
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gaussians import Camera, GaussianCloud, Intrinsics
from repro.gaussians.model import FrozenCloud
from repro.render.kernels import native
from repro.render.projection import project_gaussians

from . import projection_oracle

W, H = 48, 36
INTR = Intrinsics.from_fov(W, H, 75.0)
FIELDS = ("source_index", "p_cam", "mean2d", "sigma2d", "depth", "opacity",
          "color", "radius", "scale")
SPECIAL = [np.nan, np.inf, -np.inf, 0.0, -0.0]


def assert_matches_oracle(cloud, camera, **kwargs):
    with np.errstate(all="ignore"):
        got = project_gaussians(cloud, camera, **kwargs)
        want = projection_oracle.project_gaussians(cloud, camera, **kwargs)
    for name in FIELDS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name
    return got


def random_cloud(rng, n):
    means = np.stack([rng.uniform(-3, 3, n), rng.uniform(-2, 2, n),
                      rng.uniform(-1, 6, n)], axis=-1)
    return GaussianCloud(means, rng.uniform(-4, 0, n), rng.normal(0, 2, n),
                         rng.uniform(-0.5, 1.5, (n, 3)))


def posed_camera(rng):
    pose = np.eye(4)
    pose[:3, 3] = rng.normal(0, 0.2, 3)
    return Camera(INTR, pose)


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(0, 200),
       specials=st.integers(0, 6))
@settings(max_examples=200, deadline=None)
def test_random_clouds(seed, n, specials):
    """Random clouds from a moved camera, with a few means, log-scales and
    colours set to NaN, ±inf or ±0."""
    rng = np.random.default_rng(seed)
    cloud = random_cloud(rng, n)
    if n:
        for array in (cloud.means, cloud.log_scales, cloud.colors):
            flat = array.reshape(-1)
            at = rng.integers(0, flat.size, specials)
            flat[at] = rng.choice(SPECIAL, at.size)
    assert_matches_oracle(cloud, posed_camera(rng))


def test_frozen_cloud():
    """Tracking projects a read-only snapshot of the map."""
    rng = np.random.default_rng(4)
    cloud = random_cloud(rng, 300)
    got = assert_matches_oracle(FrozenCloud(cloud), posed_camera(rng))
    assert 0 < len(got) < 300


def test_empty_cloud():
    got = assert_matches_oracle(GaussianCloud.empty(), Camera(INTR))
    assert len(got) == 0 and got.p_cam.shape == (0, 3)


def test_behind_and_on_the_near_plane():
    """Points behind the camera, on ``near`` exactly and just past it: only
    ``z > near`` survives."""
    near = 0.25
    z = np.array([-1.0, 0.0, -0.0, near, np.nextafter(near, 1.0), 1.0])
    cloud = GaussianCloud.create(np.stack([np.zeros(6), np.zeros(6), z], -1),
                                 np.full(6, 0.1), np.full(6, 0.5),
                                 np.full((6, 3), 0.5))
    got = assert_matches_oracle(cloud, Camera(INTR), near=near)
    assert got.source_index.tolist() == [4, 5]
    behind = GaussianCloud.create(np.array([[0.0, 0.0, -2.0]] * 3),
                                  np.full(3, 0.1), np.full(3, 0.5),
                                  np.full((3, 3), 0.5))
    assert len(assert_matches_oracle(behind, Camera(INTR))) == 0


def test_far_plane():
    cloud = GaussianCloud.create(np.array([[0.0, 0.0, 5.0], [0.0, 0.0, 9.0]]),
                                 np.full(2, 0.1), np.full(2, 0.5),
                                 np.full((2, 3), 0.5))
    got = assert_matches_oracle(cloud, Camera(INTR), far=9.0)
    assert got.source_index.tolist() == [0]


@pytest.mark.parametrize("value", SPECIAL + [1e300, -1e300])
@pytest.mark.parametrize("where", ["x", "y", "z", "log_scale"])
def test_non_finite_means_and_scales(where, value):
    cloud = GaussianCloud.create(np.array([[0.1, -0.2, 2.0]] * 2),
                                 np.full(2, 0.1), np.full(2, 0.5),
                                 np.full((2, 3), 0.5))
    if where == "log_scale":
        cloud.log_scales[1] = value
    else:
        cloud.means[1, "xyz".index(where)] = value
    got = assert_matches_oracle(cloud, Camera(INTR))
    assert 0 in got.source_index


def test_colours_are_clipped_as_numpy_clips():
    """Below 0, above 1, ±inf, ±0 and NaN: NaN and -0.0 pass through."""
    colours = np.array([[-0.5, 0.0, -0.0], [1.0, 1.5, np.inf],
                        [-np.inf, np.nan, 0.25]])
    cloud = GaussianCloud.create(np.array([[0.0, 0.0, 2.0]] * 3),
                                 np.full(3, 0.1), np.full(3, 0.5), colours)
    got = assert_matches_oracle(cloud, Camera(INTR))
    assert np.isnan(got.color[2, 1]) and np.signbit(got.color[0, 2])
    assert got.color[1].tolist() == [1.0, 1.0, 1.0]


@pytest.mark.parametrize("edge", ["left", "right", "top", "bottom"])
def test_splats_straddling_an_edge(edge):
    """Centres swept across each image edge at a fixed radius: a splat
    survives while its bbox overlaps the image, whether its centre is on
    screen or not."""
    z, scale = 2.0, 0.05
    f = 0.5 * (INTR.fx + INTR.fy)
    radius = 3.5 * f * scale / z
    offsets = np.linspace(-2.0 * radius, 2.0 * radius, 41)
    if edge in ("left", "right"):
        u = (0.0 if edge == "left" else W) + offsets
        v = np.full_like(u, H / 2)
    else:
        v = (0.0 if edge == "top" else H) + offsets
        u = np.full_like(v, W / 2)
    means = np.stack([(u - INTR.cx) * z / INTR.fx, (v - INTR.cy) * z / INTR.fy,
                      np.full_like(u, z)], axis=-1)
    cloud = GaussianCloud.create(means, np.full(41, scale), np.full(41, 0.5),
                                 np.full((41, 3), 0.5))
    got = assert_matches_oracle(cloud, Camera(INTR))
    assert 0 < len(got) < 41


@pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy,
                                   lambda p: pickle.loads(pickle.dumps(p))])
def test_a_copy_reads_its_own_pointers(clone):
    """The projection keeps the pointers of the arrays it wrote; a copy
    drops them, and reads those of the arrays it holds."""
    rng = np.random.default_rng(6)
    proj = project_gaussians(random_cloud(rng, 200), Camera(INTR))
    assert len(proj) > 0
    names = ("color", "depth", "mean2d")
    kept = native.pointers(proj, names)
    assert kept == [getattr(proj, n).ctypes.data for n in names]
    twin = clone(proj)
    assert native.pointers(twin, names) == [
        getattr(twin, n).ctypes.data for n in names]
