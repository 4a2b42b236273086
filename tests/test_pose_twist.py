"""The compiled camera twist (``reproject_twist`` in ``_native.c``)
against the numpy it replaced: the camera-frame gradient formed term for
term, then ``np.einsum("mij,mi->j")`` over
``point_jacobian_wrt_twist`` — bit for bit (any NaN matching any NaN),
on random inputs in the pose-only and the full re-projection, on
non-finite gradients, where a Jacobian zero times ±inf is NaN, and
inside both pipelines' pose-only reverse passes."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import pixel_pipeline
from repro.core.pixel_pipeline import backward_sparse, render_sparse
from repro.gaussians import Camera, GaussianCloud, Intrinsics
from repro.gaussians.se3 import point_jacobian_wrt_twist
from repro.render import backward, backward_full, render_full
from repro.render.backward import ProjectedGradients, reproject_gradients
from repro.render.kernels import native
from repro.render.projection import project_gaussians

from .padded_oracle import same_bits

W, H = 40, 30
INTR = Intrinsics.from_fov(W, H, 75.0)
BG = np.array([0.15, 0.25, 0.05])
SPECIAL = [np.nan, np.inf, -np.inf, 0.0, -0.0, 1e308]


def twist_oracle(proj, pg, camera):
    intr = camera.intrinsics
    x, y, z = proj.p_cam[:, 0], proj.p_cam[:, 1], proj.p_cam[:, 2]
    mean_focal = 0.5 * (intr.fx + intr.fy)
    d_u, d_v = pg.d_mean2d[:, 0], pg.d_mean2d[:, 1]
    d_x = d_u * intr.fx / z
    d_y = d_v * intr.fy / z
    d_z = (-d_u * intr.fx * x / (z * z) - d_v * intr.fy * y / (z * z)
           - pg.d_sigma2d * mean_focal * proj.scale / (z * z) + pg.d_depth)
    J = point_jacobian_wrt_twist(proj.p_cam)
    return np.einsum("mij,mi->j", J, np.stack([d_x, d_y, d_z], axis=-1))


def make_cloud(rng, n):
    means = np.stack([rng.uniform(-2, 2, n), rng.uniform(-1.5, 1.5, n),
                      rng.uniform(0.5, 5, n)], axis=-1)
    return GaussianCloud.create(means, rng.uniform(0.03, 0.3, n),
                                rng.uniform(0.1, 0.99, n),
                                rng.uniform(-0.1, 1.1, (n, 3)))


def posed_camera(rng):
    pose = np.eye(4)
    pose[:3, 3] = rng.normal(0, 0.1, 3)
    return Camera(INTR, pose)


def random_gradients(rng, m, specials):
    pg = ProjectedGradients(rng.normal(size=(m, 2)), rng.normal(size=m),
                            rng.normal(size=m), rng.normal(size=(m, 3)),
                            rng.normal(size=m))
    if m:
        for a in (pg.d_mean2d, pg.d_sigma2d, pg.d_depth):
            flat = a.reshape(-1)
            at = rng.integers(0, flat.size, specials)
            flat[at] = rng.choice(SPECIAL, at.size)
    return pg


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(0, 300),
       specials=st.integers(0, 4))
@settings(max_examples=300, deadline=None)
def test_matches_einsum(seed, n, specials):
    rng = np.random.default_rng(seed)
    cloud, cam = make_cloud(rng, n), posed_camera(rng)
    proj = project_gaussians(cloud, cam)
    pg = random_gradients(rng, len(proj), specials)
    with np.errstate(all="ignore"):
        got = reproject_gradients(proj, cloud, cam, pg,
                                  pose_only=True).d_pose_twist
        full = reproject_gradients(proj, cloud, cam, pg).d_pose_twist
        want = twist_oracle(proj, pg, cam) if len(proj) else np.zeros(6)
    assert got.shape == (6,) and same_bits(got, want)
    assert same_bits(full, want)


def test_zero_times_inf_is_nan():
    """An infinite u-gradient meets J's zeros: twist components its row
    of J does not feed are NaN, as einsum makes them."""
    rng = np.random.default_rng(1)
    cloud, cam = make_cloud(rng, 40), Camera(INTR)
    proj = project_gaussians(cloud, cam)
    pg = random_gradients(rng, len(proj), 0)
    pg.d_mean2d[3, 0] = np.inf
    with np.errstate(all="ignore"):
        got = reproject_gradients(proj, cloud, cam, pg,
                                  pose_only=True).d_pose_twist
        want = twist_oracle(proj, pg, cam)
    assert np.isnan(want[1:4]).all() and same_bits(got, want)


@pytest.fixture
def captured(monkeypatch):
    """Every pose-only re-projection the pipelines make, with its inputs
    and its twist."""
    calls = []

    def capturing(proj, cloud, camera, pg, pose_only=False):
        grads = reproject_gradients(proj, cloud, camera, pg, pose_only)
        calls.append((proj, pg, camera, grads.d_pose_twist))
        return grads

    monkeypatch.setattr(backward, "reproject_gradients", capturing)
    monkeypatch.setattr(pixel_pipeline, "reproject_gradients", capturing)
    return calls


@pytest.mark.parametrize("pipeline", ["dense", "sparse"])
@pytest.mark.parametrize("poison", [None, np.inf, np.nan])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_pipelines_pose_only_twist_is_einsum(captured, pipeline, poison,
                                             seed):
    rng = np.random.default_rng(seed)
    cloud, cam = make_cloud(rng, 80), posed_camera(rng)
    if pipeline == "dense":
        shape = (H, W)
        result = render_full(cloud, cam, BG, tile_size=8)
        run = backward_full
    else:
        pixels = np.stack([rng.integers(0, W, 30), rng.integers(0, H, 30)],
                          axis=-1)
        shape = (len(pixels),)
        result = render_sparse(cloud, cam, pixels, BG)
        run = backward_sparse
    d_color = rng.normal(size=shape + (3,))
    d_depth, d_sil = rng.normal(size=shape), rng.normal(size=shape)
    if poison is not None:
        d_depth.reshape(-1)[rng.integers(0, d_depth.size, 3)] = poison
    with np.errstate(all="ignore"):
        grads = run(result, cloud, cam, d_color, d_depth, d_sil,
                    pose_only=True)
        (proj, pg, camera, twist), = captured
        want = twist_oracle(proj, pg, camera)
    assert len(proj) > 0
    assert grads.d_pose_twist is twist and same_bits(twist, want)


@pytest.fixture
def twist_calls(monkeypatch):
    """Counts the compiled ``reproject_twist`` calls."""
    lib = native.library()
    real, calls = lib.reproject_twist, []

    def counting(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(lib, "reproject_twist", counting)
    return calls


def test_full_pass_twist_is_computed_at_first_read(twist_calls):
    """Mapping never reads the twist: a full re-projection makes no twist
    call until ``d_pose_twist`` is read, then exactly one, with the bits
    of the pose-only pass."""
    rng = np.random.default_rng(3)
    cloud, cam = make_cloud(rng, 60), posed_camera(rng)
    proj = project_gaussians(cloud, cam)
    pg = random_gradients(rng, len(proj), 0)
    full = reproject_gradients(proj, cloud, cam, pg)
    assert full.d_means is not None and twist_calls == []
    pose = reproject_gradients(proj, cloud, cam, pg, pose_only=True)
    assert len(twist_calls) == 1
    twist = full.d_pose_twist
    assert len(twist_calls) == 2 and same_bits(twist, pose.d_pose_twist)
    assert full.d_pose_twist is twist and len(twist_calls) == 2


def test_full_pass_checks_the_twist_inputs_at_once():
    rng = np.random.default_rng(4)
    cloud, cam = make_cloud(rng, 60), posed_camera(rng)
    proj = project_gaussians(cloud, cam)
    pg = random_gradients(rng, len(proj), 0)
    pg.d_depth = pg.d_depth[:-1]
    with pytest.raises(ValueError, match="wrong shape"):
        reproject_gradients(proj, cloud, cam, pg)


@pytest.mark.parametrize("pipeline", ["dense", "sparse"])
def test_mapping_backwards_make_no_twist_call(twist_calls, pipeline):
    rng = np.random.default_rng(5)
    cloud, cam = make_cloud(rng, 80), posed_camera(rng)
    if pipeline == "dense":
        result, run = render_full(cloud, cam, BG, tile_size=8), backward_full
        shape = (H, W)
    else:
        pixels = np.stack([rng.integers(0, W, 30), rng.integers(0, H, 30)],
                          axis=-1)
        result, run = render_sparse(cloud, cam, pixels, BG), backward_sparse
        shape = (len(pixels),)
    grads = run(result, cloud, cam, rng.normal(size=shape + (3,)),
                rng.normal(size=shape), rng.normal(size=shape))
    grads.as_cloud_vector()
    assert twist_calls == []
