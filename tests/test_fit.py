"""Scene-fitting trainer: convergence for both representations."""

import numpy as np
import pytest

from repro.datasets.trajectory import look_at
from repro.fit import FitResult, SceneFitter
from repro.gaussians import Camera, GaussianCloud, Intrinsics
from repro.render import AnisotropicCloud, render_sparse_anisotropic

BG = np.full(3, 0.05)


def make_iso_cloud(n=25, seed=0):
    rng = np.random.default_rng(seed)
    return GaussianCloud.create(
        means=np.stack([rng.uniform(-0.8, 0.8, n), rng.uniform(-0.6, 0.6, n),
                        rng.uniform(1.5, 3.0, n)], axis=-1),
        scales=rng.uniform(0.08, 0.25, n),
        opacities=rng.uniform(0.4, 0.9, n),
        colors=rng.uniform(0.1, 0.9, (n, 3)),
    )


def make_views(cloud, n_views=3, width=48, height=36, aniso=False):
    """Render dense target views of the ground-truth cloud."""
    from repro.render import render_full
    intr = Intrinsics.from_fov(width, height, 70.0)
    views = []
    for a in np.linspace(-0.3, 0.3, n_views):
        cam = Camera(intr, look_at(np.array([a, -0.05, -0.1]),
                                   np.array([0.0, 0.0, 2.2])))
        if aniso:
            # Dense reference via the sparse renderer on the full lattice.
            uu, vv = np.meshgrid(np.arange(width), np.arange(height))
            px = np.stack([uu.ravel(), vv.ravel()], axis=-1)
            out = render_sparse_anisotropic(cloud, cam, px, BG)
            color = out.color.reshape(height, width, 3)
            depth = out.depth.reshape(height, width)
        else:
            res = render_full(cloud, cam, BG, keep_cache=False)
            color, depth = res.color, res.depth
        views.append((cam, color, depth))
    return views


def perturbed(cloud, sigma=0.04, seed=1):
    rng = np.random.default_rng(seed)
    vec = cloud.pack()
    return cloud.unpack(vec + rng.normal(0, sigma, vec.shape))


class TestValidation:
    def test_needs_views(self):
        with pytest.raises(ValueError):
            SceneFitter(make_iso_cloud(), [])

    def test_needs_known_cloud_type(self):
        views = make_views(make_iso_cloud())
        with pytest.raises(TypeError):
            SceneFitter(object(), views)


class TestIsotropicFitting:
    def test_loss_decreases(self):
        gt = make_iso_cloud()
        views = make_views(gt)
        fitter = SceneFitter(perturbed(gt), views, iterations=60)
        result = fitter.fit()
        early = np.mean(result.losses[:5])
        late = np.mean(result.losses[-5:])
        assert late < 0.5 * early

    def test_result_fields(self):
        gt = make_iso_cloud(n=10)
        views = make_views(gt)
        result = SceneFitter(perturbed(gt), views, iterations=8).fit()
        assert isinstance(result, FitResult)
        assert len(result.losses) == 8
        assert np.isfinite(result.final_loss)


class TestAnisotropicFitting:
    def test_loss_decreases(self):
        rng = np.random.default_rng(2)
        n = 15
        gt = AnisotropicCloud.create(
            means=np.stack([rng.uniform(-0.6, 0.6, n),
                            rng.uniform(-0.5, 0.5, n),
                            rng.uniform(1.5, 2.8, n)], axis=-1),
            scales=rng.uniform(0.08, 0.3, (n, 3)),
            quaternions=rng.normal(size=(n, 4)),
            opacities=rng.uniform(0.4, 0.9, n),
            colors=rng.uniform(0.1, 0.9, (n, 3)))
        views = make_views(gt, n_views=2, width=32, height=24, aniso=True)
        fitter = SceneFitter(perturbed(gt, sigma=0.03), views, iterations=40)
        result = fitter.fit()
        assert np.mean(result.losses[-5:]) < 0.7 * np.mean(result.losses[:5])
        assert isinstance(result.cloud, AnisotropicCloud)
