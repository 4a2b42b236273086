"""Anisotropic splats on the shared render engine: bit-identical to the
per-pixel loop oracle (``tests/aniso_oracle.py``), plus the regressions
the loop carried."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.gaussians import Camera, Intrinsics
from repro.render import (
    AnisotropicCloud,
    backward_sparse_anisotropic,
    render_sparse_anisotropic,
)
from repro.render.compositing import ALPHA_MAX

from .aniso_oracle import backward_oracle, render_oracle

W, H = 32, 24
CAM = Camera(Intrinsics.from_fov(W, H, 70.0))
GRAD_FIELDS = ("d_means", "d_log_scales", "d_quaternions",
               "d_logit_opacities", "d_colors", "d_pose_twist")
SCENES = ("generic", "needle", "clipped", "offscreen")


def make_scene(kind, n, rng):
    """A random cloud of one of the :data:`SCENES` kinds."""
    means = np.stack([rng.uniform(-1, 1, n), rng.uniform(-0.8, 0.8, n),
                      rng.uniform(1.2, 4, n)], axis=-1)
    scales = rng.uniform(0.05, 0.3, (n, 3))
    opacities = rng.uniform(0.2, 0.9, n)
    if kind == "needle":
        # One long axis, two thin ones: α in the bbox corners underflows
        # towards 1e-300.
        scales = np.tile([0.3, 0.01, 0.01], (n, 1))
    elif kind == "clipped":
        # Near-opaque splats close to the camera: α > ALPHA_MAX at the
        # centre pixels.
        means[:, 2] = rng.uniform(0.8, 1.5, n)
        opacities = rng.uniform(0.9995, 0.99999, n)
    elif kind == "offscreen":
        means[:, 2] = -means[:, 2]
    return AnisotropicCloud.create(
        means=means, scales=scales, quaternions=rng.normal(size=(n, 4)),
        opacities=opacities, colors=rng.uniform(-0.1, 1.1, (n, 3)))


def random_pixels(rng, k):
    return np.stack([rng.integers(0, W, k), rng.integers(0, H, k)], axis=-1)


def assert_stats_identical(oracle_fwd, oracle_bwd, fwd, bwd):
    """Every counter and record stream matches; the loop records the
    contributing IDs in its forward, the engine in its backward."""
    assert oracle_fwd.as_dict() == fwd.as_dict()
    assert oracle_fwd.pixel_list_lengths == fwd.pixel_list_lengths
    assert oracle_fwd.per_pixel_contribs == fwd.per_pixel_contribs
    assert fwd.pixel_contrib_ids == []
    assert oracle_bwd.as_dict() == bwd.as_dict()
    assert oracle_bwd.pixel_list_lengths == bwd.pixel_list_lengths
    assert oracle_bwd.per_pixel_contribs == bwd.per_pixel_contribs
    assert oracle_bwd.pixel_contrib_ids == []
    ids_oracle, ids = oracle_fwd.pixel_contrib_ids, bwd.pixel_contrib_ids
    assert len(ids_oracle) == len(ids)
    for a, b in zip(ids_oracle, ids):
        assert np.array_equal(a, b)


def assert_matches_oracle(seed, kind, n, k, tau, blur):
    """Render and back-propagate one random scene on the engine and on
    the loop oracle; every output, gradient and counter must match."""
    rng = np.random.default_rng(seed)
    cloud = make_scene(kind, n, rng)
    pixels = random_pixels(rng, k)
    bg = rng.uniform(0, 1, 3)
    ref = render_oracle(cloud, CAM, pixels, bg, alpha_threshold=tau,
                        blur=blur)
    out = render_sparse_anisotropic(cloud, CAM, pixels, bg,
                                    alpha_threshold=tau, blur=blur)
    for name in ("pixels", "color", "depth", "silhouette"):
        assert np.array_equal(getattr(ref, name), getattr(out, name)), name

    d_color = rng.normal(size=(k, 3))
    d_depth = rng.normal(size=k)
    d_sil = rng.normal(size=k)
    g_ref = backward_oracle(ref, cloud, CAM, d_color, d_depth, d_sil)
    g = backward_sparse_anisotropic(out, cloud, CAM, d_color, d_depth,
                                    d_sil)
    for name in GRAD_FIELDS:
        a, b = getattr(g_ref, name), getattr(g, name)
        assert np.array_equal(a, b), name
        assert np.array_equal(np.signbit(a), np.signbit(b)), name
    assert_stats_identical(ref.stats, g_ref.stats, out.stats, g.stats)


class TestOracleEquivalence:
    @given(seed=st.integers(0, 2**32 - 1),
           kind=st.sampled_from(SCENES),
           n=st.integers(1, 12),
           k=st.integers(0, 24),
           tau=st.sampled_from([0.0, 1e-12, 1.0 / 255.0, 0.1]),
           blur=st.sampled_from([0.0, 0.3]))
    @settings(max_examples=80, deadline=None)
    # Composites pairs with α < 1e-12 at τ = 0, whose dL/dα an oracle
    # reading composite_backward's opacity gradient scales by α / 1e-12.
    @example(seed=237, kind="needle", n=5, k=24, tau=0.0, blur=0.0)
    def test_bit_identical_to_loop(self, seed, kind, n, k, tau, blur):
        assert_matches_oracle(seed, kind, n, k, tau, blur)

    @pytest.mark.parametrize("kind", ["needle", "clipped"])
    def test_scenes_reach_their_edge_case(self, kind):
        """The property test's needle scenes do composite pairs with
        α < 1e-12 at τ = 0, and its clipped scenes pairs above
        ALPHA_MAX."""
        rng = np.random.default_rng(0)
        cloud = make_scene(kind, 8, rng)
        uu, vv = np.meshgrid(np.arange(W), np.arange(H))
        pixels = np.stack([uu.ravel(), vv.ravel()], axis=-1)
        fc = render_sparse_anisotropic(cloud, CAM, pixels,
                                       alpha_threshold=0.0).flat_cache
        if kind == "needle":
            alpha = fc.alpha[fc.contrib]
            assert np.any((alpha > 0.0) & (alpha < 1e-12))
        else:
            assert fc.clipped.any()
            assert np.all(fc.alpha[fc.clipped] <= ALPHA_MAX)


@pytest.mark.usefixtures("scan_branch")
class TestScanBranches:
    """The oracle property test, each kernel call checked against the
    padded numpy oracle with each ``slot_scan`` branch forced."""

    @given(seed=st.integers(0, 2**32 - 1),
           kind=st.sampled_from(SCENES),
           n=st.integers(1, 12),
           k=st.integers(0, 24),
           tau=st.sampled_from([0.0, 1e-12, 1.0 / 255.0, 0.1]),
           blur=st.sampled_from([0.0, 0.3]))
    @settings(max_examples=40, deadline=None)
    def test_bit_identical_to_loop(self, seed, kind, n, k, tau, blur):
        assert_matches_oracle(seed, kind, n, k, tau, blur)


class TestTinyAlphaGradient:
    def test_needle_corner_gradient_is_analytic(self):
        """One pair with α ≈ 7e-105 (a needle splat's bbox corner, only
        kept at τ = 0).  dL/d logit(o) = α (1 - o) dL/dα; the loop used to
        scale dL/dα by α / 1e-12 and return ~1e-196."""
        o = 0.7
        color = np.array([0.9, 0.4, 0.2])
        cloud = AnisotropicCloud.create(
            means=[[0.0, 0.0, 2.0]], scales=[[0.3, 0.01, 0.01]],
            quaternions=[[1.0, 0.0, 0.0, 0.0]], opacities=[o],
            colors=[color])
        res = render_sparse_anisotropic(cloud, CAM, [[16, 9]],
                                        alpha_threshold=0.0)
        alpha = res.silhouette[0]
        assert 0.0 < alpha < 1e-100
        # L = sum(color) over a black background: dL/dα = sum(c).
        g = backward_sparse_anisotropic(res, cloud, CAM, np.ones((1, 3)),
                                        np.zeros(1), np.zeros(1))
        expected = alpha * (1.0 - o) * color.sum()
        assert g.d_logit_opacities[0] == pytest.approx(expected, rel=1e-12, abs=0.0)


class TestBackwardStats:
    def test_contrib_ids_recorded_in_backward(self):
        """Every consumer (hw models, aggregation unit) reads the
        contributing IDs from the backward stats; one ID per atomic add."""
        rng = np.random.default_rng(2)
        cloud = make_scene("generic", 15, rng)
        pixels = random_pixels(rng, 30)
        res = render_sparse_anisotropic(cloud, CAM, pixels)
        g = backward_sparse_anisotropic(res, cloud, CAM, np.ones((30, 3)),
                                        np.ones(30), np.ones(30))
        assert res.stats.pixel_contrib_ids == []
        ids = g.stats.pixel_contrib_ids
        assert g.stats.num_atomic_adds > 0
        assert sum(a.size for a in ids) == g.stats.num_atomic_adds
        assert len(ids) == sum(1 for n in res.stats.pixel_list_lengths if n)
        assert np.concatenate(ids).max() < len(cloud)

