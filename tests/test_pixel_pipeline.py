"""Pixel-based pipeline: pixel-exact equivalence with the tile pipeline,
preemptive alpha-checking, direct bbox indexing, and backward equality."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import sample_tracking_pixels
from repro.core.pixel_pipeline import backward_sparse, render_sparse
from repro.gaussians import Camera, GaussianCloud, Intrinsics
from repro.render import backward_full, project_gaussians, render_full
from repro.render.kernels.candidates import candidate_pairs

from .lattice_oracle import bbox_candidate_ranges

BG = np.array([0.15, 0.25, 0.05])
W, H = 48, 36


def make_scene(n=120, seed=0):
    rng = np.random.default_rng(seed)
    cloud = GaussianCloud.create(
        means=np.stack([rng.uniform(-2, 2, n), rng.uniform(-1.5, 1.5, n),
                        rng.uniform(1.0, 5.0, n)], axis=-1),
        scales=rng.uniform(0.03, 0.3, n),
        opacities=rng.uniform(0.1, 0.95, n),
        colors=rng.uniform(0, 1, (n, 3)),
    )
    return cloud, Camera(Intrinsics.from_fov(W, H, 75.0))


class TestForwardEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_matches_tile_pipeline_exactly(self, seed):
        cloud, cam = make_scene(seed=seed)
        rng = np.random.default_rng(seed)
        pixels = np.stack([rng.integers(0, W, 25),
                           rng.integers(0, H, 25)], axis=-1)
        full = render_full(cloud, cam, BG, keep_cache=False)
        sparse = render_sparse(cloud, cam, pixels, BG)
        u, v = pixels[:, 0], pixels[:, 1]
        assert np.allclose(sparse.color, full.color[v, u], atol=1e-12)
        assert np.allclose(sparse.depth, full.depth[v, u], atol=1e-12)
        assert np.allclose(sparse.silhouette, full.silhouette[v, u],
                           atol=1e-12)

    @given(st.integers(0, 1000))
    @settings(max_examples=15, deadline=None)
    def test_property_random_scene_equivalence(self, seed):
        """Property: for any random scene and pixel set, the two pipelines
        agree bitwise at the sampled locations."""
        cloud, cam = make_scene(n=40, seed=seed)
        rng = np.random.default_rng(seed)
        pixels = np.stack([rng.integers(0, W, 8),
                           rng.integers(0, H, 8)], axis=-1)
        full = render_full(cloud, cam, BG, keep_cache=False)
        sparse = render_sparse(cloud, cam, pixels, BG)
        u, v = pixels[:, 0], pixels[:, 1]
        assert np.allclose(sparse.color, full.color[v, u], atol=1e-12)

    def test_empty_pixel_set(self):
        cloud, cam = make_scene()
        res = render_sparse(cloud, cam, np.zeros((0, 2), dtype=int), BG)
        assert res.color.shape == (0, 3)
        assert res.stats.num_pixels == 0

    def test_empty_cloud(self):
        _, cam = make_scene()
        pixels = np.array([[5, 5], [10, 10]])
        res = render_sparse(GaussianCloud.empty(), cam, pixels, BG)
        assert np.allclose(res.color, BG[None])
        assert np.allclose(res.silhouette, 0.0)

    def test_scatter(self):
        cloud, cam = make_scene(seed=6)
        pixels = np.array([[3, 4], [20, 30]])
        res = render_sparse(cloud, cam, pixels, BG)
        color, depth, sil = res.scatter(H, W, BG)
        assert color.shape == (H, W, 3)
        assert np.allclose(color[4, 3], res.color[0])
        assert np.allclose(depth[30, 20], res.depth[1])

    def test_stats_pixel_pipeline(self):
        cloud, cam = make_scene(seed=7)
        pixels = sample_tracking_pixels(W, H, 16, "random",
                                        np.random.default_rng(0))
        res = render_sparse(cloud, cam, pixels, BG)
        s = res.stats
        assert s.pipeline == "pixel"
        assert s.num_pixels == len(pixels)
        assert s.num_alpha_checks == s.num_candidate_pairs
        assert s.num_sort_keys == sum(s.pixel_list_lengths)
        assert s.num_contrib_pairs <= s.num_sort_keys


class TestBackwardEquivalence:
    def test_gradients_match_tile_backward(self):
        """With loss only on the sampled pixels, the two pipelines'
        backward passes must produce identical world-space gradients."""
        cloud, cam = make_scene(seed=8)
        rng = np.random.default_rng(8)
        pixels = np.stack([rng.integers(0, W, 20),
                           rng.integers(0, H, 20)], axis=-1)
        pixels = np.unique(pixels, axis=0)
        u, v = pixels[:, 0], pixels[:, 1]

        d_color_sparse = rng.normal(size=(len(pixels), 3))
        d_depth_sparse = rng.normal(size=len(pixels))
        d_sil_sparse = rng.normal(size=len(pixels))

        sparse = render_sparse(cloud, cam, pixels, BG)
        g_sparse = backward_sparse(sparse, cloud, cam, d_color_sparse,
                                   d_depth_sparse, d_sil_sparse)

        full = render_full(cloud, cam, BG)
        d_color = np.zeros((H, W, 3))
        d_depth = np.zeros((H, W))
        d_sil = np.zeros((H, W))
        d_color[v, u] = d_color_sparse
        d_depth[v, u] = d_depth_sparse
        d_sil[v, u] = d_sil_sparse
        g_full = backward_full(full, cloud, cam, d_color, d_depth, d_sil)

        assert np.allclose(g_sparse.d_means, g_full.d_means, atol=1e-9)
        assert np.allclose(g_sparse.d_log_scales, g_full.d_log_scales,
                           atol=1e-9)
        assert np.allclose(g_sparse.d_logit_opacities,
                           g_full.d_logit_opacities, atol=1e-9)
        assert np.allclose(g_sparse.d_colors, g_full.d_colors, atol=1e-9)
        assert np.allclose(g_sparse.d_pose_twist, g_full.d_pose_twist,
                           atol=1e-9)

    def test_backward_reuses_forward_lists(self):
        """No alpha checks are recorded in the sparse backward (cached)."""
        cloud, cam = make_scene(seed=9)
        pixels = sample_tracking_pixels(W, H, 16, "random",
                                        np.random.default_rng(1))
        res = render_sparse(cloud, cam, pixels, BG)
        g = backward_sparse(res, cloud, cam,
                            np.ones((len(pixels), 3)),
                            np.zeros(len(pixels)), np.zeros(len(pixels)))
        assert g.stats.num_alpha_checks == 0
        assert g.stats.num_atomic_adds == g.stats.num_contrib_pairs


class TestDirectIndexing:
    def test_matches_exhaustive_bbox_scan(self):
        """The direct-index lattice arithmetic (the projection unit's,
        Sec. V-C) finds each Gaussian's pixels exactly where the
        production generator's bbox scan does."""
        cloud, cam = make_scene(seed=10)
        tile = 8
        pixels = sample_tracking_pixels(W, H, tile, "random",
                                        np.random.default_rng(2))
        proj = project_gaussians(cloud, cam)
        ranges = bbox_candidate_ranges(pixels, proj.bbox(), tile, W)
        pairs = candidate_pairs(pixels + 0.5, proj.mean2d, proj.radius,
                                proj.depth)
        for g, cand in enumerate(ranges):
            inside = pairs.pix[pairs.gss == g]
            assert set(cand.tolist()) == set(inside.tolist())

    def test_lattice_is_tile_row_major(self):
        """The sampler's output satisfies the direct-indexing invariant:
        index k holds the pixel of tile (k % tiles_x, k // tiles_x)."""
        tile = 8
        pixels = sample_tracking_pixels(W, H, tile, "random",
                                        np.random.default_rng(3))
        tiles_x = -(-W // tile)
        for k, (u, v) in enumerate(pixels):
            assert u // tile == k % tiles_x
            assert v // tile == k // tiles_x


def reference_pair_state(res):
    """The reference backend's per-pixel caches as flat pixel-major
    ``(alpha, gamma, contrib, clipped)`` arrays."""
    caches = [c for c in res.caches if c is not None]
    if not caches:
        return [np.zeros(0)] * 2 + [np.zeros(0, dtype=bool)] * 2
    return [np.concatenate([getattr(c, name)[0] for c in caches])
            for name in ("alpha", "gamma", "contrib", "clipped")]


def lut_exp(x):
    from repro.hw import ExpLUT

    return ExpLUT(64)(-np.asarray(x))


class TestUnculledAlphaStage:
    """The one render that keeps every bbox candidate (a ``+inf``
    cutoff) — an approximate ``exp_fn`` — gives the reference backend's
    outputs, α bits and counters."""

    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_reference(self, seed):
        cloud, cam = make_scene(seed=seed)
        pixels = np.stack(np.meshgrid(np.arange(0, W, 3),
                                      np.arange(0, H, 3)), -1).reshape(-1, 2)
        ref = render_sparse(cloud, cam, pixels, BG, backend="reference",
                            exp_fn=lut_exp)
        vec = render_sparse(cloud, cam, pixels, BG, backend="vectorized",
                            exp_fn=lut_exp)
        for name in ("color", "depth", "silhouette", "sorted_gss",
                     "list_lengths"):
            assert np.array_equal(getattr(ref, name), getattr(vec, name))
        assert ref.stats.as_dict() == vec.stats.as_dict()
        assert ref.stats.per_pixel_contribs == vec.stats.per_pixel_contribs
        fc = vec.flat_cache
        for name, want in zip(("alpha", "gamma", "contrib", "clipped"),
                              reference_pair_state(ref)):
            assert getattr(fc, name).tobytes() == want.tobytes(), name


def count_native_calls(monkeypatch):
    """Patch the kernel library so that every native call is counted."""
    from collections import Counter

    from repro.render.kernels import native

    lib, calls = native.library(), Counter()

    class Counting:
        def __getattr__(self, name):
            def counted(*args):
                calls[name] += 1
                return getattr(lib, name)(*args)
            return counted

    monkeypatch.setattr(native, "library", Counting)
    return calls


def count_pointer_reads(monkeypatch):
    """Patch every module that marshals kernel arguments so that every
    ``ptr`` read is counted."""
    import sys
    from collections import Counter

    from repro.render.kernels import native

    read, reads = native.ptr, Counter()

    def counted(a):
        reads["ptr"] += 1
        return read(a)

    for module in list(sys.modules.values()):
        if getattr(module, "ptr", None) is read:
            monkeypatch.setattr(module, "ptr", counted)
    return reads


def sparse_iteration(calls=None):
    """One sparse tracking iteration: a forward and a pose-only backward
    on a tracking lattice; ``calls`` is cleared between the two."""
    cloud, cam = make_scene(seed=3)
    pixels = sample_tracking_pixels(W, H, 8, "random",
                                    np.random.default_rng(3))
    res = render_sparse(cloud, cam, pixels, BG)
    assert res.stats.num_sort_keys > 0
    forward = dict(calls or {})
    if calls is not None:
        calls.clear()
    backward_sparse(res, cloud, cam, np.ones((len(pixels), 3)),
                    np.ones(len(pixels)), np.ones(len(pixels)),
                    pose_only=True)
    return forward


def test_native_calls_per_sparse_iteration(monkeypatch):
    """A sparse forward is one projection (a call that finds the
    survivors and one that gathers them), one cull (its scan, which also
    ranks the depths, and the call that lays the kept pairs out) and one
    composite; a pose-only backward is one reverse call and one twist
    call."""
    calls = count_native_calls(monkeypatch)
    forward = sparse_iteration(calls)
    assert forward == {"project_cull": 1, "project_gather": 1,
                       "candidate_cull": 1, "candidate_place": 1,
                       "composite_forward": 1}
    assert dict(calls) == {"composite_reverse": 1, "reproject_twist": 1}


def test_pointer_reads_per_sparse_iteration(monkeypatch):
    """The kernels after the projection and the composite reuse the
    pointers those read (and the reverse pass's accumulators'), so an
    iteration reads 45 pointers: 14 in the projection, 9 in the cull, 13
    in the composite, 9 in the reverse pass and none in the twist."""
    reads = count_pointer_reads(monkeypatch)
    sparse_iteration()
    assert reads["ptr"] <= 45
