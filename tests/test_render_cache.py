"""Temporal-coherence render cache: exact-revalidation equivalence.

The cache memoizes a margin-dilated candidate superset across iterations
and revalidates it exactly; regardless of margin, hit, miss, or mid-loop
rebuild, the cached pipeline must be bit-identical to the uncached one —
outputs, gradients, stats counters, and record streams — on every kernel
backend.  Also covers candidate-generator edge cases the superset path
has to survive (off-screen Gaussians, border-clamped bboxes, empty
active sets) and the config/env resolution chain.
"""

import numpy as np
import pytest

from repro.core import SplatonicConfig, sample_tracking_pixels
from repro.core.pixel_pipeline import backward_sparse, render_sparse
from repro.datasets import make_replica_sequence
from repro.gaussians import Camera, GaussianCloud, Intrinsics
from repro.gaussians.se3 import se3_exp
from repro.render.cache import (
    ENV_VAR,
    INITIAL_MARGIN,
    RenderCache,
    resolve_render_cache,
)
from repro.render.stats import PipelineStats
from repro.slam import SLAMSystem

BG = np.array([0.15, 0.25, 0.05])
W, H = 48, 36
BACKENDS = ("reference", "vectorized")
GRAD_FIELDS = ("d_means", "d_log_scales", "d_logit_opacities", "d_colors",
               "d_pose_twist")


def make_scene(n=120, seed=0, z_lo=1.0, z_hi=5.0):
    rng = np.random.default_rng(seed)
    cloud = GaussianCloud.create(
        means=np.stack([rng.uniform(-2, 2, n), rng.uniform(-1.5, 1.5, n),
                        rng.uniform(z_lo, z_hi, n)], axis=-1),
        scales=rng.uniform(0.03, 0.3, n),
        opacities=rng.uniform(0.1, 0.95, n),
        colors=rng.uniform(0, 1, (n, 3)),
    )
    return cloud, Camera(Intrinsics.from_fov(W, H, 75.0))


def random_pixels(seed=0, k=40):
    rng = np.random.default_rng(seed)
    return np.stack([rng.integers(0, W, k), rng.integers(0, H, k)], axis=-1)


def assert_results_identical(a, b):
    assert np.array_equal(a.color, b.color)
    assert np.array_equal(a.depth, b.depth)
    assert np.array_equal(a.silhouette, b.silhouette)
    assert len(a.pixel_lists) == len(b.pixel_lists)
    for x, y in zip(a.pixel_lists, b.pixel_lists):
        assert np.array_equal(x, y)
    # Logical counters (as_dict) must match exactly; the cache-only
    # counters are deliberately outside as_dict.
    assert a.stats.as_dict() == b.stats.as_dict()
    assert a.stats.pixel_list_lengths == b.stats.pixel_list_lengths
    assert a.stats.per_pixel_contribs == b.stats.per_pixel_contribs


def assert_grads_identical(ga, gb):
    for name in GRAD_FIELDS:
        assert np.array_equal(getattr(ga, name), getattr(gb, name)), name
    assert ga.stats.as_dict() == gb.stats.as_dict()


def drift_loop(cloud, cam, pixels, *, backend, cache, iters,
               twist=None, param_step=None, record_per_pixel=True):
    """Run ``iters`` forward+backward passes with drifting inputs."""
    outs = []
    pose = cam.pose_c2w
    cur = cloud
    for _ in range(iters):
        camera = Camera(cam.intrinsics, pose)
        res = render_sparse(cur, camera, pixels, BG, backend=backend,
                            record_per_pixel=record_per_pixel, cache=cache)
        grads = backward_sparse(res, cur, camera, np.ones_like(res.color),
                                np.ones_like(res.depth),
                                np.ones_like(res.silhouette))
        outs.append((res, grads))
        if twist is not None:
            pose = pose @ se3_exp(twist)
        if param_step is not None:
            cur = cur.unpack(cur.pack() + param_step)
    return outs


class TestResolution:
    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "1")
        assert resolve_render_cache(False) is False
        monkeypatch.delenv(ENV_VAR)
        assert resolve_render_cache(True) is True

    @pytest.mark.parametrize("value,expected", [
        ("1", True), ("true", True), ("YES", True), ("on", True),
        ("0", False), ("", False), ("off", False), ("nope", False),
    ])
    def test_env_truthiness(self, monkeypatch, value, expected):
        monkeypatch.setenv(ENV_VAR, value)
        assert resolve_render_cache(None) is expected

    def test_default_off(self, monkeypatch):
        monkeypatch.delenv(ENV_VAR, raising=False)
        assert resolve_render_cache(None) is False

    def test_config_plumbing(self, monkeypatch):
        monkeypatch.delenv(ENV_VAR, raising=False)
        from repro.core.splatonic import Splatonic
        assert Splatonic(SplatonicConfig()).render_cache_enabled() is False
        sp = Splatonic(SplatonicConfig(render_cache=True))
        assert sp.render_cache_enabled() is True
        assert isinstance(sp.make_render_cache("tracking"), RenderCache)
        assert Splatonic(SplatonicConfig()).make_render_cache("mapping") is None

    def test_invalid_mode(self):
        with pytest.raises(ValueError):
            RenderCache(mode="bogus")


class TestEquivalence:
    """Cached output is bit-identical to uncached, hit or miss."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_mapping_drift(self, backend):
        cloud, cam = make_scene()
        pixels = random_pixels()
        step = np.random.default_rng(3).normal(0.0, 1e-3, cloud.pack().size)
        plain = drift_loop(cloud, cam, pixels, backend=backend, cache=None,
                           iters=6, param_step=step)
        cache = RenderCache("mapping")
        cached = drift_loop(cloud, cam, pixels, backend=backend, cache=cache,
                            iters=6, param_step=step)
        for (r0, g0), (r1, g1) in zip(plain, cached):
            assert_results_identical(r0, r1)
            assert_grads_identical(g0, g1)
        assert cache.hits >= 4

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_tracking_drift_lattice(self, backend):
        cloud, cam = make_scene()
        pixels = sample_tracking_pixels(W, H, 8, "random",
                                        np.random.default_rng(1))
        twist = np.array([2e-3, -1e-3, 1.5e-3, 1e-3, -5e-4, 8e-4])
        plain = drift_loop(cloud, cam, pixels, backend=backend, cache=None,
                           iters=6, twist=twist)
        cache = RenderCache("tracking")
        cached = drift_loop(cloud, cam, pixels, backend=backend, cache=cache,
                            iters=6, twist=twist)
        for (r0, g0), (r1, g1) in zip(plain, cached):
            assert_results_identical(r0, r1)
            assert_grads_identical(g0, g1)
        assert cache.hits >= 4

    @pytest.mark.parametrize("margin", [0.0, 0.25, 2.0, 50.0])
    def test_any_margin_is_exact(self, margin):
        """Correctness never depends on the margin — only the hit rate."""
        cloud, cam = make_scene(seed=5)
        pixels = random_pixels(seed=5)
        step = np.random.default_rng(7).normal(0.0, 2e-3, cloud.pack().size)
        plain = drift_loop(cloud, cam, pixels, backend="vectorized",
                           cache=None, iters=5, param_step=step)
        cache = RenderCache("mapping", margin=margin,
                            min_margin=margin, max_margin=max(margin, 1.0))
        cached = drift_loop(cloud, cam, pixels, backend="vectorized",
                            cache=cache, iters=5, param_step=step)
        for (r0, g0), (r1, g1) in zip(plain, cached):
            assert_results_identical(r0, r1)
            assert_grads_identical(g0, g1)

    def test_forced_midloop_rebuild_stays_identical(self):
        """A violation mid-loop rebuilds transparently: same bits after."""
        cloud, cam = make_scene(seed=2)
        pixels = random_pixels(seed=2)
        # Tiny margin + a large teleport step at iteration 3 forces a
        # warm rebuild; outputs must stay bit-identical throughout.
        cache = RenderCache("mapping", margin=0.05, min_margin=0.05,
                            max_margin=0.05)
        cur_plain = cur_cached = cloud
        rng = np.random.default_rng(11)
        for i in range(6):
            res0 = render_sparse(cur_plain, cam, pixels, BG,
                                 backend="vectorized")
            res1 = render_sparse(cur_cached, cam, pixels, BG,
                                 backend="vectorized", cache=cache)
            assert_results_identical(res0, res1)
            scale = 0.5 if i == 2 else 1e-4
            step = rng.normal(0.0, scale, cloud.pack().size)
            cur_plain = cur_plain.unpack(cur_plain.pack() + step)
            cur_cached = cur_cached.unpack(cur_cached.pack() + step)
        assert cache.rebuilds >= 1
        assert cache.hits + cache.misses == 6

    def test_pixel_set_change_invalidates(self):
        cloud, cam = make_scene()
        cache = RenderCache("mapping")
        render_sparse(cloud, cam, random_pixels(seed=0), BG,
                      backend="vectorized", cache=cache)
        render_sparse(cloud, cam, random_pixels(seed=9), BG,
                      backend="vectorized", cache=cache)
        assert cache.misses == 2
        assert cache.rebuilds == 1


class TestEdgeCases:
    """Candidate-generation corners the superset path must reproduce."""

    def test_all_gaussians_behind_camera(self):
        cloud, cam = make_scene(z_lo=-5.0, z_hi=-1.0)
        pixels = random_pixels()
        cache = RenderCache("mapping")
        for _ in range(2):
            res0 = render_sparse(cloud, cam, pixels, BG, backend="vectorized")
            res1 = render_sparse(cloud, cam, pixels, BG, backend="vectorized",
                                 cache=cache)
            assert_results_identical(res0, res1)
            assert res1.stats.num_projected == 0
        assert cache.hits == 1

    def test_far_offscreen_cloud(self):
        """In depth range but projecting far outside the image."""
        rng = np.random.default_rng(4)
        n = 60
        cloud = GaussianCloud.create(
            means=np.stack([rng.uniform(40, 50, n), rng.uniform(40, 50, n),
                            rng.uniform(1.0, 3.0, n)], axis=-1),
            scales=rng.uniform(0.03, 0.1, n),
            opacities=rng.uniform(0.3, 0.9, n),
            colors=rng.uniform(0, 1, (n, 3)),
        )
        cam = Camera(Intrinsics.from_fov(W, H, 75.0))
        pixels = random_pixels()
        cache = RenderCache("mapping")
        for _ in range(2):
            res0 = render_sparse(cloud, cam, pixels, BG, backend="vectorized")
            res1 = render_sparse(cloud, cam, pixels, BG, backend="vectorized",
                                 cache=cache)
            assert_results_identical(res0, res1)
            assert res1.stats.num_candidate_pairs == 0

    def test_border_clamped_bboxes(self):
        """Gaussians straddling the image border; pixels along the edge."""
        rng = np.random.default_rng(8)
        n = 50
        # Means aimed at the image-plane border in camera space.
        xs = np.concatenate([rng.uniform(-2.6, -2.2, n // 2),
                             rng.uniform(2.2, 2.6, n - n // 2)])
        cloud = GaussianCloud.create(
            means=np.stack([xs, rng.uniform(-1.9, 1.9, n),
                            np.full(n, 2.0)], axis=-1),
            scales=rng.uniform(0.1, 0.4, n),
            opacities=rng.uniform(0.3, 0.9, n),
            colors=rng.uniform(0, 1, (n, 3)),
        )
        cam = Camera(Intrinsics.from_fov(W, H, 75.0))
        border = np.array([[0, 0], [W - 1, 0], [0, H - 1], [W - 1, H - 1],
                           [0, H // 2], [W - 1, H // 2], [W // 2, 0],
                           [W // 2, H - 1]])
        step = np.random.default_rng(9).normal(0.0, 1e-3, cloud.pack().size)
        plain = drift_loop(cloud, cam, border, backend="vectorized",
                           cache=None, iters=4, param_step=step)
        cached = drift_loop(cloud, cam, border, backend="vectorized",
                            cache=RenderCache("mapping"), iters=4,
                            param_step=step)
        for (r0, g0), (r1, g1) in zip(plain, cached):
            assert_results_identical(r0, r1)
            assert_grads_identical(g0, g1)

    def test_empty_pixel_superset(self):
        """Visible cloud but pixels that no bbox covers -> empty pairs."""
        rng = np.random.default_rng(12)
        n = 30
        cloud = GaussianCloud.create(
            means=np.stack([rng.uniform(-0.1, 0.1, n),
                            rng.uniform(-0.1, 0.1, n),
                            rng.uniform(2.0, 3.0, n)], axis=-1),
            scales=np.full(n, 0.01),
            opacities=rng.uniform(0.3, 0.9, n),
            colors=rng.uniform(0, 1, (n, 3)),
        )
        cam = Camera(Intrinsics.from_fov(W, H, 75.0))
        corners = np.array([[0, 0], [W - 1, H - 1]])
        cache = RenderCache("mapping")
        for _ in range(2):
            res0 = render_sparse(cloud, cam, corners, BG, backend="vectorized")
            res1 = render_sparse(cloud, cam, corners, BG, backend="vectorized",
                                 cache=cache)
            assert_results_identical(res0, res1)


class TestStatsAndCounters:
    def test_cache_counters_populated(self):
        cloud, cam = make_scene()
        pixels = random_pixels()
        cache = RenderCache("mapping")
        r1 = render_sparse(cloud, cam, pixels, BG, backend="vectorized",
                           cache=cache)
        r2 = render_sparse(cloud, cam, pixels, BG, backend="vectorized",
                           cache=cache)
        assert (r1.stats.cache_hits, r1.stats.cache_misses) == (0, 1)
        assert (r2.stats.cache_hits, r2.stats.cache_misses) == (1, 0)
        assert r2.stats.cache_active_gaussians > 0

    def test_cache_counters_outside_logical_dict(self):
        """as_dict/headline must not see cache counters — they are the
        bit-identity comparison surface of the flight differ and bench."""
        stats = PipelineStats()
        stats.cache_hits = 7
        stats.cache_misses = 3
        stats.cache_rebuilds = 1
        stats.cache_active_gaussians = 99
        assert not any("cache" in k for k in stats.as_dict())
        assert "cache" not in stats.headline()

    def test_merge_and_summary(self):
        a = PipelineStats()
        a.cache_hits, a.cache_misses, a.cache_rebuilds = 3, 1, 1
        a.cache_active_gaussians = 10
        b = PipelineStats()
        b.cache_hits, b.cache_misses = 1, 1
        a.merge(b)
        summary = a.cache_summary()
        assert summary["hits"] == 4
        assert summary["misses"] == 2
        assert summary["rebuilds"] == 1
        assert summary["hit_rate"] == pytest.approx(4 / 6)

    def test_initial_margin_priors(self):
        assert RenderCache("tracking").margin == INITIAL_MARGIN["tracking"]
        assert RenderCache("mapping").margin == INITIAL_MARGIN["mapping"]

    def test_adaptive_margin_clamps(self):
        cache = RenderCache("mapping", min_margin=0.5, max_margin=4.0)
        cloud, cam = make_scene()
        pixels = random_pixels()
        render_sparse(cloud, cam, pixels, BG, backend="vectorized",
                      cache=cache)
        # A huge teleport forces a warm rebuild with a clamped margin.
        moved = cloud.unpack(cloud.pack()
                             + np.random.default_rng(0).normal(
                                 0.0, 1.0, cloud.pack().size))
        render_sparse(moved, cam, pixels, BG, backend="vectorized",
                      cache=cache)
        assert cache.rebuilds == 1
        assert 0.5 <= cache.margin <= 4.0


class TestSLAMTrajectory:
    """End-to-end: cache on/off produce the same trajectory and map."""

    @pytest.fixture(scope="class")
    def sequence(self):
        return make_replica_sequence("room0", n_frames=6, width=56, height=40,
                                     surface_density=10)

    def test_trajectory_equivalence(self, sequence, monkeypatch):
        monkeypatch.delenv(ENV_VAR, raising=False)
        cfg = SplatonicConfig(tracking_tile=8)
        base = SLAMSystem("splatam", mode="sparse", splatonic_config=cfg,
                          render_cache=False).run(sequence)
        cached = SLAMSystem("splatam", mode="sparse", splatonic_config=cfg,
                            render_cache=True).run(sequence)
        assert np.array_equal(base.est_trajectory, cached.est_trajectory)
        assert np.array_equal(base.cloud.pack(), cached.cloud.pack())
        fwd = PipelineStats()
        fwd.merge(cached.stage_stats["tracking_fwd"])
        fwd.merge(cached.stage_stats["mapping_fwd"])
        assert fwd.cache_hits > 0
        base_fwd = PipelineStats()
        base_fwd.merge(base.stage_stats["tracking_fwd"])
        base_fwd.merge(base.stage_stats["mapping_fwd"])
        assert base_fwd.cache_hits == 0 and base_fwd.cache_misses == 0
