"""Kernel-backend equivalence: the vectorized sparse kernels must be
bit-identical to the reference per-pixel loop — outputs, gradients, stats
counters, and per-item record streams — across every pipeline switch."""

import numpy as np
import pytest

from repro.core import sample_tracking_pixels
from repro.core.pixel_pipeline import (
    backward_sparse,
    bbox_candidate_ranges,
    render_sparse,
)
from repro.gaussians import Camera, GaussianCloud, Intrinsics
from repro.hw import ExpLUT
import repro.render.kernels
from repro.render.kernels import available_backends, resolve_backend
from repro.render.kernels.candidates import (
    candidate_pairs,
    chunked_candidate_pairs,
    is_tile_lattice,
    lattice_candidate_pairs,
)
from repro.render.projection import project_gaussians

BG = np.array([0.15, 0.25, 0.05])
W, H = 48, 36
GRAD_FIELDS = ("d_means", "d_log_scales", "d_logit_opacities", "d_colors",
               "d_pose_twist")


def make_scene(n=120, seed=0, opacity_hi=0.95):
    rng = np.random.default_rng(seed)
    cloud = GaussianCloud.create(
        means=np.stack([rng.uniform(-2, 2, n), rng.uniform(-1.5, 1.5, n),
                        rng.uniform(1.0, 5.0, n)], axis=-1),
        scales=rng.uniform(0.03, 0.3, n),
        opacities=rng.uniform(0.1, opacity_hi, n),
        colors=rng.uniform(0, 1, (n, 3)),
    )
    return cloud, Camera(Intrinsics.from_fov(W, H, 75.0))


def random_pixels(seed=0, k=40):
    rng = np.random.default_rng(seed)
    return np.stack([rng.integers(0, W, k), rng.integers(0, H, k)], axis=-1)


def lattice_pixels(tile=4, seed=0):
    return sample_tracking_pixels(W, H, tile, "random",
                                  np.random.default_rng(seed))


def render_both(cloud, cam, pixels, **kwargs):
    ref = render_sparse(cloud, cam, pixels, BG, backend="reference", **kwargs)
    vec = render_sparse(cloud, cam, pixels, BG, backend="vectorized", **kwargs)
    return ref, vec


def assert_forward_identical(ref, vec):
    assert np.array_equal(ref.color, vec.color)
    assert np.array_equal(ref.depth, vec.depth)
    assert np.array_equal(ref.silhouette, vec.silhouette)
    assert len(ref.pixel_lists) == len(vec.pixel_lists)
    for a, b in zip(ref.pixel_lists, vec.pixel_lists):
        assert np.array_equal(a, b)
    assert ref.stats.as_dict() == vec.stats.as_dict()
    assert ref.stats.pixel_list_lengths == vec.stats.pixel_list_lengths
    assert ref.stats.per_pixel_contribs == vec.stats.per_pixel_contribs


def backward_both(ref, vec, cloud, cam, seed=0):
    rng = np.random.default_rng(seed)
    d_color = rng.normal(size=ref.color.shape)
    d_depth = rng.normal(size=ref.depth.shape)
    d_sil = rng.normal(size=ref.silhouette.shape)
    g_ref = backward_sparse(ref, cloud, cam, d_color, d_depth, d_sil)
    g_vec = backward_sparse(vec, cloud, cam, d_color, d_depth, d_sil)
    return g_ref, g_vec


def assert_backward_identical(g_ref, g_vec):
    for name in GRAD_FIELDS:
        assert np.array_equal(getattr(g_ref, name), getattr(g_vec, name)), name
    assert g_ref.stats.as_dict() == g_vec.stats.as_dict()
    assert g_ref.stats.pixel_list_lengths == g_vec.stats.pixel_list_lengths
    assert g_ref.stats.per_pixel_contribs == g_vec.stats.per_pixel_contribs
    assert len(g_ref.stats.pixel_contrib_ids) == len(g_vec.stats.pixel_contrib_ids)
    for a, b in zip(g_ref.stats.pixel_contrib_ids, g_vec.stats.pixel_contrib_ids):
        assert np.array_equal(a, b)


class TestRegistry:
    def test_all_backends_registered(self):
        assert available_backends() == ("reference", "vectorized")

    def test_default_is_vectorized(self):
        """A default system runs the production kernel; the oracle is
        only ever selected by name."""
        from repro.slam import SLAMSystem

        system = SLAMSystem("splatam", mode="sparse")
        assert system.resolved_kernel_backend() == "vectorized"
        assert resolve_backend("reference") == "reference"

    def test_unknown_backend_raises(self):
        with pytest.raises(ValueError, match="unknown kernel backend"):
            resolve_backend("cuda")

    def test_result_records_backend(self):
        cloud, cam = make_scene()
        ref, vec = render_both(cloud, cam, random_pixels())
        assert ref.backend == "reference" and ref.flat_cache is None
        assert vec.backend == "vectorized" and vec.flat_cache is not None


class TestCandidateGenerators:
    def test_lattice_matches_chunked(self):
        cloud, cam = make_scene(seed=3)
        proj = project_gaussians(cloud, cam)
        pixels = lattice_pixels(tile=4)
        assert is_tile_lattice(pixels, 4, W)
        lat = lattice_candidate_pairs(pixels, proj.bbox(), 4, W)
        chk = chunked_candidate_pairs(pixels + 0.5, proj.bbox())
        assert np.array_equal(lat.pix, chk.pix)
        assert np.array_equal(lat.gss, chk.gss)

    def test_chunking_invariant(self):
        cloud, cam = make_scene(seed=5)
        proj = project_gaussians(cloud, cam)
        centres = random_pixels(seed=5, k=30) + 0.5
        one = chunked_candidate_pairs(centres, proj.bbox())
        many = chunked_candidate_pairs(centres, proj.bbox(), chunk_pairs=64)
        assert np.array_equal(one.pix, many.pix)
        assert np.array_equal(one.gss, many.gss)

    def test_non_lattice_hint_falls_back(self):
        """A wrong lattice hint must not change the pair set."""
        cloud, cam = make_scene(seed=6)
        proj = project_gaussians(cloud, cam)
        pixels = random_pixels(seed=6, k=25)
        assert not is_tile_lattice(pixels, 4, W)
        hinted = candidate_pairs(pixels, pixels + 0.5, proj.bbox(),
                                 lattice_tile=4, width=W)
        plain = candidate_pairs(pixels, pixels + 0.5, proj.bbox())
        assert np.array_equal(hinted.pix, plain.pix)
        assert np.array_equal(hinted.gss, plain.gss)

    def test_bbox_candidate_ranges_matches_scan(self):
        cloud, cam = make_scene(seed=7)
        proj = project_gaussians(cloud, cam)
        bbox = proj.bbox()
        pixels = lattice_pixels(tile=8, seed=7)
        ranges = bbox_candidate_ranges(pixels, bbox, 8, W)
        assert len(ranges) == len(proj)
        centres = pixels + 0.5
        for g, got in enumerate(ranges):
            inside = ((bbox[g, 0] <= centres[:, 0])
                      & (centres[:, 0] <= bbox[g, 2])
                      & (bbox[g, 1] <= centres[:, 1])
                      & (centres[:, 1] <= bbox[g, 3]))
            assert np.array_equal(np.sort(got), np.nonzero(inside)[0])


class TestForwardEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_random_pixels(self, seed):
        cloud, cam = make_scene(seed=seed)
        ref, vec = render_both(cloud, cam, random_pixels(seed))
        assert_forward_identical(ref, vec)

    def test_lattice_pixels_with_hint(self):
        cloud, cam = make_scene(seed=4)
        ref, vec = render_both(cloud, cam, lattice_pixels(), lattice_tile=4)
        assert_forward_identical(ref, vec)

    def test_preemptive_alpha_off(self):
        cloud, cam = make_scene(seed=2)
        ref, vec = render_both(cloud, cam, random_pixels(2),
                               preemptive_alpha=False)
        assert_forward_identical(ref, vec)

    def test_lut_exp_fn(self):
        cloud, cam = make_scene(seed=8)
        lut = ExpLUT(64)
        ref, vec = render_both(cloud, cam, random_pixels(8),
                               exp_fn=lambda x: lut(-np.asarray(x)))
        assert_forward_identical(ref, vec)

    def test_early_termination_boundary(self):
        """Opaque stacked Gaussians drive Γ through t_min; the alive mask
        must cut both backends at the same list position."""
        n = 40
        rng = np.random.default_rng(11)
        cloud = GaussianCloud.create(
            means=np.stack([rng.normal(0, 0.05, n), rng.normal(0, 0.05, n),
                            rng.uniform(1.0, 3.0, n)], axis=-1),
            scales=np.full(n, 0.5),
            opacities=np.full(n, 0.93),
            colors=rng.uniform(0, 1, (n, 3)),
        )
        cam = Camera(Intrinsics.from_fov(W, H, 75.0))
        ref, vec = render_both(cloud, cam, random_pixels(11))
        assert ref.stats.num_contrib_pairs < ref.stats.num_sort_keys
        assert_forward_identical(ref, vec)

    def test_empty_pixels(self):
        cloud, cam = make_scene()
        ref, vec = render_both(cloud, cam, np.zeros((0, 2), dtype=int))
        assert ref.color.shape == vec.color.shape == (0, 3)
        assert ref.stats.as_dict() == vec.stats.as_dict()

    def test_empty_cloud(self):
        cloud = GaussianCloud.create(
            means=np.zeros((0, 3)), scales=np.zeros(0),
            opacities=np.zeros(0), colors=np.zeros((0, 3)))
        cam = Camera(Intrinsics.from_fov(W, H, 75.0))
        ref, vec = render_both(cloud, cam, random_pixels())
        assert_forward_identical(ref, vec)
        assert np.allclose(ref.color, BG)

    def test_offscreen_cloud(self):
        """All Gaussians behind the camera: pairs exist for no pixel."""
        cloud, cam = make_scene(seed=9)
        cloud = GaussianCloud.create(
            means=cloud.means * np.array([1.0, 1.0, -1.0]),
            scales=cloud.scales, opacities=cloud.opacities,
            colors=cloud.colors)
        ref, vec = render_both(cloud, cam, random_pixels(9))
        assert_forward_identical(ref, vec)


class TestBackwardEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_gradients_bit_identical(self, seed):
        cloud, cam = make_scene(seed=seed)
        ref, vec = render_both(cloud, cam, random_pixels(seed))
        g_ref, g_vec = backward_both(ref, vec, cloud, cam, seed)
        assert_backward_identical(g_ref, g_vec)

    def test_gradients_lattice_hint(self):
        cloud, cam = make_scene(seed=4)
        ref, vec = render_both(cloud, cam, lattice_pixels(), lattice_tile=4)
        g_ref, g_vec = backward_both(ref, vec, cloud, cam, 4)
        assert_backward_identical(g_ref, g_vec)

    def test_gradients_preemptive_off(self):
        cloud, cam = make_scene(seed=5)
        ref, vec = render_both(cloud, cam, random_pixels(5),
                               preemptive_alpha=False)
        g_ref, g_vec = backward_both(ref, vec, cloud, cam, 5)
        assert_backward_identical(g_ref, g_vec)

    def test_gradients_early_termination(self):
        n = 30
        rng = np.random.default_rng(13)
        cloud = GaussianCloud.create(
            means=np.stack([rng.normal(0, 0.05, n), rng.normal(0, 0.05, n),
                            rng.uniform(1.0, 3.0, n)], axis=-1),
            scales=np.full(n, 0.5),
            opacities=np.full(n, 0.93),
            colors=rng.uniform(0, 1, (n, 3)),
        )
        cam = Camera(Intrinsics.from_fov(W, H, 75.0))
        ref, vec = render_both(cloud, cam, random_pixels(13))
        g_ref, g_vec = backward_both(ref, vec, cloud, cam, 13)
        assert_backward_identical(g_ref, g_vec)

    def test_keep_cache_false_yields_zero_grads(self):
        cloud, cam = make_scene(seed=6)
        ref, vec = render_both(cloud, cam, random_pixels(6),
                               keep_cache=False)
        g_ref, g_vec = backward_both(ref, vec, cloud, cam, 6)
        assert_backward_identical(g_ref, g_vec)
        for name in GRAD_FIELDS:
            assert not np.any(getattr(g_ref, name))


class TestRecordFlag:
    def test_records_off_keeps_scalars(self):
        cloud, cam = make_scene(seed=1)
        pixels = random_pixels(1)
        for backend in ("reference", "vectorized"):
            on = render_sparse(cloud, cam, pixels, BG, backend=backend,
                               record_per_pixel=True)
            off = render_sparse(cloud, cam, pixels, BG, backend=backend,
                                record_per_pixel=False)
            assert on.stats.as_dict() == off.stats.as_dict()
            assert on.stats.pixel_list_lengths
            assert off.stats.pixel_list_lengths == []
            assert off.stats.per_pixel_contribs == []
            d = np.ones_like(on.color), np.ones_like(on.depth), \
                np.ones_like(on.silhouette)
            g_on = backward_sparse(on, cloud, cam, *d)
            g_off = backward_sparse(off, cloud, cam, *d)
            assert g_on.stats.as_dict() == g_off.stats.as_dict()
            assert g_off.stats.pixel_contrib_ids == []
            for name in GRAD_FIELDS:
                assert np.array_equal(getattr(g_on, name),
                                      getattr(g_off, name))

    def test_records_off_dense_pipeline(self):
        from repro.render import backward_full, render_full

        cloud, cam = make_scene(seed=2)
        on = render_full(cloud, cam, BG, record_per_pixel=True)
        off = render_full(cloud, cam, BG, record_per_pixel=False)
        assert np.array_equal(on.color, off.color)
        assert on.stats.as_dict() == off.stats.as_dict()
        assert on.stats.tile_work and off.stats.tile_work == []
        d = (np.ones_like(on.color), np.ones_like(on.depth),
             np.ones_like(on.silhouette))
        g_on = backward_full(on, cloud, cam, *d)
        g_off = backward_full(off, cloud, cam, *d)
        assert g_on.stats.as_dict() == g_off.stats.as_dict()
        assert g_off.stats.pixel_contrib_ids == []


class TestSLAMEquivalence:
    """Whole SLAM runs on the default kernel vs the oracle, selected by
    swapping the registry default."""

    def test_trajectories_identical_across_backends(self, monkeypatch):
        from repro.datasets import make_replica_sequence
        from repro.slam import SLAMSystem

        sequence = make_replica_sequence("room0", n_frames=4, width=32,
                                         height=24)
        results = {}
        for backend in ("reference", "vectorized"):
            monkeypatch.setattr(repro.render.kernels, "DEFAULT_BACKEND",
                                backend)
            system = SLAMSystem("splatam", mode="sparse", seed=0)
            assert system.resolved_kernel_backend() == backend
            results[backend] = system.run(sequence)
        ref, vec = results["reference"], results["vectorized"]
        assert np.array_equal(ref.est_trajectory, vec.est_trajectory)
        assert len(ref.cloud) == len(vec.cloud)
        assert np.array_equal(ref.cloud.means, vec.cloud.means)
        for stage in ("tracking_fwd", "tracking_bwd",
                      "mapping_fwd", "mapping_bwd"):
            assert (ref.stage_stats[stage].as_dict()
                    == vec.stage_stats[stage].as_dict())

    def test_atlas_artifact_bit_identical_across_backends(self,
                                                         monkeypatch):
        """Same run, either backend -> the same atlas artifact bytes."""
        from repro.datasets import make_replica_sequence
        from repro.obs.atlas import AtlasCollector
        from repro.slam import SLAMSystem

        sequence = make_replica_sequence("room0", n_frames=4, width=32,
                                         height=24)
        blobs = {}
        for backend in ("reference", "vectorized"):
            collector = AtlasCollector(tile=8)
            collector.enable()
            monkeypatch.setattr(repro.render.kernels, "DEFAULT_BACKEND",
                                backend)
            system = SLAMSystem("splatam", mode="sparse", seed=0)
            system.run(sequence, atlas=collector)
            collector.disable()
            blobs[backend] = collector.to_bytes()
        assert blobs["reference"] == blobs["vectorized"]
        assert len(blobs["reference"]) > 0
