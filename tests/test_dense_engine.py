"""Dense render engine vs the per-tile loop oracle (``tests/tile_oracle``).

``render_full`` / ``backward_full`` run the tile table through the flat
pair engine; they must be bit-identical to compositing every tile against
its whole sorted list — images, gradients, every counter and record
stream, the sparsity atlas, and whole SLAM runs.
"""

import numpy as np
import pytest

from repro.datasets import make_replica_sequence
from repro.gaussians import Camera, GaussianCloud, Intrinsics
from repro.obs import atlas as obs_atlas
from repro.render import backward_full, render_full
from repro.slam import SLAMSystem

from .tile_oracle import backward_full_oracle, render_full_oracle

BG = np.array([0.15, 0.25, 0.05])
W, H = 45, 33   # not a multiple of 8 or 16: partial edge tiles
GRAD_FIELDS = ("d_means", "d_log_scales", "d_logit_opacities", "d_colors",
               "d_pose_twist")


def make_cloud(n=150, seed=0, x=(-2, 2), y=(-1.5, 1.5), z=(1.0, 5.0)):
    rng = np.random.default_rng(seed)
    return GaussianCloud.create(
        means=np.stack([rng.uniform(*x, n), rng.uniform(*y, n),
                        rng.uniform(*z, n)], axis=-1),
        scales=rng.uniform(0.03, 0.3, n),
        opacities=rng.uniform(0.1, 0.99, n),
        # Out-of-range colors exercise the clamp gate in re-projection.
        colors=rng.uniform(-0.1, 1.1, (n, 3)),
    )


CAMERA = Camera(Intrinsics.from_fov(W, H, 75.0))
SUBSET = np.random.default_rng(7).integers(0, [W, H], size=(200, 2))

SCENES = {
    "full": lambda: make_cloud(),
    # Everything in the top-left corner: most tiles have empty lists.
    "empty_tiles": lambda: make_cloud(x=(-2.2, -1.6), y=(-1.6, -1.1),
                                      z=(2.0, 3.0)),
    # Means project outside the frame; bboxes clip into the edge tiles.
    "offscreen": lambda: make_cloud(x=(2.2, 4.0), y=(-1.0, 1.0),
                                    z=(1.5, 2.5)),
    "culled": lambda: make_cloud(z=(-5.0, -1.0)),
}

CASES = [
    ("full", {}),
    ("full", {"tile_size": 8}),
    ("full", {"pixels": SUBSET}),
    ("full", {"pixels": SUBSET, "tile_size": 8}),
    ("full", {"alpha_threshold": 0.001}),
    ("full", {"alpha_threshold": 0.1}),
    ("full", {"t_min": 0.1}),
    ("full", {"t_min": 1e-8, "tile_size": 8}),
    ("full", {"record_per_pixel": False}),
    ("empty_tiles", {}),
    ("empty_tiles", {"tile_size": 8, "pixels": SUBSET}),
    ("offscreen", {"tile_size": 8}),
    ("culled", {}),
]


def case_id(case):
    scene, kwargs = case
    return "-".join([scene] + [k if k == "pixels" else f"{k}={v}"
                               for k, v in kwargs.items()])


def loss_grads(seed=1):
    rng = np.random.default_rng(seed)
    return (rng.normal(size=(H, W, 3)), rng.normal(size=(H, W)),
            rng.normal(size=(H, W)))


def assert_stats_identical(a, b):
    assert a.as_dict() == b.as_dict()
    assert a.tile_work == b.tile_work
    assert a.per_pixel_contribs == b.per_pixel_contribs
    assert len(a.pixel_contrib_ids) == len(b.pixel_contrib_ids)
    for x, y in zip(a.pixel_contrib_ids, b.pixel_contrib_ids):
        assert x.dtype == y.dtype and np.array_equal(x, y)


def run_both(scene, kwargs):
    cloud = SCENES[scene]()
    engine = render_full(cloud, CAMERA, BG, **kwargs)
    oracle = render_full_oracle(cloud, CAMERA, BG, **kwargs)
    d = loss_grads()
    return (engine, backward_full(engine, cloud, CAMERA, *d),
            oracle, backward_full_oracle(oracle, cloud, CAMERA, *d))


@pytest.mark.parametrize("case", CASES, ids=[case_id(c) for c in CASES])
def test_bit_identical_to_tile_loop(case):
    engine, g_engine, oracle, g_oracle = run_both(*case)
    for name in ("color", "depth", "silhouette"):
        assert np.array_equal(getattr(engine, name), getattr(oracle, name))
    assert_stats_identical(engine.stats, oracle.stats)
    for name in GRAD_FIELDS:
        assert np.array_equal(getattr(g_engine, name),
                              getattr(g_oracle, name)), name
    assert_stats_identical(g_engine.stats, g_oracle.stats)


def test_benchmark_size_frame_bit_identical_to_tile_loop():
    """A frame at the benchmark's size and map density (64 x 48, room0 at
    ``surface_density=10``, as perfbench renders it): three full 1024-pixel
    blocks with real list lengths, which the tier-1 scenes above are too
    small to reach."""
    seq = make_replica_sequence("room0", n_frames=1, width=64, height=48,
                                surface_density=10)
    cloud = seq.gt_cloud
    camera = Camera(seq.intrinsics, seq[0].gt_pose_c2w)
    engine = render_full(cloud, camera, BG)
    oracle = render_full_oracle(cloud, camera, BG)
    assert [b.hi - b.lo for b in engine.blocks] == [1024] * 3
    assert min(b.cache.lengths.max() for b in engine.blocks) >= 32
    for name in ("color", "depth", "silhouette"):
        assert np.array_equal(getattr(engine, name), getattr(oracle, name))
    assert_stats_identical(engine.stats, oracle.stats)
    rng = np.random.default_rng(2)
    d = (rng.normal(size=(48, 64, 3)), rng.normal(size=(48, 64)),
         rng.normal(size=(48, 64)))
    g_engine = backward_full(engine, cloud, camera, *d)
    g_oracle = backward_full_oracle(oracle, cloud, camera, *d)
    for name in GRAD_FIELDS:
        assert np.array_equal(getattr(g_engine, name),
                              getattr(g_oracle, name)), name
    assert_stats_identical(g_engine.stats, g_oracle.stats)


@pytest.mark.usefixtures("scan_branch")
class TestScanBranches:
    """The oracle cases again, every block's kernel calls checked against
    the padded numpy oracle with each ``slot_scan`` branch forced."""

    @pytest.mark.parametrize("case", CASES, ids=[case_id(c) for c in CASES])
    def test_bit_identical_to_tile_loop(self, case):
        test_bit_identical_to_tile_loop(case)

    def test_benchmark_size_frame(self):
        test_benchmark_size_frame_bit_identical_to_tile_loop()


def test_cases_cover_the_edges():
    """The scenes really are degenerate in the advertised ways."""
    empty = render_full(SCENES["empty_tiles"](), CAMERA, BG)
    assert 0 < sum(len(t) == 0 for t in empty.sorted_lists) < len(
        empty.sorted_lists)
    culled = render_full(SCENES["culled"](), CAMERA, BG)
    assert len(culled.proj) == 0
    off = render_full(SCENES["offscreen"](), CAMERA, BG, tile_size=8)
    u = off.proj.mean2d[:, 0]
    assert np.any(u >= W) and off.stats.num_contrib_pairs > 0


def test_keep_cache_false_yields_zero_gradients():
    cloud = make_cloud()
    engine = render_full(cloud, CAMERA, BG, keep_cache=False)
    oracle = render_full_oracle(cloud, CAMERA, BG, keep_cache=False)
    assert engine.blocks is None
    assert np.array_equal(engine.color, oracle.color)
    d = loss_grads()
    g_engine = backward_full(engine, cloud, CAMERA, *d)
    g_oracle = backward_full_oracle(oracle, cloud, CAMERA, *d)
    for name in GRAD_FIELDS:
        assert not np.any(getattr(g_engine, name))
    assert_stats_identical(g_engine.stats, g_oracle.stats)


def test_result_independent_of_block_size(monkeypatch):
    from repro.render import rasterize

    cloud = make_cloud()
    d = loss_grads()
    ref = render_full(cloud, CAMERA, BG)
    g_ref = backward_full(ref, cloud, CAMERA, *d)
    monkeypatch.setattr(rasterize, "BLOCK_PIXELS", 37)
    small = render_full(cloud, CAMERA, BG)
    assert len(small.blocks) > len(ref.blocks)
    g_small = backward_full(small, cloud, CAMERA, *d)
    assert np.array_equal(small.color, ref.color)
    for name in GRAD_FIELDS:
        assert np.array_equal(getattr(g_small, name), getattr(g_ref, name))
    assert_stats_identical(small.stats, ref.stats)
    assert_stats_identical(g_small.stats, g_ref.stats)


BLOCKING_CASES = [
    # Block sizes that are not a multiple of the tile area.
    (37, {}),
    (37, {"tile_size": 8}),
    (300, {}),
    (300, {"tile_size": 8}),
    (300, {"tile_size": 8, "pixels": SUBSET}),
    # One tile (64 x 64 covers the whole 45 x 33 frame) larger than a block.
    (37, {"tile_size": 64}),
    (1024, {"tile_size": 64}),
]


@pytest.mark.parametrize(
    "block_pixels, kwargs", BLOCKING_CASES,
    ids=[f"block={b}-" + case_id(("full", kw)) for b, kw in BLOCKING_CASES])
def test_blocking_bit_identical_to_tile_loop(block_pixels, kwargs,
                                             monkeypatch):
    """Any block size gives the oracle's bits: blocks hold whole tiles, so
    no (tile, list slot) sum of the backward spans two blocks."""
    from repro.render import rasterize

    monkeypatch.setattr(rasterize, "BLOCK_PIXELS", block_pixels)
    engine, g_engine, oracle, g_oracle = run_both("full", kwargs)

    tiles = engine.pixel_tiles
    assert len(engine.blocks) > 0
    for b in engine.blocks:
        assert b.lo == 0 or tiles[b.lo - 1] != tiles[b.lo], b.lo
        assert b.hi == tiles.size or tiles[b.hi - 1] != tiles[b.hi], b.hi
        if b.hi - b.lo > block_pixels:
            assert np.all(tiles[b.lo:b.hi] == tiles[b.lo])
    for name in ("color", "depth", "silhouette"):
        assert np.array_equal(getattr(engine, name), getattr(oracle, name))
    assert_stats_identical(engine.stats, oracle.stats)
    for name in GRAD_FIELDS:
        assert np.array_equal(getattr(g_engine, name),
                              getattr(g_oracle, name)), name
    assert_stats_identical(g_engine.stats, g_oracle.stats)


@pytest.mark.parametrize("pixels", [None, SUBSET], ids=["full", "subset"])
def test_atlas_bytes_identical(pixels):
    def record(render, backward):
        collector = obs_atlas.AtlasCollector(tile=8)
        collector.enable()
        collector.begin_run(frames=1)
        cloud = make_cloud()
        with obs_atlas.use_collector(collector):
            collector.begin_frame(0, W, H)
            collector.set_stage("mapping")
            res = render(cloud, CAMERA, BG, pixels=pixels)
            backward(res, cloud, CAMERA, *loss_grads())
            collector.end_frame()
        return collector.to_bytes()

    assert record(render_full, backward_full) == record(
        render_full_oracle, backward_full_oracle)


@pytest.fixture(scope="module")
def sequence():
    return make_replica_sequence("room0", n_frames=3, width=32, height=24,
                                 surface_density=10)


def slam_fingerprint(sequence, mode):
    result = SLAMSystem("splatam", mode=mode).run(sequence)
    return (result.est_trajectory.tobytes(), result.cloud.pack().tobytes(),
            {k: s.as_dict() for k, s in result.stage_stats.items()},
            list(result.tracking_iterations))


@pytest.mark.slow
@pytest.mark.parametrize("mode", ["dense", "sparse"])
def test_slam_run_identical_with_oracle(sequence, mode, monkeypatch):
    """Dense mode (every render dense) and sparse mode with full-frame
    mapping of the current keyframe: the same run, bit for bit."""
    engine = slam_fingerprint(sequence, mode)
    calls = []

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls.append(fn)
            return fn(*args, **kwargs)
        return wrapper

    for module in ("repro.core.splatonic", "repro.slam.system"):
        monkeypatch.setattr(f"{module}.render_full",
                            counted(render_full_oracle))
    for module in ("repro.slam.tracker", "repro.slam.mapper"):
        monkeypatch.setattr(f"{module}.backward_full",
                            counted(backward_full_oracle))
    assert slam_fingerprint(sequence, mode) == engine
    assert backward_full_oracle in calls
