"""The Splatonic facade: configuration, sampling dispatch, cadence."""

import numpy as np
import pytest

from repro.core import Splatonic, SplatonicConfig
from repro.gaussians import Camera, GaussianCloud, Intrinsics


def make_scene(n=40, seed=0):
    rng = np.random.default_rng(seed)
    cloud = GaussianCloud.create(
        means=np.stack([rng.uniform(-1, 1, n), rng.uniform(-1, 1, n),
                        rng.uniform(1, 4, n)], axis=-1),
        scales=rng.uniform(0.05, 0.2, n),
        opacities=rng.uniform(0.3, 0.9, n),
        colors=rng.uniform(0, 1, (n, 3)),
    )
    return cloud, Camera(Intrinsics.from_fov(32, 24, 70.0))


class TestConfig:
    def test_defaults_match_paper(self):
        cfg = SplatonicConfig()
        assert cfg.tracking_tile == 16
        assert cfg.mapping_tile == 4
        assert cfg.tracking_strategy == "random"
        # Preemptive α-checking is always on: there is no switch for it.
        assert not hasattr(cfg, "preemptive_alpha")
        # With mapping invoked every 4 frames, a dense current keyframe on
        # every invocation realizes "one full-frame mapping per 4 frames".
        assert cfg.full_mapping_every == 1

    def test_with_overrides(self):
        cfg = SplatonicConfig().with_overrides(tracking_tile=8)
        assert cfg.tracking_tile == 8
        assert cfg.mapping_tile == 4

    def test_frozen(self):
        with pytest.raises(Exception):
            SplatonicConfig().tracking_tile = 4


class TestFacade:
    def test_sample_tracking_uses_config_tile(self):
        cloud, cam = make_scene()
        sp = Splatonic(SplatonicConfig(tracking_tile=8),
                       rng=np.random.default_rng(0))
        px = sp.sample_tracking(cam)
        assert len(px) == (32 // 8) * (24 // 8)

    def test_render_roundtrip(self):
        cloud, cam = make_scene()
        sp = Splatonic(rng=np.random.default_rng(0))
        px = sp.sample_tracking(cam)
        res = sp.render_sparse(cloud, cam, px)
        grads = sp.backward_sparse(res, cloud, cam,
                                   np.ones((len(px), 3)),
                                   np.zeros(len(px)), np.zeros(len(px)))
        assert grads.d_pose_twist.shape == (6,)

    def test_render_full_passthrough(self):
        cloud, cam = make_scene()
        sp = Splatonic()
        res = sp.render_full(cloud, cam)
        assert res.color.shape == (24, 32, 3)

    def test_sample_mapping(self):
        cloud, cam = make_scene()
        sp = Splatonic(rng=np.random.default_rng(0))
        gamma = np.ones((24, 32)) * 0.1
        gamma[:, 16:] = 0.9
        image = np.random.default_rng(0).uniform(0, 1, (24, 32, 3))
        s = sp.sample_mapping(gamma, image)
        assert len(s.unseen) == 24 * 16
        assert len(s.weighted) == (32 // 4) * (24 // 4)

    def test_full_mapping_cadence(self):
        sp = Splatonic(SplatonicConfig(full_mapping_every=4))
        flags = [sp.next_mapping_is_full_frame() for _ in range(8)]
        assert flags == [True, False, False, False,
                         True, False, False, False]

    def test_rng_determinism(self):
        cloud, cam = make_scene()
        a = Splatonic(rng=np.random.default_rng(5)).sample_tracking(cam)
        b = Splatonic(rng=np.random.default_rng(5)).sample_tracking(cam)
        assert np.array_equal(a, b)
