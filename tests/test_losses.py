"""RGB-D loss: values, masking, and analytic gradients."""

import numpy as np
import pytest

from repro.slam import LossConfig, rgbd_loss


def make_inputs(k=12, seed=0):
    rng = np.random.default_rng(seed)
    return dict(
        rendered_color=rng.uniform(0, 1, (k, 3)),
        rendered_depth=rng.uniform(0.5, 3, k),
        rendered_silhouette=rng.uniform(0.99, 1.0, k),
        ref_color=rng.uniform(0, 1, (k, 3)),
        ref_depth=rng.uniform(0.5, 3, k),
    )


class TestLossValue:
    def test_zero_at_perfect_render(self):
        inp = make_inputs()
        out = rgbd_loss(inp["ref_color"], inp["ref_depth"],
                        inp["rendered_silhouette"], inp["ref_color"],
                        inp["ref_depth"], LossConfig(), tracking=True)
        assert out.loss == 0.0

    def test_positive_otherwise(self):
        inp = make_inputs()
        out = rgbd_loss(**inp, config=LossConfig(), tracking=True)
        assert out.loss > 0.0

    def test_weights_scale_components(self):
        inp = make_inputs()
        only_color = rgbd_loss(**inp, config=LossConfig(
            color_weight=1.0, depth_weight=0.0), tracking=True)
        only_depth = rgbd_loss(**inp, config=LossConfig(
            color_weight=0.0, depth_weight=1.0), tracking=True)
        both = rgbd_loss(**inp, config=LossConfig(
            color_weight=1.0, depth_weight=1.0), tracking=True)
        assert np.isclose(both.loss, only_color.loss + only_depth.loss)

    def test_normalized_by_valid_count(self):
        """Doubling the number of identical pixels leaves the loss fixed."""
        inp = make_inputs(k=8)
        doubled = {k: np.concatenate([v, v]) for k, v in inp.items()}
        a = rgbd_loss(**inp, config=LossConfig(), tracking=False)
        b = rgbd_loss(**doubled, config=LossConfig(), tracking=False)
        assert np.isclose(a.loss, b.loss)


class TestMasking:
    def test_silhouette_mask_in_tracking(self):
        inp = make_inputs()
        inp["rendered_silhouette"] = np.full(12, 0.5)  # poorly observed
        out = rgbd_loss(**inp, config=LossConfig(silhouette_threshold=0.99),
                        tracking=True)
        assert out.num_valid == 0
        assert out.loss == 0.0
        assert np.allclose(out.d_color, 0)

    def test_no_silhouette_mask_in_mapping(self):
        inp = make_inputs()
        inp["rendered_silhouette"] = np.full(12, 0.5)
        out = rgbd_loss(**inp, config=LossConfig(), tracking=False)
        assert out.num_valid == 12

    def test_invalid_depth_masked(self):
        inp = make_inputs()
        inp["ref_depth"] = inp["ref_depth"].copy()
        inp["ref_depth"][:6] = 0.0
        out = rgbd_loss(**inp, config=LossConfig(), tracking=False)
        assert out.num_valid == 6
        assert np.allclose(out.d_depth[:6], 0)


class TestGradients:
    @pytest.mark.parametrize("tracking", [True, False])
    @pytest.mark.parametrize("delta", [0.0, 0.05])
    def test_matches_numerical(self, tracking, delta):
        cfg = LossConfig(color_weight=0.7, depth_weight=0.9,
                         silhouette_weight=0.2, huber_delta=delta)
        inp = make_inputs(seed=3)
        out = rgbd_loss(**inp, config=cfg, tracking=tracking)
        eps = 1e-7
        rng = np.random.default_rng(0)

        def loss_of(**kw):
            merged = dict(inp)
            merged.update(kw)
            return rgbd_loss(**merged, config=cfg, tracking=tracking).loss

        for _ in range(10):
            i = rng.integers(12)
            c = rng.integers(3)
            cp = inp["rendered_color"].copy()
            cp[i, c] += eps
            cm = inp["rendered_color"].copy()
            cm[i, c] -= eps
            num = (loss_of(rendered_color=cp)
                   - loss_of(rendered_color=cm)) / (2 * eps)
            assert np.isclose(num, out.d_color[i, c], atol=1e-5)

            dp = inp["rendered_depth"].copy()
            dp[i] += eps
            dm = inp["rendered_depth"].copy()
            dm[i] -= eps
            num = (loss_of(rendered_depth=dp)
                   - loss_of(rendered_depth=dm)) / (2 * eps)
            assert np.isclose(num, out.d_depth[i], atol=1e-5)

    def test_silhouette_gradient_only_in_mapping(self):
        cfg = LossConfig(silhouette_weight=0.5)
        inp = make_inputs(seed=4)
        track = rgbd_loss(**inp, config=cfg, tracking=True)
        mapping = rgbd_loss(**inp, config=cfg, tracking=False)
        assert np.allclose(track.d_silhouette, 0)
        assert not np.allclose(mapping.d_silhouette, 0)

    def test_huber_bounded_gradient(self):
        cfg = LossConfig(huber_delta=0.1)
        inp = make_inputs(seed=5)
        out = rgbd_loss(**inp, config=cfg, tracking=False)
        # L1/Huber gradients are bounded by weight / num_valid.
        assert np.all(np.abs(out.d_depth) <= cfg.depth_weight / out.num_valid
                      + 1e-12)


class TestShapes:
    @pytest.mark.parametrize("tracking", [True, False])
    @pytest.mark.parametrize("delta", [0.0, 0.05])
    @pytest.mark.parametrize("seed", range(4))
    def test_image_shaped_inputs_match_flat_bit_for_bit(self, tracking,
                                                        delta, seed):
        """A dense ``(H, W)`` image gives the flattened batch's loss and
        ``num_valid`` exactly, and its gradients reshaped to the image."""
        h, w = 6, 5
        cfg = LossConfig(color_weight=0.7, depth_weight=0.9,
                         silhouette_weight=0.2, huber_delta=delta)
        flat = make_inputs(k=h * w, seed=seed)
        rng = np.random.default_rng(seed + 100)
        # Mix in invalid depth and poorly observed pixels so both masks
        # select a strict subset.
        flat["ref_depth"][rng.random(h * w) < 0.2] = 0.0
        flat["rendered_silhouette"] = rng.uniform(0.9, 1.0, h * w)
        image = {k: v.reshape((h, w) + v.shape[1:]) for k, v in flat.items()}

        a = rgbd_loss(**flat, config=cfg, tracking=tracking)
        b = rgbd_loss(**image, config=cfg, tracking=tracking)
        assert b.loss == a.loss
        assert b.num_valid == a.num_valid
        assert 0 < a.num_valid < h * w
        assert b.d_color.shape == (h, w, 3)
        assert b.d_depth.shape == b.d_silhouette.shape == (h, w)
        assert np.array_equal(b.d_color, a.d_color.reshape(h, w, 3))
        assert np.array_equal(b.d_depth, a.d_depth.reshape(h, w))
        assert np.array_equal(b.d_silhouette, a.d_silhouette.reshape(h, w))
