"""The dense pipeline's α stage against a per-tile broadcast.

``rasterize._tile_pairs`` culls a (pixel, Gaussian) pair in compiled code
(``rasterize._tile_cull``) when its ``du² + dv²`` exceeds the Gaussian's
conservative α cutoff, and evaluates α only on the survivors.  It must
emit exactly the pairs, α bits and clip flags of ``tile_pairs_oracle``,
which evaluates every pixel of a tile against the tile's whole list, and
the compiled cull exactly the pairs and falloff exponents of the numpy
axis-shared cull it replaced (``tile_oracle.axis_shared_cull``).  Both
compiled stages return per-pixel pair counts where the oracles return
each pair's pixel; :func:`flat_pairs` converts.  The scenes put splats within
a few ulps of the α boundary or of the cutoff, and opacities a few ulps
either side of the threshold, where a cutoff without margin would drop
passing pairs.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gaussians import Camera, GaussianCloud, Intrinsics
from repro.render import rasterize
from repro.render.compositing import ALPHA_MAX
from repro.render.kernels import vectorized
from repro.render.projection import ProjectedGaussians
from repro.render.rasterize import (
    _rendered_pixels,
    _tile_cull,
    _tile_pairs,
    alpha_cutoff,
    render_full,
)
from repro.render.sorting import sort_intersection_table
from repro.render.tiles import TileGrid, build_intersection_table

from .tile_oracle import axis_shared_cull, tile_pairs_oracle

EPS = np.finfo(float).eps
#: Off, the shipped 1/255, strict, and above ALPHA_MAX (nothing passes).
THRESHOLDS = [0.0, 1.0 / 255.0, 0.1, 0.9995]


def splats(mean2d, sigma, opacity, depth):
    m = len(sigma)
    return ProjectedGaussians(
        source_index=np.arange(m), p_cam=np.zeros((m, 3)),
        mean2d=np.asarray(mean2d, float).reshape(m, 2),
        sigma2d=np.asarray(sigma, float), depth=np.asarray(depth, float),
        opacity=np.asarray(opacity, float), color=np.zeros((m, 3)),
        # Wide boxes: every boundary pixel is a candidate of its tile.
        radius=4.0 * np.asarray(sigma, float) + 2.0)


def boundary_splat(rng, width, height, tau):
    """A splat whose α at some pixel centre is a few ulps from ``tau``, or
    whose squared distance there is a few ulps from its α cutoff."""
    ref = tau if 0.0 < tau <= ALPHA_MAX else 1.0 / 255.0
    centre = rng.integers(0, [width, height]) + 0.5
    sigma = rng.uniform(0.3, 10.0)
    opacity = rng.uniform(ref, 1.0)
    exponent = np.log(opacity / ref)
    if rng.random() < 0.3:
        exponent = exponent * (1.0 + 1e-9) + 1e-9
    reach = np.sqrt(exponent * 2.0 * sigma * sigma)
    theta = rng.choice([0.0, np.pi / 2, rng.uniform(0, 2 * np.pi)])
    reach *= 1.0 + int(rng.integers(-8, 9)) * EPS
    return (centre + reach * np.array([np.cos(theta), np.sin(theta)]),
            sigma, opacity)


def threshold_splat(rng, width, height, tau):
    """A splat with opacity a few ulps from ``tau``, centred on a pixel
    centre (α = opacity there) or just off it."""
    ref = tau if tau > 0.0 else 1.0 / 255.0
    centre = rng.integers(0, [width, height]) + 0.5
    offset = rng.choice([0.0, 1e-9, 0.5])
    opacity = ref * (1.0 + int(rng.integers(-4, 5)) * EPS)
    return centre + offset, rng.uniform(0.3, 10.0), opacity


@st.composite
def scenes(draw):
    tile = draw(st.sampled_from([8, 16, 64]))
    width = draw(st.integers(1, 70))
    height = draw(st.integers(1, 50))
    tau = draw(st.sampled_from(THRESHOLDS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    means, sigmas, opacities = [], [], []
    # Random clouds, off-screen splats included; some opacities clip.
    for _ in range(draw(st.integers(0, 10))):
        means.append(rng.uniform([-0.5 * width, -0.5 * height],
                                 [1.5 * width, 1.5 * height]))
        sigmas.append(rng.uniform(0.2, 12.0))
        opacities.append(rng.choice([rng.uniform(0.0, 1.0), 1.0, 0.9995]))
    for make in ([boundary_splat] * draw(st.integers(0, 8))
                 + [threshold_splat] * draw(st.integers(0, 4))):
        mean, sigma, opacity = make(rng, width, height, tau)
        means.append(mean)
        sigmas.append(sigma)
        opacities.append(opacity)
    m = len(sigmas)
    proj = splats(np.reshape(means, (m, 2)), sigmas, opacities,
                  rng.uniform(1.0, 3.0, m))
    pixels = None
    if draw(st.booleans()):      # Org.+S: a random pixel subset
        keep = rng.random((height, width)) < draw(st.sampled_from(
            [0.05, 0.2, 0.7]))
        v, u = np.nonzero(keep)
        pixels = np.stack([u, v], axis=-1)
    return proj, TileGrid(width, height, tile), pixels, tau


def stage_inputs(proj, grid, pixels):
    table = build_intersection_table(proj, grid)
    sorted_gss = sort_intersection_table(table, proj)
    px, px_tiles = _rendered_pixels(grid, pixels)
    n_g = table.tile_counts()
    n_px = np.bincount(px_tiles, minlength=grid.num_tiles)
    return sorted_gss, n_g, n_px, px


def per_tile(sorted_gss, n_g):
    """The flat tile-major sorted list split into the oracles' per-tile
    lists."""
    return np.split(sorted_gss, np.cumsum(n_g)[:-1])


def flat_pairs(pairs):
    """A compiled stage's ``(..., lengths)`` as the oracles' flat arrays:
    each pair's pixel first, then the stage's per-pair arrays."""
    *arrays, lengths = pairs
    return (np.repeat(np.arange(lengths.size), lengths), *arrays)


def assert_same_pairs(got, want,
                      names=("pixel", "slot", "gaussian", "alpha", "clipped")):
    assert len(got) == len(want) == len(names)
    for name, a, b in zip(names, got, want):
        assert a.dtype == b.dtype, name
        assert a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name


CULL = ("pixel", "slot", "gaussian", "exponent")


def assert_cull_matches(proj, grid, pixels, tau):
    """The compiled cull emits the numpy axis-shared cull's pairs, with
    the falloff exponents of their ``d²``; returns them as flat
    ``(pixel, slot, gaussian, exponent)`` arrays."""
    return assert_cull_is_oracles(proj, grid, stage_inputs(proj, grid, pixels),
                                  alpha_cutoff(proj, tau))


def assert_cull_is_oracles(proj, grid, inputs, cutoff):
    """:func:`assert_cull_matches` on given stage inputs and cutoffs."""
    sorted_gss, n_g, n_px, px = inputs
    pix, slot, x = flat_pairs(_tile_cull(proj, sorted_gss, n_g, n_px, px,
                                         cutoff))
    got = pix, slot, sorted_gss[slot], x
    pix, slot, gaussian, d2 = axis_shared_cull(
        proj, grid, per_tile(sorted_gss, n_g), n_g, n_px, px, cutoff)
    # falloff_alpha's exponent, operands in its order.
    sig = proj.sigma2d
    x = np.negative(d2) * (1.0 / (2.0 * sig * sig))[gaussian]
    assert_same_pairs(got, (pix, slot, gaussian, x), CULL)
    return got


@st.composite
def nan_scenes(draw):
    """:func:`scenes` with NaN opacity or σ on some splats (their boxes
    stay finite, so they still reach the tile lists)."""
    proj, grid, pixels, tau = draw(scenes())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    opacity, sigma = proj.opacity.copy(), proj.sigma2d.copy()
    opacity[rng.random(len(proj)) < 0.3] = np.nan
    sigma[rng.random(len(proj)) < 0.3] = np.nan
    return replace(proj, opacity=opacity, sigma2d=sigma), grid, pixels, tau


@given(scenes())
@settings(max_examples=250, deadline=None)
def test_matches_per_tile_broadcast(scene):
    proj, grid, pixels, tau = scene
    sorted_gss, n_g, n_px, px = stage_inputs(proj, grid, pixels)
    got = flat_pairs(_tile_pairs(proj, sorted_gss, n_g, n_px, px, tau))
    want = tile_pairs_oracle(proj, per_tile(sorted_gss, n_g), n_g, n_px,
                             px + 0.5, tau)
    assert_same_pairs(got, want)


def test_boundary_cases_straddle_the_threshold():
    """The boundary splats do land on both sides of τ — the property test
    above exercises the cutoff's margin, not just easy cases."""
    rng = np.random.default_rng(3)
    tau = 1.0 / 255.0
    grid = TileGrid(40, 30, 16)
    made = [boundary_splat(rng, 40, 30, tau) for _ in range(200)]
    made += [threshold_splat(rng, 40, 30, tau) for _ in range(50)]
    mean, sigma, opacity = (np.array(x) for x in zip(*made))
    proj = splats(mean, sigma, opacity, np.linspace(1.0, 2.0, len(sigma)))
    sorted_gss, n_g, n_px, px = stage_inputs(proj, grid, None)
    want = tile_pairs_oracle(proj, per_tile(sorted_gss, n_g), n_g, n_px,
                             px + 0.5, tau)
    assert_same_pairs(
        flat_pairs(_tile_pairs(proj, sorted_gss, n_g, n_px, px, tau)), want)
    alpha = want[3]
    assert np.any(alpha == tau)
    # α values within 8 ulps of τ that still pass: a cutoff without a
    # margin is wrong exactly here.
    assert np.count_nonzero(alpha <= tau * (1.0 + 8 * EPS)) > 10


def test_cutoff_special_thresholds():
    proj = splats([[0.0, 0.0]] * 4, [1.0, 2.0, 0.5, 1.0],
                  [0.5, 1.0, 0.001, 0.0], [1.0] * 4)
    assert np.all(alpha_cutoff(proj, 0.0) == np.inf)
    assert np.all(alpha_cutoff(proj, -1.0) == np.inf)
    assert np.all(alpha_cutoff(proj, np.nextafter(ALPHA_MAX, 1.0))
                  == -np.inf)
    cutoff = alpha_cutoff(proj, 0.01)
    # Opacity below τ: no squared distance is within the cutoff.
    assert cutoff[2] < 0.0 and cutoff[3] == -np.inf
    # Above τ: at least the exact bound ln(o/τ)·2σ².
    exact = np.log(proj.opacity[:2] / 0.01) * 2.0 * proj.sigma2d[:2] ** 2
    assert np.all(cutoff[:2] > exact)
    assert np.all(cutoff[:2] < exact * (1.0 + 1e-8))


@given(scenes())
@settings(max_examples=250, deadline=None)
def test_compiled_cull_matches_axis_shared_cull(scene):
    """Full frames and Org.+S subsets, at τ ≤ 0 (+∞ cutoff), the shipped
    τ, a strict τ and τ > ALPHA_MAX (−∞ cutoff)."""
    assert_cull_matches(*scene)


@given(nan_scenes())
@settings(max_examples=100, deadline=None)
def test_nan_opacity_or_sigma_passes_no_pair(scene):
    proj, grid, pixels, tau = scene
    with np.errstate(invalid="ignore"):
        assert_cull_matches(proj, grid, pixels, tau)
        sorted_gss, n_g, n_px, px = stage_inputs(proj, grid, pixels)
        got = flat_pairs(_tile_pairs(proj, sorted_gss, n_g, n_px, px, tau))
        assert_same_pairs(got, tile_pairs_oracle(
            proj, per_tile(sorted_gss, n_g), n_g, n_px, px + 0.5, tau))
    nan = np.isnan(proj.opacity) | np.isnan(proj.sigma2d)
    assert not nan[got[2]].any()


def corner_scene():
    """Splats in the top-left corner of a 40x30 frame (8-pixel tiles) and
    pixels sampled in its left half below the first tile row: tiles with an
    empty list and pixels, tiles with a list and no pixel, and tiles with
    both."""
    rng = np.random.default_rng(5)
    proj = splats(rng.uniform(0.0, 14.0, (12, 2)), rng.uniform(0.5, 2.0, 12),
                  rng.uniform(0.05, 1.0, 12), rng.uniform(1.0, 3.0, 12))
    v, u = np.nonzero(rng.random((22, 20)) < 0.4)
    return proj, TileGrid(40, 30, 8), np.stack([u, v + 8], axis=-1)


def test_empty_lists_and_pixelless_tiles():
    proj, grid, pixels = corner_scene()
    _, n_g, n_px, _ = stage_inputs(proj, grid, pixels)
    assert np.any((n_g == 0) & (n_px > 0))
    assert np.any((n_g > 0) & (n_px == 0))
    for tau in THRESHOLDS:
        pix = assert_cull_matches(proj, grid, pixels, tau)[0]
        assert (pix.size == 0) == (tau > ALPHA_MAX)


def test_cutoff_extremes_keep_every_or_no_candidate():
    proj, grid, pixels = corner_scene()
    _, n_g, n_px, _ = stage_inputs(proj, grid, pixels)
    candidates = int((n_g * n_px).sum())
    assert assert_cull_matches(proj, grid, pixels, -1.0)[0].size == candidates
    none = assert_cull_matches(proj, grid, pixels,
                               np.nextafter(ALPHA_MAX, 1.0))
    assert [a.size for a in none] == [0] * 4


@pytest.mark.parametrize("edit", ["gaussian_past_end", "negative_gaussian",
                                  "short_lists", "short_pixels",
                                  "negative_count"])
def test_bad_inputs_raise(edit):
    proj, grid, pixels = corner_scene()
    sorted_gss, n_g, n_px, px = stage_inputs(proj, grid, pixels)
    sorted_gss, n_g, n_px = sorted_gss.copy(), n_g.copy(), n_px.copy()
    t = int(np.flatnonzero((n_g > 0) & (n_px > 0))[0])
    if edit == "gaussian_past_end":
        sorted_gss[n_g[:t].sum()] = len(proj)
    elif edit == "negative_gaussian":
        sorted_gss[n_g[:t].sum()] = -1
    elif edit == "short_lists":
        n_g[t] += 1
    elif edit == "short_pixels":
        n_px[t] += 1
    else:
        n_g[t] = -1
    with pytest.raises(ValueError):
        _tile_cull(proj, sorted_gss, n_g, n_px, px,
                   alpha_cutoff(proj, 0.0))


class TestBandEdges:
    """The row-banded walk on the edges of its band test ``dv² <=
    cutoff``, against the axis-shared cull.  Every splat is in every
    tile's list, so no bbox test screens the edge cases out."""

    GRID = TileGrid(12, 10, 4)

    @staticmethod
    def every_list(proj, grid, pixels=None):
        m, T = len(proj), grid.num_tiles
        px, px_tiles = _rendered_pixels(grid, pixels)
        return (np.tile(np.arange(m), T), np.full(T, m),
                np.bincount(px_tiles, minlength=T), px)

    def check(self, mean2d, cutoff, sigma=None, pixels=None, inputs=None):
        m = len(cutoff)
        proj = splats(mean2d, np.ones(m) if sigma is None else sigma,
                      np.full(m, 0.5), np.arange(1.0, m + 1.0))
        inputs = inputs or self.every_list(proj, self.GRID, pixels)
        with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
            return assert_cull_is_oracles(proj, self.GRID, inputs,
                                          np.asarray(cutoff, float))

    def test_cutoff_equal_to_a_rows_dv2(self):
        """A cutoff of exactly some row's ``dv²`` puts that row in the
        band, and the pixel straight above the centre passes with ``d² ==
        cutoff``; one ulp less keeps neither."""
        rng = np.random.default_rng(11)
        mean2d = np.stack([rng.integers(0, 12, 16) + 0.5,
                           rng.uniform(0.0, 10.0, 16)], axis=-1)
        rows = rng.integers(0, 10, 16) + 0.5
        dv2 = (rows - mean2d[:, 1]) * (rows - mean2d[:, 1])
        exact = self.check(mean2d, dv2)
        assert exact[0].size >= 16
        below = self.check(mean2d, np.nextafter(dv2, -np.inf))
        assert below[0].size < exact[0].size

    @pytest.mark.parametrize("cutoff", [0.0, -0.0])
    def test_zero_cutoffs_keep_only_the_centre_pixel(self, cutoff):
        got = self.check([[4.5, 4.5], [0.5, 9.5], [4.25, 4.5]],
                         [cutoff] * 3)
        assert got[2].tolist() == [0, 1]

    def test_infinite_cutoff_keeps_every_non_nan_distance(self):
        mean2d = [[3.0, 2.0], [np.inf, 3.5], [3.5, np.inf],
                  [-np.inf, -np.inf], [np.nan, 2.5], [2.5, np.nan],
                  [1e200, 1e200]]
        got = self.check(mean2d, [np.inf] * 7)
        keeps = np.bincount(got[2], minlength=7)
        assert keeps.tolist() == [120] * 4 + [0, 0, 120]

    def test_infinite_and_nan_means_fail_finite_cutoffs(self):
        mean2d = [[np.inf, 3.5], [3.5, -np.inf], [np.nan, 2.5],
                  [2.5, np.nan], [3.5, 2.5]]
        got = self.check(mean2d, [1e300, 1e300, 1e300, 1e300, 2.0])
        assert set(got[2].tolist()) == {4}

    def test_nan_cutoffs_and_degenerate_sigmas(self):
        got = self.check([[3.5, 2.5]] * 4, [np.nan, np.inf, 4.0, 0.0],
                         sigma=[1.0, 0.0, np.inf, np.nan])
        assert set(got[2].tolist()) == {1, 2, 3}

    def test_org_s_rows_with_gaps(self):
        """Sampled pixels that skip rows and leave rows part-filled."""
        rng = np.random.default_rng(4)
        mean2d = rng.uniform(-2.0, 14.0, (24, 2))
        keep = rng.random((10, 12)) < 0.35
        keep[1::4] = False
        v, u = np.nonzero(keep)
        got = self.check(mean2d, rng.uniform(0.0, 20.0, 24),
                         pixels=np.stack([u, v], axis=-1))
        assert got[0].size > 0

    def test_pixels_out_of_row_order(self):
        """A tile's pixels in any order: each run of one row is a band.
        (Every tile misses its corner pixel: the oracle reads a whole
        tile's pixels as row-major.)"""
        rng = np.random.default_rng(9)
        mean2d = rng.uniform(-2.0, 14.0, (24, 2))
        cutoff = rng.uniform(0.0, 20.0, 24)
        proj = splats(mean2d, np.ones(24), np.full(24, 0.5),
                      np.arange(24.0))
        keep = rng.random((10, 12)) < 0.8
        keep[::4, ::4] = False
        v, u = np.nonzero(keep)
        sorted_gss, n_g, n_px, px = self.every_list(
            proj, self.GRID, np.stack([u, v], axis=-1))
        starts = np.cumsum(n_px) - n_px
        px = np.concatenate([px[lo:lo + n][rng.permutation(n)]
                             for lo, n in zip(starts, n_px)])
        got = self.check(mean2d, cutoff,
                         inputs=(sorted_gss, n_g, n_px, px))
        assert got[0].size > 0


def test_dense_render_runs_no_numpy_falloff(monkeypatch):
    """A dense frame's α stage is the compiled cull, numpy's ``exp`` and
    the compiled finish: ``render_full`` never reaches ``falloff_alpha``."""
    def numpy_falloff(*args, **kwargs):
        raise AssertionError("render_full called falloff_alpha")

    for module in (vectorized, rasterize):
        monkeypatch.setattr(module, "falloff_alpha", numpy_falloff,
                            raising=False)
    rng = np.random.default_rng(2)
    n = 60
    cloud = GaussianCloud.create(
        means=np.stack([rng.uniform(-1, 1, n), rng.uniform(-1, 1, n),
                        rng.uniform(1, 4, n)], axis=-1),
        scales=rng.uniform(0.05, 0.3, n), opacities=rng.uniform(0.1, 1.0, n),
        colors=rng.uniform(0, 1, (n, 3)))
    cam = Camera(Intrinsics.from_fov(40, 30, 70.0))
    for pixels in (None, [[3, 4], [20, 15], [21, 15], [39, 29]]):
        res = render_full(cloud, cam, pixels=pixels)
        assert res.stats.num_contrib_pairs > 0
