"""The dense pipeline's axis-shared α stage against a per-tile broadcast.

``rasterize._tile_pairs`` culls a (pixel, Gaussian) pair when its
``du² + dv²``, built from per-column and per-row terms, exceeds the
Gaussian's conservative α cutoff, and evaluates α only on the survivors.
It must emit exactly the pairs, α bits and clip flags of
``tile_pairs_oracle``, which evaluates every pixel of a tile against the
tile's whole list.  The scenes put splats within a few ulps of the α
boundary or of the cutoff, and opacities a few ulps either side of the
threshold, where a cutoff without margin would drop passing pairs.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.render.compositing import ALPHA_MAX
from repro.render.projection import ProjectedGaussians
from repro.render.rasterize import _rendered_pixels, _tile_pairs, alpha_cutoff
from repro.render.sorting import sort_intersection_table
from repro.render.tiles import TileGrid, build_intersection_table

from .tile_oracle import tile_pairs_oracle

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
    sorted_lists = sort_intersection_table(table, proj)
    px, px_tiles = _rendered_pixels(grid, pixels)
    n_g = table.tile_counts()
    n_px = np.bincount(px_tiles, minlength=grid.num_tiles)
    return sorted_lists, n_g, n_px, px


def assert_same_pairs(got, want):
    for name, a, b in zip(("pixel", "slot", "gaussian", "alpha", "clipped"),
                          got, want):
        assert a.dtype == b.dtype, name
        assert a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name


@given(scenes())
@settings(max_examples=250, deadline=None)
def test_matches_per_tile_broadcast(scene):
    proj, grid, pixels, tau = scene
    sorted_lists, n_g, n_px, px = stage_inputs(proj, grid, pixels)
    got = _tile_pairs(proj, grid, sorted_lists, n_g, n_px, px, tau)
    want = tile_pairs_oracle(proj, sorted_lists, n_g, n_px, px + 0.5, tau)
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
    sorted_lists, n_g, n_px, px = stage_inputs(proj, grid, None)
    want = tile_pairs_oracle(proj, sorted_lists, n_g, n_px, px + 0.5, tau)
    assert_same_pairs(
        _tile_pairs(proj, grid, sorted_lists, n_g, n_px, px, tau), want)
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
