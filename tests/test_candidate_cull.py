"""The compiled sparse candidate generator and α-cull against its numpy
oracle (``tests/candidate_oracle.py``).

``candidate_pairs`` must return exactly the oracle's pairs, in its order,
the same per-pixel counts, the same bbox-candidate count and the same
``d2`` bits, whatever the means, radii and cutoffs hold: ties in depth,
pixel centres on bbox edges, NaN and ±inf, empty inputs and mapping-sized
calls.
"""

import ctypes

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.render.kernels import native
from repro.render.kernels.candidates import candidate_pairs

from . import candidate_oracle
from .padded_oracle import same_bits

W, H = 48, 36


def assert_matches_oracle(centres, mean2d, radius, depth, cutoff=None):
    """The compiled generator against the oracle, which is given the boxes
    ``mean2d ± radius`` as numpy forms them."""
    got = candidate_pairs(centres, mean2d, radius, depth, cutoff)
    r = np.asarray(radius, float)[:, None]
    with np.errstate(invalid="ignore"):
        bbox = np.concatenate([mean2d - r, mean2d + r], axis=1)
    pix, gss, lengths, n_cand, d2 = candidate_oracle.candidate_pairs(
        centres, bbox, depth, mean2d, cutoff)
    assert np.array_equal(got.pix, pix)
    assert np.array_equal(got.gss, gss)
    assert np.array_equal(got.lengths, lengths)
    assert got.num_pixels == np.asarray(centres).reshape(-1, 2).shape[0]
    assert got.num_candidates == n_cand
    assert (got.d2 is None) == (d2 is None)
    if d2 is not None:
        assert same_bits(got.d2, d2)
    return got


def scene(rng, k, m, depth_levels=40):
    """Pixel centres, and means and radii on the half-pixel grid, so that
    centres land exactly on the inclusive bbox edges."""
    centres = np.stack([rng.integers(0, W, k), rng.integers(0, H, k)],
                       axis=-1) + 0.5
    mean2d = rng.integers(-3, [W + 3, H + 3], (m, 2)) + rng.choice(
        [0.0, 0.5], (m, 2))
    radius = rng.integers(0, 7, m) + rng.choice([0.0, 0.5], m)
    cutoff = rng.uniform(0.0, 40.0, m)
    depth = rng.integers(0, depth_levels, m) + 1.0
    return centres, mean2d, radius, depth, cutoff


SPECIAL = [np.nan, np.inf, -np.inf, 0.0, -0.0]


class TestAgainstOracle:
    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(0, 24),
           m=st.integers(0, 40), depth_levels=st.integers(1, 40),
           culls=st.booleans(), specials=st.integers(0, 6))
    @settings(max_examples=300, deadline=None)
    def test_random_scenes(self, seed, k, m, depth_levels, culls, specials):
        """Random clouds, with a few mean, radius and cutoff entries set to
        NaN, ±inf or ±0."""
        rng = np.random.default_rng(seed)
        centres, mean2d, radius, depth, cutoff = scene(rng, k, m,
                                                       depth_levels)
        if m:
            for array in (mean2d, radius, cutoff):
                flat = array.reshape(-1)
                at = rng.integers(0, flat.size, specials)
                flat[at] = rng.choice(SPECIAL, at.size)
        assert_matches_oracle(centres, mean2d, radius, depth,
                              cutoff if culls else None)

    def test_equal_depths_tie_by_index(self):
        rng = np.random.default_rng(1)
        centres, mean2d, radius, _, cutoff = scene(rng, 20, 30)
        depth = np.full(30, 2.0)
        got = assert_matches_oracle(centres, mean2d, radius, depth, cutoff)
        assert got.size > 0
        for k in range(20):
            row = got.gss[got.pix == k]
            assert np.all(np.diff(row) > 0)

    @given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 300),
           levels=st.integers(1, 8))
    @settings(max_examples=100, deadline=None)
    def test_depth_rank_is_the_stable_argsort(self, seed, m, levels):
        """The kernel ranks the depths itself, in np.argsort(kind=
        "stable")'s order: NaN last, ties (-0.0 and 0.0 among them) by
        ascending index, over run lengths that are not powers of two."""
        rng = np.random.default_rng(seed)
        values = np.array([np.nan, np.inf, -np.inf, 0.0, -0.0, 1.0, 2.5,
                           -3.0])[:levels]
        depth = rng.choice(values, m)
        centres = np.array([[4.5, 4.5], [6.5, 3.5]])
        mean2d = np.full((m, 2), 5.0)
        radius = np.full(m, 3.0)
        got = assert_matches_oracle(centres, mean2d, radius, depth)
        rank = np.argsort(depth, kind="stable")
        for k in range(2):
            assert np.array_equal(got.gss[got.pix == k], rank)

    def test_pixels_on_bbox_edges(self):
        """Every bbox edge on a pixel centre: the predicate is inclusive."""
        centres = np.array([[2.5, 3.5], [4.5, 3.5], [2.5, 5.5], [4.5, 5.5],
                            [5.5, 3.5], [2.5, 6.5]])
        got = assert_matches_oracle(centres, np.array([[3.5, 4.5]]),
                                    np.ones(1), np.ones(1))
        assert got.lengths.tolist() == [1, 1, 1, 1, 0, 0]

    def test_cutoff_is_inclusive(self):
        """A pair exactly at its cutoff is kept; one ulp inside is not."""
        centres = np.array([[5.5, 3.5], [3.5, 6.5]])
        mean2d = np.array([[3.5, 3.5]])
        for cut, kept in ((4.0, [1, 0]), (9.0, [1, 1]),
                          (np.nextafter(4.0, 0.0), [0, 0])):
            got = assert_matches_oracle(centres, mean2d, np.full(1, 4.0),
                                        np.ones(1), np.array([cut]))
            assert got.lengths.tolist() == kept

    @pytest.mark.parametrize("where", ["radius", "mean", "cutoff"])
    def test_nan_keeps_nothing(self, where):
        centres = np.array([[3.5, 3.5]])
        mean2d, radius = np.array([[3.0, 3.0]]), np.array([4.0])
        cutoff = np.array([10.0])
        {"radius": radius, "mean": mean2d, "cutoff": cutoff}[where][0, ...] \
            = np.nan
        got = assert_matches_oracle(centres, mean2d, radius, np.ones(1),
                                    cutoff)
        assert got.size == 0
        assert got.num_candidates == (1 if where == "cutoff" else 0)

    def test_infinite_cutoffs(self):
        """+inf keeps every bbox candidate (the exact candidate set), -inf
        keeps none; the candidate count is the same."""
        rng = np.random.default_rng(2)
        centres, mean2d, radius, depth, _ = scene(rng, 24, 40)
        plain = assert_matches_oracle(centres, mean2d, radius, depth)
        keep_all = assert_matches_oracle(centres, mean2d, radius, depth,
                                         np.full(40, np.inf))
        none = assert_matches_oracle(centres, mean2d, radius, depth,
                                     np.full(40, -np.inf))
        assert np.array_equal(keep_all.pix, plain.pix)
        assert np.array_equal(keep_all.gss, plain.gss)
        assert plain.d2 is None and plain.size > 0
        assert none.size == 0
        assert (none.num_candidates == keep_all.num_candidates
                == plain.num_candidates == plain.size)

    @pytest.mark.parametrize("k, m", [(0, 10), (10, 0), (0, 0)])
    def test_empty(self, k, m):
        rng = np.random.default_rng(3)
        centres, mean2d, radius, depth, cutoff = scene(rng, k, m)
        got = assert_matches_oracle(centres, mean2d, radius, depth, cutoff)
        assert got.size == 0 and got.lengths.shape == (k,)

    def test_mapping_sized_call(self):
        """K = 192 pixels against m = 2,000 Gaussians."""
        rng = np.random.default_rng(5)
        k, m = 192, 2000
        centres = np.stack([rng.integers(0, 64, k), rng.integers(0, 48, k)],
                           axis=-1) + 0.5
        mean2d = rng.uniform(-4, [68, 52], (m, 2))
        radius = rng.uniform(0.5, 6.0, m)
        cutoff = rng.uniform(0.0, 30.0, m)
        depth = rng.uniform(1.0, 5.0, m)
        got = assert_matches_oracle(centres, mean2d, radius, depth, cutoff)
        assert 0 < got.size < got.num_candidates


class TestRawKernel:
    """The entry points themselves reject inputs they would read or write
    out of bounds with."""

    CENTRES = np.array([[0.5, 0.5], [1.5, 1.5]])
    MEAN2D = np.full((3, 2), 2.0)
    RADIUS = np.full(3, 2.0)

    DEPTH = np.array([3.0, 1.0, 2.0])

    @pytest.mark.parametrize("missing", ["depth", "mean2d", "radius",
                                         "lengths"])
    def test_missing_array_returns_minus_one(self, missing):
        lib = native.library()
        lengths = np.full(2, -7, dtype=np.int64)
        args = {"depth": self.DEPTH.ctypes.data,
                "mean2d": self.MEAN2D.ctypes.data,
                "radius": self.RADIUS.ctypes.data,
                "lengths": lengths.ctypes.data}
        args[missing] = None
        n_cand, scratch = ctypes.c_int64(-7), ctypes.c_void_p()
        assert lib.candidate_cull(
            2, 3, self.CENTRES.ctypes.data, args["depth"], args["mean2d"],
            args["radius"], None, args["lengths"], ctypes.byref(n_cand),
            ctypes.byref(scratch)) == -1
        assert scratch.value is None
        assert lengths.tolist() == [-7, -7] and n_cand.value == -7

    @pytest.mark.parametrize("lengths", [[2, 4], [4, 2], [3, 2], [3, 4],
                                         [-1, 7]])
    def test_placing_with_wrong_counts_stays_in_bounds(self, lengths):
        """The cull keeps 3 pairs of each of 2 pixels; laid out with
        counts that do not match them, no pair lands outside its pixel's
        list or the outputs, which are guarded on both sides."""
        lib = native.library()
        kept = np.zeros(2, dtype=np.int64)
        n_cand, scratch = ctypes.c_int64(), ctypes.c_void_p()
        assert lib.candidate_cull(
            2, 3, self.CENTRES.ctypes.data, self.DEPTH.ctypes.data,
            self.MEAN2D.ctypes.data, self.RADIUS.ctypes.data, None,
            kept.ctypes.data, ctypes.byref(n_cand),
            ctypes.byref(scratch)) == 6
        assert kept.tolist() == [3, 3] and n_cand.value == 6
        lengths = np.array(lengths, dtype=np.int64)
        pix = np.full(8, -7, dtype=np.int64)
        gss = np.full(8, -7, dtype=np.int64)
        assert lib.candidate_place(scratch, 2, lengths.ctypes.data, 6,
                                   pix[1:7].ctypes.data,
                                   gss[1:7].ctypes.data, None) == -1
        assert pix[0] == pix[7] == gss[0] == gss[7] == -7
        if lengths[0] >= 0:
            assert set(pix[1:1 + lengths[0]].tolist()) <= {0, -7}
