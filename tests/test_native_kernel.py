"""Building and loading the compiled composite kernel."""

import shutil
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pixel_pipeline import render_sparse
from repro.gaussians import Camera, GaussianCloud, Intrinsics
from repro.render.kernels import native, vectorized

from . import padded_oracle


def test_flags_keep_ieee_semantics():
    assert "-ffp-contract=off" in native.CFLAGS
    for flag in ("-ffast-math", "-Ofast", "-funsafe-math-optimizations"):
        assert flag not in native.CFLAGS


class TestBuildCache:
    @pytest.fixture
    def compiles(self, monkeypatch):
        """Every compile command run (``--version`` probes excluded)."""
        seen = []
        run = native._run

        def recording(cmd):
            if "--version" not in cmd:
                seen.append(cmd)
            return run(cmd)

        monkeypatch.setattr(native, "_run", recording)
        return seen

    def test_second_load_reuses_the_library(self, tmp_path, compiles):
        source = tmp_path / "_native.c"
        shutil.copy(native.SOURCE, source)
        first = native.build(source, tmp_path / "cache")
        assert len(compiles) == 1
        assert native.build(source, tmp_path / "cache") == first
        assert len(compiles) == 1
        lib = native.load(first)
        assert lib.composite_forward and lib.composite_reverse
        assert [p.name for p in (tmp_path / "cache").iterdir()] == [
            first.name]

    def test_edited_source_rebuilds(self, tmp_path, compiles):
        source = tmp_path / "_native.c"
        shutil.copy(native.SOURCE, source)
        first = native.build(source, tmp_path)
        source.write_text(source.read_text() + "\n/* edited */\n")
        second = native.build(source, tmp_path)
        assert second != first and second.exists()
        assert len(compiles) == 2


class TestMissingCompiler:
    MISSING = ["/nonexistent/bin/cc"]

    def test_build_names_the_command(self, tmp_path):
        with pytest.raises(native.KernelBuildError,
                           match="/nonexistent/bin/cc"):
            native.build(native.SOURCE, tmp_path, cc=self.MISSING)

    def test_first_render_raises(self, monkeypatch):
        monkeypatch.setattr(native, "_LIBRARY", None)
        monkeypatch.setattr(native, "compiler", lambda: list(self.MISSING))
        cloud = GaussianCloud.create(means=[[0.0, 0.0, 2.0]], scales=[0.3],
                                     opacities=[0.8], colors=[[0.5] * 3])
        cam = Camera(Intrinsics.from_fov(8, 6, 60.0))
        with pytest.raises(native.KernelBuildError,
                           match="/nonexistent/bin/cc"):
            render_sparse(cloud, cam, np.array([[4, 3]]))


class Proj(SimpleNamespace):
    """The projected-Gaussian fields the composite kernel reads."""

    def __len__(self):
        return self.color.shape[0]


SPECIAL = [0.0, -0.0, 0.25, 0.5, 0.99, -0.5, 1.5, 1e-300, np.inf, -np.inf,
           np.nan]
VALUES = st.one_of(st.sampled_from(SPECIAL), st.floats(-2.0, 2.0))


def special_arrays(draw, shape):
    size = int(np.prod(shape))
    return np.array(draw(st.lists(VALUES, min_size=size,
                                  max_size=size))).reshape(shape)


@st.composite
def flat_scenes(draw):
    """A flat pair list over a few projected Gaussians, with ±0, negative,
    above-one and non-finite values everywhere a value goes."""
    m = draw(st.integers(1, 5))
    lengths = np.array(draw(st.lists(st.integers(0, 4), min_size=1,
                                     max_size=6)))
    if lengths.sum() == 0:
        lengths[0] = 1
    n, k = int(lengths.sum()), lengths.size
    proj = Proj(
        color=special_arrays(draw, (m, 3)), depth=special_arrays(draw, (m,)),
        opacity=special_arrays(draw, (m,)),
        mean2d=special_arrays(draw, (m, 2)),
        sigma2d=special_arrays(draw, (m,)))
    return dict(
        proj=proj,
        gss=np.array(draw(st.lists(st.integers(0, m - 1), min_size=n,
                                   max_size=n))),
        lengths=lengths, centres=special_arrays(draw, (k, 2)),
        background=special_arrays(draw, (3,)),
        alpha=special_arrays(draw, (n,)),
        clipped=np.array(draw(st.lists(st.booleans(), min_size=n,
                                       max_size=n))),
        alpha_threshold=draw(st.sampled_from([0.0, -1.0, 1.0 / 255.0])),
        t_min=draw(st.sampled_from([1e-4, 0.0, -np.inf])),
        grads=[special_arrays(draw, (k, 3)), special_arrays(draw, (k,)),
               special_arrays(draw, (k,))])


class TestPaddedSemantics:
    """The kernel keeps the padded numpy engine's arithmetic bit for bit,
    -0.0 and NaN included: a pixel shorter than the call's longest list
    adds +0.0 to each forward total and starts each reverse suffix scan
    from the padding term (Γ·0)·0."""

    @given(scene=flat_scenes(), pose_only=st.booleans(),
           falloff=st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_matches_padded_oracle(self, scene, pose_only, falloff):
        proj = scene["proj"]
        with np.errstate(all="ignore"):
            fc = padded_oracle.checked_composite(
                proj, scene["gss"], scene["lengths"], scene["centres"],
                scene["background"], scene["alpha"], scene["clipped"],
                scene["alpha_threshold"], scene["t_min"])[3]
            padded_oracle.checked_reverse(fc, proj, *scene["grads"],
                                           pose_only, falloff)

    def test_short_rows_turn_negative_zero_totals_positive(self):
        """Two pixels whose only pairs weigh -0.0: the longest keeps its
        -0.0 depth, the shorter one is padded to +0.0."""
        proj = Proj(color=np.full((1, 3), 0.5), depth=np.array([2.0]),
                    opacity=np.ones(1), mean2d=np.zeros((1, 2)),
                    sigma2d=np.ones(1))
        _, depth, _, _ = vectorized.composite(
            proj, np.zeros(3, dtype=int), np.array([2, 1]), np.zeros((2, 2)),
            np.zeros(3), np.full(3, -0.0), np.zeros(3, dtype=bool), 0.0, 1e-4)
        assert np.signbit(depth[0]) and not np.signbit(depth[1])

    def test_short_rows_start_suffixes_from_the_padding_term(self):
        """Pixel 0 is one pair shorter than pixel 1 and its last pair
        (α = inf) leaves Γ = -inf, so its padding term (Γ·0)·0 is NaN:
        every suffix of the pixel, and the dL/dα of its contributing
        first pair, is NaN although every real term is finite."""
        proj = Proj(color=np.full((2, 3), 0.5), depth=np.ones(2),
                    opacity=np.ones(2), mean2d=np.zeros((2, 2)),
                    sigma2d=np.ones(2))
        with np.errstate(all="ignore"):
            fc = padded_oracle.checked_composite(
                proj, np.array([0, 1, 0, 0, 0]), np.array([2, 3]),
                np.zeros((2, 2)), np.zeros(3),
                np.array([0.5, np.inf, 0.1, 0.1, 0.1]),
                np.zeros(5, dtype=bool), 1.0 / 255.0, 1e-4)[3]
            assert list(fc.contrib[:2]) == [True, False]
            assert fc.gamma_end[0] == -np.inf
            grads = padded_oracle.checked_reverse(
                fc, proj, np.ones((2, 3)), np.ones(2), np.ones(2),
                pose_only=False, falloff=True)
        assert np.isnan(grads["d_alpha"][0])
        assert np.all(np.isfinite(grads["d_alpha"][2:]))


class TestInputChecks:
    """The kernel rejects pair lists it would read out of bounds."""

    PROJ = Proj(color=np.full((2, 3), 0.5), depth=np.ones(2),
                opacity=np.ones(2), mean2d=np.zeros((2, 2)),
                sigma2d=np.ones(2))

    def composite(self, gss, lengths):
        n = len(gss)
        return vectorized.composite(
            self.PROJ, np.array(gss), np.array(lengths), np.zeros((2, 2)),
            np.zeros(3), np.full(n, 0.5), np.zeros(n, dtype=bool), 0.0, 1e-4)

    @pytest.mark.parametrize("gss, lengths", [
        ([0, 2], [1, 1]), ([0, -1], [1, 1]), ([0, 1], [1, 2]),
        ([0, 1], [3, -1]), ([0, 1, 1], [1, 1])])
    def test_bad_pairs_raise(self, gss, lengths):
        with pytest.raises(ValueError):
            self.composite(gss, lengths)

    def test_reverse_checks_the_gradient_shapes(self):
        fc = self.composite([0, 1], [1, 1])[3]
        with pytest.raises(ValueError):
            vectorized.pair_gradients(fc, self.PROJ, np.ones((3, 3)),
                                      np.ones(2), np.ones(2))
