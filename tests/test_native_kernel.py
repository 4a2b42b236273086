"""Building and loading the compiled composite kernel."""

import os
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pixel_pipeline import render_sparse
from repro.gaussians import Camera, GaussianCloud, Intrinsics
from repro.render.backward import ProjectedGradients
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
        assert (lib.tile_cull and lib.composite_forward
                and lib.composite_reverse)
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


#: Runs pytest with the process's kernel loaded from argv[1]; exits 77
#: when that library cannot be loaded.
_RUN_WITH_LIBRARY = """
import sys
from pathlib import Path

import pytest

from repro.render.kernels import native

try:
    native._LIBRARY = native.load(Path(sys.argv[1]))
except native.KernelBuildError as exc:
    print(exc)
    sys.exit(77)
sys.exit(pytest.main(sys.argv[2:]))
"""


def test_edge_scenes_under_ubsan(tmp_path):
    """The kernel built with UBSan, every finding fatal, runs the render
    edge-case and α-cull suites: dense, sparse and anisotropic renders
    and backwards on empty, degenerate, NaN and off-screen scenes, and
    the tile cull's band edges."""
    try:
        library = native.build(native.SOURCE, tmp_path, cc=native.compiler()
                               + ["-fsanitize=undefined",
                                  "-fno-sanitize-recover=all"])
    except native.KernelBuildError as exc:
        pytest.skip(f"UBSan does not build here: {exc}")
    here = Path(__file__).parent
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
    done = subprocess.run(
        # --capture=sys leaves fd 2 to UBSan's report.
        [sys.executable, "-c", _RUN_WITH_LIBRARY, str(library), "-q",
         "--capture=sys", "-p", "no:cacheprovider",
         str(here / "test_render_edge_cases.py"),
         str(here / "test_alpha_culling.py")],
        capture_output=True, text=True, cwd=tmp_path, env=env)
    if done.returncode == 77:
        pytest.skip(f"UBSan does not load here: {done.stdout.strip()}")
    assert done.returncode == 0, done.stdout[-4000:] + done.stderr[-4000:]


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
        """The per-pair reverse pass, or, with the falloff, the aggregating
        one as the sparse backward runs it: into fresh per-Gaussian
        accumulators."""
        proj = scene["proj"]
        with np.errstate(all="ignore"):
            fc = padded_oracle.checked_composite(
                proj, scene["gss"], scene["lengths"], scene["centres"],
                scene["background"], scene["alpha"], scene["clipped"],
                scene["alpha_threshold"], scene["t_min"])[3]
            if falloff:
                padded_oracle.checked_aggregate(
                    fc, proj, *scene["grads"], fc.gss,
                    ProjectedGradients.zeros(len(proj)), pose_only)
            else:
                padded_oracle.checked_reverse(fc, proj, *scene["grads"],
                                               pose_only)

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
                pose_only=False)
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
            vectorized.alpha_gradients(fc, self.PROJ, np.ones((3, 3)),
                                       np.ones(2), np.ones(2))
        with pytest.raises(ValueError):
            vectorized.aggregate_gradients(
                fc, self.PROJ, np.ones((3, 3)), np.ones(2), np.ones(2),
                fc.gss, ProjectedGradients.zeros(2))

    @pytest.mark.parametrize("bad", [2, -1, 1 << 40])
    def test_out_of_range_accumulator_index_writes_nothing(self, bad):
        """The kernel rejects the index before it adds anything: the
        accumulators and the guard rows around them keep their bits."""
        fc = self.composite([0, 1, 1], [2, 1])[3]
        guarded = guarded_accumulators(2, fill=0.25)
        before = {name: a.copy() for name, a in vars(guarded).items()}
        acc = ProjectedGradients(**{name: a[1:-1]
                                    for name, a in vars(guarded).items()})
        with pytest.raises(ValueError):
            vectorized.aggregate_gradients(
                fc, self.PROJ, np.ones((2, 3)), np.ones(2), np.ones(2),
                np.array([0, bad, 1]), acc)
        for name, a in vars(guarded).items():
            assert a.tobytes() == before[name].tobytes(), name

    def test_accumulators_must_be_writeable_float64_rows(self):
        fc = self.composite([0, 1], [1, 1])[3]
        for name, bad in [("d_opacity", np.zeros(3)),
                          ("d_color", np.zeros((2, 3), dtype=np.float32)),
                          ("d_mean2d", np.zeros((2, 2), order="F")),
                          ("d_depth", np.zeros(4)[::2])]:
            acc = ProjectedGradients.zeros(2)
            setattr(acc, name, bad)
            with pytest.raises(ValueError, match=name):
                vectorized.aggregate_gradients(
                    fc, self.PROJ, np.ones((2, 3)), np.ones(2), np.ones(2),
                    fc.gss, acc)


def guarded_accumulators(n, fill):
    """Accumulator arrays of ``n + 2`` rows; rows 1..n are the
    accumulators, the first and last guard them."""
    return ProjectedGradients(
        d_mean2d=np.full((n + 2, 2), fill), d_sigma2d=np.full(n + 2, fill),
        d_opacity=np.full(n + 2, fill), d_color=np.full((n + 2, 3), fill),
        d_depth=np.full(n + 2, fill))


class TestAggregatingReverse:
    """The aggregating reverse pass adds each pair's isotropic-falloff
    partials onto its accumulator in pair order: an ``np.add.at`` of the
    padded oracle's per-pair partials, whatever the accumulators held and
    however often an index repeats within a pixel."""

    @given(scene=flat_scenes(), pose_only=st.booleans(), data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_add_at_of_padded_partials(self, scene, pose_only, data):
        proj = scene["proj"]
        n = data.draw(st.integers(1, 4))
        P = scene["gss"].size
        index = np.array(data.draw(st.lists(st.integers(0, n - 1),
                                            min_size=P, max_size=P)))
        acc = ProjectedGradients(
            d_mean2d=special_arrays(data.draw, (n, 2)),
            d_sigma2d=special_arrays(data.draw, (n,)),
            d_opacity=special_arrays(data.draw, (n,)),
            d_color=special_arrays(data.draw, (n, 3)),
            d_depth=special_arrays(data.draw, (n,)))
        with np.errstate(all="ignore"):
            fc = vectorized.composite(
                proj, scene["gss"], scene["lengths"], scene["centres"],
                scene["background"], scene["alpha"], scene["clipped"],
                scene["alpha_threshold"], scene["t_min"])[3]
            padded_oracle.checked_aggregate(fc, proj, *scene["grads"], index,
                                            acc, pose_only)

    @pytest.mark.parametrize("pose_only", [False, True])
    def test_short_rows_and_negative_zeros(self, pose_only):
        """Pixel 1 is one pair shorter than pixel 0 (its suffix scans start
        from the padding term) and every α is -0.0, so every partial is
        -0.0: added in pair order, they keep each accumulator's sign."""
        proj = Proj(color=np.full((2, 3), 0.5), depth=np.full(2, 2.0),
                    opacity=np.ones(2), mean2d=np.zeros((2, 2)),
                    sigma2d=np.ones(2))
        fc = vectorized.composite(
            proj, np.array([0, 1, 0]), np.array([2, 1]),
            np.full((2, 2), 0.5), np.zeros(3), np.full(3, -0.0),
            np.zeros(3, dtype=bool), 0.0, 1e-4)[3]
        acc = guarded_accumulators(2, fill=-0.0)
        acc.d_depth[2] = acc.d_sigma2d[2] = 0.0
        padded_oracle.checked_aggregate(
            fc, proj, np.ones((2, 3)), np.ones(2), -np.ones(2),
            np.array([1, 2, 1]), acc, pose_only)
        for a in (acc.d_depth, acc.d_sigma2d):
            assert np.all(a == 0.0)
            assert np.signbit(a).tolist() == [True, True, False, True]

    @pytest.mark.parametrize("pose_only", [False, True])
    def test_nan_padding_term_reaches_the_accumulators(self, pose_only):
        """The padding-term case of :class:`TestPaddedSemantics`: pixel 0's
        suffixes are NaN, so its contributing pair's partials are, and
        NaN lands in that pair's accumulator and nowhere else."""
        proj = Proj(color=np.full((2, 3), 0.5), depth=np.ones(2),
                    opacity=np.ones(2), mean2d=np.zeros((2, 2)),
                    sigma2d=np.ones(2))
        with np.errstate(all="ignore"):
            fc = vectorized.composite(
                proj, np.array([0, 1, 0, 0, 0]), np.array([2, 3]),
                np.ones((2, 2)), np.zeros(3),
                np.array([0.5, np.inf, 0.1, 0.1, 0.1]),
                np.zeros(5, dtype=bool), 1.0 / 255.0, 1e-4)[3]
            acc = ProjectedGradients.zeros(4)
            padded_oracle.checked_aggregate(
                fc, proj, np.ones((2, 3)), np.ones(2), np.ones(2),
                np.array([0, 1, 2, 2, 3]), acc, pose_only)
        assert np.isnan(acc.d_mean2d[0]).all()
        assert np.isnan(acc.d_sigma2d[0])
        assert np.isfinite(acc.d_mean2d[2:]).all()
