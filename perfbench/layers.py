"""Per-layer timing measured from outside the program.

A :class:`Tracer` replaces each public entry point of a layer with a thin
wrapper that times the call, charges the caller for it, and reads the
call's exact counts from the result it returns.  A layer's self time is
the time inside its calls minus the time of the timed calls they make.
Nothing inside ``src/`` is edited: every module that imports a function by
name gets its own patch (``tracker``, ``mapper``, ``core.splatonic``,
``pixel_pipeline`` and ``rasterize`` all do), and the sparse kernel
backends are wrapped by re-registering them through ``register_kernel``.
"""

from __future__ import annotations

import importlib
from collections import Counter, defaultdict
from dataclasses import dataclass, replace
from time import perf_counter
from typing import Callable, Dict, List, Optional

import calibrate
from repro.gaussians.model import GaussianCloud
from repro.obs.health import get_monitor
from repro.render.cache import RenderCache
from repro.render.kernels import (
    available_backends,
    get_kernel,
    register_kernel,
)
from repro.slam.mapper import Mapper
from repro.slam.optim import Adam
from repro.slam.tracker import Tracker

__all__ = ["Site", "Tracer", "TOP_SITES", "UNTRACED_SITES", "ALL_SITES",
           "layer_metrics", "PER_LAYER"]


@dataclass(frozen=True)
class Site:
    """One patched call site: ``owner.attr`` is timed as ``layer``.

    ``owner`` is a dotted module name or a class.  ``before(args)`` runs
    untimed before the call; ``count(counts, args, out, pre)`` runs
    untimed after it and adds exact counts taken from the result.
    ``keep`` records ``(seconds, guard_fired, slowdown)`` for every call,
    where ``guard_fired`` says whether a health alert (the tracker/mapper
    finite guard) was raised during it and ``slowdown`` is the host's
    calibrated slowdown around and inside it (1.0 when the tracer does
    not calibrate).  With calibration on, a ``probe`` site runs one
    calibration unit right before each call, so that the host's speed is
    also sampled inside the long kept calls that make it.
    """

    layer: str
    owner: object
    attr: str
    count: Optional[Callable] = None
    before: Optional[Callable] = None
    keep: bool = False
    probe: bool = False


def _add(**fields):
    """A count hook adding ``layer-suffix -> f(args, out, pre)`` values."""
    def count(counts, args, out, pre):
        for key, fn in fields.items():
            counts[key.replace("__", ".")] += fn(args, out, pre)
    return count


#: The two sites every run carries: per-call wall time of tracking and
#: mapping, and whether the finite guard fired, are end-to-end metrics.
TOP_SITES = (
    Site("slam.tracker", Tracker, "track_frame", keep=True,
         count=_add(
             slam__tracker__iters=lambda a, o, p: o.iterations,
             slam__tracker__converged=lambda a, o, p: int(o.converged))),
    Site("slam.mapper", Mapper, "map_frame", keep=True,
         count=_add(slam__mapper__seeded=lambda a, o, p: o.num_seeded,
                    slam__mapper__pruned=lambda a, o, p: o.num_pruned)),
)

#: What an untraced run wraps: the kept calls, and a probe at every
#: mapping iteration, since one ``map_frame`` call runs for seconds while
#: the host's speed swings within one.
UNTRACED_SITES = TOP_SITES + (
    Site("slam.losses", "repro.slam.mapper", "rgbd_loss", probe=True),
)

_TILE = "render.compositing.tile"
_PIXEL = "render.compositing.pixel"

ALL_SITES = TOP_SITES + (
    Site("slam.mapper", Mapper, "densify"),
    Site("render.rasterize", "repro.core.splatonic", "render_full",
         count=_add(
             render__rasterize__candidate_pairs=(
                 lambda a, o, p: o.stats.num_candidate_pairs),
             render__rasterize__contrib_pairs=(
                 lambda a, o, p: o.stats.num_contrib_pairs))),
    Site("render.tiles", "repro.render.rasterize", "build_intersection_table",
         count=_add(render__tiles__sort_keys=lambda a, o, p: o.num_pairs)),
    Site("render.tiles", "repro.render.rasterize", "sort_intersection_table"),
    Site("render.backward.tile", "repro.slam.tracker", "backward_full",
         count=_add(render__backward__atomic_adds=(
             lambda a, o, p: o.stats.num_atomic_adds))),
    Site("render.backward.tile", "repro.slam.mapper", "backward_full",
         count=_add(render__backward__atomic_adds=(
             lambda a, o, p: o.stats.num_atomic_adds))),
    Site("render.backward.reproject", "repro.render.backward",
         "reproject_gradients"),
    Site("render.backward.reproject", "repro.core.pixel_pipeline",
         "reproject_gradients"),
    Site(_TILE, "repro.render.rasterize", "composite_forward"),
    Site(_TILE, "repro.render.backward", "composite_backward"),
    Site(_PIXEL, "repro.render.kernels.reference", "composite_forward"),
    Site(_PIXEL, "repro.render.kernels.reference", "composite_backward"),
    *(Site("render.projection", module, "project_gaussians",
           count=_add(render__projection__visible=lambda a, o, p: len(o),
                      render__projection__gaussians=lambda a, o, p: len(a[0])))
      for module in ("repro.render.rasterize", "repro.core.pixel_pipeline")),
    Site("core.pixel_pipeline", "repro.core.splatonic", "render_sparse",
         count=_add(
             core__pixel_pipeline__alpha_checks=(
                 lambda a, o, p: o.stats.num_alpha_checks),
             # Pairs that survive the preemptive α filter are exactly the
             # keys pushed to the sorter.
             core__pixel_pipeline__alpha_passed=(
                 lambda a, o, p: o.stats.num_sort_keys))),
    Site("core.pixel_pipeline", "repro.core.splatonic", "backward_sparse"),
    *(Site("render.kernels.candidates", module, "candidate_pairs",
           count=_add(render__kernels__candidates__pairs=(
               lambda a, o, p: o.size)))
      for module in ("repro.core.pixel_pipeline", "repro.render.cache")),
    Site("render.cache", RenderCache, "project_and_candidates",
         count=_add(
             render__cache__hits=lambda a, o, p: int(o[2].hit),
             render__cache__rebuilds=lambda a, o, p: int(o[2].rebuilt))),
    Site("core.sampling", "repro.core.splatonic", "sample_tracking_pixels",
         count=_add(core__sampling__pixels=lambda a, o, p: len(o))),
    Site("core.sampling", "repro.core.splatonic", "sample_mapping_pixels",
         count=_add(core__sampling__pixels=(
             lambda a, o, p: len(o.unseen) + len(o.weighted)))),
    Site("slam.losses", "repro.slam.tracker", "rgbd_loss"),
    # One loss evaluation per mapping iteration that renders.
    Site("slam.losses", "repro.slam.mapper", "rgbd_loss",
         count=_add(slam__mapper__iters=lambda a, o, p: 1)),
    Site("slam.optim", Adam, "step",
         count=_add(slam__optim__params=lambda a, o, p: a[1].size)),
    *(Site("gaussians.model", GaussianCloud, attr)
      for attr in ("pack", "unpack", "extend", "prune")),
)


def _kernel_sites():
    """The resolved backend is looked up by name at every call, so
    re-registering each backend with wrapped entry points covers all of
    them; the backend name stays a label, not part of the metric."""
    fwd = _add(render__kernels__sort_keys=lambda a, o, p: a[1].size)
    # backward(result, proj, d_color, d_depth, d_sil, pg, stats): the
    # kernel adds its scatter count to ``stats``.
    bwd = _add(render__kernels__atomic_adds=(
        lambda a, o, p: a[6].num_atomic_adds - p))
    return [(name,
             Site("render.kernels.fwd", None, "forward", count=fwd),
             Site("render.kernels.bwd", None, "backward", count=bwd,
                  before=lambda a: a[6].num_atomic_adds))
            for name in available_backends()]


class Tracer:
    """Installs timing wrappers on ``sites`` for the length of a ``with``
    block and accumulates self times, call counts and exact counts.

    With ``calibration_s`` > 0, every kept call is bracketed, outside its
    timing, by that many seconds of host-speed calibration before and
    after it, and probe sites run one unit each; a kept call's time
    excludes the probes inside it.  ``calibration_wall_s`` is the time all
    calibration took."""

    def __init__(self, sites=ALL_SITES, kernels: bool = True,
                 calibration_s: float = 0.0):
        self.sites = tuple(sites)
        self.kernels = kernels
        self.calibration_s = calibration_s
        self.calibration_wall_s = 0.0
        self._probe_units: List[float] = []
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.kept: Dict[str, List[tuple]] = defaultdict(list)
        self._stack: List[float] = []
        self._restore: List[Callable] = []

    def _wrap(self, site: Site, fn: Callable) -> Callable:
        stack = self._stack
        self_s, calls, counts, kept = (self.self_s, self.calls, self.counts,
                                       self.kept)

        def timed(*args, **kwargs):
            pre = site.before(args) if site.before is not None else None
            if site.keep:
                alerts = len(get_monitor().alerts)
                units = self._calibrate(self.calibration_s)
                first, cal_start = (len(self._probe_units),
                                    self.calibration_wall_s)
            elif site.probe:
                self._probe_units += self._calibrate(0.0)
            stack.append(0.0)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                self_s[site.layer] += elapsed - stack.pop()
                calls[site.layer] += 1
                if stack:
                    stack[-1] += elapsed
            if site.count is not None:
                site.count(counts, args, out, pre)
            if site.keep:
                probes_s = self.calibration_wall_s - cal_start
                units += (self._probe_units[first:]
                          + self._calibrate(self.calibration_s))
                kept[site.layer].append(
                    (elapsed - probes_s, len(get_monitor().alerts) > alerts,
                     calibrate.slowdown(units) if units else 1.0))
            return out
        timed.__wrapped__ = fn
        return timed

    def _calibrate(self, seconds: float) -> List[float]:
        """``seconds`` of calibration units (at least one), or none when
        the tracer does not calibrate."""
        if not self.calibration_s:
            return []
        start = perf_counter()
        units = calibrate.sample(seconds)
        self.calibration_wall_s += perf_counter() - start
        return units

    def __enter__(self) -> "Tracer":
        for site in self.sites:
            owner = (importlib.import_module(site.owner)
                     if isinstance(site.owner, str) else site.owner)
            original = getattr(owner, site.attr)
            setattr(owner, site.attr, self._wrap(site, original))
            self._restore.append(
                lambda o=owner, a=site.attr, f=original: setattr(o, a, f))
        if self.kernels:
            for name, fwd, bwd in _kernel_sites():
                backend = get_kernel(name)
                register_kernel(replace(
                    backend, forward=self._wrap(fwd, backend.forward),
                    backward=self._wrap(bwd, backend.backward)))
                self._restore.append(lambda b=backend: register_kernel(b))
        return self

    def __exit__(self, *exc) -> None:
        while self._restore:
            self._restore.pop()()


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


#: Per-layer metric name -> (unit, better).
PER_LAYER = {
    "render.rasterize.self_s": ("s", "lower"),
    "render.rasterize.calls": ("count", "lower"),
    "render.rasterize.candidate_pairs": ("count", "lower"),
    "render.rasterize.contrib_ratio": ("ratio", "higher"),
    "render.tiles.self_s": ("s", "lower"),
    "render.tiles.sort_keys": ("count", "lower"),
    "render.backward.tile.self_s": ("s", "lower"),
    "render.backward.reproject.self_s": ("s", "lower"),
    "render.backward.atomic_adds": ("count", "lower"),
    "render.compositing.tile.self_s": ("s", "lower"),
    "render.compositing.pixel.self_s": ("s", "lower"),
    "render.projection.self_s": ("s", "lower"),
    "render.projection.calls": ("count", "lower"),
    "render.projection.visible_ratio": ("ratio", "lower"),
    "core.pixel_pipeline.self_s": ("s", "lower"),
    "core.pixel_pipeline.alpha_checks": ("count", "lower"),
    "core.pixel_pipeline.alpha_pass_ratio": ("ratio", "higher"),
    "render.kernels.candidates.self_s": ("s", "lower"),
    "render.kernels.candidates.pairs": ("count", "lower"),
    "render.kernels.fwd.self_s": ("s", "lower"),
    "render.kernels.bwd.self_s": ("s", "lower"),
    "render.kernels.sort_keys": ("count", "lower"),
    "render.kernels.atomic_adds": ("count", "lower"),
    "render.cache.self_s": ("s", "lower"),
    "render.cache.hit_ratio": ("ratio", "higher"),
    "render.cache.rebuilds": ("count", "lower"),
    "core.sampling.self_s": ("s", "lower"),
    "core.sampling.pixels": ("count", "lower"),
    "slam.losses.self_s": ("s", "lower"),
    "slam.optim.self_s": ("s", "lower"),
    "slam.optim.params": ("count", "lower"),
    "gaussians.model.self_s": ("s", "lower"),
    "gaussians.model.final_size": ("count", "lower"),
    "slam.tracker.self_s": ("s", "lower"),
    "slam.tracker.iters": ("count", "lower"),
    "slam.tracker.converged_ratio": ("ratio", "higher"),
    "slam.mapper.self_s": ("s", "lower"),
    "slam.mapper.iters": ("count", "lower"),
    "slam.mapper.seeded": ("count", "lower"),
    "slam.mapper.pruned": ("count", "lower"),
    "glue.self_s": ("s", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}


def layer_metrics(tracer: Tracer, loop_wall_s: float, untraced_wall_s: float,
                  final_size: int) -> Dict[str, float]:
    """Every :data:`PER_LAYER` value of one traced run.

    ``loop_wall_s`` is the traced run's loop wall time; whatever no layer
    accounts for is ``glue.self_s`` (the loop's own Python between
    layers).
    """
    s, n, c = tracer.self_s, tracer.calls, tracer.counts
    out = {
        "render.rasterize.calls": n["render.rasterize"],
        "render.rasterize.contrib_ratio": _ratio(
            c["render.rasterize.contrib_pairs"],
            c["render.rasterize.candidate_pairs"]),
        "render.projection.calls": n["render.projection"],
        "render.projection.visible_ratio": _ratio(
            c["render.projection.visible"], c["render.projection.gaussians"]),
        "core.pixel_pipeline.alpha_pass_ratio": _ratio(
            c["core.pixel_pipeline.alpha_passed"],
            c["core.pixel_pipeline.alpha_checks"]),
        "render.cache.hit_ratio": _ratio(c["render.cache.hits"],
                                         n["render.cache"]),
        "gaussians.model.final_size": final_size,
        "slam.tracker.converged_ratio": _ratio(c["slam.tracker.converged"],
                                               n["slam.tracker"]),
        "glue.self_s": loop_wall_s - sum(s.values()),
        "trace.overhead_ratio": _ratio(loop_wall_s, untraced_wall_s),
    }
    for name in PER_LAYER:
        if name in out:
            continue
        if name.endswith(".self_s"):
            out[name] = s[name[:-len(".self_s")]]
        else:
            # Every other metric is a count the sites add up as it is.
            out[name] = c[name]
    return out
