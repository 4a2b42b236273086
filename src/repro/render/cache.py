"""Temporal-coherence render cache: cross-iteration candidate reuse.

The optimizer loops around the sparse pixel pipeline exhibit strong
temporal coherence: mapping iterations hold the camera and the sampled
pixel set fixed while the Gaussian parameters drift by Adam-sized steps,
and tracking iterations hold the cloud fixed while the pose drifts.  Yet
the uncached pipeline re-runs candidate generation — the dominant
pre-compositing cost, a ``K x N`` corner test — from scratch on every
iteration.

:class:`RenderCache` memoizes, per optimization stream, the *dilated
candidate superset*: the (pixel, Gaussian) pairs whose pixel centre falls
inside each active Gaussian's bounding box grown by a safety ``margin``
(in pixels).  Every subsequent iteration is revalidated **exactly**:

1. The full-cloud projection math runs (shared, expression-for-expression,
   with :func:`repro.render.projection.project_gaussians` via
   :func:`projection_arrays` — so the projected values are bit-identical
   to the uncached path by construction).
2. The cache *hits* iff every currently-visible Gaussian (a) was active
   when the superset was built and (b) moved so little that its current
   bbox is still contained in its dilated build-time bbox:
   ``max(|u - u_ref|, |v - v_ref|) <= margin + radius_ref - radius``.
   Containment makes the superset *provably* conservative: any pixel
   centre inside the current bbox is inside the dilated build bbox, hence
   the pair is in the superset.
3. On a hit, re-running the exact corner predicate (identical float
   comparisons to the candidate generators) over the superset yields the
   exact candidate pair set — same pairs, same counters — at
   ``O(|superset|)`` cost instead of ``O(K x N)``; one sort by the
   current depths puts it in the generator's composite order.
4. Any violation triggers a transparent full rebuild inside a
   ``render.cache_rebuild`` tracer span; correctness never depends on the
   margin, only the hit rate does.

Margin policy (the two loop shapes):

- ``mode="mapping"`` — camera and pixels fixed, Gaussian parameters drift
  by Adam steps.  The observed per-iteration 2D motion *is* the projected
  parameter delta; the margin adapts to ``margin_scale * step * horizon``
  of the measured per-iteration maximum (clamped to
  ``[min_margin, max_margin]``), starting from a 1-px prior.
- ``mode="tracking"`` — cloud fixed, pose drifts.  The observed motion is
  the pose-induced pixel flow; same adaptive law, 2-px prior (pose steps
  move the whole frame coherently, so per-step deltas are larger).

Enable with ``SplatonicConfig.render_cache=True``, the CLI
``--render-cache`` flag, or ``REPRO_RENDER_CACHE=1``.
"""

from __future__ import annotations

import os
from typing import Optional, Tuple

import numpy as np

from ..gaussians.camera import Camera
from ..gaussians.model import GaussianCloud
from ..obs import trace
from .kernels.candidates import CandidatePairs, candidate_pairs
from .projection import (
    RADIUS_SIGMA,
    ProjectedGaussians,
    gather_projected,
    projection_arrays,
    projection_keep_mask,
)

__all__ = ["RenderCache", "CacheLookup", "resolve_render_cache", "ENV_VAR"]

#: Environment switch: truthy values enable the cache when no explicit
#: config/CLI choice was made.
ENV_VAR = "REPRO_RENDER_CACHE"

_TRUTHY = ("1", "true", "yes", "on")

#: Initial margin priors (pixels) per optimization-loop shape.
INITIAL_MARGIN = {"tracking": 2.0, "mapping": 1.0}


def resolve_render_cache(flag: Optional[bool] = None) -> bool:
    """Resolve the cache switch: explicit flag > ``$REPRO_RENDER_CACHE`` > off."""
    if flag is not None:
        return bool(flag)
    return os.environ.get(ENV_VAR, "").strip().lower() in _TRUTHY


class CacheLookup:
    """Outcome bookkeeping of one :meth:`RenderCache.project_and_candidates`."""

    __slots__ = ("hit", "rebuilt", "active_gaussians", "margin")

    def __init__(self, hit: bool, rebuilt: bool, active_gaussians: int,
                 margin: float):
        self.hit = hit
        #: True only for *warm* invalidations (a previously valid superset
        #: was discarded); the cold first build is a miss but not a rebuild.
        self.rebuilt = rebuilt
        self.active_gaussians = active_gaussians
        self.margin = margin


class RenderCache:
    """One cache instance serves one optimization stream.

    A stream is a sequence of ``render_sparse`` calls over the same
    sampled-pixel set with smoothly drifting inputs: the tracker creates
    one per frame, the mapper one per window keyframe per invocation.
    The cache is conservative — its output is bit-identical to the
    uncached pipeline regardless of margin; see the module docstring for
    the containment argument.
    """

    def __init__(self, mode: str = "tracking",
                 margin: Optional[float] = None,
                 margin_scale: float = 1.5,
                 horizon: float = 16.0,
                 min_margin: float = 0.5,
                 max_margin: float = 32.0):
        if mode not in INITIAL_MARGIN:
            raise ValueError("mode must be 'tracking' or 'mapping'")
        self.mode = mode
        self.margin = float(margin if margin is not None
                            else INITIAL_MARGIN[mode])
        self.margin_scale = float(margin_scale)
        self.horizon = float(horizon)
        self.min_margin = float(min_margin)
        self.max_margin = float(max_margin)

        self.hits = 0
        self.misses = 0
        self.rebuilds = 0

        self._built = False
        self._n = -1
        self._pixels: Optional[np.ndarray] = None
        self._active: Optional[np.ndarray] = None   # (N,) bool at build
        self._ref_u: Optional[np.ndarray] = None    # (N,) build-time u
        self._ref_v: Optional[np.ndarray] = None
        self._ref_radius: Optional[np.ndarray] = None
        self._sup_pix: Optional[np.ndarray] = None  # (S,) pixel indices
        self._sup_src: Optional[np.ndarray] = None  # (S,) cloud indices
        self._sup_cu: Optional[np.ndarray] = None   # (S,) pixel centres u
        self._sup_cv: Optional[np.ndarray] = None
        self._iters_since_build = 0
        self._max_delta_seen = 0.0
        #: Original pixels object seen at build time — an identity hit
        #: skips the elementwise comparison (optimizer loops pass the
        #: same array object every iteration).
        self._pixels_src: Optional[np.ndarray] = None
        #: Reusable cloud-index -> projected-index scatter buffer.
        self._proj_buf: Optional[np.ndarray] = None

    # ---- public API ----

    def project_and_candidates(
        self, cloud: GaussianCloud, camera: Camera, pixels: np.ndarray,
    ) -> Tuple[ProjectedGaussians, CandidatePairs, CacheLookup]:
        """Projection + exact candidate pairs for one iteration.

        Returns exactly what the uncached pipeline's
        ``project_gaussians`` + ``candidate_pairs`` stage would: the same
        :class:`ProjectedGaussians` and the same candidate pair list in
        the same composite order (pre-α-filter), plus a
        :class:`CacheLookup` describing whether the superset was reused
        or rebuilt.
        """
        intr = camera.intrinsics
        pixels = np.atleast_2d(np.asarray(pixels, dtype=int))

        with trace.span("render.cache_validate", mode=self.mode,
                        margin=self.margin):
            arrays = projection_arrays(cloud, camera)
            p_cam, z, in_depth, u, v, sigma, radius = arrays
            keep = projection_keep_mask(in_depth, u, v, radius,
                                        intr.width, intr.height)
            ok = self._validate(cloud, pixels, keep, u, v, radius)

        rebuilt = (not ok) and self._built
        if not ok:
            with trace.span("render.cache_rebuild", mode=self.mode,
                            warm=rebuilt):
                self._build(pixels, intr, z, in_depth, u, v, radius,
                            warm=rebuilt)

        idx = np.nonzero(keep)[0]
        proj = gather_projected(cloud, idx, p_cam, z, u, v, sigma, radius)
        pairs = self._exact_pairs(keep, idx, u, v, radius, proj.depth,
                                  cloud, pixels.shape[0])
        self._iters_since_build += 1

        if ok:
            self.hits += 1
        else:
            self.misses += 1
            if rebuilt:
                self.rebuilds += 1
        active = int(self._active.sum()) if self._active is not None else 0
        return proj, pairs, CacheLookup(ok, rebuilt, active, self.margin)

    # ---- internals ----

    def _validate(self, cloud: GaussianCloud, pixels: np.ndarray,
                  keep: np.ndarray, u: np.ndarray, v: np.ndarray,
                  radius: np.ndarray) -> bool:
        if (not self._built or len(cloud) != self._n
                or (pixels is not self._pixels_src
                    and (self._pixels.shape != pixels.shape
                         or not np.array_equal(self._pixels, pixels)))):
            return False
        # (a) every currently-visible Gaussian must have been active when
        # the superset was built — an entirely new arrival has no superset
        # entries at all.
        if np.any(keep & ~self._active):
            return False
        # (b) bbox containment: current bbox inside the dilated build bbox.
        # |u - u_ref| <= margin + radius_ref - radius (and same for v);
        # a shrinking radius buys slack, a growing one spends it.
        du = np.abs(u - self._ref_u)
        dv = np.abs(v - self._ref_v)
        slack = self.margin + self._ref_radius - radius
        tracked = keep & self._active
        if np.any(tracked):
            # Observed per-iteration motion feeds the adaptive margin.
            motion = np.maximum(du, dv)[tracked]
            self._max_delta_seen = max(self._max_delta_seen,
                                       float(motion.max()))
        bad = keep & ((du > slack) | (dv > slack))
        return not bool(np.any(bad))

    def _build(self, pixels: np.ndarray, intr, z: np.ndarray,
               in_depth: np.ndarray, u: np.ndarray, v: np.ndarray,
               radius: np.ndarray, warm: bool) -> None:
        if warm:
            # Re-derive the margin from the measured per-iteration motion
            # of the epoch that just ended (including the violating step).
            step = self._max_delta_seen / max(self._iters_since_build, 1)
            self.margin = float(np.clip(
                self.margin_scale * step * self.horizon,
                self.min_margin, self.max_margin))
        margin = self.margin
        # Active set: in-depth with the *margin-dilated* footprint
        # overlapping the image — a superset of every Gaussian that can
        # become visible without violating the motion bound.
        dilated = radius + margin
        active = in_depth & (
            (u + dilated > 0.0) & (u - dilated < intr.width)
            & (v + dilated > 0.0) & (v - dilated < intr.height))
        act_idx = np.nonzero(active)[0]
        au, av, ar = u[act_idx], v[act_idx], dilated[act_idx]
        dil_bbox = np.stack([au - ar, av - ar, au + ar, av + ar], axis=1)
        centres = pixels + 0.5
        sup = candidate_pairs(centres, dil_bbox, z[act_idx])
        self._sup_pix = sup.pix
        self._sup_src = act_idx[sup.gss]
        self._sup_cu = centres[sup.pix, 0]
        self._sup_cv = centres[sup.pix, 1]
        self._active = active
        self._ref_u = u
        self._ref_v = v
        self._ref_radius = radius
        self._pixels = pixels.copy()
        self._pixels_src = pixels
        self._n = in_depth.shape[0]
        self._built = True
        self._iters_since_build = 0
        self._max_delta_seen = 0.0

    def _exact_pairs(self, keep: np.ndarray, idx: np.ndarray,
                     u: np.ndarray, v: np.ndarray, radius: np.ndarray,
                     depth: np.ndarray, cloud: GaussianCloud,
                     K: int) -> CandidatePairs:
        """Filter the superset down to the exact candidate pair list.

        The corner predicate uses the same elementwise expressions as
        :func:`repro.render.kernels.candidates.candidate_pairs` — bbox
        edges are ``u - radius`` / ``u + radius`` of the shared projection
        arrays, pixel centres are ``pixels + 0.5`` — so the surviving
        pairs are bitwise the generator's pair set.  The superset is in
        the build-time depth order; one lexsort on the current projected
        ``depth`` puts the pairs in the generator's composite order
        (pixel-major, front-to-back, ties by projected index).
        """
        src = self._sup_src
        if src.size == 0:
            return CandidatePairs.empty(K)
        lo_u = u - radius
        hi_u = u + radius
        lo_v = v - radius
        hi_v = v + radius
        sel = (keep[src]
               & (self._sup_cu >= lo_u[src]) & (self._sup_cu <= hi_u[src])
               & (self._sup_cv >= lo_v[src]) & (self._sup_cv <= hi_v[src]))
        # Cloud index -> projected index (position within the sorted idx).
        # The buffer persists across iterations; entries outside ``idx``
        # are stale but never read because ``sel`` implies ``keep``.
        if self._proj_buf is None or self._proj_buf.shape[0] != len(cloud):
            self._proj_buf = np.empty(len(cloud), dtype=int)
        self._proj_buf[idx] = np.arange(idx.shape[0])
        pix = self._sup_pix[sel]
        gss = self._proj_buf[src[sel]]
        order = np.lexsort((gss, depth[gss], pix))
        return CandidatePairs(pix[order], gss[order], K)
