"""Sparsity atlas: per-frame spatial work heatmaps of the SLAM pipelines.

SPLATONIC's thesis is that 3DGS SLAM work is *spatially sparse* — sparse
pixel lattices, preemptive α-rejection, uneven tile occupancy — but scalar
counters cannot show *where* in the image the work concentrates.  The atlas
closes that gap: while a SLAM run executes, both kernel backends (and the
dense tile pipeline) report their per-pixel work to a module-level
:class:`AtlasCollector`, which bins it into a fixed tile grid per frame and
streams the grids — together with the per-stage workload counters and the
modeled accelerator cycles/DRAM bytes for the same frame — into a
schema-versioned, gzip-compressed JSONL artifact.

Channels (one ``tiles_y x tiles_x`` integer grid per frame):

``sampled``     rendered pixels per tile (the sparse sampling mask)
``candidates``  pixel-Gaussian pairs submitted to α-checking
``contribs``    pairs that passed α-checking and were integrated
``gaussians``   distinct (tile, Gaussian) incidences — the per-tile
                Gaussian-list skew that drives redundant sorting
``atomics``     backward-pass gradient accumulations (aggregation traffic)

Determinism: observations are integer counts of the exact same pair sets
whose totals feed :class:`~repro.render.stats.PipelineStats`, records are
serialized key-sorted, and the gzip stream is written with ``mtime=0`` —
so the artifact is bit-identical across kernel backends and across runs.

Overhead discipline: every hot-path hook is gated on the plain attribute
``atlas.active``, which is only ``True`` between :meth:`begin_frame` and
:meth:`end_frame` of an *enabled* collector — a disabled atlas costs one
attribute load per render call.  The ``obs_overhead`` bench scenario and
the regress budget gate keep it that way.
"""

from __future__ import annotations

import gzip
import io
import json
import math
from contextlib import contextmanager
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .flight import to_plain

__all__ = [
    "ATLAS_SCHEMA_VERSION", "CHANNELS", "DEFAULT_ATLAS_TILE",
    "AtlasCollector", "AtlasLog", "atlas", "use_collector", "set_stage",
    "read_atlas", "format_heatmap", "heatmap_html",
]

ATLAS_SCHEMA_VERSION = 1

#: Spatial channels collected per frame, in serialization order.
CHANNELS = ("sampled", "candidates", "contribs", "gaussians", "atomics")

#: Default binning tile (pixels per atlas cell side).
DEFAULT_ATLAS_TILE = 8


class AtlasCollector:
    """Collects per-frame spatial work grids and writes the atlas artifact.

    Lifecycle mirrors the flight recorder: :meth:`enable` (optionally with
    an output path), :meth:`begin_run` header, then per SLAM frame
    :meth:`begin_frame` ... observations ... :meth:`end_frame`, and finally
    :meth:`disable`, which writes the artifact if a path was given.  The
    :func:`record_to` context manager bundles the lifecycle for tests.
    """

    def __init__(self, tile: int = DEFAULT_ATLAS_TILE):
        self._enabled = False
        self._tile = int(tile)
        self._path: Optional[str] = None
        self._records: List[dict] = []
        self._frame: Optional[dict] = None
        self._stage = "other"
        #: Hot-path gate — plain attribute, True only inside an open frame.
        self.active = False

    # ---- lifecycle ----

    @property
    def enabled(self) -> bool:
        return self._enabled

    @property
    def tile(self) -> int:
        return self._tile

    @property
    def records(self) -> List[dict]:
        """The collected records (header + frames), JSON-plain."""
        return self._records

    def enable(self, path: Optional[str] = None,
               tile: Optional[int] = None, reset: bool = True) -> None:
        """Start collecting; ``path`` (if given) is written on disable."""
        if reset:
            self.reset()
        if tile is not None:
            self._tile = int(tile)
        self._path = str(path) if path is not None else None
        self._enabled = True

    def disable(self) -> Optional[str]:
        """Stop collecting; flush to the enable-time path, if any."""
        path = self._path
        if self._enabled and path is not None and self._records:
            self.write(path)
        self._enabled = False
        self._frame = None
        self.active = False
        self._stage = "other"
        return path

    def reset(self) -> None:
        self._records = []
        self._frame = None
        self.active = False
        self._stage = "other"

    @contextmanager
    def record_to(self, path: Optional[str] = None,
                  tile: Optional[int] = None):
        """Enable for the duration of the block, then disable (and write)."""
        was = self._enabled
        self.enable(path=path, tile=tile)
        try:
            yield self
        finally:
            self.disable()
            self._enabled = was

    # ---- run / frame structure ----

    def begin_run(self, **meta) -> None:
        """Emit the artifact header.

        ``meta`` must not contain anything machine- or backend-specific:
        the artifact is required to be bit-identical across kernel
        backends (and the parity tests enforce it).
        """
        if not self._enabled:
            return
        self._records.append(to_plain({
            "type": "header",
            "schema_version": ATLAS_SCHEMA_VERSION,
            "tile": self._tile,
            "channels": list(CHANNELS),
            "meta": dict(meta),
        }))

    def begin_frame(self, frame: int, width: int, height: int) -> None:
        """Open the per-frame grids; a no-op when the collector is off."""
        if not self._enabled:
            return
        t = self._tile
        tiles_x = max(1, math.ceil(width / t))
        tiles_y = max(1, math.ceil(height / t))
        self._frame = {
            "frame": int(frame),
            "tiles_x": tiles_x,
            "tiles_y": tiles_y,
            "channels": {name: np.zeros(tiles_y * tiles_x, dtype=np.int64)
                         for name in CHANNELS},
            "observed": {},
        }
        self._stage = "other"
        self.active = True

    def set_stage(self, name: str) -> None:
        """Attribute subsequent observations to a pipeline stage."""
        if self.active:
            self._stage = name

    @contextmanager
    def stage(self, name: str):
        """Scoped :meth:`set_stage` (restores the previous label)."""
        prev = self._stage
        self.set_stage(name)
        try:
            yield self
        finally:
            if self.active:
                self._stage = prev

    def end_frame(self, stage_stats: Optional[dict] = None) -> None:
        """Close the frame and append its record.

        ``stage_stats`` maps a stage name to its per-frame
        ``(forward_stats, backward_stats)`` :class:`PipelineStats` pair;
        when given, the record also carries the stage counter dicts and
        the modeled accelerator cycles / DRAM bytes for the same frame
        (via :meth:`SplatonicAccelerator.stage_model` with
        ``assume_pixel=True`` — per-frame SLAM stats are labeled with the
        run mode, not the pipeline the model maps them onto).
        """
        if not self.active:
            return
        fr = self._frame
        ty, tx = fr["tiles_y"], fr["tiles_x"]
        rec = {
            "type": "frame",
            "frame": fr["frame"],
            "grid": [ty, tx],
            "tile": self._tile,
            "channels": {name: grid.reshape(ty, tx).tolist()
                         for name, grid in fr["channels"].items()},
            "observed": fr["observed"],
        }
        if stage_stats:
            stages = {}
            model = {}
            for name in sorted(stage_stats):
                fwd, bwd = stage_stats[name]
                stages[name] = {
                    "fwd": fwd.as_dict(),
                    "bwd": bwd.as_dict() if bwd is not None else None,
                }
                model[name] = self._model_stage(name, fwd, bwd)
            rec["stages"] = stages
            rec["model"] = model
        self._records.append(to_plain(rec))
        self._frame = None
        self.active = False
        self._stage = "other"

    def _model_stage(self, name, fwd, bwd) -> dict:
        """Modeled cycles + DRAM bytes for one stage's frame counters."""
        from ..hw.splatonic_accel import SplatonicAccelerator
        from ..hw.workload import Workload
        from ..render.stats import PipelineStats

        if bwd is None:
            bwd = PipelineStats(pipeline=fwd.pipeline)
        wl = Workload(name=name, fwd=fwd, bwd=bwd)
        sm = SplatonicAccelerator().stage_model(wl, assume_pixel=True)
        out = {
            "fwd_cycles": float(sm.forward.total),
            "bwd_cycles": float(sm.backward.total),
            "fwd_dram_bytes": float(sm.forward_dram_bytes),
            "bwd_dram_bytes": float(sm.backward_dram_bytes),
        }
        # When the per-pixel replay stream is recorded, also replay the
        # aggregation fetch pattern through the bank/row DRAM model.
        if bwd is not None and bwd.pixel_contrib_ids:
            from ..hw.dram import DramModel

            ids = np.concatenate(
                [np.asarray(p, dtype=int).ravel()
                 for p in bwd.pixel_contrib_ids]) \
                if bwd.pixel_contrib_ids else np.zeros(0, dtype=int)
            if ids.size:
                tally = DramModel().replay_gaussian_fetches(ids)
                out["dram_row_hit_rate"] = float(tally.hit_rate)
        return out

    # ---- observations (hot path; callers gate on ``atlas.active``) ----

    def _tile_ids(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        fr = self._frame
        t = self._tile
        tu = np.minimum(u // t, fr["tiles_x"] - 1)
        tv = np.minimum(v // t, fr["tiles_y"] - 1)
        return (tv * fr["tiles_x"] + tu).astype(np.int64)

    def _observed(self, stage: str) -> dict:
        obs = self._frame["observed"]
        if stage not in obs:
            obs[stage] = {name: 0 for name in CHANNELS}
        return obs[stage]

    def observe_sparse_forward(self, pixels: np.ndarray,
                               pair_pix: np.ndarray,
                               pair_gss: np.ndarray,
                               contribs: np.ndarray) -> None:
        """One pixel-pipeline forward pass.

        ``pixels`` are the rendered ``(K, 2)`` integer coordinates,
        ``pair_pix``/``pair_gss`` the candidate pairs *before* preemptive
        α-filtering (so per-tile pass rates match ``alpha_pass_rate``),
        and ``contribs`` the per-pixel α-passing pair counts.
        """
        if not self.active:
            return
        px = np.atleast_2d(np.asarray(pixels, dtype=int))
        k = px.shape[0]
        ch = self._frame["channels"]
        obs = self._observed(self._stage)
        if k == 0:
            return
        tid = self._tile_ids(px[:, 0], px[:, 1])
        np.add.at(ch["sampled"], tid, 1)
        obs["sampled"] += k
        contribs = np.asarray(contribs, dtype=np.int64)
        if contribs.size:
            np.add.at(ch["contribs"], tid, contribs)
            obs["contribs"] += int(contribs.sum())
        if pair_pix is not None and np.asarray(pair_pix).size:
            pair_pix = np.asarray(pair_pix, dtype=np.int64)
            pair_gss = np.asarray(pair_gss, dtype=np.int64)
            per_pix = np.bincount(pair_pix, minlength=k)
            np.add.at(ch["candidates"], tid, per_pix)
            obs["candidates"] += int(pair_pix.size)
            # Distinct (atlas tile, Gaussian) incidences: the per-tile
            # Gaussian-list length a tile pipeline would have to sort.
            span = int(pair_gss.max()) + 1
            keys = np.unique(tid[pair_pix] * np.int64(span) + pair_gss)
            tiles = keys // span
            np.add.at(ch["gaussians"], tiles, 1)
            obs["gaussians"] += int(keys.size)

    def observe_sparse_backward(self, pixels: np.ndarray,
                                touched: np.ndarray) -> None:
        """One pixel-pipeline backward pass; ``touched`` is per pixel."""
        if not self.active:
            return
        px = np.atleast_2d(np.asarray(pixels, dtype=int))
        if px.shape[0] == 0:
            return
        touched = np.asarray(touched, dtype=np.int64)
        tid = self._tile_ids(px[:, 0], px[:, 1])
        np.add.at(self._frame["channels"]["atomics"], tid, touched)
        self._observed(self._stage)["atomics"] += int(touched.sum())

    def observe_tile_forward(self, px: np.ndarray, tiles: np.ndarray,
                             list_lengths: np.ndarray,
                             contribs: np.ndarray) -> None:
        """The dense pipeline's forward pass over its rendered pixels.

        ``px`` are the rendered ``(K, 2)`` pixels, ``tiles`` the render
        tile of each, ``list_lengths`` the length of that tile's sorted
        Gaussian list (every pixel α-checks the full list) and
        ``contribs`` the per-pixel contributing counts.
        """
        if not self.active:
            return
        px = np.atleast_2d(np.asarray(px, dtype=int))
        k = px.shape[0]
        if k == 0:
            return
        ch = self._frame["channels"]
        obs = self._observed(self._stage)
        tid = self._tile_ids(px[:, 0], px[:, 1])
        np.add.at(ch["sampled"], tid, 1)
        obs["sampled"] += k
        n_g = np.asarray(list_lengths, dtype=np.int64)
        np.add.at(ch["candidates"], tid, n_g)
        obs["candidates"] += int(n_g.sum())
        # Every atlas tile a render tile's pixels fall in receives that
        # render tile's list once.
        span = int(ch["gaussians"].size)
        keys, first = np.unique(np.asarray(tiles, dtype=np.int64) * span
                                + tid, return_index=True)
        np.add.at(ch["gaussians"], keys % span, n_g[first])
        obs["gaussians"] += int(n_g[first].sum())
        contribs = np.asarray(contribs, dtype=np.int64)
        np.add.at(ch["contribs"], tid, contribs)
        obs["contribs"] += int(contribs.sum())

    def observe_tile_backward(self, px: np.ndarray,
                              touched: np.ndarray) -> None:
        """One tile of the dense pipeline's backward pass."""
        if not self.active:
            return
        px = np.atleast_2d(np.asarray(px, dtype=int))
        if px.shape[0] == 0:
            return
        touched = np.asarray(touched, dtype=np.int64)
        tid = self._tile_ids(px[:, 0], px[:, 1])
        np.add.at(self._frame["channels"]["atomics"], tid, touched)
        self._observed(self._stage)["atomics"] += int(touched.sum())

    # ---- serialization ----

    def to_bytes(self) -> bytes:
        """The artifact bytes: gzip(mtime=0) over key-sorted JSONL."""
        body = "".join(json.dumps(rec, sort_keys=True) + "\n"
                       for rec in self._records).encode("utf-8")
        buf = io.BytesIO()
        with gzip.GzipFile(fileobj=buf, mode="wb", mtime=0) as gz:
            gz.write(body)
        return buf.getvalue()

    def write(self, path: str) -> int:
        """Write the artifact; returns the number of records written."""
        with open(path, "wb") as fh:
            fh.write(self.to_bytes())
        return len(self._records)


#: Module-level collector the pipelines report to (off by default).
atlas = AtlasCollector()

#: The collector the render pipelines currently observe into.  Defaults to
#: the module singleton; :func:`use_collector` rebinds it so a run can
#: supply its own collector (mirrors ``health.use_monitor``).  Hot paths
#: read ``atlas_module.current.active`` — two attribute loads when off.
current = atlas


@contextmanager
def use_collector(collector: Optional[AtlasCollector]):
    """Route pipeline observations into ``collector`` for the block.

    ``None`` keeps the current routing (handy for optional overrides).
    """
    global current
    if collector is None:
        yield current
        return
    previous = current
    current = collector
    try:
        yield collector
    finally:
        current = previous


def set_stage(name: str) -> None:
    """Tag subsequent observations of the current collector with ``name``."""
    current.set_stage(name)


# ---------------------------------------------------------------------------
# Reading + aggregation
# ---------------------------------------------------------------------------


def read_atlas(path: str) -> "AtlasLog":
    """Load an atlas artifact (gzip or plain JSONL)."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:2] == b"\x1f\x8b":
        blob = gzip.decompress(blob)
    records = [json.loads(line)
               for line in blob.decode("utf-8").splitlines() if line]
    return AtlasLog(records, path=path)


class AtlasLog:
    """Aggregation API over a recorded atlas (in memory or from disk)."""

    def __init__(self, records: Sequence[dict], path: Optional[str] = None):
        self.path = path
        self.header: dict = {}
        self.frames: List[dict] = []
        for rec in records:
            kind = rec.get("type")
            if kind == "header":
                if rec.get("schema_version") != ATLAS_SCHEMA_VERSION:
                    raise ValueError(
                        "atlas schema mismatch: artifact v%r, reader v%r"
                        % (rec.get("schema_version"), ATLAS_SCHEMA_VERSION))
                self.header = rec
            elif kind == "frame":
                self.frames.append(rec)

    @classmethod
    def from_collector(cls, collector: AtlasCollector) -> "AtlasLog":
        return cls(collector.records)

    @property
    def num_frames(self) -> int:
        return len(self.frames)

    @property
    def tile(self) -> int:
        if self.header:
            return int(self.header.get("tile", DEFAULT_ATLAS_TILE))
        if self.frames:
            return int(self.frames[0].get("tile", DEFAULT_ATLAS_TILE))
        return DEFAULT_ATLAS_TILE

    @property
    def grid_shape(self) -> Tuple[int, int]:
        if not self.frames:
            return (0, 0)
        ty, tx = self.frames[0]["grid"]
        return (int(ty), int(tx))

    def stages(self) -> List[str]:
        seen = []
        for fr in self.frames:
            for stage in fr.get("observed", {}):
                if stage not in seen:
                    seen.append(stage)
        return sorted(seen)

    # ---- per-frame and aggregate grids ----

    def frame_grid(self, index: int, channel: str) -> np.ndarray:
        return np.asarray(self.frames[index]["channels"][channel],
                          dtype=np.int64)

    def _stack(self, channel: str) -> np.ndarray:
        if not self.frames:
            return np.zeros((0,) + self.grid_shape, dtype=np.int64)
        return np.stack([self.frame_grid(i, channel)
                         for i in range(self.num_frames)])

    def sum_atlas(self, channel: str) -> np.ndarray:
        stack = self._stack(channel)
        if stack.shape[0] == 0:
            return np.zeros(self.grid_shape, dtype=np.int64)
        return stack.sum(axis=0)

    def mean_atlas(self, channel: str) -> np.ndarray:
        stack = self._stack(channel)
        if stack.shape[0] == 0:
            return np.zeros(self.grid_shape, dtype=float)
        return stack.mean(axis=0)

    def max_atlas(self, channel: str) -> np.ndarray:
        stack = self._stack(channel)
        if stack.shape[0] == 0:
            return np.zeros(self.grid_shape, dtype=np.int64)
        return stack.max(axis=0)

    def alpha_pass_atlas(self, index: Optional[int] = None) -> np.ndarray:
        """Per-tile α-pass rate (contribs / candidates; 0 where no work)."""
        if index is None:
            cand = self.sum_atlas("candidates").astype(float)
            contr = self.sum_atlas("contribs").astype(float)
        else:
            cand = self.frame_grid(index, "candidates").astype(float)
            contr = self.frame_grid(index, "contribs").astype(float)
        out = np.zeros_like(cand)
        np.divide(contr, cand, out=out, where=cand > 0)
        return out

    # ---- scalar aggregates ----

    def occupancy_histogram(self, channel: str,
                            bins: int = 8) -> Tuple[List[int], List[float]]:
        """Histogram of per-tile values across all frames."""
        stack = self._stack(channel)
        values = stack.ravel() if stack.size else np.zeros(1)
        counts, edges = np.histogram(values, bins=bins)
        return [int(c) for c in counts], [float(e) for e in edges]

    def imbalance(self, channel: str) -> List[float]:
        """Per-frame max/mean tile load — the workload-skew series."""
        out = []
        for i in range(self.num_frames):
            grid = self.frame_grid(i, channel).astype(float)
            mean = grid.mean() if grid.size else 0.0
            out.append(float(grid.max() / mean) if mean > 0 else 0.0)
        return out

    def observed_totals(self) -> Dict[str, Dict[str, int]]:
        """Per-stage channel totals summed over the run."""
        totals: Dict[str, Dict[str, int]] = {}
        for fr in self.frames:
            for stage, counts in fr.get("observed", {}).items():
                dst = totals.setdefault(stage,
                                        {name: 0 for name in CHANNELS})
                for name, value in counts.items():
                    dst[name] = dst.get(name, 0) + int(value)
        return totals

    def model_totals(self) -> Dict[str, Dict[str, float]]:
        """Per-stage modeled cycles/DRAM bytes summed over the run."""
        totals: Dict[str, Dict[str, float]] = {}
        for fr in self.frames:
            for stage, m in fr.get("model", {}).items():
                dst = totals.setdefault(stage, {})
                for key, value in m.items():
                    if key == "dram_row_hit_rate":
                        continue
                    dst[key] = dst.get(key, 0.0) + float(value)
        return totals

    def measured_vs_modeled(self) -> Dict[str, Dict[str, float]]:
        """Observed spatial totals vs the stage counters and hw model.

        The candidate/contrib deltas are a self-check (both sides count
        the same pair sets; nonzero deltas mean unobserved renders); the
        α-pass rate and modeled DRAM bytes are the sparsity headline.
        """
        observed = self.observed_totals()
        model = self.model_totals()
        counters: Dict[str, Dict[str, int]] = {}
        for fr in self.frames:
            for stage, ps in fr.get("stages", {}).items():
                dst = counters.setdefault(
                    stage, {"candidates": 0, "contribs": 0, "atomics": 0})
                fwd = ps.get("fwd") or {}
                bwd = ps.get("bwd") or {}
                dst["candidates"] += int(fwd.get("num_candidate_pairs", 0))
                dst["contribs"] += int(fwd.get("num_contrib_pairs", 0))
                dst["atomics"] += int(bwd.get("num_atomic_adds", 0))
        out: Dict[str, Dict[str, float]] = {}
        for stage in sorted(set(observed) | set(counters)):
            obs = observed.get(stage, {name: 0 for name in CHANNELS})
            cnt = counters.get(stage,
                               {"candidates": 0, "contribs": 0, "atomics": 0})
            row = {
                "observed_candidates": int(obs.get("candidates", 0)),
                "counter_candidates": int(cnt["candidates"]),
                "delta_candidates": int(obs.get("candidates", 0)
                                        - cnt["candidates"]),
                "observed_contribs": int(obs.get("contribs", 0)),
                "counter_contribs": int(cnt["contribs"]),
                "delta_contribs": int(obs.get("contribs", 0)
                                      - cnt["contribs"]),
                "observed_atomics": int(obs.get("atomics", 0)),
                "counter_atomics": int(cnt["atomics"]),
                "alpha_pass_rate": (obs.get("contribs", 0)
                                    / obs["candidates"]
                                    if obs.get("candidates") else 0.0),
            }
            m = model.get(stage)
            if m:
                row["modeled_dram_bytes"] = float(
                    m.get("fwd_dram_bytes", 0.0)
                    + m.get("bwd_dram_bytes", 0.0))
            out[stage] = row
        return out


# ---------------------------------------------------------------------------
# Heatmap rendering
# ---------------------------------------------------------------------------

#: Intensity ramp; index 0 (space) is reserved for exactly-zero cells.
HEAT_CHARS = " ▁▂▃▄▅▆▇█"


def format_heatmap(grid: np.ndarray, chars: str = HEAT_CHARS) -> str:
    """Render a 2D grid as unicode intensity rows (zero cells stay blank)."""
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        return "(empty grid)"
    peak = float(grid.max())
    lines = []
    for row in grid:
        if peak <= 0:
            lines.append(chars[0] * len(row))
            continue
        cells = []
        for value in row:
            if value <= 0:
                cells.append(chars[0])
            else:
                level = 1 + int(value / peak * (len(chars) - 2))
                cells.append(chars[min(level, len(chars) - 1)])
        lines.append("".join(cells))
    return "\n".join(lines)


def heatmap_html(grid: np.ndarray, label: str = "") -> str:
    """Render a 2D grid as an HTML table with intensity-shaded cells."""
    grid = np.asarray(grid, dtype=float)
    peak = float(grid.max()) if grid.size else 0.0
    rows = []
    for row in np.atleast_2d(grid):
        cells = []
        for value in row:
            frac = (value / peak) if peak > 0 else 0.0
            # dark blue -> yellow ramp on a fixed background
            r = int(30 + 225 * frac)
            g = int(30 + 190 * frac)
            b = int(80 * (1.0 - frac) + 40)
            cells.append(
                '<td title="%g" style="width:10px;height:10px;'
                'background:rgb(%d,%d,%d)"></td>' % (value, r, g, b))
        rows.append("<tr>%s</tr>" % "".join(cells))
    caption = ("<caption>%s</caption>" % label) if label else ""
    return ('<table class="heatmap" style="border-collapse:collapse">'
            "%s%s</table>" % (caption, "".join(rows)))
