"""Cross-run trend analysis and automated regression triage.

The analytics layer over :mod:`repro.obs.runsdb`.  Two entry points:

- **Trend** (:func:`format_trend` / :func:`detect_step`): per-metric
  time series across every registered run — wall sections, modeled
  cycles and DRAM bytes, ATE/RMSE, sparsity ratios — rendered as
  sparkline tables with robust changepoint detection.  The step test
  follows the same statistics discipline as :mod:`repro.obs.bench`:
  a candidate split is flagged only when the left/right medians differ
  by more than a relative floor *and* several MADs, so wall noise does
  not manufacture changepoints.
- **Triage** (:func:`triage_runs`): given two registered runs, walk the
  whole evidence chain automatically — registered metric deltas (exact
  counters, modeled cycles, quality, wall), the bench regress verdict,
  per-stage traced self-times, per-unit cycle attribution from the
  ``attrib`` artifact, atlas tile totals, and the first-divergence
  frame from the flight differ — and emit a ranked markdown/JSON
  culprit report naming the responsible stage (tracking/mapping) and,
  when cycle attribution is present, the hardware unit carrying the
  delta.

Module-level imports stay within the stdlib-only corner of
:mod:`repro.obs` (bench statistics, attrib stage tables, report
sparklines); artifact readers (atlas, flight differ, regress) load
lazily inside :func:`triage_runs`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fnmatch import fnmatch
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .attrib import SPAN_STAGES, STAGE_UNITS
from .bench import median_mad
from .report import sparkline

__all__ = [
    "COUNTER_STAGES",
    "ATLAS_CHANNEL_STAGES",
    "DEFAULT_TREND_PATTERNS",
    "ChangePoint",
    "TriagePolicy",
    "TriageEvidence",
    "TriageCulprit",
    "TriageReport",
    "detect_step",
    "metric_series",
    "select_metrics",
    "format_trend",
    "triage_runs",
]

#: Workload counter -> paper pipeline stage (Sec. IV), so counter deltas
#: can name the hardware unit that executes the changed work.
COUNTER_STAGES: Dict[str, str] = {
    "num_projected": "projection",
    "num_alpha_checks": "projection",
    "num_candidate_pairs": "projection",
    "num_sort_keys": "sorting",
    "num_pixels": "rasterization",
    "num_contrib_pairs": "rasterization",
    "num_atomic_adds": "aggregation",
}

#: Sparsity-atlas channel -> paper pipeline stage.
ATLAS_CHANNEL_STAGES: Dict[str, str] = {
    "sampled": "projection",
    "candidates": "projection",
    "contribs": "rasterization",
    "gaussians": "sorting",
    "atomics": "aggregation",
}

#: Default metric name globs ``repro runs trend`` renders.
DEFAULT_TREND_PATTERNS: Tuple[str, ...] = (
    "*wall*", "*.ate.*", "*dram*", "*total_s", "*rejection*",
    "*gaussians*", "*overhead*", "*rmse*",
)


# ---------------------------------------------------------------------------
# Trend: per-metric time series + robust changepoint detection
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ChangePoint:
    """One detected level shift in a metric's run-ordered series."""

    index: int                  # series position where the new level starts
    seq: int                    # registry sequence number of that run
    before: float               # median of the left segment
    after: float                # median of the right segment

    @property
    def delta(self) -> float:
        return self.after - self.before

    @property
    def rel(self) -> Optional[float]:
        if self.before == 0.0:
            return None
        return self.delta / abs(self.before)


def detect_step(values: Sequence[float],
                seqs: Optional[Sequence[int]] = None,
                min_side: int = 2,
                mad_factor: float = 4.0,
                rel_floor: float = 0.05,
                abs_floor: float = 1e-12) -> Optional[ChangePoint]:
    """Median+MAD step test over a run-ordered metric series.

    Scans every split with at least ``min_side`` points per side and
    flags a left/right median gap that exceeds *all* the noise slacks
    (absolute floor, relative floor on the left median, ``mad_factor``
    times the larger segment MAD) — the same layered tolerance the wall
    comparator in :mod:`repro.obs.regress` uses.  Among qualifying
    splits the one with the lowest L1 segmentation cost (total absolute
    deviation from each side's median) wins, so the reported index is
    the actual level boundary rather than the first split whose medians
    happen to differ.  Returns None for series that never step.
    """
    xs = [float(v) for v in values]
    n = len(xs)
    if n < 2 * min_side:
        return None
    best: Optional[ChangePoint] = None
    best_rank = None
    for i in range(min_side, n - min_side + 1):
        med_l, mad_l = median_mad(xs[:i])
        med_r, mad_r = median_mad(xs[i:])
        delta = med_r - med_l
        slack = max(abs_floor, rel_floor * abs(med_l),
                    mad_factor * max(mad_l, mad_r))
        if abs(delta) <= slack:
            continue
        cost = (sum(abs(x - med_l) for x in xs[:i])
                + sum(abs(x - med_r) for x in xs[i:]))
        rank = (cost, -abs(delta))
        if best_rank is None or rank < best_rank:
            best_rank = rank
            best = ChangePoint(
                index=i,
                seq=int(seqs[i]) if seqs is not None else i,
                before=med_l, after=med_r)
    return best


def metric_series(runs: Sequence[Dict[str, Any]],
                  metric: str) -> List[Tuple[int, str, float]]:
    """``(seq, run_id, value)`` for every run that recorded ``metric``."""
    out = []
    for record in runs:
        value = (record.get("metrics") or {}).get(metric)
        if value is not None:
            out.append((int(record.get("seq", 0)),
                        str(record.get("run_id", "?")), float(value)))
    return out


def select_metrics(runs: Sequence[Dict[str, Any]],
                   patterns: Optional[Sequence[str]]) -> List[str]:
    """Metric names (sorted) recorded by any run and matching a glob."""
    pats = list(patterns) if patterns else list(DEFAULT_TREND_PATTERNS)
    names = sorted({name for record in runs
                    for name in (record.get("metrics") or {})})
    return [name for name in names
            if any(fnmatch(name, pat) for pat in pats)]


def _fmt(value: Optional[float]) -> str:
    if value is None:
        return "—"
    f = float(value)
    if f.is_integer() and abs(f) < 1e15:
        return str(int(f))
    return f"{f:.6g}"


def format_trend(runs: Sequence[Dict[str, Any]],
                 patterns: Optional[Sequence[str]] = None,
                 width: int = 24,
                 max_rows: int = 80) -> str:
    """Markdown trend table over the registered runs.

    One row per selected metric recorded by at least two runs: first and
    latest value, a unicode sparkline of the series, and the detected
    changepoint (if the median+MAD step test fires).
    """
    lines = [f"### run trends — {len(runs)} registered runs"]
    if not runs:
        lines.append("- registry is empty; record runs with "
                     "`repro slam --registry` or `repro runs ingest`")
        return "\n".join(lines)
    selected = select_metrics(runs, patterns)
    rows = []
    steps = 0
    for name in selected:
        series = metric_series(runs, name)
        if len(series) < 2:
            continue
        values = [v for _seq, _rid, v in series]
        step = detect_step(values, seqs=[s for s, _rid, _v in series])
        change = ""
        if step is not None:
            steps += 1
            rel = step.rel
            rel_txt = "" if rel is None else f" ({rel:+.1%})"
            change = (f"step @run {step.seq}: {_fmt(step.before)} -> "
                      f"{_fmt(step.after)}{rel_txt}")
        rows.append((name, len(series), values, change))
    if not rows:
        lines.append("- no metric recorded by two or more runs yet")
        return "\n".join(lines)
    lines += [
        f"- {len(rows)} metrics across runs "
        f"{runs[0].get('seq')}..{runs[-1].get('seq')}; "
        f"{steps} changepoint(s) detected",
        "",
        "| metric | runs | first | last | trend | change |",
        "|---|---:|---:|---:|---|---|",
    ]
    for name, count, values, change in rows[:max_rows]:
        lines.append(
            f"| {name} | {count} | {_fmt(values[0])} | {_fmt(values[-1])} "
            f"| {sparkline(values, width)} | {change} |")
    if len(rows) > max_rows:
        lines.append(f"| ... +{len(rows) - max_rows} more | | | | | |")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Triage: walk the evidence chain between two registered runs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TriagePolicy:
    """Evidence weights and thresholds for the culprit ranking."""

    #: Per-source/kind evidence weight: deterministic signals dominate,
    #: wall-clock signals inform.
    weights: Dict[str, float] = field(default_factory=lambda: {
        "counter": 1.0, "model": 1.0, "quality": 0.6, "wall": 0.2,
        "attrib": 1.0, "atlas": 0.8, "flight": 0.25,
    })
    #: Relative deltas are capped here before scoring (a counter going
    #: 0 -> N would otherwise drown every other signal).
    rel_cap: float = 10.0
    #: Wall-kind deltas below this relative change are noise, not
    #: evidence.
    wall_rel_floor: float = 0.30
    #: Deterministic (counter/model/quality) deltas below this relative
    #: change are ignored.
    det_rel_floor: float = 1e-9


@dataclass(frozen=True)
class TriageEvidence:
    """One signal in the evidence chain, attributed to a stage/unit."""

    source: str                 # "counter"|"model"|"quality"|"wall"
                                # |"attrib"|"atlas"|"flight"
    metric: str
    stage: Optional[str]        # SLAM stage: "tracking"|"mapping"|None
    unit: Optional[str]         # hardware unit (via the pipeline stage)
    baseline: Optional[float]
    current: Optional[float]
    rel: Optional[float]        # relative delta (None: informational)
    weight: float
    detail: str = ""

    def score(self, cap: float = 10.0) -> float:
        magnitude = 1.0 if self.rel is None else min(abs(self.rel), cap)
        return self.weight * magnitude

    def as_dict(self) -> Dict[str, Any]:
        return {
            "source": self.source, "metric": self.metric,
            "stage": self.stage, "unit": self.unit,
            "baseline": self.baseline, "current": self.current,
            "rel": self.rel, "weight": self.weight, "detail": self.detail,
        }


@dataclass
class TriageCulprit:
    """One ranked suspect: a stage, its unit, and the supporting signals."""

    stage: str
    unit: Optional[str]
    score: float
    evidence: List[TriageEvidence] = field(default_factory=list)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "stage": self.stage, "unit": self.unit,
            "score": round(self.score, 4),
            "evidence_count": len(self.evidence),
            "evidence": [e.as_dict() for e in self.evidence],
        }


def _run_brief(record: Dict[str, Any]) -> Dict[str, Any]:
    key = record.get("key") or {}
    sha = key.get("git_sha")
    return {
        "run_id": record.get("run_id"),
        "seq": record.get("seq"),
        "created": record.get("created"),
        "kind": record.get("kind"),
        "git_sha": sha,
        "config_hash": key.get("config_hash"),
        "dataset": key.get("dataset"),
    }


@dataclass
class TriageReport:
    """The ranked culprit report of one base-vs-current triage."""

    base: Dict[str, Any]
    current: Dict[str, Any]
    culprits: List[TriageCulprit] = field(default_factory=list)
    config_delta: List[Dict[str, Any]] = field(default_factory=list)
    env_mismatches: List[str] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)
    first_divergence_frame: Optional[int] = None
    diverged_channels: List[str] = field(default_factory=list)
    evidence_total: int = 0

    @property
    def top(self) -> Optional[TriageCulprit]:
        return self.culprits[0] if self.culprits else None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "base": self.base,
            "current": self.current,
            "config_delta": list(self.config_delta),
            "env_mismatches": list(self.env_mismatches),
            "notes": list(self.notes),
            "first_divergence_frame": self.first_divergence_frame,
            "diverged_channels": list(self.diverged_channels),
            "evidence_total": self.evidence_total,
            "culprits": [c.as_dict() for c in self.culprits],
        }

    def write_json(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump(self.to_dict(), f, indent=1, sort_keys=True)
            f.write("\n")

    def format_markdown(self, max_evidence: int = 12) -> str:
        base_id = self.base.get("run_id", "?")
        cur_id = self.current.get("run_id", "?")
        lines = [f"### run triage — {base_id} (base) vs {cur_id} (current)"]
        for label, brief in (("base", self.base), ("current", self.current)):
            sha = brief.get("git_sha")
            lines.append(
                f"- {label}: run {brief.get('seq')} ({brief.get('kind')}) "
                f"@ {brief.get('created')}, git "
                f"{sha[:10] if sha else 'unknown'}, dataset "
                f"{brief.get('dataset') or '?'}")
        if self.config_delta:
            changes = ", ".join(
                f"{d['key']}: {_fmt_any(d['baseline'])} -> "
                f"{_fmt_any(d['current'])}" for d in self.config_delta)
            lines.append(f"- config delta: {changes}")
        else:
            lines.append("- config delta: none detected")
        if self.env_mismatches:
            lines.append("- **environment mismatch** (wall comparisons "
                         "untrustworthy): "
                         + "; ".join(self.env_mismatches))
        for note in self.notes:
            lines.append(f"- {note}")
        if self.first_divergence_frame is not None:
            channels = ", ".join(self.diverged_channels) or "?"
            lines.append(f"- first divergence at frame "
                         f"{self.first_divergence_frame} "
                         f"(channels: {channels})")
        if not self.culprits:
            lines.append("")
            lines.append("no evidence of change between the runs — the "
                         "registered metrics and artifacts agree.")
            return "\n".join(lines) + "\n"
        top = self.culprits[0]
        unit = f" on {top.unit}" if top.unit else ""
        lines += [
            "",
            f"**top culprit: {top.stage}{unit}** "
            f"(score {top.score:.2f}, {len(top.evidence)} signals; "
            f"{self.evidence_total} total)",
            "",
            "| rank | stage | hardware unit | score | signals |",
            "|---:|---|---|---:|---:|",
        ]
        for rank, culprit in enumerate(self.culprits, 1):
            lines.append(
                f"| {rank} | {culprit.stage} | {culprit.unit or '—'} "
                f"| {culprit.score:.2f} | {len(culprit.evidence)} |")
        lines += [
            "",
            f"**strongest evidence — {top.stage}**",
            "",
            "| source | metric | baseline | current | Δ rel | detail |",
            "|---|---|---:|---:|---:|---|",
        ]
        strongest = sorted(top.evidence, key=lambda e: -e.score())
        for e in strongest[:max_evidence]:
            rel = "—" if e.rel is None else f"{e.rel:+.2%}"
            lines.append(
                f"| {e.source} | {e.metric} | {_fmt(e.baseline)} "
                f"| {_fmt(e.current)} | {rel} | {e.detail} |")
        if len(strongest) > max_evidence:
            lines.append(f"| ... +{len(strongest) - max_evidence} more "
                         f"| | | | | |")
        return "\n".join(lines) + "\n"


def _fmt_any(value: Any) -> str:
    if isinstance(value, (int, float)):
        return _fmt(value)
    return repr(value) if value is None or value == "" else str(value)


# ---- metric-key classification --------------------------------------------

def _slam_stage(key: str) -> Optional[str]:
    for token in key.split("."):
        base = token.split("_")[0]
        if base in ("tracking", "mapping"):
            return base
    return None


def _pipeline_stage(key: str) -> Optional[str]:
    tokens = key.split(".")
    for token in tokens:
        if token in COUNTER_STAGES:
            return COUNTER_STAGES[token]
    if "trace" in tokens:
        span = ".".join(tokens[tokens.index("trace") + 1:-1])
        if span in SPAN_STAGES:
            return SPAN_STAGES[span]
    if "stage" in tokens:
        idx = tokens.index("stage")
        if idx + 1 < len(tokens):
            candidate = tokens[idx + 1]
            for suffix in ("_s", "_cycles", "_bytes"):
                if candidate.endswith(suffix):
                    candidate = candidate[: -len(suffix)]
                    break
            if candidate in STAGE_UNITS:
                return candidate
    return None


def _metric_kind(key: str) -> str:
    tokens = key.split(".")
    if any(t.startswith("num_") for t in tokens):
        return "counter"
    if any(t in ("wall", "trace", "overhead", "fps") for t in tokens):
        return "wall"
    dotted = f".{key}."
    if (".ate." in dotted or "rmse" in key or "psnr" in key
            or "ssim" in key or "loss" in key or "depth_l1" in key):
        return "quality"
    return "model"


def _rel_delta(base: float, cur: float, cap: float) -> Optional[float]:
    if base == cur:
        return 0.0
    if base == 0.0:
        return cap if cur > 0 else -cap
    rel = (cur - base) / abs(base)
    return max(-cap, min(cap, rel))


def _metric_evidence(base_metrics: Dict[str, float],
                     cur_metrics: Dict[str, float],
                     policy: TriagePolicy) -> List[TriageEvidence]:
    evidence = []
    for key in sorted(set(base_metrics) & set(cur_metrics)):
        base_v, cur_v = float(base_metrics[key]), float(cur_metrics[key])
        rel = _rel_delta(base_v, cur_v, policy.rel_cap)
        if rel == 0.0:
            continue
        kind = _metric_kind(key)
        floor = (policy.wall_rel_floor if kind == "wall"
                 else policy.det_rel_floor)
        if rel is not None and abs(rel) < floor:
            continue
        pipeline = _pipeline_stage(key)
        evidence.append(TriageEvidence(
            source=kind, metric=key, stage=_slam_stage(key),
            unit=STAGE_UNITS.get(pipeline) if pipeline else None,
            baseline=base_v, current=cur_v, rel=rel,
            weight=policy.weights.get(kind, 0.5),
            detail=f"registered metric changed"))
    return evidence


# ---- artifact evidence ----------------------------------------------------

def _attrib_stage(scenario: Any) -> Optional[str]:
    if not scenario:
        return None
    return _slam_stage(str(scenario).replace("/", "."))


def _attrib_evidence(base_doc: Dict[str, Any], cur_doc: Dict[str, Any],
                     policy: TriagePolicy) -> List[TriageEvidence]:
    """Per-unit CycleBreakdown deltas from two attrib artifacts."""
    def rows_by_key(doc):
        return {(r.get("pass"), r.get("stage")): r
                for r in doc.get("rows") or []}

    base_rows = rows_by_key(base_doc)
    cur_rows = rows_by_key(cur_doc)
    stage = _attrib_stage(cur_doc.get("scenario")
                          or base_doc.get("scenario"))
    evidence = []
    for key in sorted(set(base_rows) & set(cur_rows),
                      key=lambda k: (str(k[0]), str(k[1]))):
        pass_name, pipe_stage = key
        base_c = float(base_rows[key].get("cycles", 0.0))
        cur_c = float(cur_rows[key].get("cycles", 0.0))
        rel = _rel_delta(base_c, cur_c, policy.rel_cap)
        if rel == 0.0 or (rel is not None
                          and abs(rel) < policy.det_rel_floor):
            continue
        evidence.append(TriageEvidence(
            source="attrib", metric=f"attrib.{pass_name}.{pipe_stage}.cycles",
            stage=stage, unit=cur_rows[key].get("unit"),
            baseline=base_c, current=cur_c, rel=rel,
            weight=policy.weights.get("attrib", 1.0),
            detail=f"modeled cycles on "
                   f"{cur_rows[key].get('unit', '?')}"))
    return evidence


def _atlas_evidence(registry, base_rec, cur_rec,
                    policy: TriagePolicy) -> List[TriageEvidence]:
    """Per-stage tile-channel deltas from two atlas artifacts."""
    from .atlas import read_atlas

    base_log = read_atlas(registry.artifact_path(base_rec, "atlas"))
    cur_log = read_atlas(registry.artifact_path(cur_rec, "atlas"))
    base_totals = base_log.observed_totals()
    cur_totals = cur_log.observed_totals()
    evidence = []
    for stage in sorted(set(base_totals) & set(cur_totals)):
        for channel in sorted(set(base_totals[stage])
                              & set(cur_totals[stage])):
            base_v = float(base_totals[stage][channel])
            cur_v = float(cur_totals[stage][channel])
            rel = _rel_delta(base_v, cur_v, policy.rel_cap)
            if rel == 0.0 or (rel is not None
                              and abs(rel) < policy.det_rel_floor):
                continue
            pipe = ATLAS_CHANNEL_STAGES.get(channel)
            evidence.append(TriageEvidence(
                source="atlas", metric=f"atlas.{stage}.{channel}",
                stage=_slam_stage(stage), unit=STAGE_UNITS.get(pipe),
                baseline=base_v, current=cur_v, rel=rel,
                weight=policy.weights.get("atlas", 0.8),
                detail="atlas tile totals changed"))
    return evidence


def _group_culprits(evidence: List[TriageEvidence],
                    policy: TriagePolicy) -> List[TriageCulprit]:
    groups: Dict[str, List[TriageEvidence]] = {}
    for e in evidence:
        groups.setdefault(e.stage or "(run)", []).append(e)
    culprits = []
    for stage, signals in groups.items():
        score = sum(e.score(policy.rel_cap) for e in signals)
        # Cycle attribution is authoritative about the unit; fall back
        # to the strongest counter/model signal's unit mapping.
        attrib = [e for e in signals if e.source == "attrib" and e.unit]
        with_unit = attrib or [e for e in signals if e.unit]
        unit = (max(with_unit, key=lambda e: e.score(policy.rel_cap)).unit
                if with_unit else None)
        culprits.append(TriageCulprit(
            stage=stage, unit=unit, score=score,
            evidence=sorted(signals,
                            key=lambda e: -e.score(policy.rel_cap))))
    culprits.sort(key=lambda c: (-c.score, c.stage))
    return culprits


def _dict_delta(base: Optional[Dict[str, Any]],
                cur: Optional[Dict[str, Any]]) -> List[Dict[str, Any]]:
    base = base or {}
    cur = cur or {}
    out = []
    for key in sorted(set(base) | set(cur)):
        if base.get(key) != cur.get(key):
            out.append({"key": key, "baseline": base.get(key),
                        "current": cur.get(key)})
    return out


def triage_runs(registry, base: Dict[str, Any], current: Dict[str, Any],
                policy: Optional[TriagePolicy] = None) -> TriageReport:
    """Walk the evidence chain between two registered runs.

    ``base``/``current`` are registry index records (see
    :meth:`repro.obs.runsdb.RunRegistry.get`).  Every evidence source is
    optional — the report uses whatever the two runs both recorded:
    registered metrics always, then the bench regress verdict, per-unit
    cycle attribution, atlas totals, and the flight differ when the
    matching artifacts exist on both sides.
    """
    pol = policy or TriagePolicy()
    report = TriageReport(base=_run_brief(base), current=_run_brief(current))
    report.config_delta = _dict_delta(base.get("config"),
                                      current.get("config"))

    base_key = base.get("key") or {}
    cur_key = current.get("key") or {}
    base_env = base_key.get("environment") or {}
    cur_env = cur_key.get("environment") or {}
    for key in sorted(set(base_env) | set(cur_env)):
        if base_env.get(key) != cur_env.get(key):
            report.env_mismatches.append(
                f"{key}: {base_env.get(key)!r} vs {cur_env.get(key)!r}")
    if (base_key.get("git_sha") and cur_key.get("git_sha")
            and base_key.get("git_sha") != cur_key.get("git_sha")):
        report.notes.append(
            f"git delta: {base_key['git_sha'][:10]} -> "
            f"{cur_key['git_sha'][:10]}")

    evidence = _metric_evidence(base.get("metrics") or {},
                                current.get("metrics") or {}, pol)

    def both_have(name: str) -> bool:
        return (name in (base.get("artifacts") or {})
                and name in (current.get("artifacts") or {}))

    if both_have("bench"):
        from . import regress

        rep = regress.compare_runs(
            registry.load_artifact_json(current, "bench"),
            registry.load_artifact_json(base, "bench"))
        counts = ", ".join(f"{v} {k}"
                           for k, v in sorted(rep.counts().items()))
        report.notes.append(
            f"bench regress: {'PASS' if rep.passed else 'FAIL'} "
            f"({counts or 'no metrics'})")

    if both_have("attrib"):
        evidence += _attrib_evidence(
            registry.load_artifact_json(base, "attrib"),
            registry.load_artifact_json(current, "attrib"), pol)

    if both_have("atlas"):
        evidence += _atlas_evidence(registry, base, current, pol)

    if both_have("flight"):
        from .report import diff_runs

        diff = diff_runs(registry.load_flight(base),
                         registry.load_flight(current))
        report.first_divergence_frame = diff.first_divergence_frame
        report.diverged_channels = [c.channel for c in diff.channels
                                    if c.diverged]
        for channel in diff.channels:
            if not channel.diverged:
                continue
            evidence.append(TriageEvidence(
                source="flight", metric=f"flight.{channel.channel}",
                stage=_slam_stage(channel.channel), unit=None,
                baseline=None, current=None, rel=None,
                weight=pol.weights.get("flight", 0.25),
                detail=f"first diverged at frame {channel.first_frame}"))

    report.evidence_total = len(evidence)
    report.culprits = _group_culprits(evidence, pol)
    return report
