"""Run reports and run-to-run diffing over flight records.

Two consumers of :class:`~repro.obs.flight.FlightLog`:

- :func:`render_report` — a human-readable run report (markdown or a
  self-contained HTML page): headline statistics (aligned and
  unaligned ATE next to the static-camera and constant-velocity
  baselines, so "was the answer right" reads off one artifact),
  unicode sparkline summaries of the per-frame series, a per-frame
  table, and every health alert the run raised.  This is what
  ``repro report run.jsonl`` prints.
- :func:`diff_runs` — aligns two runs frame-by-frame and reports, per
  channel (pose, losses, iteration counts, sampling composition, map
  size, workload counters), the *first* frame where they diverge.  Two
  recordings of the same seed diff clean; differing seeds pinpoint
  where the trajectories forked (``repro report --diff a.jsonl
  b.jsonl``).

Everything here is purely functional over parsed logs.
"""

from __future__ import annotations

import html as _html
import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .flight import FlightLog

__all__ = [
    "sparkline",
    "render_report",
    "ChannelDiff",
    "RunDiff",
    "diff_runs",
]

_SPARK_CHARS = "▁▂▃▄▅▆▇█"


def sparkline(values: Sequence[Any], width: Optional[int] = None) -> str:
    """Unicode block sparkline of a numeric series.

    ``None``/non-finite entries render as spaces; a constant series
    renders at mid-height.  ``width`` caps the length by striding.
    """
    series = []
    for v in values:
        try:
            f = float(v)
        except (TypeError, ValueError):
            f = math.nan
        series.append(f)
    if width is not None and width > 0 and len(series) > width:
        stride = len(series) / width
        series = [series[int(i * stride)] for i in range(width)]
    finite = [v for v in series if math.isfinite(v)]
    if not finite:
        return " " * len(series)
    lo, hi = min(finite), max(finite)
    span = hi - lo
    chars = []
    for v in series:
        if not math.isfinite(v):
            chars.append(" ")
        elif span <= 0:
            chars.append(_SPARK_CHARS[len(_SPARK_CHARS) // 2])
        else:
            idx = int((v - lo) / span * (len(_SPARK_CHARS) - 1))
            chars.append(_SPARK_CHARS[idx])
    return "".join(chars)


# ---------------------------------------------------------------------------
# Report blocks: a tiny structured intermediate with two renderers
# ---------------------------------------------------------------------------

def _fmt(value: Any) -> str:
    if value is None:
        return "—"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        if not math.isfinite(value):
            return str(value)
        return f"{value:.4g}"
    return str(value)


def _ate_text(ate: Optional[Dict[str, Any]]) -> Optional[str]:
    """``1.23 cm (median 1.10 cm, max 2.00 cm)`` of an ATE block."""
    if not ate:
        return None
    return (f"{ate.get('rmse', 0) * 100:.2f} cm "
            f"(median {ate.get('median', 0) * 100:.2f} cm, "
            f"max {ate.get('max', 0) * 100:.2f} cm)")


def _build_blocks(log: FlightLog) -> List[Tuple[str, Any]]:
    """(kind, payload) blocks: heading / kv / table / text."""
    header = log.header
    summary = log.summary or {}
    env = header.get("environment") or {}
    ate = summary.get("ate") or {}
    alerts = log.alerts()

    blocks: List[Tuple[str, Any]] = []
    title = (f"flight report — {header.get('algorithm', '?')}/"
             f"{header.get('mode', '?')}, {log.num_frames} frames")
    blocks.append(("heading", title))

    blocks.append(("kv", [
        ("sequence", header.get("sequence")),
        ("frame size", f"{header.get('width', '?')}x"
                       f"{header.get('height', '?')}"),
        ("schema", f"v{header.get('schema_version')}"),
        ("environment", f"python {env.get('python', '?')}, "
                        f"numpy {env.get('numpy', '?')}, "
                        f"{env.get('platform', '?')}"),
        ("ATE rmse", _ate_text(ate)),
        ("unaligned ATE rmse", _ate_text(summary.get("ate_unaligned"))),
        ("static-camera baseline",
         _ate_text(summary.get("ate_static_camera"))),
        ("constant-velocity baseline",
         _ate_text(summary.get("ate_constant_velocity"))),
        ("final map", None if "final_gaussians" not in summary else
            f"{summary['final_gaussians']} Gaussians after "
            f"{summary.get('mapping_invocations', '?')} mapping invocations"),
        ("tracking", None if "tracking_iterations" not in summary else
            f"{summary['tracking_iterations']} iterations total"),
        ("health alerts", str(len(alerts))),
    ]))

    # Sparkline summary of the headline per-frame series.
    spark_rows = []
    per_frame_ate = ate.get("per_frame")
    series_specs = [
        ("pose error (m)", log.series("pose_error_m")),
        ("aligned ATE (m)", per_frame_ate),
        ("tracking loss", log.series("tracking.final_loss")),
        ("tracking iters", log.series("tracking.iterations")),
        ("alpha rejection", log.series("alpha.rejection_rate")),
        ("gaussians", log.series("gaussians")),
        ("seeded", log.series("mapping.num_seeded")),
    ]
    for label, series in series_specs:
        if not series or all(v is None for v in series):
            continue
        finite = [float(v) for v in series
                  if v is not None and math.isfinite(float(v))]
        lo = min(finite) if finite else float("nan")
        hi = max(finite) if finite else float("nan")
        spark_rows.append([label, sparkline(series, width=60),
                           _fmt(lo), _fmt(hi)])
    if spark_rows:
        blocks.append(("heading2", "per-frame series"))
        blocks.append(("table",
                       (["series", "sparkline", "min", "max"], spark_rows)))

    # Per-frame table.
    rows = []
    for frame in log.frames:
        tracking = frame.get("tracking") or {}
        mapping = frame.get("mapping") or {}
        sampling = mapping.get("sampling") or {}
        keyframe = frame.get("keyframe") or {}
        alpha = frame.get("alpha") or {}
        rows.append([
            _fmt(frame.get("frame")),
            _fmt(None if frame.get("pose_error_m") is None
                 else frame["pose_error_m"] * 100),
            _fmt(tracking.get("iterations")),
            _fmt(tracking.get("final_loss")),
            _fmt(tracking.get("converged")),
            _fmt(mapping.get("invoked", False)),
            _fmt(mapping.get("num_seeded")),
            _fmt(mapping.get("num_pruned")),
            _fmt(sampling.get("unseen_coverage")),
            _fmt(frame.get("gaussians")),
            _fmt(alpha.get("rejection_rate")),
            _fmt(keyframe.get("added")),
            _fmt(len(frame.get("alerts") or [])),
        ])
    blocks.append(("heading2", "per-frame detail"))
    blocks.append(("table", ([
        "frame", "pose err (cm)", "trk iters", "trk loss", "conv",
        "map", "seeded", "pruned", "unseen cov", "gaussians",
        "α-reject", "kf", "alerts"], rows)))

    if alerts:
        blocks.append(("heading2", "health alerts"))
        alert_rows = [[_fmt(a.get("frame")), a.get("monitor", "?"),
                       a.get("message", "")] for a in alerts]
        blocks.append(("table", (["frame", "monitor", "message"], alert_rows)))
    return blocks


def _to_markdown(blocks: List[Tuple[str, Any]]) -> str:
    lines: List[str] = []
    for kind, payload in blocks:
        if kind == "heading":
            lines += [f"# {payload}", ""]
        elif kind == "heading2":
            lines += [f"## {payload}", ""]
        elif kind == "kv":
            for key, value in payload:
                if value is not None:
                    lines.append(f"- **{key}**: {value}")
            lines.append("")
        elif kind == "table":
            headers, rows = payload
            lines.append("| " + " | ".join(headers) + " |")
            lines.append("|" + "|".join("---" for _ in headers) + "|")
            for row in rows:
                lines.append("| " + " | ".join(str(c) for c in row) + " |")
            lines.append("")
    return "\n".join(lines).rstrip() + "\n"


def _to_html(blocks: List[Tuple[str, Any]]) -> str:
    out: List[str] = [
        "<!DOCTYPE html>", "<html><head><meta charset='utf-8'>",
        "<style>",
        "body{font-family:monospace;margin:2em;max-width:72em}",
        "table{border-collapse:collapse}",
        "td,th{border:1px solid #999;padding:2px 8px;text-align:right}",
        "th{background:#eee}",
        "td:first-child,th:first-child{text-align:left}",
        "</style></head><body>",
    ]
    for kind, payload in blocks:
        if kind == "heading":
            out.append(f"<h1>{_html.escape(str(payload))}</h1>")
        elif kind == "heading2":
            out.append(f"<h2>{_html.escape(str(payload))}</h2>")
        elif kind == "kv":
            out.append("<ul>")
            for key, value in payload:
                if value is not None:
                    out.append(f"<li><b>{_html.escape(str(key))}</b>: "
                               f"{_html.escape(str(value))}</li>")
            out.append("</ul>")
        elif kind == "table":
            headers, rows = payload
            out.append("<table><tr>" + "".join(
                f"<th>{_html.escape(str(h))}</th>" for h in headers) + "</tr>")
            for row in rows:
                out.append("<tr>" + "".join(
                    f"<td>{_html.escape(str(c))}</td>" for c in row) + "</tr>")
            out.append("</table>")
    out.append("</body></html>")
    return "\n".join(out) + "\n"


def render_report(log: FlightLog, fmt: str = "markdown") -> str:
    """Render one run's flight record as a report document."""
    if fmt not in ("markdown", "html"):
        raise ValueError("fmt must be 'markdown' or 'html'")
    blocks = _build_blocks(log)
    return _to_markdown(blocks) if fmt == "markdown" else _to_html(blocks)


# ---------------------------------------------------------------------------
# Run-to-run diffing
# ---------------------------------------------------------------------------

#: Per-frame channels the differ aligns, in report order.  Each entry is
#: (channel name, dotted record path).
DIFF_CHANNELS: List[Tuple[str, str]] = [
    ("pose", "pose_est"),
    ("pose_error", "pose_error_m"),
    ("tracking.loss", "tracking.final_loss"),
    ("tracking.iterations", "tracking.iterations"),
    ("tracking.sampled_pixels", "tracking.sampled_pixels"),
    ("mapping.sampling", "mapping.sampling"),
    ("mapping.seeded", "mapping.num_seeded"),
    ("gaussians", "gaussians"),
    ("counters", "counters"),
]

#: Two numeric channel values agree within these tolerances.
_DIFF_REL_TOL = 1e-9
_DIFF_ABS_TOL = 1e-12


def _values_equal(a: Any, b: Any) -> bool:
    if a is None or b is None:
        return a is None and b is None
    if isinstance(a, bool) or isinstance(b, bool):
        return a == b
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        fa, fb = float(a), float(b)
        if math.isnan(fa) and math.isnan(fb):
            return True
        return math.isclose(fa, fb, rel_tol=_DIFF_REL_TOL,
                            abs_tol=_DIFF_ABS_TOL)
    if isinstance(a, dict) and isinstance(b, dict):
        if set(a) != set(b):
            return False
        return all(_values_equal(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        if len(a) != len(b):
            return False
        return all(_values_equal(x, y) for x, y in zip(a, b))
    return a == b


def _preview(value: Any, limit: int = 60) -> str:
    text = _fmt(value) if not isinstance(value, (dict, list)) else repr(value)
    return text if len(text) <= limit else text[:limit - 1] + "…"


@dataclass
class ChannelDiff:
    """First divergence of one channel between two runs."""

    channel: str
    first_frame: Optional[int]
    a_value: Any = None
    b_value: Any = None
    frames_compared: int = 0

    @property
    def diverged(self) -> bool:
        return self.first_frame is not None


@dataclass
class RunDiff:
    """Frame-aligned comparison of two flight records."""

    a_path: Optional[str]
    b_path: Optional[str]
    channels: List[ChannelDiff] = field(default_factory=list)
    frames_compared: int = 0
    frame_counts: Tuple[int, int] = (0, 0)
    header_mismatches: List[str] = field(default_factory=list)

    @property
    def first_divergence_frame(self) -> Optional[int]:
        frames = [c.first_frame for c in self.channels if c.diverged]
        return min(frames) if frames else None

    @property
    def diverged(self) -> bool:
        return (self.first_divergence_frame is not None
                or self.frame_counts[0] != self.frame_counts[1]
                or bool(self.header_mismatches))

    def to_dict(self) -> Dict[str, Any]:
        return {
            "diverged": self.diverged,
            "first_divergence_frame": self.first_divergence_frame,
            "frames_compared": self.frames_compared,
            "frame_counts": list(self.frame_counts),
            "header_mismatches": list(self.header_mismatches),
            "channels": [{
                "channel": c.channel,
                "first_frame": c.first_frame,
            } for c in self.channels],
        }

    def format_markdown(self) -> str:
        a = self.a_path or "run A"
        b = self.b_path or "run B"
        lines = [f"### flight diff — {a} vs {b}", ""]
        if self.header_mismatches:
            lines.append("**header mismatches:**")
            lines += [f"- {m}" for m in self.header_mismatches]
            lines.append("")
        if self.frame_counts[0] != self.frame_counts[1]:
            lines += [f"frame counts differ: {self.frame_counts[0]} vs "
                      f"{self.frame_counts[1]} (compared the common "
                      f"{self.frames_compared})", ""]
        if not self.diverged:
            lines.append(f"no divergence across {self.frames_compared} "
                         f"frames.")
            return "\n".join(lines) + "\n"
        lines.append(f"**first divergence at frame "
                     f"{self.first_divergence_frame}** "
                     f"({self.frames_compared} frames compared)")
        lines += ["", "| channel | first frame | A | B |", "|---|---:|---|---|"]
        for c in sorted(self.channels,
                        key=lambda c: (c.first_frame is None,
                                       c.first_frame or 0, c.channel)):
            if not c.diverged:
                continue
            lines.append(f"| {c.channel} | {c.first_frame} "
                         f"| {_preview(c.a_value)} | {_preview(c.b_value)} |")
        clean = [c.channel for c in self.channels if not c.diverged]
        if clean:
            lines += ["", f"channels in agreement: {', '.join(clean)}"]
        return "\n".join(lines) + "\n"


def diff_runs(a: FlightLog, b: FlightLog) -> RunDiff:
    """Align two runs frame-by-frame and find where they first diverge."""
    diff = RunDiff(a_path=a.path, b_path=b.path,
                   frame_counts=(a.num_frames, b.num_frames))
    for key in ("algorithm", "mode", "sequence", "width", "height"):
        va, vb = a.header.get(key), b.header.get(key)
        if va != vb:
            diff.header_mismatches.append(f"{key}: {va!r} vs {vb!r}")
    n = min(a.num_frames, b.num_frames)
    diff.frames_compared = n
    for channel, dotted in DIFF_CHANNELS:
        series_a, series_b = a.series(dotted), b.series(dotted)
        channel_diff = ChannelDiff(channel=channel, first_frame=None,
                                   frames_compared=n)
        for i in range(n):
            if not _values_equal(series_a[i], series_b[i]):
                channel_diff.first_frame = i
                channel_diff.a_value = series_a[i]
                channel_diff.b_value = series_b[i]
                break
        diff.channels.append(channel_diff)
    return diff
