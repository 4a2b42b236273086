"""Per-frame SLAM flight recorder: structured JSONL run telemetry.

A SLAM run is a sequence of per-frame decisions — pose optimizations,
sampling draws, densifications, prunes — and the end-state ATE number
hides *which frame* went wrong.  The flight recorder turns a run into a
schema-versioned JSONL stream with exactly one record per frame:

- line 1 — a ``header`` record: schema version, run configuration, and
  the same environment fingerprint :mod:`repro.obs.bench` stamps on
  perf trajectories;
- lines 2..N+1 — one ``frame`` record per processed frame: estimated /
  ground-truth pose, per-frame pose error, tracking iteration counts and
  loss curves, mapping densify/prune events and sampling composition
  (unseen-by-transmittance vs texture-weighted pixel counts, coverage
  fractions), α-filter rejection rates, Gaussian-count growth, keyframe
  buffer events, the headline :class:`~repro.render.stats.PipelineStats`
  workload counters of that frame's passes, and the frame's wall time
  with its tracking and mapping parts;
- last line — a ``summary`` record: final ATE statistics (including the
  Umeyama-aligned per-frame residuals, so the stream reproduces
  ``SLAMResult.ate()`` exactly, the unaligned ATE, and the unaligned ATE
  of the static-camera and constant-velocity baselines), totals, and
  every health alert raised.  A run that a health alert aborts (``repro
  slam --on-alert raise``) has no summary: its record closes with an
  ``alert`` record, the alert that stopped it.

:meth:`repro.slam.SLAMSystem.run` builds each of these records once and
hands it to every attached observer as ``on_header(header)`` /
``on_frame(record)`` / ``on_summary(summary)``, the record its only
argument; the recorder is one of them (each call appends the record),
next to the health monitor and the run registry.
The recorder writes and flushes each record as it arrives, so the file
is the run's live event stream too: ``tail -f run.jsonl | jq`` follows a
run while it executes.
A disabled :meth:`FlightRecorder.emit` is one attribute load + branch.
Module-level imports are stdlib-only; numpy values are normalized by
duck typing in :func:`to_plain`.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

__all__ = [
    "FLIGHT_SCHEMA_VERSION",
    "FlightRecorder",
    "FlightLog",
    "run_header",
    "to_plain",
    "read_flight_record",
    "parse_flight_records",
]

#: Version of the flight-record JSONL layout.  Bump on any breaking
#: change to the record structure; the reader refuses mismatches.
FLIGHT_SCHEMA_VERSION = 1


def to_plain(value: Any) -> Any:
    """Recursively coerce a record value into plain JSON-ready python.

    Handles numpy scalars/arrays via their ``item``/``tolist`` protocols
    without importing numpy, so the module stays stdlib-only.
    """
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    if isinstance(value, dict):
        return {str(k): to_plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [to_plain(v) for v in value]
    tolist = getattr(value, "tolist", None)
    if callable(tolist):
        return to_plain(tolist())
    item = getattr(value, "item", None)
    if callable(item):
        try:
            return to_plain(item())
        except (TypeError, ValueError):
            pass
    return str(value)


class FlightRecorder:
    """Accumulates (and optionally streams) one run's flight records.

    Disabled by default; when enabled with a path every record is
    appended to the JSONL file immediately (flight-recorder style: the
    stream survives a crash mid-run), and is also kept in memory for
    direct inspection via :attr:`records`.
    """

    def __init__(self, enabled: bool = False):
        self._enabled = bool(enabled)
        self._records: List[Dict[str, Any]] = []
        self._path: Optional[str] = None
        self._fh = None

    # ---- lifecycle ----

    @property
    def enabled(self) -> bool:
        return self._enabled

    @property
    def path(self) -> Optional[str]:
        return self._path

    def enable(self, path: Optional[str] = None, reset: bool = True) -> None:
        """Start recording; with ``path``, stream records to a JSONL file."""
        if reset:
            self.reset()
        if path is not None:
            self._path = path
            self._fh = open(path, "w")
        self._enabled = True

    def disable(self) -> None:
        """Stop recording and close the stream file (if any)."""
        self._enabled = False
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def reset(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None
        self._records = []
        self._path = None

    @contextmanager
    def record_to(self, path: Optional[str] = None):
        """Enable recording for the duration of a ``with`` block."""
        was_enabled = self._enabled
        self.enable(path=path)
        try:
            yield self
        finally:
            self.disable()
            self._enabled = was_enabled

    # ---- recording ----

    def emit(self, record: Dict[str, Any]) -> None:
        """Append one record (no-op while disabled)."""
        if not self._enabled:
            return
        plain = to_plain(record)
        self._records.append(plain)
        if self._fh is not None:
            json.dump(plain, self._fh, sort_keys=True)
            self._fh.write("\n")
            self._fh.flush()

    def begin_run(self, **meta) -> None:
        """Emit a :func:`run_header` record built from ``meta``."""
        if self._enabled:
            self.emit(run_header(**meta))

    # ---- run-event observer (see SLAMSystem.run) ----

    on_header = on_summary = emit

    def on_frame(self, record: Dict[str, Any]) -> None:
        self.emit(record)

    # ---- access / export ----

    @property
    def records(self) -> List[Dict[str, Any]]:
        """All emitted records, in emission order."""
        return list(self._records)

    def log(self) -> "FlightLog":
        """The accumulated records parsed into a :class:`FlightLog`."""
        return parse_flight_records(self._records, path=self._path)


def run_header(**meta) -> Dict[str, Any]:
    """A run's header record: schema version, environment fingerprint
    and ``meta`` (algorithm, mode, frame size, run config, ...)."""
    from .bench import environment_fingerprint

    return {"type": "header", "schema_version": FLIGHT_SCHEMA_VERSION,
            "environment": environment_fingerprint(), **meta}


# ---------------------------------------------------------------------------
# Reading
# ---------------------------------------------------------------------------

def _get(record: Dict[str, Any], dotted: str) -> Any:
    """``_get({"a": {"b": 1}}, "a.b") == 1``; missing paths yield None."""
    current: Any = record
    for part in dotted.split("."):
        if not isinstance(current, dict) or part not in current:
            return None
        current = current[part]
    return current


@dataclass
class FlightLog:
    """One parsed flight record: header + frame stream + summary, plus
    the closing alert of an aborted run."""

    header: Dict[str, Any]
    frames: List[Dict[str, Any]] = field(default_factory=list)
    summary: Optional[Dict[str, Any]] = None
    path: Optional[str] = None
    #: ``alert`` records: the alert that aborted the run, if one did.
    closing_alerts: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def num_frames(self) -> int:
        return len(self.frames)

    def series(self, dotted: str) -> List[Any]:
        """Per-frame values of one dotted field (None where absent)."""
        return [_get(frame, dotted) for frame in self.frames]

    def alerts(self) -> List[Dict[str, Any]]:
        """Every alert in the stream: per-frame ones, the summary's, and
        the one that aborted the run."""
        out: List[Dict[str, Any]] = []
        for frame in self.frames:
            out.extend(frame.get("alerts") or [])
        if self.summary:
            for alert in self.summary.get("alerts") or []:
                if alert not in out:
                    out.append(alert)
        out.extend({k: v for k, v in record.items() if k != "type"}
                   for record in self.closing_alerts)
        return out


def parse_flight_records(records: List[Dict[str, Any]],
                         path: Optional[str] = None) -> FlightLog:
    """Assemble a :class:`FlightLog` from decoded record dicts."""
    if not records:
        raise ValueError("empty flight record")
    header = records[0]
    if header.get("type") != "header":
        raise ValueError("flight record does not start with a header record")
    version = header.get("schema_version")
    if version != FLIGHT_SCHEMA_VERSION:
        raise ValueError(
            f"flight-record schema v{version} != supported "
            f"v{FLIGHT_SCHEMA_VERSION}")
    frames = [r for r in records[1:] if r.get("type") == "frame"]
    summaries = [r for r in records[1:] if r.get("type") == "summary"]
    expected = [f["frame"] for f in frames]
    if expected != sorted(expected):
        raise ValueError("frame records out of order")
    return FlightLog(header=header, frames=frames,
                     summary=summaries[-1] if summaries else None,
                     path=path,
                     closing_alerts=[r for r in records[1:]
                                     if r.get("type") == "alert"])


def read_flight_record(path: str) -> FlightLog:
    """Parse a flight-record JSONL file (validates the schema version)."""
    records: List[Dict[str, Any]] = []
    with open(path) as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError as exc:
                raise ValueError(
                    f"{path}:{lineno}: malformed flight record "
                    f"({exc})") from exc
    return parse_flight_records(records, path=path)
