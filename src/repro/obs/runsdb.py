"""Run registry: an append-only, schema-versioned record of every run.

The rest of :mod:`repro.obs` is single-run: flight logs, bench
trajectories, and atlas artifacts are written, compared once, and
forgotten.  The registry makes them longitudinal — every registered run
becomes one JSON line in an append-only index plus a set of
content-addressed artifact blobs, so "when did mapping get slower and
which unit caused it" is a query (``repro runs trend`` /
``repro runs triage``) instead of archaeology.

Layout under the registry root (default ``.repro/runs/``)::

    index.jsonl              # one key-sorted JSON record per run
    objects/<aa>/<sha256>    # content-addressed artifact blobs

Each index record carries:

- ``run_id`` / ``seq`` / ``created`` — identity and ordering;
- ``key`` — the reproducibility key: environment fingerprint
  (:func:`repro.obs.bench.environment_fingerprint`), git SHA, config
  hash, and dataset, so trend lines can be segmented by "what actually
  changed";
- ``metrics`` — a flat ``{name: number}`` extraction of the run's
  headline quantities (wall sections, modeled cycles/DRAM bytes,
  ATE/RMSE, sparsity ratios, workload counters);
- ``artifacts`` — named references (``{"sha256": ..., "bytes": ...}``)
  into the object store: flight JSONL, bench payloads, atlas archives,
  attribution reports, regress reports.

Design rules, matching the rest of the stack:

- **Append-only.**  Registration appends one line; nothing rewrites
  history except an explicit :meth:`RunRegistry.prune`.
- **Content-addressed.**  Identical artifacts (two runs of the same
  deterministic workload) are stored once.
- **Disabled == free.**  The registry only exists when a caller
  constructs one; ``SLAMSystem.run(registry=None)`` (the default) adds
  a single ``is not None`` branch after the run, nothing per frame.
- **Stdlib-only module imports.**  Sibling ``repro.obs`` modules are
  imported at module level only where they are themselves stdlib-only
  (bench/flight/telemetry); everything else is lazy.

Registration publishes one ``"registry"`` event onto the telemetry bus
(:data:`repro.obs.telemetry.bus`) carrying the run id and registry
counters, so ``repro top`` can print the finished-run footer and the
stream/HTTP exporters see the registration.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import tempfile
import time
from typing import Any, Dict, Iterable, List, Optional

from .bench import environment_fingerprint
from .flight import FlightLog, parse_flight_records, to_plain
from .telemetry import bus

__all__ = [
    "REGISTRY_SCHEMA_VERSION",
    "DEFAULT_REGISTRY_ROOT",
    "RunRegistry",
    "git_revision",
    "config_hash",
    "flight_metrics",
    "bench_metrics",
    "ingest_slam_run",
    "ingest_bench_payload",
]

#: Version of the index-record layout this module reads and writes.
REGISTRY_SCHEMA_VERSION = 1

#: Default registry root, relative to the working directory.
DEFAULT_REGISTRY_ROOT = os.path.join(".repro", "runs")


# ---------------------------------------------------------------------------
# Keying helpers
# ---------------------------------------------------------------------------

def git_revision(cwd: Optional[str] = None) -> Optional[str]:
    """The current git HEAD SHA, or None outside a repository."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=cwd, capture_output=True,
            text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    if proc.returncode != 0:
        return None
    sha = proc.stdout.strip()
    return sha or None


def _canonical(value: Any) -> str:
    return json.dumps(to_plain(value), sort_keys=True, separators=(",", ":"))


def config_hash(config: Any) -> Optional[str]:
    """Short stable hash of a JSON-able config (None for no config)."""
    if config is None:
        return None
    return hashlib.sha256(_canonical(config).encode()).hexdigest()[:16]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _as_bytes(artifact: Any) -> bytes:
    """Artifact payloads may be bytes, a str path, or a JSON-able object."""
    if isinstance(artifact, bytes):
        return artifact
    if isinstance(artifact, str):
        with open(artifact, "rb") as f:
            return f.read()
    return (_canonical(artifact) + "\n").encode()


# ---------------------------------------------------------------------------
# The registry
# ---------------------------------------------------------------------------

class RunRegistry:
    """Append-only JSONL run index + content-addressed artifact store."""

    def __init__(self, root: str = DEFAULT_REGISTRY_ROOT):
        self.root = str(root)

    # ---- paths ----

    @property
    def index_path(self) -> str:
        return os.path.join(self.root, "index.jsonl")

    @property
    def objects_dir(self) -> str:
        return os.path.join(self.root, "objects")

    def _object_path(self, sha: str) -> str:
        return os.path.join(self.objects_dir, sha[:2], sha)

    # ---- writing ----

    def _store_object(self, data: bytes) -> Dict[str, Any]:
        sha = _sha256(data)
        path = self._object_path(sha)
        if not os.path.exists(path):
            os.makedirs(os.path.dirname(path), exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path))
            try:
                with os.fdopen(fd, "wb") as f:
                    f.write(data)
                os.replace(tmp, path)
            except BaseException:
                if os.path.exists(tmp):
                    os.unlink(tmp)
                raise
        return {"sha256": sha, "bytes": len(data)}

    def register(self, kind: str, *,
                 metrics: Optional[Dict[str, Any]] = None,
                 meta: Optional[Dict[str, Any]] = None,
                 config: Optional[Dict[str, Any]] = None,
                 sequence: Optional[str] = None,
                 artifacts: Optional[Dict[str, Any]] = None,
                 environment: Optional[Dict[str, Any]] = None,
                 ) -> Dict[str, Any]:
        """Append one run record; returns the record (with ``run_id``).

        ``artifacts`` maps names to bytes, file paths, or JSON-able
        objects; each is stored content-addressed.  ``environment``
        defaults to the live fingerprint (pass a recorded one when
        ingesting a payload produced elsewhere).
        """
        refs = {name: self._store_object(_as_bytes(data))
                for name, data in sorted((artifacts or {}).items())}
        seq = len(self.runs(strict=False)) + 1
        record = {
            "schema_version": REGISTRY_SCHEMA_VERSION,
            "seq": seq,
            "created": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "created_ts": round(time.time(), 3),
            "kind": str(kind),
            "key": {
                "environment": dict(environment if environment is not None
                                    else environment_fingerprint()),
                "git_sha": git_revision(),
                "config_hash": config_hash(config),
                "dataset": sequence,
            },
            "config": to_plain(config) if config is not None else None,
            "meta": to_plain(meta) if meta else {},
            "metrics": {k: float(v)
                        for k, v in sorted((metrics or {}).items())
                        if v is not None},
            "artifacts": refs,
        }
        record["run_id"] = "r" + _sha256(_canonical(record).encode())[:12]
        os.makedirs(self.root, exist_ok=True)
        with open(self.index_path, "a", encoding="utf-8") as f:
            f.write(json.dumps(record, sort_keys=True) + "\n")
        stats = self.stats()
        bus.publish("registry", {
            "run_id": record["run_id"],
            "seq": seq,
            "kind": record["kind"],
            "root": self.root,
            "runs_total": stats["runs"],
            "objects_total": stats["objects"],
            "bytes_total": stats["bytes"],
        })
        return record

    # ---- reading ----

    def runs(self, kind: Optional[str] = None,
             strict: bool = True) -> List[Dict[str, Any]]:
        """Every index record in registration order.

        ``strict`` raises on malformed lines or unsupported schema
        versions; ``strict=False`` skips them (used internally while
        assigning sequence numbers so one bad line cannot brick
        registration).
        """
        records: List[Dict[str, Any]] = []
        if not os.path.exists(self.index_path):
            return records
        with open(self.index_path, encoding="utf-8") as f:
            for lineno, line in enumerate(f, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError as exc:
                    if strict:
                        raise ValueError(
                            f"{self.index_path}:{lineno}: malformed "
                            f"registry record ({exc})") from exc
                    continue
                version = record.get("schema_version")
                if version != REGISTRY_SCHEMA_VERSION:
                    if strict:
                        raise ValueError(
                            f"{self.index_path}:{lineno}: registry schema "
                            f"v{version} != supported "
                            f"v{REGISTRY_SCHEMA_VERSION}")
                    continue
                records.append(record)
        if kind is not None:
            records = [r for r in records if r.get("kind") == kind]
        return records

    def get(self, ref: str) -> Dict[str, Any]:
        """Resolve a run by id, unique id prefix, or sequence number.

        Integer-like refs address by position (``-1`` is the latest run,
        ``1`` the first).  Raises KeyError when nothing (or more than
        one run) matches.
        """
        records = self.runs()
        try:
            seq = int(ref)
        except (TypeError, ValueError):
            seq = None
        if seq is not None:
            if seq < 0:
                if -seq <= len(records):
                    return records[seq]
            else:
                for record in records:
                    if record.get("seq") == seq:
                        return record
            raise KeyError(f"no run with sequence number {ref}")
        matches = [r for r in records
                   if str(r.get("run_id", "")).startswith(ref)]
        if not matches:
            raise KeyError(f"no run matching {ref!r}")
        exact = [r for r in matches if r.get("run_id") == ref]
        if exact:
            return exact[-1]
        if len(matches) > 1:
            ids = ", ".join(r["run_id"] for r in matches[:5])
            raise KeyError(f"ambiguous run ref {ref!r} (matches {ids})")
        return matches[0]

    def artifact_path(self, record: Dict[str, Any], name: str) -> str:
        """Filesystem path of one of the record's artifact blobs."""
        refs = record.get("artifacts") or {}
        if name not in refs:
            raise KeyError(f"run {record.get('run_id')} has no "
                           f"artifact {name!r}")
        path = self._object_path(refs[name]["sha256"])
        if not os.path.exists(path):
            raise FileNotFoundError(
                f"artifact object missing: {path} (pruned?)")
        return path

    def read_artifact(self, record: Dict[str, Any], name: str) -> bytes:
        with open(self.artifact_path(record, name), "rb") as f:
            return f.read()

    def load_artifact_json(self, record: Dict[str, Any], name: str) -> Any:
        return json.loads(self.read_artifact(record, name).decode())

    def load_flight(self, record: Dict[str, Any]) -> FlightLog:
        """Parse the record's ``flight`` artifact into a FlightLog."""
        lines = self.read_artifact(record, "flight").decode().splitlines()
        return parse_flight_records(
            [json.loads(line) for line in lines if line.strip()],
            path=f"{record.get('run_id')}:flight")

    def stats(self) -> Dict[str, Any]:
        """Registry totals: run count, object count, stored bytes."""
        objects = 0
        total = 0
        if os.path.isdir(self.objects_dir):
            for dirpath, _dirnames, filenames in os.walk(self.objects_dir):
                for name in filenames:
                    objects += 1
                    total += os.path.getsize(os.path.join(dirpath, name))
        return {"root": self.root, "runs": len(self.runs(strict=False)),
                "objects": objects, "bytes": total}

    # ---- maintenance ----

    def prune(self, keep: int) -> Dict[str, int]:
        """Keep the most recent ``keep`` runs; drop unreferenced objects.

        The one operation that rewrites the index (atomically, via a
        temp file + rename).  Returns removal counts.
        """
        if keep < 0:
            raise ValueError("keep must be >= 0")
        records = self.runs()
        kept = records[len(records) - keep:] if keep else []
        removed_runs = len(records) - len(kept)
        live = {ref["sha256"] for record in kept
                for ref in (record.get("artifacts") or {}).values()}
        removed_objects = 0
        freed = 0
        if os.path.isdir(self.objects_dir):
            for dirpath, _dirnames, filenames in os.walk(self.objects_dir):
                for name in filenames:
                    if name in live:
                        continue
                    path = os.path.join(dirpath, name)
                    freed += os.path.getsize(path)
                    os.unlink(path)
                    removed_objects += 1
        if os.path.exists(self.index_path) or kept:
            os.makedirs(self.root, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=self.root)
            with os.fdopen(fd, "w", encoding="utf-8") as f:
                for record in kept:
                    f.write(json.dumps(record, sort_keys=True) + "\n")
            os.replace(tmp, self.index_path)
        return {"removed_runs": removed_runs,
                "removed_objects": removed_objects,
                "freed_bytes": freed,
                "kept_runs": len(kept)}


# ---------------------------------------------------------------------------
# Metric extraction: artifacts -> the flat trendable {name: number} dict
# ---------------------------------------------------------------------------

def _mean(values: Iterable[Any]) -> Optional[float]:
    xs = [float(v) for v in values if v is not None]
    return (sum(xs) / len(xs)) if xs else None


def flight_metrics(log: FlightLog) -> Dict[str, float]:
    """Flat headline metrics of one SLAM flight log.

    ATE sections, final map size, mean frame wall time, the mean alpha
    rejection rate (the run's sparsity ratio), and the per-stage
    workload counters summed over every frame — the quantities ``repro
    runs trend`` draws time series of.
    """
    out: Dict[str, float] = {}
    summary = log.summary or {}
    for key, value in (summary.get("ate") or {}).items():
        if isinstance(value, (int, float)):
            out[f"slam.ate.{key}_m"] = float(value)
    for key in ("final_gaussians", "mapping_invocations",
                "tracking_iterations"):
        if summary.get(key) is not None:
            out[f"slam.{key}"] = float(summary[key])
    out["slam.frames"] = float(log.num_frames)
    wall_mean = _mean(log.series("wall_time_s"))
    if wall_mean is not None:
        out["slam.wall.mean_s"] = wall_mean
    rejection = _mean(log.series("alpha.rejection_rate"))
    if rejection is not None:
        out["slam.alpha.rejection_mean"] = rejection
    totals: Dict[str, float] = {}
    for frame in log.frames:
        for stage, counters in (frame.get("counters") or {}).items():
            for name, value in (counters or {}).items():
                key = f"slam.{stage}.{name}"
                totals[key] = totals.get(key, 0.0) + float(value)
    out.update(totals)
    return out


def bench_metrics(payload: Dict[str, Any]) -> Dict[str, float]:
    """Flat metrics of one ``repro bench run`` trajectory payload.

    Every scenario's exact counters, modeled cycles/bytes, info
    quantities and overhead ratios, namespaced
    ``bench.<scenario>.<section>.<metric>``.
    """
    out: Dict[str, float] = {}
    for name, scn in sorted((payload.get("scenarios") or {}).items()):
        prefix = f"bench.{name}"
        for section in ("counters", "model", "info"):
            for key, value in sorted((scn.get(section) or {}).items()):
                if isinstance(value, (int, float)):
                    out[f"{prefix}.{section}.{key}"] = float(value)
        overhead = scn.get("overhead") or {}
        if "ratio" in overhead:
            out[f"{prefix}.overhead.ratio"] = float(overhead["ratio"])
        for key, extra in sorted((overhead.get("extra") or {}).items()):
            if isinstance(extra, dict) and "ratio" in extra:
                out[f"{prefix}.overhead.{key}"] = float(extra["ratio"])
    return out


# ---------------------------------------------------------------------------
# Ingestion entry points
# ---------------------------------------------------------------------------

def ingest_slam_run(registry: RunRegistry,
                    records: List[Dict[str, Any]], *,
                    config: Optional[Dict[str, Any]] = None,
                    sequence: Optional[str] = None,
                    extra_artifacts: Optional[Dict[str, Any]] = None,
                    extra_metrics: Optional[Dict[str, Any]] = None,
                    ) -> Dict[str, Any]:
    """Register one finished SLAM run from its flight-record stream.

    ``records`` is the flight recorder's in-memory record list (header +
    frames + summary); it becomes the run's ``flight`` artifact and the
    source of the registered metrics.  ``SLAMSystem.run(registry=...)``
    and ``repro runs ingest --flight`` both land here.
    """
    plain = [to_plain(r) for r in records]
    log = parse_flight_records(plain)
    metrics = flight_metrics(log)
    if extra_metrics:
        metrics.update(extra_metrics)
    header = log.header
    meta = {key: header.get(key)
            for key in ("algorithm", "mode", "frames", "width", "height")
            if header.get(key) is not None}
    if config is None:
        config = header.get("config")
    artifacts: Dict[str, Any] = {
        "flight": "".join(json.dumps(r, sort_keys=True) + "\n"
                          for r in plain).encode(),
    }
    if extra_artifacts:
        artifacts.update(extra_artifacts)
    return registry.register(
        "slam", metrics=metrics, meta=meta, config=config,
        sequence=sequence if sequence is not None
        else header.get("sequence"),
        artifacts=artifacts)


def ingest_bench_payload(registry: RunRegistry,
                         payload: Dict[str, Any], *,
                         extra_artifacts: Optional[Dict[str, Any]] = None,
                         ) -> Dict[str, Any]:
    """Register one ``repro bench run`` trajectory payload."""
    config = {
        "suite": payload.get("suite"),
        "repetitions": payload.get("repetitions"),
        "sequence": payload.get("sequence"),
        "scenarios": sorted((payload.get("scenarios") or {})),
    }
    meta = {"suite": payload.get("suite"),
            "repetitions": payload.get("repetitions")}
    artifacts: Dict[str, Any] = {"bench": payload}
    if extra_artifacts:
        artifacts.update(extra_artifacts)
    return registry.register(
        "bench", metrics=bench_metrics(payload), meta=meta, config=config,
        sequence=payload.get("sequence"),
        environment=payload.get("environment"),
        artifacts=artifacts)
