"""Regression gate: diff a BENCH_trajectory run against a baseline.

The comparator walks the scenario sections of two
:mod:`repro.obs.bench` payloads and classifies every metric:

- ``counters`` — **exact**.  These are deterministic workload counters
  (pixel–Gaussian pairs, atomic adds, sort keys); any mismatch means the
  workload silently changed and fails the gate.  A current scenario
  whose counters varied between repetitions (``stable_counters:
  false``) fails too: its counters are not a fingerprint.
- ``model``    — modeled cycles/latency/bytes, deterministic functions
  of the counters; compared with a tiny relative tolerance (absolute
  floor for zero-valued baselines).  Oriented smaller-is-better: larger
  beyond tolerance regresses, smaller improves.
- ``overhead`` — the observability-overhead budget: the ``obs_overhead``
  scenario's instrumented/all-off wall ratios (the all-on leg plus the
  telemetry-bus legs under ``extra``) must not exceed the committed
  baseline ratios beyond a hard slack.  Compared only when both payloads
  carry the section, so old baselines keep working.

Wall time is judged by ``perfbench/``, not here; sections other than
these (such as the ``wall`` tables of older trajectories) are ignored.

Missing scenarios/metrics in the current run fail (``removed``); new
ones pass with a note (``new``).  Schema-version or file problems are
reported as errors and also fail.  Before attributing pass/fail, the
comparator diffs the two payloads' environment fingerprints
(python/numpy/cpu_count/...) and reports mismatches as explicit
warnings — cross-machine comparisons should never be trusted silently,
but a mismatch by itself does not fail the gate (the counter/model
sections stay machine-portable).  Everything is stdlib-only.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence

from .bench import SCHEMA_VERSION

__all__ = [
    "TolerancePolicy",
    "Finding",
    "RegressionReport",
    "load_trajectory",
    "compare_runs",
    "compare_files",
]

#: Sections of a scenario payload the gate inspects, in report order.
DEFAULT_SECTIONS = ("counters", "model", "overhead")


@dataclass(frozen=True)
class TolerancePolicy:
    """Per-kind comparison tolerances."""

    #: Relative tolerance for modeled (deterministic float) metrics.
    model_rel: float = 1e-6
    #: Absolute floor for modeled metrics with zero-valued baselines.
    model_abs: float = 1e-12
    #: Observability-overhead budget: the all-on/all-off wall ratio may
    #: exceed the committed baseline ratio by at most this relative slack...
    overhead_rel: float = 0.35
    #: ... with this absolute ratio floor (small scenarios jitter), and
    overhead_abs: float = 0.5
    #: the excess must also clear this many MADs (max of both runs').
    overhead_mad_factor: float = 4.0


@dataclass
class Finding:
    """Verdict for one metric of one scenario."""

    scenario: str
    metric: str
    kind: str                     # "counter" | "model" | "overhead"
                                  # | "scenario"
    baseline: Optional[float]
    current: Optional[float]
    status: str                   # "ok" | "improved" | "regressed"
                                  # | "new" | "removed"
    detail: str = ""


@dataclass
class RegressionReport:
    """All findings of one comparison plus structural errors."""

    findings: List[Finding] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)
    #: Environment-fingerprint differences between the payloads.  Warn
    #: only: they flag untrustworthy overhead ratios, not regressions.
    env_mismatches: List[str] = field(default_factory=list)

    @property
    def regressions(self) -> List[Finding]:
        return [f for f in self.findings
                if f.status in ("regressed", "removed")]

    @property
    def passed(self) -> bool:
        return not self.regressions and not self.errors

    @property
    def exit_code(self) -> int:
        """0 clean, 1 metric regressions, 2 structural errors."""
        if self.errors:
            return 2
        return 0 if self.passed else 1

    def counts(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for f in self.findings:
            out[f.status] = out.get(f.status, 0) + 1
        return out

    def to_dict(self) -> Dict[str, Any]:
        return {
            "passed": self.passed,
            "counts": {k: v for k, v in sorted(self.counts().items())},
            "errors": list(self.errors),
            "env_mismatches": list(self.env_mismatches),
            "findings": [asdict(f) for f in self.findings
                         if f.status != "ok"],
        }

    def write_json(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump(self.to_dict(), f, indent=1, sort_keys=True)
            f.write("\n")

    def format_markdown(self, max_rows: int = 50) -> str:
        counts = self.counts()
        summary = ", ".join(f"{v} {k}" for k, v in sorted(counts.items()))
        verdict = "PASS" if self.passed else "FAIL"
        lines = [f"### bench compare — {verdict} ({summary or 'no metrics'})"]
        for mismatch in self.env_mismatches:
            lines.append(f"- WARNING: environment mismatch — {mismatch} "
                         f"(overhead-ratio comparison untrustworthy "
                         f"across machines)")
        for err in self.errors:
            lines.append(f"- ERROR: {err}")
        notable = [f for f in self.findings if f.status != "ok"]
        # Failures first, then improvements/new, alphabetical within.
        order = {"removed": 0, "regressed": 1, "improved": 2, "new": 3}
        notable.sort(key=lambda f: (order.get(f.status, 9),
                                    f.scenario, f.metric))
        if notable:
            lines += [
                "",
                "| scenario | metric | kind | baseline | current "
                "| status | detail |",
                "|---|---|---|---:|---:|---|---|",
            ]
            for f in notable[:max_rows]:
                lines.append(
                    f"| {f.scenario} | {f.metric} | {f.kind} "
                    f"| {_fmt(f.baseline)} | {_fmt(f.current)} "
                    f"| {f.status} | {f.detail} |")
            if len(notable) > max_rows:
                lines.append(f"| ... | +{len(notable) - max_rows} more "
                             f"| | | | | |")
        return "\n".join(lines)


def _fmt(value: Optional[float]) -> str:
    if value is None:
        return "—"
    f = float(value)
    if f.is_integer() and abs(f) < 1e15:
        return str(int(f))
    return f"{f:.6g}"


# ---------------------------------------------------------------------------
# Comparison core
# ---------------------------------------------------------------------------

def _check_schema(doc: Any, label: str, errors: List[str]) -> bool:
    if not isinstance(doc, dict):
        errors.append(f"{label}: not a JSON object")
        return False
    version = doc.get("schema_version")
    if version != SCHEMA_VERSION:
        errors.append(f"{label}: schema_version {version!r} != "
                      f"supported {SCHEMA_VERSION}")
        return False
    if not isinstance(doc.get("scenarios"), dict):
        errors.append(f"{label}: missing 'scenarios' object")
        return False
    return True


def _compare_exact(name: str, metric: str, base: float, cur: float) -> Finding:
    if cur == base:
        return Finding(name, metric, "counter", base, cur, "ok")
    return Finding(name, metric, "counter", base, cur, "regressed",
                   f"exact counter changed {_fmt(base)} -> {_fmt(cur)}")


def _compare_model(name: str, metric: str, base: float, cur: float,
                   policy: TolerancePolicy) -> Finding:
    tol = max(policy.model_abs, policy.model_rel * abs(base))
    if cur > base + tol:
        return Finding(name, metric, "model", base, cur, "regressed",
                       f"exceeds baseline by {cur - base:.3g} "
                       f"(tolerance {tol:.3g})")
    if cur < base - tol:
        return Finding(name, metric, "model", base, cur, "improved",
                       f"below baseline by {base - cur:.3g}")
    return Finding(name, metric, "model", base, cur, "ok")


def _compare_overhead_ratio(name: str, metric: str,
                            base_over: Dict[str, Any],
                            cur_over: Dict[str, Any],
                            policy: TolerancePolicy) -> Finding:
    base = float(base_over.get("ratio", 0.0))
    cur = float(cur_over.get("ratio", 0.0))
    mad = max(float(base_over.get("mad", 0.0)),
              float(cur_over.get("mad", 0.0)))
    slack = max(policy.overhead_abs, base * policy.overhead_rel,
                policy.overhead_mad_factor * mad)
    if cur > base + slack:
        return Finding(name, metric, "overhead", base, cur, "regressed",
                       f"obs overhead grew {base:.3f}x -> {cur:.3f}x "
                       f"(budget {base + slack:.3f}x)")
    if cur < base - slack:
        return Finding(name, metric, "overhead", base, cur, "improved",
                       f"obs overhead shrank {base:.3f}x -> {cur:.3f}x")
    return Finding(name, metric, "overhead", base, cur, "ok")


def _compare_overhead(name: str, base_over: Dict[str, Any],
                      cur_over: Dict[str, Any],
                      policy: TolerancePolicy) -> List[Finding]:
    """The headline ratio plus any named extra ratios (e.g. the
    telemetry-bus legs), each under the same budget rule.  Extras absent
    from the baseline pass as ``new``; extras the current run dropped
    fail as ``removed``."""
    findings = [_compare_overhead_ratio(name, "overhead.ratio",
                                        base_over, cur_over, policy)]
    base_extra = base_over.get("extra") or {}
    cur_extra = cur_over.get("extra") or {}
    for key in sorted(set(base_extra) | set(cur_extra)):
        metric = f"overhead.{key}"
        if key not in cur_extra:
            findings.append(Finding(
                name, metric, "overhead",
                float(base_extra[key].get("ratio", 0.0)), None, "removed",
                "overhead ratio missing from current run"))
        elif key not in base_extra:
            findings.append(Finding(
                name, metric, "overhead", None,
                float(cur_extra[key].get("ratio", 0.0)), "new",
                "overhead ratio absent from baseline"))
        else:
            findings.append(_compare_overhead_ratio(
                name, metric, base_extra[key], cur_extra[key], policy))
    return findings


def _compare_section(name: str, section: str, base: Dict[str, Any],
                     cur: Dict[str, Any],
                     policy: TolerancePolicy) -> List[Finding]:
    kind = "counter" if section == "counters" else "model"
    base_metrics = base.get(section) or {}
    cur_metrics = cur.get(section) or {}
    findings = []
    for key in sorted(base_metrics):
        metric = f"{section}.{key}"
        if key not in cur_metrics:
            findings.append(Finding(name, metric, kind,
                                    float(base_metrics[key]), None,
                                    "removed",
                                    "metric missing from current run"))
            continue
        base_v, cur_v = float(base_metrics[key]), float(cur_metrics[key])
        if section == "counters":
            findings.append(_compare_exact(name, metric, base_v, cur_v))
        else:
            findings.append(_compare_model(name, metric, base_v, cur_v,
                                           policy))
    for key in sorted(set(cur_metrics) - set(base_metrics)):
        findings.append(Finding(name, f"{section}.{key}", kind, None,
                                float(cur_metrics[key]), "new",
                                "metric absent from baseline"))
    return findings


def _env_mismatches(baseline: Dict[str, Any],
                    current: Dict[str, Any]) -> List[str]:
    """Fingerprint keys where the two payloads' environments differ."""
    base_env = baseline.get("environment") or {}
    cur_env = current.get("environment") or {}
    out = []
    for key in sorted(set(base_env) | set(cur_env)):
        base_v, cur_v = base_env.get(key), cur_env.get(key)
        if base_v != cur_v:
            out.append(f"{key}: baseline {base_v!r} vs current {cur_v!r}")
    return out


def compare_runs(current: Dict[str, Any], baseline: Dict[str, Any],
                 policy: Optional[TolerancePolicy] = None,
                 sections: Sequence[str] = DEFAULT_SECTIONS,
                 ) -> RegressionReport:
    """Diff two suite payloads; see the module docstring for semantics."""
    pol = policy or TolerancePolicy()
    report = RegressionReport()
    ok = _check_schema(baseline, "baseline", report.errors)
    ok = _check_schema(current, "current", report.errors) and ok
    if not ok:
        return report
    report.env_mismatches = _env_mismatches(baseline, current)

    base_scenarios = baseline["scenarios"]
    cur_scenarios = current["scenarios"]
    for name in sorted(base_scenarios):
        if name not in cur_scenarios:
            report.findings.append(Finding(
                name, "(scenario)", "scenario", None, None, "removed",
                "scenario missing from current run"))
            continue
        base, cur = base_scenarios[name], cur_scenarios[name]
        if cur.get("stable_counters") is False:
            report.findings.append(Finding(
                name, "stable_counters", "counter", None, None, "regressed",
                "counters varied across repetitions"))
        for section in sections:
            if section == "overhead":
                if base.get("overhead") and cur.get("overhead"):
                    report.findings.extend(_compare_overhead(
                        name, base["overhead"], cur["overhead"], pol))
                continue
            report.findings.extend(
                _compare_section(name, section, base, cur, pol))
    for name in sorted(set(cur_scenarios) - set(base_scenarios)):
        report.findings.append(Finding(
            name, "(scenario)", "scenario", None, None, "new",
            "scenario absent from baseline"))
    return report


# ---------------------------------------------------------------------------
# File-level entry points
# ---------------------------------------------------------------------------

def load_trajectory(path: str) -> Dict[str, Any]:
    """Load one trajectory JSON; raises OSError / ValueError on problems."""
    with open(path) as f:
        doc = json.load(f)
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: not a JSON object")
    return doc


def compare_files(current_path: str, baseline_path: str,
                  policy: Optional[TolerancePolicy] = None,
                  sections: Sequence[str] = DEFAULT_SECTIONS,
                  scenarios: Optional[Iterable[str]] = None,
                  ) -> RegressionReport:
    """Load + diff two trajectory files; file problems become errors.

    ``scenarios`` restricts both payloads to the named scenarios, so a
    partial current run (e.g. CI gating one scenario) doesn't report
    every other baseline scenario as removed.
    """
    report = RegressionReport()
    docs = {}
    for label, path in (("baseline", baseline_path),
                        ("current", current_path)):
        try:
            docs[label] = load_trajectory(path)
        except FileNotFoundError:
            hint = (" — record one with `repro bench run --out "
                    f"{path}` and commit it" if label == "baseline" else "")
            report.errors.append(f"{label} file not found: {path}{hint}")
        except (OSError, ValueError) as exc:
            report.errors.append(f"{label} file unreadable: {exc}")
    if report.errors:
        return report
    if scenarios is not None:
        wanted = set(scenarios)
        for doc in docs.values():
            if isinstance(doc.get("scenarios"), dict):
                doc["scenarios"] = {k: v for k, v in doc["scenarios"].items()
                                    if k in wanted}
    return compare_runs(docs["current"], docs["baseline"], policy, sections)
