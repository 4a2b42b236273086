"""Hierarchical span tracer for the SLAM + hardware-model stack.

``trace.span("tracking_fwd", frame=i)`` opens a nested, wall-clock
(``perf_counter``) span with attached attributes.  The tracer is a small
explicit state machine — no threads, no globals beyond the module
singleton — and is **disabled by default**: a disabled ``span()`` call
returns one shared no-op context manager, so instrumented hot paths pay a
single attribute load + branch and allocate nothing persistent.

Captured traces export two ways:

- :meth:`Tracer.to_chrome_trace` / :meth:`Tracer.write_chrome_trace` —
  Chrome trace-event JSON ("X" complete events with ``name/ph/ts/dur/
  pid/tid``), loadable in Perfetto or ``chrome://tracing``;
- :meth:`Tracer.stage_table` / :meth:`Tracer.format_summary` — a per-span
  aggregate (count, total time, self time) rendered as a markdown table.

Self time is total time minus the time spent in child spans, which is what
the paper's stage breakdowns (Figs. 4/5/14) report per pipeline stage.

Continuous profiling: every span also records CPU time
(``process_time_ns``) with the same parent/child self-time accounting, so
wall-vs-CPU gaps expose blocking (I/O, page faults) per stage.  Per-span
allocation and peak-memory deltas (``tracemalloc``) are available behind
the opt-in ``memory`` flag of :meth:`Tracer.enable` /
:meth:`Tracer.capture` — tracemalloc multiplies allocation cost, so it is
never on by default.  ``repro.obs.prof`` renders the top-N
self-time/alloc tables from these fields.
"""

from __future__ import annotations

import json
import tracemalloc
from contextlib import contextmanager
from time import perf_counter, process_time_ns
from typing import Any, Dict, List, Optional

from .telemetry import bus as _bus

__all__ = ["SpanRecord", "Tracer", "trace"]


class _NullSpan:
    """Shared do-nothing span returned while tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def set(self, **attrs) -> "_NullSpan":
        return self


_NULL_SPAN = _NullSpan()


class SpanRecord:
    """One finished span: timing, nesting depth, and attributes."""

    __slots__ = ("name", "start", "duration", "depth", "attrs", "self_time",
                 "cpu_time", "self_cpu", "alloc_bytes", "peak_bytes")

    def __init__(self, name: str, start: float, duration: float, depth: int,
                 attrs: Dict[str, Any], self_time: float,
                 cpu_time: float = 0.0, self_cpu: float = 0.0,
                 alloc_bytes: Optional[int] = None,
                 peak_bytes: Optional[int] = None):
        self.name = name
        self.start = start          # seconds since tracer epoch
        self.duration = duration    # seconds
        self.depth = depth          # 0 == root
        self.attrs = attrs
        self.self_time = self_time  # duration minus child-span time
        self.cpu_time = cpu_time    # process_time seconds
        self.self_cpu = self_cpu    # cpu_time minus child-span CPU time
        # tracemalloc deltas; None unless memory profiling was on.
        self.alloc_bytes = alloc_bytes  # net allocation delta over the span
        self.peak_bytes = peak_bytes    # peak traced memory above entry

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"SpanRecord({self.name!r}, depth={self.depth}, "
                f"dur={self.duration * 1e3:.3f}ms)")


class _LiveSpan:
    """An open span; created only while the tracer is enabled."""

    __slots__ = ("_tracer", "name", "attrs", "start", "depth", "child_time",
                 "cpu_start", "child_cpu", "mem_start", "peak_seen")

    def __init__(self, tracer: "Tracer", name: str, attrs: Dict[str, Any]):
        self._tracer = tracer
        self.name = name
        self.attrs = attrs
        self.start = 0.0
        self.depth = 0
        self.child_time = 0.0
        self.cpu_start = 0
        self.child_cpu = 0.0
        self.mem_start: Optional[int] = None
        self.peak_seen = 0

    def set(self, **attrs) -> "_LiveSpan":
        """Attach attributes after the span opened."""
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "_LiveSpan":
        stack = self._tracer._stack
        self.depth = len(stack)
        stack.append(self)
        if self._tracer._memory:
            self.mem_start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
        # Clocks are read last so setup cost stays outside the span.
        self.cpu_start = process_time_ns()
        self.start = perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        end = perf_counter()
        cpu_end = process_time_ns()
        tracer = self._tracer
        duration = end - self.start
        cpu_time = (cpu_end - self.cpu_start) * 1e-9
        alloc_bytes = peak_bytes = None
        if tracer._memory and self.mem_start is not None:
            current, peak = tracemalloc.get_traced_memory()
            # reset_peak() in nested children clips the absolute peak;
            # children propagate theirs upward through ``peak_seen``.
            peak = max(peak, self.peak_seen)
            alloc_bytes = current - self.mem_start
            peak_bytes = max(0, peak - self.mem_start)
            tracemalloc.reset_peak()
        stack = tracer._stack
        # Unwind defensively: a span abandoned by an exception deeper in
        # the stack must not corrupt the parent chain.
        while stack and stack[-1] is not self:
            stack.pop()
        if stack:
            stack.pop()
        if stack:
            parent = stack[-1]
            parent.child_time += duration
            parent.child_cpu += cpu_time
            if peak_bytes is not None and self.mem_start is not None:
                parent.peak_seen = max(parent.peak_seen,
                                       self.mem_start + peak_bytes)
        tracer._records.append(SpanRecord(
            self.name, self.start - tracer._epoch, duration, self.depth,
            self.attrs, duration - self.child_time,
            cpu_time, cpu_time - self.child_cpu,
            alloc_bytes, peak_bytes))
        if _bus.enabled:
            # Live telemetry: completed spans stream onto the bus.  The
            # payload is built only behind the enabled check, so tracing
            # with the bus off costs nothing extra.
            payload: Dict[str, Any] = {
                "name": self.name,
                "dur_s": duration,
                "self_s": duration - self.child_time,
                "cpu_s": cpu_time,
                "depth": self.depth,
            }
            if self.attrs:
                payload["attrs"] = {k: _jsonable(v)
                                    for k, v in self.attrs.items()}
            _bus.publish("span", payload)
        return False


def _jsonable(value: Any) -> Any:
    """Coerce an attribute value into something ``json.dump`` accepts."""
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    item = getattr(value, "item", None)
    if callable(item):
        try:
            return _jsonable(item())
        except (TypeError, ValueError):
            pass
    return str(value)


class Tracer:
    """Records nested wall-clock spans; disabled (and free) by default."""

    def __init__(self, enabled: bool = False):
        self._enabled = bool(enabled)
        self._records: List[SpanRecord] = []
        self._stack: List[_LiveSpan] = []
        self._epoch = perf_counter()
        self._memory = False        # per-span tracemalloc deltas (opt-in)
        self._mem_started = False   # whether *we* started tracemalloc

    # ---- lifecycle ----

    @property
    def enabled(self) -> bool:
        return self._enabled

    @property
    def profile_memory(self) -> bool:
        """Whether per-span tracemalloc deltas are being collected."""
        return self._memory

    def enable(self, reset: bool = True,
               memory: Optional[bool] = None) -> None:
        if reset:
            self.reset()
        if memory is not None:
            self.set_memory_profiling(memory)
        self._enabled = True

    def disable(self) -> None:
        self._enabled = False

    def set_memory_profiling(self, on: bool) -> None:
        """Toggle per-span allocation/peak tracking (tracemalloc)."""
        on = bool(on)
        if on and not self._memory:
            if not tracemalloc.is_tracing():
                tracemalloc.start()
                self._mem_started = True
            self._memory = True
        elif not on and self._memory:
            self._memory = False
            if self._mem_started:
                tracemalloc.stop()
                self._mem_started = False

    def reset(self) -> None:
        self._records = []
        self._stack = []
        self._epoch = perf_counter()

    @contextmanager
    def capture(self, reset: bool = True, memory: Optional[bool] = None):
        """Enable tracing for the duration of a ``with`` block."""
        was_enabled = self._enabled
        was_memory = self._memory
        self.enable(reset=reset, memory=memory)
        try:
            yield self
        finally:
            self._enabled = was_enabled
            if memory is not None:
                self.set_memory_profiling(was_memory)

    # ---- recording ----

    def span(self, name: str, **attrs):
        """Open a span; a context manager (no-op while disabled)."""
        if not self._enabled:
            return _NULL_SPAN
        return _LiveSpan(self, name, attrs)

    @property
    def records(self) -> List[SpanRecord]:
        """Finished spans, in completion order."""
        return list(self._records)

    def span_names(self) -> List[str]:
        """Distinct span names, in first-completion order."""
        seen: Dict[str, None] = {}
        for r in self._records:
            seen.setdefault(r.name, None)
        return list(seen)

    # ---- export: Chrome trace-event JSON ----

    def to_chrome_trace(self, pid: int = 0, tid: int = 0) -> List[Dict]:
        """Complete ("X") trace events, start-ordered, times in µs."""
        events = []
        for r in sorted(self._records, key=lambda r: r.start):
            event: Dict[str, Any] = {
                "name": r.name,
                "ph": "X",
                "ts": round(r.start * 1e6, 3),
                "dur": round(r.duration * 1e6, 3),
                "pid": pid,
                "tid": tid,
            }
            if r.attrs:
                event["args"] = {k: _jsonable(v) for k, v in r.attrs.items()}
            events.append(event)
        return events

    def write_chrome_trace(self, path: str, pid: int = 0, tid: int = 0) -> int:
        """Write the event array to ``path``; returns the event count."""
        events = self.to_chrome_trace(pid=pid, tid=tid)
        with open(path, "w") as f:
            json.dump(events, f, indent=1, sort_keys=True)
            f.write("\n")
        return len(events)

    # ---- export: per-stage summary ----

    def stage_table(self) -> List[Dict[str, Any]]:
        """Aggregate spans by name: count, wall/CPU totals, self times.

        Rows always carry ``span/count/total_s/self_s`` (the original
        schema) plus ``cpu_total_s``/``cpu_self_s``; when memory
        profiling was on, also summed ``alloc_bytes`` and the maximum
        per-span ``peak_bytes``.
        """
        agg: Dict[str, Dict[str, Any]] = {}
        for r in self._records:
            row = agg.setdefault(r.name, {
                "span": r.name, "count": 0, "total_s": 0.0, "self_s": 0.0,
                "cpu_total_s": 0.0, "cpu_self_s": 0.0,
            })
            row["count"] += 1
            row["total_s"] += r.duration
            row["self_s"] += r.self_time
            row["cpu_total_s"] += r.cpu_time
            row["cpu_self_s"] += r.self_cpu
            if r.alloc_bytes is not None:
                row["alloc_bytes"] = row.get("alloc_bytes", 0) + r.alloc_bytes
                row["peak_bytes"] = max(row.get("peak_bytes", 0),
                                        r.peak_bytes or 0)
        return sorted(agg.values(), key=lambda row: -row["self_s"])

    def format_summary(self, title: Optional[str] = None) -> str:
        """Markdown table of the per-stage breakdown (self-time ordered)."""
        rows = self.stage_table()
        wall = sum(row["self_s"] for row in rows)
        lines = []
        if title:
            lines.append(f"### {title}")
        lines += [
            "| span | count | total ms | self ms | self % |",
            "|---|---:|---:|---:|---:|",
        ]
        for row in rows:
            share = row["self_s"] / wall if wall > 0 else 0.0
            lines.append(
                f"| {row['span']} | {row['count']} "
                f"| {row['total_s'] * 1e3:.2f} | {row['self_s'] * 1e3:.2f} "
                f"| {share * 100.0:.1f} |")
        if not rows:
            lines.append("| (no spans recorded) | 0 | 0.00 | 0.00 | 0.0 |")
        return "\n".join(lines)


#: Process-wide default tracer; instrumented modules share this instance.
trace = Tracer()
