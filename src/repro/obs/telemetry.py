"""In-process telemetry bus: live pub/sub over the observability stream.

Every observability surface in :mod:`repro.obs` is post-hoc — the
tracer, flight recorder, atlas, and profiler all write artifacts after a
run finishes.  The telemetry bus makes the same run *watchable while it
executes*: while enabled, the bus is an observer of
:meth:`repro.slam.SLAMSystem.run`'s event stream (header, frame,
summary), and the health monitors, metrics registry, and span tracer
publish onto the process-wide :data:`bus` too.  Any number of consumers
(the ``/metrics``–``/healthz``–``/runz`` HTTP exporter in
:mod:`repro.obs.promexport`, the newline-JSON :class:`TelemetryStreamer`,
the ``repro top`` dashboard in :mod:`repro.obs.top`) subscribe without
ever blocking the producer.

Design rules, in order of importance:

- **Disabled == free.**  The bus follows the tracer's discipline: a
  disabled :meth:`TelemetryBus.publish` is one attribute load + branch
  and allocates nothing, so the publish hooks on the per-frame SLAM hot
  path cost nothing when live telemetry is off (enforced by the
  ``obs_overhead`` bench scenario and an allocation test).
- **Backpressure-safe.**  Each subscriber owns a bounded ring buffer
  (:class:`Subscription`); when a slow consumer falls behind, the
  *oldest* events are dropped (live-dashboard semantics: recent beats
  complete) and counted, never buffered without bound and never
  blocking the producing run.
- **Stdlib-only.**  No module-level imports from the rest of the
  package, so every producer module may import this one without cycles.

Events are ``(seq, ts, kind, payload)`` tuples: a monotonically
increasing sequence number, a ``time.time()`` stamp, the event kind
(``"frame"``, ``"summary"``, ``"alert"``, ``"metrics"``, ``"span"``,
...), and the JSON-ready payload dict the producer published.
"""

from __future__ import annotations

import json
import socket
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = [
    "DEFAULT_RING",
    "DEFAULT_PORT",
    "STREAM_SCHEMA_VERSION",
    "Event",
    "TelemetryConfig",
    "Subscription",
    "TelemetryBus",
    "bus",
    "RunAggregator",
    "TelemetryStreamer",
]

#: Default per-subscriber ring-buffer capacity (events).
DEFAULT_RING = 1024

#: Default port of the ``repro slam --serve-telemetry`` HTTP exporter.
DEFAULT_PORT = 9464

#: Version of the newline-JSON stream-line layout the
#: :class:`TelemetryStreamer` writes (``{"seq", "ts", "kind", "data"}``).
STREAM_SCHEMA_VERSION = 1

#: One published event: (seq, ts, kind, payload).
Event = Tuple[int, float, str, Dict[str, Any]]


@dataclass(frozen=True)
class TelemetryConfig:
    """Settings shared by the live-telemetry consumers.

    One place for every knob the CLI surfaces: the HTTP exporter's bind
    address, the per-subscriber ring capacity, the newline-JSON stream
    target, and the length of the bounded per-frame series the run
    aggregator keeps for sparklines.
    """

    #: Bind host of the ``/metrics``–``/healthz``–``/runz`` exporter.
    host: str = "127.0.0.1"
    #: Bind port of the exporter (0 picks an ephemeral port).
    port: int = DEFAULT_PORT
    #: Per-subscriber ring-buffer capacity (events).
    ring: int = DEFAULT_RING
    #: Newline-JSON stream target (``tcp://host:port`` /
    #: ``unix:///path`` / file path); ``None`` disables streaming.
    stream_target: Optional[str] = None
    #: Stream pump interval, seconds.
    stream_interval: float = 0.05
    #: Bounded length of the aggregator's per-frame series tails.
    series_len: int = 120

    def __post_init__(self) -> None:
        if self.ring <= 0:
            raise ValueError("ring capacity must be positive")
        if self.series_len <= 0:
            raise ValueError("series_len must be positive")


class Subscription:
    """One consumer's bounded ring buffer onto the bus.

    Never blocks the publisher: when the ring is full the oldest event
    is dropped and :attr:`dropped` incremented.  Consumers call
    :meth:`drain` (or :meth:`drain_into`) to pop everything queued.
    """

    __slots__ = ("name", "kinds", "maxlen", "dropped", "delivered", "_queue")

    def __init__(self, name: str, kinds: Optional[frozenset],
                 maxlen: int = DEFAULT_RING):
        self.name = name
        self.kinds = kinds                 # None == every kind
        self.maxlen = int(maxlen)
        self.dropped = 0                   # events lost to the full ring
        self.delivered = 0                 # events ever enqueued
        self._queue: deque = deque(maxlen=self.maxlen)

    def _offer(self, event: Event) -> None:
        """Enqueue one event (bus-internal, called under the bus lock)."""
        if len(self._queue) == self.maxlen:
            self.dropped += 1              # deque(maxlen) evicts the oldest
        self.delivered += 1
        self._queue.append(event)

    def __len__(self) -> int:
        return len(self._queue)

    def drain(self) -> List[Event]:
        """Pop and return every queued event, oldest first."""
        out: List[Event] = []
        queue = self._queue
        while queue:
            try:
                out.append(queue.popleft())
            except IndexError:      # pragma: no cover - racing publisher
                break
        return out

    def drain_into(self, consume: Callable[[Event], Any]) -> int:
        """Feed every queued event to ``consume``; returns the count."""
        events = self.drain()
        for event in events:
            consume(event)
        return len(events)

    def stats(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "queued": len(self._queue),
            "capacity": self.maxlen,
            "delivered": int(self.delivered),
            "dropped": int(self.dropped),
        }


class TelemetryBus:
    """Bounded, backpressure-safe in-process pub/sub bus.

    Disabled (and free) by default; :meth:`enable` turns publishing on.
    Publishing is fan-out under a lock — each matching subscription gets
    the event offered to its own ring — plus a retained ``latest`` slot
    per kind so late subscribers (and the ``/runz`` endpoint) can read
    current state without having watched the whole stream.
    """

    def __init__(self, enabled: bool = False):
        self._enabled = bool(enabled)
        self._lock = threading.Lock()
        self._subs: List[Subscription] = []
        self._seq = 0
        self._published: Dict[str, int] = {}
        self._latest: Dict[str, Event] = {}
        self._sub_counter = 0

    # ---- lifecycle ----

    @property
    def enabled(self) -> bool:
        return self._enabled

    def enable(self, reset: bool = True) -> None:
        if reset:
            self.reset()
        self._enabled = True

    def disable(self) -> None:
        self._enabled = False

    def reset(self) -> None:
        """Clear retained state and counters (subscriptions persist)."""
        with self._lock:
            self._seq = 0
            self._published = {}
            self._latest = {}

    # ---- subscribing ----

    def subscribe(self, kinds: Optional[Tuple[str, ...]] = None,
                  maxlen: int = DEFAULT_RING,
                  name: Optional[str] = None) -> Subscription:
        """Attach a bounded subscriber; ``kinds=None`` receives all."""
        with self._lock:
            self._sub_counter += 1
            sub = Subscription(
                name or f"sub{self._sub_counter}",
                frozenset(kinds) if kinds is not None else None,
                maxlen=maxlen)
            self._subs.append(sub)
        return sub

    def unsubscribe(self, sub: Subscription) -> None:
        with self._lock:
            try:
                self._subs.remove(sub)
            except ValueError:
                pass

    @property
    def subscriber_count(self) -> int:
        return len(self._subs)

    # ---- publishing ----

    def publish(self, kind: str, payload: Dict[str, Any]) -> None:
        """Publish one event (no-op — and allocation-free — while
        disabled)."""
        if not self._enabled:
            return
        with self._lock:
            self._seq += 1
            event: Event = (self._seq, time.time(), kind, payload)
            self._published[kind] = self._published.get(kind, 0) + 1
            self._latest[kind] = event
            for sub in self._subs:
                if sub.kinds is None or kind in sub.kinds:
                    sub._offer(event)

    # ---- run-event observer (see SLAMSystem.run) ----

    def on_header(self, header: Dict[str, Any]) -> None:
        self.publish("header", header)

    def on_frame(self, record: Dict[str, Any], stages) -> None:
        """Publish the frame record, then the ``slam.*`` gauges it sets
        as a metrics snapshot."""
        if not self._enabled:
            return
        from .metrics import metrics

        self.publish("frame", record)
        for name, value in (("frame", record["frame"]),
                            ("gaussians", record["gaussians"]),
                            ("pose_error_m", record["pose_error_m"]),
                            ("cache_hit_rate", record["cache"]["hit_rate"])):
            metrics.set_gauge(f"slam.{name}", float(value))
        self.publish("metrics", metrics.export())

    def on_summary(self, summary: Dict[str, Any]) -> None:
        self.publish("summary", summary)

    # ---- introspection ----

    def latest(self, kind: str) -> Optional[Dict[str, Any]]:
        """The most recently published payload of ``kind`` (or None)."""
        event = self._latest.get(kind)
        return event[3] if event is not None else None

    def published(self, kind: Optional[str] = None) -> int:
        """Events published in total, or of one ``kind``."""
        if kind is not None:
            return self._published.get(kind, 0)
        return sum(self._published.values())

    def dropped(self) -> int:
        """Events dropped across every subscriber's ring."""
        return sum(sub.dropped for sub in self._subs)

    def stats(self) -> Dict[str, Any]:
        """JSON-ready snapshot of bus health (publish/drop counters)."""
        with self._lock:
            return {
                "enabled": self._enabled,
                "published": sum(self._published.values()),
                "published_by_kind": dict(sorted(self._published.items())),
                "dropped": sum(s.dropped for s in self._subs),
                "subscribers": [s.stats() for s in self._subs],
            }


#: Process-wide default bus; ``SLAMSystem.run`` attaches it as an
#: observer while enabled, and the publish hooks in
#: :mod:`repro.obs.health` / :mod:`repro.obs.metrics` /
#: :mod:`repro.obs.tracing` target it.  Disabled (and free) by default.
bus = TelemetryBus()


# ---------------------------------------------------------------------------
# Run aggregation: bus events -> a live run snapshot
# ---------------------------------------------------------------------------

def _get(record: Dict[str, Any], dotted: str) -> Any:
    current: Any = record
    for part in dotted.split("."):
        if not isinstance(current, dict) or part not in current:
            return None
        current = current[part]
    return current


class RunAggregator:
    """Folds flight-stream bus events into one live run snapshot.

    Both live consumers share this: the HTTP exporter serves
    :meth:`snapshot` as ``/runz``, and ``repro top`` renders it.  It
    keeps bounded per-frame series (ring of the most recent
    ``series_len`` values) so a multi-thousand-frame run aggregates in
    constant memory.
    """

    #: (snapshot key, dotted frame-record path) series the aggregator
    #: keeps a bounded tail of.
    SERIES = (
        ("pose_error_m", "pose_error_m"),
        ("tracking_loss", "tracking.final_loss"),
        ("mapping_loss", "mapping.final_loss"),
        ("gaussians", "gaussians"),
        ("alpha_rejection", "alpha.rejection_rate"),
        ("cache_hit_rate", "cache.hit_rate"),
        ("wall_time_s", "wall_time_s"),
    )

    def __init__(self, series_len: int = 120, alerts_len: int = 16):
        self.series_len = int(series_len)
        self.header: Dict[str, Any] = {}
        self.summary: Optional[Dict[str, Any]] = None
        self.metrics: Optional[Dict[str, Any]] = None
        self.registry: Optional[Dict[str, Any]] = None
        self.frame: Optional[int] = None
        self.frames_seen = 0
        self.last_frame: Optional[Dict[str, Any]] = None
        self.series: Dict[str, deque] = {
            key: deque(maxlen=self.series_len) for key, _ in self.SERIES}
        self.alerts: deque = deque(maxlen=int(alerts_len))
        self.alert_count = 0
        self._pose_sq_sum = 0.0
        self._pose_count = 0
        self._first_ts: Optional[float] = None
        self._last_ts: Optional[float] = None

    # ---- ingestion ----

    def consume_event(self, event: Event) -> None:
        seq, ts, kind, payload = event
        self.consume(kind, payload, ts=ts)

    def consume(self, kind: str, payload: Dict[str, Any],
                ts: Optional[float] = None) -> None:
        if kind == "header":
            self.header = dict(payload)
        elif kind == "frame":
            self._consume_frame(payload, ts)
        elif kind == "summary":
            self.summary = dict(payload)
        elif kind == "alert":
            self.alerts.append(dict(payload))
            self.alert_count += 1
        elif kind == "metrics":
            self.metrics = payload
        elif kind == "registry":
            self.registry = dict(payload)
        # Unknown kinds (spans, bus stats, ...) are ignored, not errors:
        # the aggregator only models the run stream.

    def _consume_frame(self, record: Dict[str, Any],
                       ts: Optional[float]) -> None:
        self.frames_seen += 1
        self.last_frame = record
        frame = record.get("frame")
        if frame is not None:
            self.frame = int(frame)
        for key, dotted in self.SERIES:
            value = _get(record, dotted)
            if value is not None:
                self.series[key].append(float(value))
        err = record.get("pose_error_m")
        if err is not None:
            self._pose_sq_sum += float(err) ** 2
            self._pose_count += 1
        for alert in record.get("alerts") or []:
            # A streamed run's alerts arrive only inside their frame
            # record, live and in a flight replay alike.
            self.alerts.append(dict(alert))
            self.alert_count += 1
        if ts is not None:
            if self._first_ts is None:
                self._first_ts = ts
            self._last_ts = ts

    # ---- derived views ----

    @property
    def done(self) -> bool:
        return self.summary is not None

    def pose_rmse_so_far(self) -> Optional[float]:
        """Running RMSE of the raw per-frame pose error (the live,
        unaligned stand-in for ATE while the run executes)."""
        if not self._pose_count:
            return None
        return (self._pose_sq_sum / self._pose_count) ** 0.5

    def fps(self) -> Optional[float]:
        """Frames per second, preferring recorded frame wall times."""
        walls = self.series["wall_time_s"]
        if walls:
            mean = sum(walls) / len(walls)
            return (1.0 / mean) if mean > 0 else None
        if (self._first_ts is not None and self._last_ts is not None
                and self.frames_seen > 1
                and self._last_ts > self._first_ts):
            return (self.frames_seen - 1) / (self._last_ts - self._first_ts)
        return None

    def snapshot(self) -> Dict[str, Any]:
        """JSON-ready live view of the run (the ``/runz`` document)."""
        last = self.last_frame or {}
        sampling = _get(last, "mapping.sampling")
        fps = self.fps()
        rmse = self.pose_rmse_so_far()
        return {
            "header": dict(self.header),
            "done": self.done,
            "frame": self.frame,
            "frames_seen": self.frames_seen,
            "frames_total": self.header.get("frames"),
            "fps": None if fps is None else round(fps, 3),
            "gaussians": last.get("gaussians"),
            "pose_error_m": last.get("pose_error_m"),
            "pose_rmse_so_far_m": None if rmse is None else rmse,
            "tracking": last.get("tracking"),
            "sampling": sampling,
            "keyframe": last.get("keyframe"),
            "counters": last.get("counters"),
            "cache": last.get("cache"),
            "series": {key: list(values)
                       for key, values in sorted(self.series.items())},
            "alerts": list(self.alerts),
            "alert_count": self.alert_count,
            "summary": self.summary,
            "registry": self.registry,
        }


# ---------------------------------------------------------------------------
# Newline-JSON stream exporter
# ---------------------------------------------------------------------------

def _open_stream_sink(target: str):
    """Open a line sink for ``target``.

    - ``tcp://host:port``   — TCP connection;
    - ``unix:///path/sock`` — unix domain socket;
    - anything else         — appendable file path.
    """
    if target.startswith("tcp://"):
        host, _, port = target[len("tcp://"):].rpartition(":")
        if not host or not port.isdigit():
            raise ValueError(f"bad tcp telemetry target {target!r} "
                             f"(want tcp://host:port)")
        sock = socket.create_connection((host, int(port)), timeout=5.0)
        return sock.makefile("w", encoding="utf-8", newline="\n")
    if target.startswith("unix://"):
        path = target[len("unix://"):]
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.connect(path)
        return sock.makefile("w", encoding="utf-8", newline="\n")
    return open(target, "a", encoding="utf-8")


class TelemetryStreamer:
    """Streams bus events as newline-JSON to a file or socket.

    Each line is ``{"seq": N, "ts": T, "kind": K, "data": {...}}``
    (layout :data:`STREAM_SCHEMA_VERSION`) — tail it with ``tail -f`` /
    ``jq``, or point it at a collector over ``tcp://``/``unix://``.  A
    daemon thread pumps the subscription on an interval; :meth:`pump`
    is also callable synchronously (tests, or final flush on
    :meth:`stop`).

    Sink failures never take the run down: a refused connection at
    :meth:`start` (or a peer disconnect mid-stream) marks the streamer
    :attr:`failed`, and every event that can no longer be written is
    counted in :attr:`dropped` — so ``delivered == lines + dropped``
    holds and the loss is visible rather than fatal.  Pass
    ``strict=True`` to :meth:`start` to get the old raise-on-connect
    behavior.  Malformed targets still raise ValueError.
    """

    def __init__(self, target: str, bus_: Optional[TelemetryBus] = None,
                 kinds: Optional[Tuple[str, ...]] = None,
                 maxlen: int = 4 * DEFAULT_RING,
                 interval: float = 0.05):
        self.target = target
        self.bus = bus_ if bus_ is not None else bus
        self.interval = float(interval)
        self.lines_written = 0
        #: Events drained after the sink failed (part of :attr:`dropped`).
        self.lines_dropped = 0
        self._kinds = kinds
        self._maxlen = int(maxlen)
        self._sub: Optional[Subscription] = None
        self._sink = None
        self._error: Optional[str] = None
        self._thread: Optional[threading.Thread] = None
        self._stop = threading.Event()
        self._lock = threading.Lock()

    @property
    def dropped(self) -> int:
        """Total events lost: ring overflow plus sink-failure drops."""
        ring = self._sub.dropped if self._sub is not None else 0
        return ring + self.lines_dropped

    @property
    def failed(self) -> bool:
        return self._error is not None

    @property
    def error(self) -> Optional[str]:
        return self._error

    def _fail(self, exc: BaseException) -> None:
        self._error = f"{type(exc).__name__}: {exc}"
        if self._sink is not None:
            try:
                self._sink.close()
            except OSError:
                pass
            self._sink = None

    def start(self, background: bool = True,
              strict: bool = False) -> "TelemetryStreamer":
        """Open the sink, subscribe, and (optionally) spawn the pump.

        A sink that cannot be opened (e.g. ``tcp://`` connection
        refused) marks the streamer :attr:`failed` instead of raising,
        so the instrumented run proceeds and the loss shows up in the
        drop counter; ``strict=True`` re-raises.  Malformed targets
        always raise ValueError.
        """
        try:
            self._sink = _open_stream_sink(self.target)
        except OSError as exc:
            if strict:
                raise
            self._fail(exc)
        self._sub = self.bus.subscribe(kinds=self._kinds,
                                       maxlen=self._maxlen,
                                       name=f"stream:{self.target}")
        if background and self._sink is not None:
            self._stop.clear()
            self._thread = threading.Thread(
                target=self._run, name="repro-telemetry-stream", daemon=True)
            self._thread.start()
        return self

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            self.pump()
            if self._sink is None:      # sink went away; stop quietly
                break

    def pump(self) -> int:
        """Drain the subscription into the sink; returns lines written.

        With a failed (or never-opened) sink the drained events are
        counted as dropped instead of written, keeping
        ``delivered == lines_written + dropped + queued`` exact.
        """
        if self._sub is None:
            return 0
        events = self._sub.drain()
        if not events:
            return 0
        with self._lock:
            if self._sink is None:
                self.lines_dropped += len(events)
                return 0
            try:
                for seq, ts, kind, payload in events:
                    json.dump({"seq": seq, "ts": ts, "kind": kind,
                               "data": payload}, self._sink, sort_keys=True)
                    self._sink.write("\n")
                self._sink.flush()
            except OSError as exc:
                # The whole batch is unconfirmed once the sink breaks
                # (buffered writes never reached the peer): count every
                # event as dropped, none as written.
                self._fail(exc)
                self.lines_dropped += len(events)
                return 0
            self.lines_written += len(events)
        return len(events)

    def stop(self) -> Dict[str, Any]:
        """Final pump, detach, close; returns the streamer's stats."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=2.0)
            self._thread = None
        self.pump()
        if self._sub is not None:
            self.bus.unsubscribe(self._sub)
        if self._sink is not None:
            try:
                self._sink.close()
            except OSError:
                pass
            self._sink = None
        return {"target": self.target, "lines": self.lines_written,
                "dropped": self.dropped, "error": self._error}
