"""Serve observability: request metrics and their Prometheus exposition.

:class:`ServeMetrics` is the per-process metrics registry the serve loop
feeds: request counts keyed by ``(op, code)`` and fixed-bucket latency
histograms keyed by op.  :func:`metrics_document` renders everything the
server knows — request metrics, server gauges, engine counters, verdict
cache and persistent-store state — as one JSON document (the
``{"op": "metrics"}`` builtin); :func:`prometheus_text` renders the same
data in the Prometheus text exposition format, and
:func:`start_metrics_server` serves it over HTTP (``--metrics-port``).

Exported series (all prefixed ``repro_``):

================================== ======== ==============================
series                             labels   meaning
================================== ======== ==============================
repro_serve_requests_total         op, code finished requests; ``code`` is
                                            ``ok`` or the error code
repro_serve_request_seconds        op       latency histogram
  (_bucket/_sum/_count)
repro_serve_in_flight              —        requests currently executing
repro_serve_connections_active     —        open connections
repro_serve_connections_total      —        connections accepted, ever
repro_serve_connections_shed       —        connections shed by backpressure
repro_serve_draining               —        1 while draining
repro_serve_uptime_seconds         —        seconds since serve_start
repro_cache_hits_total             —        verdict-cache memory-tier hits
repro_cache_misses_total           —        verdict-cache lookups that missed
repro_cache_stores_total           —        verdicts inserted
repro_cache_evictions_total        —        LRU evictions
repro_cache_entries                —        current memory-tier size
repro_cache_persisted_loaded_total —        entries recovered at startup
repro_cache_persisted_skipped_total —       corrupt lines skipped at startup
repro_cache_persisted_written_total —       entries appended to disk
repro_engine_<counter>_total       —        every :class:`EngineStats` counter
repro_engine_info                  backend, always 1; the label values carry
                                   kernel   the resolved strategy/kernel
================================== ======== ==============================
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, List, Optional, Sequence, Tuple

#: Histogram bucket upper bounds in seconds, spanning a 15µs cache hit to
#: a multi-second exhaustive exploration.
DEFAULT_BUCKETS = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
    0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


class Histogram:
    """A fixed-bucket latency histogram (cumulative on export).

    Not thread-safe on its own; :class:`ServeMetrics` serialises access.
    """

    def __init__(self, buckets: Sequence[float] = DEFAULT_BUCKETS) -> None:
        self.buckets = tuple(buckets)
        # one count per bucket plus the +Inf overflow bucket
        self.counts = [0] * (len(self.buckets) + 1)
        self.total = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        index = len(self.buckets)
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                index = i
                break
        self.counts[index] += 1
        self.total += value
        self.count += 1

    def cumulative(self) -> List[Tuple[float, int]]:
        """``(upper_bound, cumulative_count)`` pairs, +Inf last."""
        out: List[Tuple[float, int]] = []
        running = 0
        for bound, count in zip(self.buckets, self.counts):
            running += count
            out.append((bound, running))
        out.append((float("inf"), running + self.counts[-1]))
        return out

    def as_dict(self) -> Dict[str, object]:
        return {
            "count": self.count,
            "sum_seconds": round(self.total, 6),
            "buckets": [
                {"le": bound, "count": count}
                for bound, count in self.cumulative()
                if bound != float("inf")
            ],
        }


class ServeMetrics:
    """Thread-safe request counters and per-op latency histograms."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._requests: Dict[Tuple[str, str], int] = {}
        self._latency: Dict[str, Histogram] = {}

    def record(self, op: Optional[str], code: str, seconds: float) -> None:
        """Count one finished request: its op, outcome code and latency."""
        label = op if isinstance(op, str) and op else "unknown"
        with self._lock:
            key = (label, code)
            self._requests[key] = self._requests.get(key, 0) + 1
            histogram = self._latency.get(label)
            if histogram is None:
                histogram = self._latency[label] = Histogram()
            histogram.observe(seconds)

    def requests(self) -> Dict[Tuple[str, str], int]:
        with self._lock:
            return dict(self._requests)

    def latency(self) -> Dict[str, Histogram]:
        with self._lock:
            return dict(self._latency)

    def as_dict(self) -> Dict[str, object]:
        with self._lock:
            return {
                "requests": [
                    {"op": op, "code": code, "count": count}
                    for (op, code), count in sorted(self._requests.items())
                ],
                "latency": {
                    op: histogram.as_dict()
                    for op, histogram in sorted(self._latency.items())
                },
            }


# ----------------------------------------------------------------------
# rendering
# ----------------------------------------------------------------------
def _cache_section(session: Any) -> Dict[str, object]:
    cache = getattr(session.engine, "verdict_cache", None)
    if cache is None:
        return {"enabled": False}
    from repro.cache.persist import store_info

    section: Dict[str, object] = {"enabled": True}
    section.update(cache.stats.as_dict())
    section["store"] = store_info(cache.store)
    return section


def metrics_document(state: Any, session: Any, exclude_self: bool = False) -> Dict[str, object]:
    """Everything the server knows, as one JSON document.

    ``exclude_self`` subtracts the metrics request itself from the
    in-flight gauge (set when answering the ``metrics`` builtin, which is
    itself a counted request).
    """
    return {
        "server": state.snapshot(exclude_self=exclude_self),
        **state.metrics.as_dict(),
        "engine": session.engine.stats.as_dict(),
        "cache": _cache_section(session),
    }


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_bound(bound: float) -> str:
    if bound == float("inf"):
        return "+Inf"
    text = repr(bound)
    return text


def prometheus_text(state: Any, session: Any) -> str:
    """The Prometheus text exposition of :func:`metrics_document`."""
    lines: List[str] = []

    def emit(name: str, value: object, **labels: str) -> None:
        if labels:
            rendered = ",".join(
                f'{key}="{_escape_label(str(val))}"' for key, val in labels.items()
            )
            lines.append(f"{name}{{{rendered}}} {value}")
        else:
            lines.append(f"{name} {value}")

    lines.append("# HELP repro_serve_requests_total Finished requests by op and outcome code.")
    lines.append("# TYPE repro_serve_requests_total counter")
    for (op, code), count in sorted(state.metrics.requests().items()):
        emit("repro_serve_requests_total", count, op=op, code=code)

    lines.append("# HELP repro_serve_request_seconds Request latency by op.")
    lines.append("# TYPE repro_serve_request_seconds histogram")
    for op, histogram in sorted(state.metrics.latency().items()):
        for bound, cumulative in histogram.cumulative():
            emit(
                "repro_serve_request_seconds_bucket",
                cumulative,
                op=op,
                le=_format_bound(bound),
            )
        emit("repro_serve_request_seconds_sum", round(histogram.total, 6), op=op)
        emit("repro_serve_request_seconds_count", histogram.count, op=op)

    snapshot = state.snapshot()
    gauges = (
        ("repro_serve_in_flight", "Requests currently executing.", snapshot["in_flight"]),
        ("repro_serve_connections_active", "Open connections.", snapshot["connections_active"]),
        ("repro_serve_connections_total", "Connections accepted.", snapshot["connections_total"]),
        ("repro_serve_connections_shed", "Connections shed by backpressure.", snapshot["connections_shed"]),
        ("repro_serve_draining", "1 while draining.", int(bool(snapshot["draining"]))),
        ("repro_serve_uptime_seconds", "Seconds since serve start.", snapshot["uptime_seconds"]),
    )
    for name, help_text, value in gauges:
        lines.append(f"# HELP {name} {help_text}")
        kind = "counter" if name.endswith("_total") or name.endswith("_shed") else "gauge"
        lines.append(f"# TYPE {name} {kind}")
        emit(name, value)

    cache = _cache_section(session)
    lines.append("# HELP repro_cache Verdict-cache counters.")
    if cache.get("enabled"):
        for field, suffix in (
            ("hits", "hits_total"),
            ("misses", "misses_total"),
            ("stores", "stores_total"),
            ("evictions", "evictions_total"),
            ("entries", "entries"),
            ("persisted_loaded", "persisted_loaded_total"),
            ("persisted_skipped", "persisted_skipped_total"),
            ("persisted_written", "persisted_written_total"),
        ):
            emit(f"repro_cache_{suffix}", cache.get(field, 0))
    emit("repro_cache_enabled", int(bool(cache.get("enabled"))))

    lines.append("# HELP repro_engine Engine counters (see EngineStats).")
    engine_stats = session.engine.stats.as_dict()
    for name, value in engine_stats.items():
        if name == "kernel_backend":
            continue
        emit(f"repro_engine_{name}_total", value)
    emit(
        "repro_engine_info",
        1,
        backend=session.backend_name,
        kernel=engine_stats.get("kernel_backend", "") or "none",
    )
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# the HTTP endpoint
# ----------------------------------------------------------------------
class _MetricsHandler(BaseHTTPRequestHandler):
    server: "MetricsServer"

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        path = self.path.split("?", 1)[0]
        if path in ("/metrics", "/"):
            body = prometheus_text(self.server.state, self.server.session).encode("utf-8")
            content_type = "text/plain; version=0.0.4; charset=utf-8"
        elif path == "/metrics.json":
            document = metrics_document(self.server.state, self.server.session)
            body = (json.dumps(document) + "\n").encode("utf-8")
            content_type = "application/json"
        else:
            self.send_error(404, "unknown path (try /metrics)")
            return
        self.send_response(200)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, format: str, *args: object) -> None:
        # Scrapes are frequent and boring; keep them out of the structured
        # log (errors still surface through send_error's status line).
        pass


class MetricsServer(ThreadingHTTPServer):
    """The ``--metrics-port`` HTTP endpoint (``/metrics``, ``/metrics.json``)."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address: Tuple[str, int], state: Any, session: Any) -> None:
        super().__init__(address, _MetricsHandler)
        self.state = state
        self.session = session


def start_metrics_server(host: str, port: int, state: Any, session: Any) -> MetricsServer:
    """Bind and start the metrics endpoint on a daemon thread."""
    server = MetricsServer((host, port), state, session)
    thread = threading.Thread(
        target=server.serve_forever,
        kwargs={"poll_interval": 0.2},
        daemon=True,
        name="repro-serve-metrics",
    )
    thread.start()
    return server
