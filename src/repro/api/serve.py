"""``repro serve``: a production-hardened JSON-lines request/response loop.

One warm :class:`~repro.api.session.Session` answers a stream of request
documents, one JSON object per line, writing one JSON response object per
line.  Because the session (and therefore the engine and its caches)
persists across requests, a ``compare`` following an ``explore`` over the
same suite is answered almost entirely from cache — each response carries
the request's own :class:`~repro.engine.engine.EngineStats` so the
reuse is observable.

Transports:

* stdin/stdout (the default);
* a TCP socket (``--port``): one JSON-lines conversation per connection.
  Each connection gets its own lightweight :meth:`Session.view` (private
  registries over one shared engine) and its own thread.

Both transports share one execution path: an engine-touching request
runs on the thread that read it, under the engine lock, or on a
watchdog thread when a ``--timeout`` is set.  A ``check`` whose verdict
is already in the shared digest-keyed verdict cache (see
:mod:`repro.cache`) takes that same path and is answered from the cache
inside the engine.  In front of it, each conversation keeps a response
memo: a request line whose answer came wholly from the verdict cache is
answered again, on a repeat, with its rendered response line, without
taking the engine lock.

Protocol::

    -> {"op": "check", "test": "SB.litmus", "model": "TSO"}
    <- {"schema": "repro/response", "schema_version": 1, "ok": true,
        "op": "check", "result": {...}, "stats": {...}}

Request lines may be bare ``{"op": ...}`` objects or full
``repro/request`` documents (see :mod:`repro.api.requests`).  Three ops
are built into the server itself: ``{"op": "health"}`` (liveness, uptime,
in-flight depth, drain status), ``{"op": "stats"}`` (request
counters plus the engine's cumulative :class:`EngineStats`, including the
resolved ``kernel_backend``) and ``{"op": "metrics"}`` (the full metrics
document of :func:`repro.api.metrics.metrics_document`); all three bypass
the engine lock and the deadline so they answer even while the engine is
busy.  With ``--metrics-port`` the same metrics are scrapeable over HTTP
in the Prometheus text format.

Robustness (see ``docs/operations.md`` for the full operational story):

* **Errors are machine-readable.**  Failures answer
  ``{"ok": false, "error": {"code": ..., "message": ...}}`` with a code
  from :data:`ERROR_CODES`; ``internal`` is the catch-all, so no
  exception class can kill a connection loop (the traceback goes to the
  structured log, not the client).
* **Deadlines.**  With a ``--timeout``, each request runs under a
  watchdog; past the deadline the client gets ``deadline_exceeded`` and
  the request is abandoned (its thread finishes in the background).  At
  most ``--max-connections`` such requests may still be running; beyond
  that, requests answer ``overloaded``.
* **Bounded input.**  Request lines longer than ``--max-line-bytes``
  UTF-8 bytes answer ``request_too_large`` (the oversized line is
  discarded without buffering it).
* **Backpressure.**  At most ``--max-connections`` conversations run
  concurrently; beyond that, connections wait in a bounded admission
  queue and are shed with a one-line ``overloaded`` error once the queue
  is full (or the wait exceeds :data:`ADMISSION_TIMEOUT`).
* **Idle timeouts.**  Socket connections idle past ``--idle-timeout``
  are closed.
* **Graceful drain.**  SIGTERM/SIGINT stop the accept loop, let in-flight
  requests finish (bounded by ``--drain-grace``), flush, and exit 0.
* **Structured logs.**  One JSON object per line on stderr
  (``serve_start``, ``conn_open``, ``request``, ``drain_begin``, ...).

A malformed line produces an ``{"ok": false, "error": {...}}`` response
and the loop continues; the loop ends at end of input or on drain.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import socketserver
import threading
import time
import traceback
from dataclasses import dataclass
from typing import Any, Callable, Dict, IO, Iterator, Optional, Tuple, Union

from repro.api.metrics import ServeMetrics, metrics_document, start_metrics_server
from repro.api.requests import request_from_json
from repro.api.serialize import envelope, to_json
from repro.api.session import Session
from repro.engine.engine import EngineStats
from repro.util import faults

# ----------------------------------------------------------------------
# error taxonomy
# ----------------------------------------------------------------------
#: Machine-readable error codes, the full taxonomy:
#:
#: ================== ==================================================
#: invalid_request    malformed JSON, unknown op/field, schema mismatch,
#:                    unknown model/test name, malformed embedded docs
#: request_too_large  request line exceeded ``max_line_bytes``
#: deadline_exceeded  request ran past ``timeout`` and was abandoned
#: overloaded         shed by the connection cap / admission queue, or
#:                    too many requests still running past their deadline
#: unavailable        server is draining and takes no new requests
#: internal           unexpected exception (catch-all; traceback logged)
#: ================== ==================================================
ERROR_CODES = (
    "invalid_request",
    "request_too_large",
    "deadline_exceeded",
    "overloaded",
    "unavailable",
    "internal",
)

#: Ops answered by the server itself, without the engine lock.
BUILTIN_OPS = ("health", "stats", "metrics")


class ServeError(Exception):
    """A failure with a machine-readable code from :data:`ERROR_CODES`."""

    def __init__(self, code: str, message: str) -> None:
        super().__init__(message)
        assert code in ERROR_CODES, code
        self.code = code

    def body(self) -> Dict[str, str]:
        return error_body(self.code, str(self))


def error_body(code: str, message: str) -> Dict[str, str]:
    """The ``error`` field of a failed response."""
    return {"code": code, "message": message}


def error_response(code: str, message: str, op: Optional[str] = None) -> Dict[str, Any]:
    """A complete one-line error response document."""
    response = envelope("response")
    response["ok"] = False
    if op is not None:
        response["op"] = op
    response["error"] = error_body(code, message)
    return response


# ----------------------------------------------------------------------
# configuration
# ----------------------------------------------------------------------
#: How long a queued connection waits for a slot before being shed.
ADMISSION_TIMEOUT = 10.0


@dataclass
class ServeConfig:
    """Limits and operational knobs for the serve loop.

    Every limit has a CLI flag (see :func:`add_serve_arguments`); values
    out of range raise :class:`ValueError` on construction.
    """

    #: per-request deadline in seconds; None = unbounded
    timeout: Optional[float] = None
    #: maximum request line length in bytes
    max_line_bytes: int = 10 * 1024 * 1024
    #: maximum concurrently-served connections; with a ``timeout``, also
    #: the most requests that may still be running, abandoned ones included
    max_connections: int = 64
    #: connections allowed to wait for a slot before being shed
    admission_queue: int = 128
    #: close socket connections idle this long; None = never
    idle_timeout: Optional[float] = 300.0
    #: how long a drain waits for in-flight requests before giving up
    drain_grace: float = 30.0
    #: directory for the persistent verdict-cache tier; None = memory only
    cache_dir: Optional[str] = None
    #: verdict-cache memory-tier entry cap
    cache_capacity: int = 1 << 20
    #: serve Prometheus metrics over HTTP on this port; None = off
    metrics_port: Optional[int] = None
    #: structured-log destination; None = stderr
    log_stream: Optional[IO[str]] = None
    #: emit structured log events at all
    log_enabled: bool = True

    def __post_init__(self) -> None:
        for name in ("max_line_bytes", "max_connections"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)}")
        for name in ("admission_queue", "drain_grace", "cache_capacity"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must not be negative, got {getattr(self, name)}")
        for name in ("timeout", "idle_timeout"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ValueError(f"{name} must be positive when set, got {value}")


class ServerState:
    """Shared mutable server state: counters, in-flight depth, drain flag."""

    def __init__(self, config: Optional[ServeConfig] = None) -> None:
        self.config = config if config is not None else ServeConfig()
        self.lock = threading.Lock()
        self._idle = threading.Condition(self.lock)
        self.started_monotonic = time.monotonic()
        self.started_at = time.time()
        self.requests_total = 0
        self.requests_ok = 0
        self.errors_by_code: Dict[str, int] = {}
        self.in_flight = 0
        self.connections_active = 0
        self.connections_total = 0
        self.connections_shed = 0
        self.waiting = 0
        self.draining = False
        #: True while the stdio transport is blocked reading the next line
        #: (the drain signal handler may only interrupt an idle read).
        self.reading = False
        #: per-op request counters and latency histograms
        self.metrics = ServeMetrics()
        #: one slot per request running under the deadline watchdog; an
        #: abandoned request holds its slot until it really finishes
        self.deadline_slots = threading.BoundedSemaphore(self.config.max_connections)

    # -- structured logging --------------------------------------------
    def log(self, event: str, **fields: object) -> None:
        if not self.config.log_enabled:
            return
        record: Dict[str, object] = {"ts": round(time.time(), 3), "event": event}
        record.update(fields)
        stream = self.config.log_stream if self.config.log_stream is not None else sys.stderr
        try:
            stream.write(json.dumps(record) + "\n")
            stream.flush()
        except (OSError, ValueError):  # a closed log stream must never kill serving
            pass

    # -- request accounting --------------------------------------------
    def begin_request(self) -> None:
        with self.lock:
            self.in_flight += 1

    def end_request(self, response: Dict[str, Any]) -> None:
        """Count a finished request *after* its response was written."""
        with self._idle:
            self.in_flight -= 1
            self.requests_total += 1
            if response.get("ok"):
                self.requests_ok += 1
            else:
                code = (response.get("error") or {}).get("code", "internal")
                self.errors_by_code[code] = self.errors_by_code.get(code, 0) + 1
            self._idle.notify_all()

    def record_request(self, op: Optional[str], code: Optional[str], started: float) -> None:
        """Book one answered request in the metrics and the ``request`` log."""
        duration = time.monotonic() - started
        self.metrics.record(op, code if code else "ok", duration)
        self.log(
            "request",
            op=op,
            ok=code is None,
            code=code,
            duration_ms=round(duration * 1000.0, 3),
        )

    def begin_drain(self, cause: str) -> bool:
        """Stop taking new work; False if a drain had already begun."""
        with self.lock:
            if self.draining:
                return False
            self.draining = True
        self.log("drain_begin", cause=cause, in_flight=self.in_flight)
        return True

    def wait_idle(self, grace: float) -> bool:
        """Wait until no request is in flight; False if ``grace`` ran out."""
        deadline = time.monotonic() + grace
        with self._idle:
            while self.in_flight > 0:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self._idle.wait(min(remaining, 0.5))
        return True

    def uptime(self) -> float:
        return time.monotonic() - self.started_monotonic

    def snapshot(self, exclude_self: bool = False) -> Dict[str, object]:
        """The server counters; truthful by default.

        ``exclude_self`` subtracts the *calling* request from the
        in-flight gauge — set only when the snapshot is taken from inside
        a counted builtin request, so that a direct ``snapshot()`` call
        (tests, the metrics endpoint's scrape thread) reports the real
        depth instead of the old unconditional ``in_flight - 1`` hack.
        """
        with self.lock:
            in_flight = self.in_flight
            if exclude_self:
                in_flight = max(0, in_flight - 1)
            return {
                "uptime_seconds": round(self.uptime(), 3),
                "requests_total": self.requests_total,
                "requests_ok": self.requests_ok,
                "errors_by_code": dict(self.errors_by_code),
                "in_flight": in_flight,
                "connections_active": self.connections_active,
                "connections_total": self.connections_total,
                "connections_shed": self.connections_shed,
                "draining": self.draining,
            }


# ----------------------------------------------------------------------
# request handling
# ----------------------------------------------------------------------
def _call_with_deadline(
    fn: Callable[[], Any], timeout: float, slots: Optional[threading.BoundedSemaphore] = None
) -> Tuple[bool, Any]:
    """Run ``fn`` on a watchdog-supervised thread.

    Returns ``(True, result)`` when it finished within ``timeout`` —
    re-raising anything it raised — or ``(False, None)`` when the deadline
    passed and the request was abandoned (the thread keeps running to
    completion in the background; any lock it needs is acquired inside
    ``fn``, so an abandoned request releases the engine when it is done).

    The thread holds one of ``slots`` until ``fn`` returns, abandoned or
    not, so abandoned requests cannot pile up without bound: with every
    slot taken the request answers ``overloaded`` instead of starting.
    """
    if slots is not None and not slots.acquire(blocking=False):
        raise ServeError("overloaded", "too many requests are still running past their deadline")
    box: Dict[str, Any] = {}
    done = threading.Event()

    def target() -> None:
        try:
            box["result"] = fn()
        except BaseException as error:  # re-raised on the caller's thread
            box["error"] = error
        finally:
            done.set()
            if slots is not None:
                slots.release()

    thread = threading.Thread(target=target, daemon=True, name="repro-serve-request")
    thread.start()
    if not done.wait(timeout):
        return False, None
    if "error" in box:
        raise box["error"]
    return True, box["result"]


def _builtin_result(
    op: str, session: Session, state: Optional[ServerState], counted: bool = False
) -> Dict[str, Any]:
    """Answer a built-in ``health`` / ``stats`` / ``metrics`` op.

    ``counted`` is True when the caller already counted this request
    in-flight (the serve loops do; direct ``handle_request_line`` calls
    do not), so the in-flight gauge can exclude exactly the builtin
    request itself and nothing else.
    """
    if state is None:
        state = ServerState(ServeConfig(log_enabled=False))
    if op == "health":
        server = state.snapshot(exclude_self=counted)
        return {
            "status": "draining" if server["draining"] else "ok",
            "uptime_seconds": server["uptime_seconds"],
            "in_flight": server["in_flight"],
        }
    if op == "metrics":
        return metrics_document(state, session, exclude_self=counted)
    return {
        "server": state.snapshot(exclude_self=counted),
        "engine": session.engine.stats.as_dict(),
        "session": session.info(),
    }


#: Per-connection response-memo capacity (distinct request lines); a full
#: memo is cleared and starts over.
_MEMO_LIMIT = 1024

#: The stats delta of a ``check`` answered wholly from the verdict cache
#: (with an empty ``kernel_backend`` label).
_CACHE_HIT_DELTA = EngineStats(checks_performed=1, verdict_cache_hits=1).as_dict()

#: What the request accounting sees of a memo hit: a successful answer.
_MEMO_HIT: Dict[str, Any] = {"ok": True}


def _answered_from_cache(response: Dict[str, Any]) -> bool:
    """Whether ``response`` is a ``check`` answered wholly from the verdict
    cache: one check, one verdict-cache hit, and no other counter set."""
    if response.get("op") != "check" or not response.get("ok"):
        return False
    return dict(response["stats"], kernel_backend="") == _CACHE_HIT_DELTA


def _count_memo_hit(session: Session) -> None:
    """Book a memoised check with the stats delta it was memoised for."""
    engine = session.engine
    engine.count(_CACHE_HIT_DELTA)
    vcache = engine.verdict_cache
    if vcache is not None:
        vcache.note_hit()


def handle_request_line(
    session: Session,
    line: str,
    state: Optional[ServerState] = None,
    config: Optional[ServeConfig] = None,
    counted: bool = False,
) -> Dict[str, Any]:
    """Answer one JSON request line; never raises on any input.

    An engine-touching request runs on the calling thread, or under the
    deadline watchdog when ``config.timeout`` is set; either way it
    serialises on the engine lock (see :func:`_dispatch`).  ``counted``
    tells builtin ops whether the caller already counted this request in
    the in-flight gauge.
    """
    if config is None:
        config = state.config if state is not None else ServeConfig()
    response = envelope("response")
    op: Optional[str] = None
    started = time.monotonic()
    try:
        try:
            document = json.loads(line)
        except ValueError as error:
            raise ServeError("invalid_request", f"malformed JSON: {error}")
        if isinstance(document, dict):
            raw_op = document.get("op")
            op = raw_op if isinstance(raw_op, str) else None
        if op in BUILTIN_OPS:
            # Built-in ops bypass the engine lock and the deadline so they
            # answer even while the engine is wedged on a long request.
            response.update(
                {"ok": True, "op": op,
                 "result": _builtin_result(op, session, state, counted=counted)}
            )
            return response
        request = request_from_json(document)
        op = request.op
        if config.timeout is None:
            result, stats_delta = _dispatch(session, request)
        else:
            finished, value = _call_with_deadline(
                lambda: _dispatch(session, request),
                config.timeout,
                state.deadline_slots if state is not None else None,
            )
            if not finished:
                if state is not None:
                    state.log("deadline_exceeded", op=op, timeout=config.timeout)
                raise ServeError(
                    "deadline_exceeded",
                    f"request exceeded the {config.timeout:g}s deadline and was abandoned",
                )
            result, stats_delta = value
        response.update(
            {"ok": True, "op": op, "result": to_json(result), "stats": stats_delta.as_dict()}
        )
    except ServeError as error:
        if op is not None:
            response["op"] = op
        response.update({"ok": False, "error": error.body()})
    except (ValueError, TypeError, LookupError, OSError) as error:
        # The expected bad-request family: JSONDecodeError/SerializationError
        # (ValueError), KeyErrors from malformed documents (LookupError),
        # missing files behind path specs (OSError).
        if op is not None:
            response["op"] = op
        response.update({"ok": False, "error": error_body("invalid_request", str(error))})
    except Exception as error:  # noqa: BLE001 - the catch-all IS the contract:
        # no exception class may kill the connection loop.  The client gets
        # a structured `internal` error; the traceback goes to the log.
        if op is not None:
            response["op"] = op
        if state is not None:
            state.log(
                "internal_error",
                op=op,
                error=f"{type(error).__name__}: {error}",
                traceback=traceback.format_exc(limit=20),
            )
        response.update(
            {
                "ok": False,
                "error": error_body("internal", f"{type(error).__name__}: {error}"),
            }
        )
    finally:
        if state is not None:
            state.record_request(op, (response.get("error") or {}).get("code"), started)
    return response


def _dispatch(session: Session, request: Any) -> Tuple[Any, Any]:
    faults.fire("serve.request", op=request.op)
    # The recording keeps this request's stats exact without the engine
    # lock, which guards the session-shared explore memo and the IR intern
    # table.  It is taken inside the possibly deadline-supervised call, so
    # an abandoned request releases it when it finishes.
    engine = session.engine
    with engine.recording() as spent, engine.lock:
        result = session.run(request)
    return result, spent


# ----------------------------------------------------------------------
# line transport
# ----------------------------------------------------------------------
#: Sentinel yielded by :func:`_iter_limited_lines` for an oversized line.
OVERSIZED = object()


def _too_large(line: str, max_len: int) -> bool:
    """Whether ``line``, less its newline, exceeds ``max_len`` UTF-8 bytes."""
    newline = line.endswith("\n")
    # A character is at most 4 bytes, so short lines skip the encode.
    if (len(line) - newline) * 4 <= max_len:
        return False
    return len(line.encode("utf-8")) - newline > max_len


def _iter_limited_lines(stream: Any, max_len: int) -> Iterator[Union[str, object]]:
    """Yield request lines, or :data:`OVERSIZED` for over-limit lines.

    The limit is in UTF-8 bytes whether ``stream`` bounds its reads in
    bytes (the socket reader) or in characters (text streams).  Oversized
    lines are discarded chunk by chunk (never buffered whole), so a
    hostile peer cannot make the server hold an arbitrarily large line in
    memory.  Streams without ``readline`` (plain iterables, used by some
    tests) are iterated directly with a post-hoc size check.
    """
    readline = getattr(stream, "readline", None)
    if readline is None:
        for line in stream:
            yield OVERSIZED if _too_large(line, max_len) else line
        return
    while True:
        line = stream.readline(max_len + 1)
        if not line:
            return
        if _too_large(line, max_len):
            while line and not line.endswith("\n"):  # discard the rest
                line = stream.readline(max_len + 1)
            yield OVERSIZED
            continue
        yield line


def serve_stream(
    session: Session,
    input_stream: Any,
    output_stream: IO[str],
    state: Optional[ServerState] = None,
    config: Optional[ServeConfig] = None,
) -> int:
    """Answer request lines from ``input_stream`` until end of input.

    Returns the number of lines answered.  With a ``state`` the loop also
    counts requests, honours the drain flag (stop after
    the current response once draining), and enforces the configured
    line-length limit.

    The conversation's response memo maps a request line to its rendered
    response, for every ``check`` answered wholly from the verdict cache.
    Verdicts are deterministic and no request can rebind a registry name,
    so a repeat of that line is answered with the same bytes, booked by
    :func:`_count_memo_hit`.  The memo is bypassed while faults are armed.
    """
    if config is None:
        config = state.config if state is not None else ServeConfig()
    answered = 0
    memo: Dict[str, str] = {}
    for line in _iter_limited_lines(input_stream, config.max_line_bytes):
        response: Optional[Dict[str, Any]] = None
        if line is OVERSIZED:
            response = error_response(
                "request_too_large",
                f"request line exceeds {config.max_line_bytes} bytes",
            )
        else:
            line = line.strip()
            if not line:
                continue
            if state is not None and state.draining:
                # answered like any other line; the loop then stops below
                response = error_response("unavailable", "server is draining")
        if state is not None:
            state.begin_request()
        try:
            text = memo.get(line) if response is None and not faults._FAULTS else None
            if text is not None:
                started = time.monotonic()
                _count_memo_hit(session)
                response = _MEMO_HIT
                if state is not None:
                    state.record_request("check", None, started)
            else:
                if response is None:
                    response = handle_request_line(
                        session, line, state=state, config=config, counted=state is not None
                    )
                text = json.dumps(response) + "\n"
                if not faults._FAULTS and _answered_from_cache(response):
                    if len(memo) >= _MEMO_LIMIT:
                        memo.clear()
                    memo[line] = text
            output_stream.write(text)
            output_stream.flush()
            answered += 1
        finally:
            if state is not None:
                state.end_request(response if response is not None else {})
        if state is not None and state.draining:
            break
    return answered


# ----------------------------------------------------------------------
# socket transport
# ----------------------------------------------------------------------
class _Utf8LineReader:
    """Byte-accurate bounded line reads over the connection's raw socket.

    Buffers reads itself (the handler runs with ``rbufsize=0``) so the
    writer can ask :meth:`has_buffered_line` — "is another complete
    request already in hand?" — without risking a blocking read.  That
    question is what lets the transport batch responses to pipelined
    clients while still answering lockstep clients immediately.
    """

    def __init__(self, rfile: IO[bytes], chunk_size: int = 1 << 16) -> None:
        self._rfile = rfile
        self._chunk_size = chunk_size
        self._buffer = bytearray()
        self._eof = False

    def has_buffered_line(self) -> bool:
        return b"\n" in self._buffer

    def readline(self, limit: int = -1) -> str:
        """Read one ``\\n``-terminated line, returning at most ``limit``
        bytes (the ``BufferedReader.readline`` bounded contract)."""
        buffer = self._buffer
        while True:
            newline = buffer.find(b"\n")
            if newline >= 0 and (limit < 0 or newline < limit):
                end = newline + 1
                break
            if 0 <= limit <= len(buffer):
                end = limit
                break
            if self._eof:
                end = len(buffer)
                break
            chunk = self._rfile.read(self._chunk_size)
            if not chunk:
                self._eof = True
            else:
                buffer += chunk
        data = bytes(buffer[:end])
        del buffer[:end]
        return data.decode("utf-8", "replace")


class _SocketWriter:
    """Response writer with adaptive batching for pipelined clients.

    Responses accumulate in a local buffer; :meth:`flush` only performs
    the ``send`` when the paired reader holds no further complete request
    (or the buffer has grown past ``max_buffered``).  A lockstep client —
    one request in flight at a time — therefore sees every response
    immediately, while a client that pipelines N requests receives its N
    responses in a handful of packets instead of N.
    """

    def __init__(
        self,
        wfile: IO[bytes],
        reader: Optional[_Utf8LineReader] = None,
        max_buffered: int = 1 << 20,
    ) -> None:
        self._wfile = wfile
        self._reader = reader
        self._max_buffered = max_buffered
        self._buffer = bytearray()

    def write(self, text: str) -> None:
        self._buffer += text.encode("utf-8")

    def flush(self) -> None:
        if (
            self._reader is not None
            and self._reader.has_buffered_line()
            and len(self._buffer) < self._max_buffered
        ):
            return  # another request is already in hand: keep batching
        self.flush_hard()

    def flush_hard(self) -> None:
        if self._buffer:
            self._wfile.write(bytes(self._buffer))
            self._buffer.clear()
        self._wfile.flush()


class ServeServer(socketserver.ThreadingTCPServer):
    """The TCP transport: one JSON-lines conversation per connection."""

    allow_reuse_address = True
    daemon_threads = True
    # The socketserver default backlog (5) drops SYNs when a fleet of
    # clients connects at once, and the 1s retransmit dwarfs any request.
    request_queue_size = 128

    def __init__(
        self,
        address: Tuple[str, int],
        session: Session,
        config: ServeConfig,
        state: ServerState,
    ) -> None:
        super().__init__(address, _ConnectionHandler)
        self.session = session
        self.config = config
        self.state = state
        self.capacity = threading.Semaphore(config.max_connections)


class _ConnectionHandler(socketserver.StreamRequestHandler):
    server: ServeServer  # narrowed for readability

    #: raw reads: _Utf8LineReader buffers for itself so response batching
    #: can see whether another pipelined request is already buffered
    rbufsize = 0

    def handle(self) -> None:
        state, config = self.server.state, self.server.config
        peer = "%s:%s" % self.client_address[:2]
        if state.draining:
            self._shed("unavailable", "server is draining", peer)
            return
        if not self._admit(state, config, peer):
            return
        with state.lock:
            state.connections_active += 1
            state.connections_total += 1
        state.log("conn_open", peer=peer)
        try:
            if config.idle_timeout is not None:
                self.connection.settimeout(config.idle_timeout)
            # Each connection converses through its own session view:
            # private registries (a model registered on one connection is
            # invisible to the others) over the one shared warm engine.
            reader = _Utf8LineReader(self.rfile)
            writer = _SocketWriter(self.wfile, reader=reader)
            serve_stream(
                self.server.session.view(),
                reader,
                writer,
                state=state,
                config=config,
            )
            writer.flush_hard()
        except TimeoutError:
            state.log("conn_idle_timeout", peer=peer, idle_timeout=config.idle_timeout)
        except (OSError, ValueError):
            # The peer vanished mid-read or mid-write; nothing to answer.
            pass
        finally:
            self.server.capacity.release()
            with state.lock:
                state.connections_active -= 1
            state.log("conn_close", peer=peer)

    def _admit(self, state: ServerState, config: ServeConfig, peer: str) -> bool:
        """Admission control: bounded queue in front of the connection cap."""
        if self.server.capacity.acquire(blocking=False):
            return True  # a slot is free: no queueing needed
        with state.lock:
            if state.waiting >= config.admission_queue:
                shed_now = True
            else:
                shed_now = False
                state.waiting += 1
        if shed_now:
            self._shed("overloaded", "admission queue is full", peer)
            return False
        try:
            admitted = self.server.capacity.acquire(timeout=ADMISSION_TIMEOUT)
        finally:
            with state.lock:
                state.waiting -= 1
        if not admitted:
            self._shed(
                "overloaded",
                f"no connection slot within {ADMISSION_TIMEOUT:g}s",
                peer,
            )
            return False
        return True

    def _shed(self, code: str, message: str, peer: str) -> None:
        state = self.server.state
        with state.lock:
            state.connections_shed += 1
        state.log("conn_shed", peer=peer, code=code)
        try:
            self.wfile.write((json.dumps(error_response(code, message)) + "\n").encode("utf-8"))
            self.wfile.flush()
        except (OSError, ValueError):
            pass


def serve_socket(
    session: Session,
    host: str,
    port: int,
    config: Optional[ServeConfig] = None,
    state: Optional[ServerState] = None,
) -> ServeServer:
    """Return a bound-but-not-running TCP server sharing ``session``.

    The caller drives it (``serve_forever`` / ``shutdown``); each
    connection is one JSON-lines conversation.  Without an explicit
    ``state``, structured logging is off — the ``serve()`` entry point is
    what wires a logging state in.
    """
    if config is None:
        config = ServeConfig(log_enabled=False)
    if state is None:
        state = ServerState(config)
    return ServeServer((host, port), session, config, state)


# ----------------------------------------------------------------------
# the entry point: transports + graceful drain
# ----------------------------------------------------------------------
class _DrainInterrupt(Exception):
    """Raised by the stdio drain handler to interrupt an idle read."""


class _InterruptibleReader:
    """Marks the state as idle-reading so the drain handler may interrupt."""

    def __init__(self, stream: Any, state: ServerState) -> None:
        self._stream = stream
        self._state = state

    def readline(self, limit: int = -1) -> str:
        self._state.reading = True
        try:
            return self._stream.readline(limit)
        finally:
            self._state.reading = False


def _install_drain_handlers(
    begin_drain: Callable[[str], object], raise_when_reading: Optional[ServerState] = None
) -> Optional[Dict[int, object]]:
    """Route SIGTERM/SIGINT into the drain path; return the old handlers.

    Returns None when not on the main thread (``signal.signal`` would
    raise there), in which case the caller simply serves without signal
    integration — tests drive drain through the state flag directly.
    """
    if threading.current_thread() is not threading.main_thread():
        return None

    def handler(signum: int, frame: object) -> None:
        begin_drain(signal.Signals(signum).name)
        if raise_when_reading is not None and raise_when_reading.reading:
            raise _DrainInterrupt()

    previous: Dict[int, object] = {}
    for signum in (signal.SIGTERM, signal.SIGINT):
        previous[signum] = signal.signal(signum, handler)
    return previous


def _restore_handlers(previous: Optional[Dict[int, object]]) -> None:
    if previous is None:
        return
    for signum, old in previous.items():
        signal.signal(signum, old)


def _limits_fields(config: ServeConfig) -> Dict[str, object]:
    return {
        "timeout": config.timeout,
        "max_line_bytes": config.max_line_bytes,
        "max_connections": config.max_connections,
        "admission_queue": config.admission_queue,
        "idle_timeout": config.idle_timeout,
        "drain_grace": config.drain_grace,
    }


def serve(
    session: Optional[Session] = None,
    input_stream: Optional[IO[str]] = None,
    output_stream: Optional[IO[str]] = None,
    host: str = "127.0.0.1",
    port: Optional[int] = None,
    config: Optional[ServeConfig] = None,
    install_signal_handlers: bool = True,
) -> int:
    """Run the serve loop on stdin/stdout, or on a TCP socket with ``port``.

    Either way SIGTERM and SIGINT drain gracefully: stop taking new work,
    finish in-flight requests (bounded by ``config.drain_grace``), flush
    (including the persistent verdict-cache tier), and return 0.
    """
    session = session if session is not None else Session()
    config = config if config is not None else ServeConfig()
    state = ServerState(config)
    if session.engine.verdict_cache is None and config.cache_capacity > 0:
        from repro.cache import VerdictCache

        # The memory tier is always on for serving; --cache-dir adds the
        # persistent tier (and --cache-capacity 0 turns the cache off).
        if config.cache_dir is not None:
            cache = VerdictCache.open(config.cache_dir, capacity=config.cache_capacity)
            cache_stats = cache.stats
            state.log(
                "cache_open",
                path=cache.store.path,
                loaded=cache_stats.persisted_loaded,
                skipped=cache_stats.persisted_skipped,
            )
        else:
            cache = VerdictCache(capacity=config.cache_capacity)
        session.engine.verdict_cache = cache
    metrics_server = None
    if config.metrics_port is not None:
        metrics_server = start_metrics_server(host, config.metrics_port, state, session)
        state.log("metrics_start", port=metrics_server.server_address[1])
    try:
        if port is not None:
            return _serve_socket(session, host, port, state, install_signal_handlers)
        return _serve_stdio(
            session,
            input_stream if input_stream is not None else sys.stdin,
            output_stream if output_stream is not None else sys.stdout,
            state,
            install_signal_handlers,
        )
    finally:
        if metrics_server is not None:
            metrics_server.shutdown()
            metrics_server.server_close()
        cache = session.engine.verdict_cache
        if cache is not None:
            cache.close()


def _serve_until_drained(
    session: Session,
    state: ServerState,
    run: Callable[[], Dict[str, object]],
    begin_drain: Callable[[str], object],
    install_signal_handlers: bool,
    interrupt_reads: bool = False,
    **transport: object,
) -> int:
    """The drain lifecycle both transports share.

    Routes SIGTERM/SIGINT to ``begin_drain`` (and, with
    ``interrupt_reads``, interrupts an idle read), logs ``serve_start``,
    runs the transport, waits for in-flight requests and logs
    ``serve_stop`` with the extra fields ``run`` returns.
    """
    previous = None
    if install_signal_handlers:
        previous = _install_drain_handlers(
            begin_drain, raise_when_reading=state if interrupt_reads else None
        )
    state.log(
        "serve_start",
        **transport,
        pid=os.getpid(),
        backend=session.backend_name,
        kernel=session.kernel_name,
        limits=_limits_fields(state.config),
    )
    try:
        stop_fields = run()
        drained = state.wait_idle(state.config.drain_grace)
        state.log(
            "serve_stop",
            drained=drained,
            requests_total=state.requests_total,
            **stop_fields,
            uptime_seconds=round(state.uptime(), 3),
        )
    finally:
        _restore_handlers(previous)
    return 0


def _serve_socket(
    session: Session, host: str, port: int, state: ServerState, install_signal_handlers: bool
) -> int:
    # Remote clients must not be able to read server-side files by
    # sending path-shaped test or model specs; registered names, inline
    # litmus text and embedded documents remain available.
    session.tests.allow_paths = False
    session.models.allow_paths = False
    server = serve_socket(session, host, port, config=state.config, state=state)

    def begin_drain(cause: str) -> None:
        if state.begin_drain(cause):
            # shutdown() blocks until the accept loop exits, so it must not
            # run on the thread executing serve_forever (or in its signal
            # handler).
            threading.Thread(target=server.shutdown, daemon=True).start()

    def run() -> Dict[str, object]:
        try:
            server.serve_forever(poll_interval=0.1)
        except KeyboardInterrupt:  # handlers not installed (e.g. nested use)
            begin_drain("KeyboardInterrupt")
        server.server_close()
        return {}

    return _serve_until_drained(
        session, state, run, begin_drain, install_signal_handlers,
        transport="socket", host=host, port=server.server_address[1],
    )


def _serve_stdio(
    session: Session,
    input_stream: IO[str],
    output_stream: IO[str],
    state: ServerState,
    install_signal_handlers: bool,
) -> int:
    reader = (
        _InterruptibleReader(input_stream, state)
        if hasattr(input_stream, "readline")
        else input_stream
    )

    def run() -> Dict[str, object]:
        try:
            return {"answered": serve_stream(session, reader, output_stream, state=state)}
        except _DrainInterrupt:  # the drain signal interrupted an idle read
            return {"answered": 0}

    return _serve_until_drained(
        session, state, run, state.begin_drain, install_signal_handlers,
        interrupt_reads=True, transport="stdio",
    )


def add_serve_arguments(parser: argparse.ArgumentParser) -> None:
    """The serve limit flags, shared by the CLI and ``python -m`` entry."""
    parser.add_argument("--host", default="127.0.0.1", help="bind address for --port")
    parser.add_argument(
        "--port",
        type=int,
        default=None,
        help="serve on a TCP socket instead of stdin/stdout",
    )
    parser.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="per-request deadline, > 0; past it the client gets a structured "
        "deadline_exceeded error (default: unbounded)")
    parser.add_argument(
        "--max-line-bytes", type=int, default=None, metavar="N",
        help="maximum request line length, >= 1; longer lines answer "
        "request_too_large (default: 10MiB)")
    parser.add_argument(
        "--max-connections", type=int, default=None, metavar="N",
        help="maximum concurrently-served connections, >= 1; with --timeout, "
        "also the most requests that may still be running past their deadline "
        "(default: 64)")
    parser.add_argument(
        "--admission-queue", type=int, default=None, metavar="N",
        help="connections allowed to wait for a slot before being shed with "
        "an overloaded error, >= 0 (default: 128)")
    parser.add_argument(
        "--idle-timeout", type=float, default=None, metavar="SECONDS",
        help="close connections idle this long, > 0 (default: 300)")
    parser.add_argument(
        "--drain-grace", type=float, default=None, metavar="SECONDS",
        help="how long a SIGTERM/SIGINT drain waits for in-flight requests, "
        ">= 0 (default: 30)")
    parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="persist verdict-cache entries to DIR/verdicts.jsonl so warm "
        "verdicts survive restarts and can be shared between replicas "
        "(default: memory-only)")
    parser.add_argument(
        "--cache-capacity", type=int, default=None, metavar="N",
        help="verdict-cache memory-tier entry cap, >= 0; 0 turns the cache "
        "off (default: 1048576)")
    parser.add_argument(
        "--metrics-port", type=int, default=None, metavar="PORT",
        help="serve Prometheus metrics over HTTP on this port "
        "(GET /metrics; default: off)")


def config_from_args(args: argparse.Namespace) -> ServeConfig:
    """Build a :class:`ServeConfig` from the flags that were passed.

    Raises :class:`ValueError` for an out-of-range limit.
    """
    names = (
        "timeout", "max_line_bytes", "max_connections", "admission_queue",
        "idle_timeout", "drain_grace", "cache_dir", "cache_capacity", "metrics_port",
    )
    return ServeConfig(
        **{name: getattr(args, name) for name in names if getattr(args, name) is not None}
    )
