"""``repro serve``: a production-hardened JSON-lines request/response loop.

One warm :class:`~repro.api.session.Session` answers a stream of request
documents, one JSON object per line, writing one JSON response object per
line.  Because the session (and therefore the engine and its caches)
persists across requests, a ``compare`` following an ``explore`` over the
same suite is answered almost entirely from cache — each response carries
the per-request :class:`~repro.engine.engine.EngineStats` delta so the
reuse is observable.

Transports:

* stdin/stdout (the default);
* a TCP socket (``--port``): one JSON-lines conversation per connection.
  Each connection gets its own lightweight :meth:`Session.view` (private
  registries over one shared engine) and its own thread.  ``check``
  requests whose verdict is already in the shared digest-keyed verdict
  cache (``--cache-dir``; see :mod:`repro.cache`) are answered without
  running the engine — the concurrency fast path.

Both transports share one execution path: an engine-touching request
runs on the thread that read it, under the engine lock, or on a
watchdog thread when a ``--timeout`` is set.

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
  is full (or the wait exceeds the admission timeout).
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
def _env_value(name: str, cast: Callable, default):
    raw = os.environ.get(name)
    if raw is None or raw == "":
        return default
    try:
        return cast(raw)
    except ValueError:
        return default


@dataclass
class ServeConfig:
    """Limits and operational knobs for the serve loop.

    Every field has a CLI flag and a ``REPRO_SERVE_*`` environment
    variable (flag > env > default); see :meth:`from_env`.
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
    #: how long a queued connection waits for a slot before being shed
    admission_timeout: float = 10.0
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

    @classmethod
    def from_env(cls, **overrides: object) -> "ServeConfig":
        """Build a config from ``REPRO_SERVE_*`` variables plus overrides.

        Overrides whose value is ``None`` are ignored, so CLI flags that
        were not passed fall through to the environment, then defaults.
        """
        config = cls(
            timeout=_env_value("REPRO_SERVE_TIMEOUT", float, None),
            max_line_bytes=_env_value("REPRO_SERVE_MAX_LINE_BYTES", int, cls.max_line_bytes),
            max_connections=_env_value("REPRO_SERVE_MAX_CONNECTIONS", int, cls.max_connections),
            admission_queue=_env_value("REPRO_SERVE_ADMISSION_QUEUE", int, cls.admission_queue),
            admission_timeout=_env_value(
                "REPRO_SERVE_ADMISSION_TIMEOUT", float, cls.admission_timeout
            ),
            idle_timeout=_env_value("REPRO_SERVE_IDLE_TIMEOUT", float, cls.idle_timeout),
            drain_grace=_env_value("REPRO_SERVE_DRAIN_GRACE", float, cls.drain_grace),
            cache_dir=_env_value("REPRO_SERVE_CACHE_DIR", str, None),
            cache_capacity=_env_value("REPRO_SERVE_CACHE_CAPACITY", int, cls.cache_capacity),
            metrics_port=_env_value("REPRO_SERVE_METRICS_PORT", int, None),
        )
        for name, value in overrides.items():
            if value is not None:
                setattr(config, name, value)
        return config


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


#: Request-document keys the cache fast path understands; anything else
#: (enveloped documents, unknown fields) takes the full validation path.
_FAST_CHECK_KEYS = frozenset(("op", "test", "model", "witness"))


def _fast_check(session: Session, document: Dict[str, Any]) -> Optional[Dict[str, Any]]:
    """Answer a warm ``check`` from the verdict cache, or None to fall through.

    This is the serve concurrency fast path: no request dataclass, no
    engine dispatch, no full stats snapshot — just two registry dict hits,
    one cache lookup and one brief engine-lock acquisition for the
    counters.  Only taken when it provably answers
    exactly what the slow path would: a bare witness-less ``check`` of a
    registered test name against a registered model name whose
    ``(model digest, test digest)`` verdict is already cached.
    """
    engine = session.engine
    vcache = engine.verdict_cache
    if vcache is None or faults._FAULTS:
        return None
    if document.get("witness") or not _FAST_CHECK_KEYS.issuperset(document):
        return None
    test_spec = document.get("test")
    model_spec = document.get("model")
    if not isinstance(test_spec, str) or not isinstance(model_spec, str):
        return None
    if test_spec not in session.tests or model_spec not in session.models:
        return None
    test = session.tests.resolve(test_spec)
    model = session.models.resolve(model_spec)
    key = vcache.key_for(test, model)
    if key is None:
        return None
    verdict = vcache.get(key)
    if verdict is None:
        return None
    with engine.lock:
        engine.stats.checks_performed += 1
        engine.stats.verdict_cache_hits += 1
        kernel_backend = engine.stats.kernel_backend
    from repro.checker.result import CheckResult
    from repro.engine.engine import EngineStats

    result = CheckResult(
        allowed=verdict, test_name=test.name, model_name=model.name,
        witness=None, reason="",
    )
    delta = EngineStats(
        checks_performed=1, verdict_cache_hits=1, kernel_backend=kernel_backend
    )
    response = envelope("response")
    response.update(
        {"ok": True, "op": "check", "result": to_json(result), "stats": delta.as_dict()}
    )
    return response


#: Per-connection response-memo capacity (distinct request lines).
_MEMO_LIMIT = 1024


def _count_memo_hit(session: Session) -> None:
    """Book a memoised cache-hit check with exactly the fast path's delta."""
    engine = session.engine
    with engine.lock:
        engine.stats.checks_performed += 1
        engine.stats.verdict_cache_hits += 1
    vcache = engine.verdict_cache
    if vcache is not None:
        vcache.note_hit()


def handle_request_line(
    session: Session,
    line: str,
    state: Optional[ServerState] = None,
    config: Optional[ServeConfig] = None,
    counted: bool = False,
    memo: Optional[Dict[str, Dict[str, Any]]] = None,
) -> Dict[str, Any]:
    """Answer one JSON request line; never raises on any input.

    An engine-touching request runs on the calling thread, or under the
    deadline watchdog when ``config.timeout`` is set; either way it
    serialises on the engine lock (see :func:`_dispatch`).  ``counted``
    tells builtin ops whether the caller already counted this request in
    the in-flight gauge.

    ``memo`` is the connection-private response memo (L1 of the cache
    hierarchy, above the process verdict cache and its persistent tier):
    a repeated verbatim fast-path check line is answered from it with one
    dict hit plus the counter bump.  Deterministic verdicts make the
    repeat response byte-identical, so only registry rebinding can
    invalidate it — any request that reaches the generic path clears the
    memo wholesale.
    """
    if config is None:
        config = state.config if state is not None else ServeConfig()
    response = envelope("response")
    op: Optional[str] = None
    preserve_memo = False
    started = time.monotonic()
    try:
        if memo is not None and not faults._FAULTS:
            hit = memo.get(line)
            if hit is not None:
                op = "check"
                _count_memo_hit(session)
                preserve_memo = True
                response = hit
                return response
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
            preserve_memo = True  # read-only: cannot rebind registries
            response.update(
                {"ok": True, "op": op,
                 "result": _builtin_result(op, session, state, counted=counted)}
            )
            return response
        if op == "check":
            fast = _fast_check(session, document)
            if fast is not None:
                if memo is not None and not faults._FAULTS and len(memo) < _MEMO_LIMIT:
                    memo[line] = fast
                preserve_memo = True
                response = fast
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
        if memo is not None and not preserve_memo and memo:
            # Anything that reached the generic path may have rebound a
            # registry name out from under a memoised response.
            memo.clear()
        if state is not None:
            duration = time.monotonic() - started
            code = (response.get("error") or {}).get("code")
            state.metrics.record(op, code if code else "ok", duration)
            state.log(
                "request",
                op=op,
                ok=bool(response.get("ok")),
                code=code,
                duration_ms=round(duration * 1000.0, 3),
            )
    return response


def _dispatch(session: Session, request: Any) -> Tuple[Any, Any]:
    faults.fire("serve.request", op=request.op)
    # The engine lock is held across the whole dispatch so the
    # snapshot/since delta is exactly this request's work even when other
    # connections run concurrently (the fast path never comes here — it
    # builds its own one-counter delta under a brief lock acquisition).
    # It is taken inside the possibly deadline-supervised call, so an
    # abandoned request releases it when it finishes.
    engine = session.engine
    with engine.lock:
        before = engine.stats.snapshot()
        result = session.run(request)
        return result, engine.stats.since(before)


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
    """
    if config is None:
        config = state.config if state is not None else ServeConfig()
    answered = 0
    #: connection-private response memo (line -> response dict) plus the
    #: rendered text of each memoised response, so a repeated line costs
    #: neither a JSON parse nor a JSON dump.  ``rendered`` entries are
    #: only trusted when the memo still returns the identical dict.
    memo: Dict[str, Dict[str, Any]] = {}
    rendered: Dict[str, Tuple[Dict[str, Any], str]] = {}
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
            if response is None:
                response = handle_request_line(
                    session, line, state=state, config=config,
                    counted=state is not None, memo=memo,
                )
            cached = rendered.get(line)
            if cached is not None and cached[0] is response:
                text = cached[1]
            else:
                text = json.dumps(response) + "\n"
                if memo.get(line) is response:
                    rendered[line] = (response, text)
                elif not memo and rendered:
                    rendered.clear()  # the memo was invalidated wholesale
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
            admitted = self.server.capacity.acquire(timeout=config.admission_timeout)
        finally:
            with state.lock:
                state.waiting -= 1
        if not admitted:
            self._shed(
                "overloaded",
                f"no connection slot within {config.admission_timeout:g}s",
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
    begin_drain: Callable[[str], None], raise_when_reading: Optional[ServerState] = None
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
    config = config if config is not None else ServeConfig.from_env()
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
            return _serve_socket_until_drained(session, host, port, config, state,
                                               install_signal_handlers)
        return _serve_stdio_until_drained(
            session,
            input_stream if input_stream is not None else sys.stdin,
            output_stream if output_stream is not None else sys.stdout,
            config,
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


def _serve_socket_until_drained(
    session: Session,
    host: str,
    port: int,
    config: ServeConfig,
    state: ServerState,
    install_signal_handlers: bool,
) -> int:
    # Remote clients must not be able to read server-side files by
    # sending path-shaped test or model specs; registered names, inline
    # litmus text and embedded documents remain available.
    session.tests.allow_paths = False
    session.models.allow_paths = False
    server = serve_socket(session, host, port, config=config, state=state)
    bound = server.server_address[1]

    def begin_drain(cause: str) -> None:
        with state.lock:
            if state.draining:
                return
            state.draining = True
        state.log("drain_begin", cause=cause, in_flight=state.in_flight)
        # shutdown() blocks until the accept loop exits, so it must not run
        # on the thread executing serve_forever (or in its signal handler).
        threading.Thread(target=server.shutdown, daemon=True).start()

    previous = _install_drain_handlers(begin_drain) if install_signal_handlers else None
    state.log(
        "serve_start",
        transport="socket",
        host=host,
        port=bound,
        pid=os.getpid(),
        backend=session.backend_name,
        kernel=session.kernel_name,
        limits=_limits_fields(config),
    )
    try:
        try:
            server.serve_forever(poll_interval=0.1)
        except KeyboardInterrupt:  # handlers not installed (e.g. nested use)
            begin_drain("KeyboardInterrupt")
        drained = state.wait_idle(config.drain_grace)
        server.server_close()
        state.log(
            "serve_stop",
            drained=drained,
            requests_total=state.requests_total,
            uptime_seconds=round(state.uptime(), 3),
        )
    finally:
        _restore_handlers(previous)
    return 0


def _serve_stdio_until_drained(
    session: Session,
    input_stream: IO[str],
    output_stream: IO[str],
    config: ServeConfig,
    state: ServerState,
    install_signal_handlers: bool,
) -> int:
    def begin_drain(cause: str) -> None:
        with state.lock:
            if state.draining:
                return
            state.draining = True
        state.log("drain_begin", cause=cause, in_flight=state.in_flight)

    previous = (
        _install_drain_handlers(begin_drain, raise_when_reading=state)
        if install_signal_handlers
        else None
    )
    state.log(
        "serve_start",
        transport="stdio",
        pid=os.getpid(),
        backend=session.backend_name,
        kernel=session.kernel_name,
        limits=_limits_fields(config),
    )
    reader = (
        _InterruptibleReader(input_stream, state)
        if hasattr(input_stream, "readline")
        else input_stream
    )
    answered = 0
    try:
        answered = serve_stream(
            session, reader, output_stream, state=state, config=config
        )
    except _DrainInterrupt:
        pass  # the drain signal interrupted an idle read: clean exit
    finally:
        _restore_handlers(previous)
    drained = state.wait_idle(config.drain_grace) if state.in_flight else True
    state.log(
        "serve_stop",
        drained=drained,
        requests_total=state.requests_total,
        answered=answered,
        uptime_seconds=round(state.uptime(), 3),
    )
    return 0


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
        help="per-request deadline; past it the client gets a structured "
        "deadline_exceeded error (default: unbounded; env REPRO_SERVE_TIMEOUT)")
    parser.add_argument(
        "--max-line-bytes", type=int, default=None, metavar="N",
        help="maximum request line length; longer lines answer "
        "request_too_large (default: 10MiB; env REPRO_SERVE_MAX_LINE_BYTES)")
    parser.add_argument(
        "--max-connections", type=int, default=None, metavar="N",
        help="maximum concurrently-served connections; with --timeout, also "
        "the most requests that may still be running past their deadline "
        "(default: 64; env REPRO_SERVE_MAX_CONNECTIONS)")
    parser.add_argument(
        "--admission-queue", type=int, default=None, metavar="N",
        help="connections allowed to wait for a slot before being shed with "
        "an overloaded error (default: 128; env REPRO_SERVE_ADMISSION_QUEUE)")
    parser.add_argument(
        "--idle-timeout", type=float, default=None, metavar="SECONDS",
        help="close connections idle this long "
        "(default: 300; env REPRO_SERVE_IDLE_TIMEOUT)")
    parser.add_argument(
        "--drain-grace", type=float, default=None, metavar="SECONDS",
        help="how long a SIGTERM/SIGINT drain waits for in-flight requests "
        "(default: 30; env REPRO_SERVE_DRAIN_GRACE)")
    parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="persist verdict-cache entries to DIR/verdicts.jsonl so warm "
        "verdicts survive restarts and can be shared between replicas "
        "(default: memory-only cache off; env REPRO_SERVE_CACHE_DIR)")
    parser.add_argument(
        "--cache-capacity", type=int, default=None, metavar="N",
        help="verdict-cache memory-tier entry cap "
        "(default: 1048576; env REPRO_SERVE_CACHE_CAPACITY)")
    parser.add_argument(
        "--metrics-port", type=int, default=None, metavar="PORT",
        help="serve Prometheus metrics over HTTP on this port "
        "(GET /metrics; default: off; env REPRO_SERVE_METRICS_PORT)")


def config_from_args(args: argparse.Namespace) -> ServeConfig:
    """Resolve a :class:`ServeConfig` from parsed flags over the environment."""
    return ServeConfig.from_env(
        timeout=args.timeout,
        max_line_bytes=args.max_line_bytes,
        max_connections=args.max_connections,
        admission_queue=args.admission_queue,
        idle_timeout=args.idle_timeout,
        drain_grace=args.drain_grace,
        cache_dir=args.cache_dir,
        cache_capacity=args.cache_capacity,
        metrics_port=args.metrics_port,
    )
