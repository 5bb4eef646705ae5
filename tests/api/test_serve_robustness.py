"""Robustness tests for the serve loop: error taxonomy, deadlines, limits,
backpressure, idle timeouts, built-in ops, and graceful drain."""

import io
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time

import pytest

from repro.api.serve import (
    ERROR_CODES,
    ServeConfig,
    ServerState,
    handle_request_line,
    serve_socket,
    serve_stream,
)
from repro.api.session import Session
from repro.util import faults

CHECK_LINE = json.dumps({"op": "check", "test": "A", "model": "TSO"})


@pytest.fixture(autouse=True)
def _isolate_faults():
    saved = faults.snapshot()
    faults.clear()
    yield
    faults.restore(saved)


@pytest.fixture(scope="module")
def session():
    return Session()


def _quiet_config(**kwargs):
    return ServeConfig(log_enabled=False, **kwargs)


def _serve_lines(session, lines, config=None, state=None):
    output = io.StringIO()
    serve_stream(
        session,
        io.StringIO("\n".join(lines) + "\n"),
        output,
        config=config,
        state=state,
    )
    return [json.loads(line) for line in output.getvalue().splitlines()]


# ----------------------------------------------------------------------
# error taxonomy
# ----------------------------------------------------------------------
def test_error_codes_are_documented_strings():
    assert set(ERROR_CODES) == {
        "invalid_request",
        "request_too_large",
        "deadline_exceeded",
        "overloaded",
        "unavailable",
        "internal",
    }


def test_unexpected_exception_yields_internal_not_a_dead_loop(session):
    """The satellite fix: an exception outside the (ValueError, TypeError,
    LookupError, OSError) family must answer `internal` and keep serving."""
    faults.install("serve.request=raise*1")
    log = io.StringIO()
    state = ServerState(ServeConfig(log_stream=log))
    responses = _serve_lines(session, [CHECK_LINE, CHECK_LINE], state=state)
    assert len(responses) == 2
    assert responses[0]["ok"] is False
    assert responses[0]["error"]["code"] == "internal"
    assert "InjectedFault" in responses[0]["error"]["message"]
    assert responses[1]["ok"] is True  # the loop survived
    events = [json.loads(line) for line in log.getvalue().splitlines()]
    (internal,) = [event for event in events if event["event"] == "internal_error"]
    assert "Traceback" in internal["traceback"]


def test_non_object_json_document_is_invalid_request(session):
    # A JSON array used to raise AttributeError straight through the loop.
    for line in ("[1, 2, 3]", '"a string"', "42"):
        response = handle_request_line(session, line)
        assert response["ok"] is False
        assert response["error"]["code"] == "invalid_request"


def test_session_level_fault_is_internal(session):
    faults.install("session.run=raise*1")
    response = handle_request_line(
        session, CHECK_LINE, config=_quiet_config()
    )
    assert response["error"]["code"] == "internal"


SYNTHESIZE_LINE = json.dumps(
    {
        "op": "synthesize",
        "observations": [
            {"test": "L1", "allowed": False},
            {"test": "L8", "allowed": True},
        ],
        "space": "paper90",
    }
)


def test_synthesis_fault_mid_solve_is_internal_and_loop_survives(session):
    """A synthesize request dying mid-solve answers `internal` with the
    traceback in the log (not the response), and the loop keeps serving —
    including a retry of the very same synthesize request."""
    faults.install("synth.solve=raise*1")
    log = io.StringIO()
    state = ServerState(ServeConfig(log_stream=log))
    responses = _serve_lines(
        session, [SYNTHESIZE_LINE, SYNTHESIZE_LINE, CHECK_LINE], state=state
    )
    assert [r["ok"] for r in responses] == [False, True, True]
    assert responses[0]["error"]["code"] == "internal"
    assert "InjectedFault" in responses[0]["error"]["message"]
    assert "Traceback" not in responses[0]["error"]["message"]
    events = [json.loads(line) for line in log.getvalue().splitlines()]
    (internal,) = [e for e in events if e["event"] == "internal_error"]
    assert "Traceback" in internal["traceback"]
    # The armed fault is spent; the retry produced a real synthesis result.
    assert responses[1]["result"]["schema"] == "repro/synthesis_result"
    assert responses[1]["result"]["consistent_models"]


def test_synthesize_dispatch_fault_is_internal(session):
    faults.install("session.run[op=synthesize]=raise*1")
    responses = _serve_lines(
        session, [CHECK_LINE, SYNTHESIZE_LINE, CHECK_LINE], config=_quiet_config()
    )
    # The op filter spares the surrounding check requests.
    assert [r["ok"] for r in responses] == [True, False, True]
    assert responses[1]["error"]["code"] == "internal"


def test_malformed_observations_are_invalid_request_not_internal(session):
    bad = [
        {"op": "synthesize", "observations": [{"test": "L1"}]},
        {"op": "synthesize", "observations": [{"test": "L1", "allowed": 1}]},
        {"op": "synthesize", "observations": "L1"},
        {"op": "synthesize", "observations": [], "space": "paper180"},
        {"op": "synthesize", "observations": [], "backend": "cnf"},
    ]
    responses = _serve_lines(session, [json.dumps(b) for b in bad] + [CHECK_LINE])
    assert [r["ok"] for r in responses] == [False] * 5 + [True]
    assert all(
        r["error"]["code"] == "invalid_request" for r in responses if not r["ok"]
    )


# ----------------------------------------------------------------------
# bounded request lines
# ----------------------------------------------------------------------
def test_oversized_line_answers_request_too_large_and_continues(session):
    config = _quiet_config(max_line_bytes=256)
    huge = json.dumps({"op": "check", "test": "x" * 1024, "model": "TSO"})
    responses = _serve_lines(session, [huge, CHECK_LINE], config=config)
    assert responses[0]["error"]["code"] == "request_too_large"
    assert "256" in responses[0]["error"]["message"]
    assert responses[1]["ok"] is True


def test_oversized_line_is_discarded_not_buffered(session):
    """The reader never holds more than max_line_bytes of an oversized line."""

    class CountingStream(io.StringIO):
        max_read = 0

        def readline(self, limit=-1):
            text = super().readline(limit)
            CountingStream.max_read = max(CountingStream.max_read, len(text))
            return text

    config = _quiet_config(max_line_bytes=128)
    stream = CountingStream(("y" * 100_000) + "\n" + CHECK_LINE + "\n")
    output = io.StringIO()
    serve_stream(Session(), stream, output, config=config)
    responses = [json.loads(line) for line in output.getvalue().splitlines()]
    assert responses[0]["error"]["code"] == "request_too_large"
    assert responses[1]["ok"] is True
    assert CountingStream.max_read <= 129


# ----------------------------------------------------------------------
# deadlines
# ----------------------------------------------------------------------
def test_slow_request_past_deadline_is_abandoned(session):
    faults.install("serve.request=delay:5*1")
    config = _quiet_config(timeout=0.2)
    started = time.monotonic()
    response = handle_request_line(session, CHECK_LINE, config=config)
    elapsed = time.monotonic() - started
    assert response["error"]["code"] == "deadline_exceeded"
    assert elapsed < 2.0  # did not wait out the 5s delay


def test_abandoned_request_releases_the_shared_lock(session):
    """The engine lock is acquired inside the watchdog-run closure, so an
    abandoned request frees it when it finishes in the background."""
    faults.install("serve.request=delay:0.4*1")
    lock = session.engine.lock
    config = _quiet_config(timeout=0.1)
    first = handle_request_line(session, CHECK_LINE, config=config)
    assert first["error"]["code"] == "deadline_exceeded"
    time.sleep(0.6)  # let the abandoned thread finish and release
    assert lock.acquire(timeout=10)  # the abandoned request let it go
    lock.release()
    second = handle_request_line(session, CHECK_LINE, config=config)
    assert second["ok"] is True


def test_fast_requests_unaffected_by_deadline(session):
    config = _quiet_config(timeout=30.0)
    response = handle_request_line(session, CHECK_LINE, config=config)
    assert response["ok"] is True


# ----------------------------------------------------------------------
# built-in ops
# ----------------------------------------------------------------------
def test_health_op_reports_status_and_uptime(session):
    state = ServerState(_quiet_config())
    response = handle_request_line(session, '{"op": "health"}', state=state)
    assert response["ok"] and response["op"] == "health"
    assert response["result"]["status"] == "ok"
    assert response["result"]["uptime_seconds"] >= 0
    state.draining = True
    drained = handle_request_line(session, '{"op": "health"}', state=state)
    assert drained["result"]["status"] == "draining"


def test_stats_op_surfaces_counters_and_kernel_backend(session):
    state = ServerState(_quiet_config())
    responses = _serve_lines(
        session, [CHECK_LINE, '{"op": "stats"}'], state=state
    )
    stats = responses[1]["result"]
    assert stats["server"]["requests_total"] >= 1
    assert stats["server"]["requests_ok"] >= 1
    assert "uptime_seconds" in stats["server"]
    assert stats["engine"]["checks_performed"] >= 1
    assert stats["engine"]["kernel_backend"] == session.kernel_name
    assert stats["session"]["backend"] == session.backend_name


def test_stats_op_counts_errors_by_code(session):
    state = ServerState(_quiet_config())
    responses = _serve_lines(
        session, ["not json", '{"op": "stats"}'], state=state
    )
    by_code = responses[1]["result"]["server"]["errors_by_code"]
    assert by_code.get("invalid_request") == 1


def test_builtin_ops_bypass_the_deadline_and_lock(session):
    # A held lock (a wedged engine) must not block health checks.
    lock = session.engine.lock
    with lock:
        config = _quiet_config(timeout=0.2)
        response = handle_request_line(
            session, '{"op": "health"}', config=config
        )
    assert response["ok"] is True


# ----------------------------------------------------------------------
# socket transport: limits, shedding, idle timeout
# ----------------------------------------------------------------------
def _start_server(session, config):
    server = serve_socket(session, "127.0.0.1", 0, config=config)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server, thread, server.server_address[1]


def _stop_server(server, thread):
    server.shutdown()
    server.server_close()
    thread.join(timeout=10)


def test_socket_oversized_line_answers_request_too_large(session):
    config = _quiet_config(max_line_bytes=256)
    server, thread, port = _start_server(session, config)
    try:
        with socket.create_connection(("127.0.0.1", port), timeout=10) as conn:
            handle = conn.makefile("rw", encoding="utf-8")
            handle.write("z" * 1024 + "\n")
            handle.write(CHECK_LINE + "\n")
            handle.flush()
            first = json.loads(handle.readline())
            second = json.loads(handle.readline())
        assert first["error"]["code"] == "request_too_large"
        assert second["ok"] is True
    finally:
        _stop_server(server, thread)


def test_socket_oversized_non_ascii_line_is_one_request_too_large(session):
    """The limit counts bytes: 222 two-byte characters (444 bytes) are one
    oversized request, not two truncated ones, and the connection stays
    in sync."""
    config = _quiet_config(max_line_bytes=256)
    server, thread, port = _start_server(session, config)
    try:
        with socket.create_connection(("127.0.0.1", port), timeout=10) as conn:
            handle = conn.makefile("rw", encoding="utf-8")
            handle.write("é" * 222 + "\n")
            handle.write(CHECK_LINE + "\n")
            handle.flush()
            first = json.loads(handle.readline())
            second = json.loads(handle.readline())
        assert first["error"]["code"] == "request_too_large"
        assert second["ok"] is True
    finally:
        _stop_server(server, thread)


def _ask(handle, line):
    handle.write(line + "\n")
    handle.flush()
    return json.loads(handle.readline())


def test_socket_deadline_exceeded_then_connection_keeps_serving():
    faults.install("serve.request=delay:2*1")
    server, thread, port = _start_server(Session(), _quiet_config(timeout=0.2))
    try:
        with socket.create_connection(("127.0.0.1", port), timeout=10) as conn:
            handle = conn.makefile("rw", encoding="utf-8")
            started = time.monotonic()
            first = _ask(handle, CHECK_LINE)
            assert time.monotonic() - started < 1.5  # did not wait out the delay
            second = _ask(handle, CHECK_LINE)
        assert first["error"]["code"] == "deadline_exceeded"
        assert second["ok"] is True
    finally:
        _stop_server(server, thread)


def test_abandoned_requests_beyond_the_cap_are_overloaded_until_they_finish():
    """With --timeout, --max-connections also caps requests still running
    past their deadline; the slot frees once the abandoned one finishes."""
    faults.install("serve.request=delay:1*1")
    config = _quiet_config(timeout=0.2, max_connections=1)
    server, thread, port = _start_server(Session(), config)
    try:
        with socket.create_connection(("127.0.0.1", port), timeout=10) as conn:
            handle = conn.makefile("rw", encoding="utf-8")
            abandoned = _ask(handle, CHECK_LINE)
            shed = _ask(handle, CHECK_LINE)
            time.sleep(1.5)  # the abandoned request finishes and frees its slot
            freed = _ask(handle, CHECK_LINE)
        assert abandoned["error"]["code"] == "deadline_exceeded"
        assert shed["error"]["code"] == "overloaded"
        assert freed["ok"] is True
    finally:
        _stop_server(server, thread)


SERVER_GAUGES = {
    "uptime_seconds", "requests_total", "requests_ok", "errors_by_code", "in_flight",
    "connections_active", "connections_total", "connections_shed", "draining",
}


def test_builtin_results_report_only_live_gauges(session):
    """No dispatch-backlog gauge survives in health, stats or metrics."""
    server, thread, port = _start_server(session, _quiet_config())
    try:
        with socket.create_connection(("127.0.0.1", port), timeout=10) as conn:
            handle = conn.makefile("rw", encoding="utf-8")
            health, stats, metrics = (
                _ask(handle, json.dumps({"op": op})) for op in ("health", "stats", "metrics")
            )
        assert set(health["result"]) == {"status", "uptime_seconds", "in_flight"}
        assert set(stats["result"]["server"]) == SERVER_GAUGES
        assert set(metrics["result"]["server"]) == SERVER_GAUGES
    finally:
        _stop_server(server, thread)


def test_connections_beyond_queue_are_shed_with_overloaded(session):
    config = _quiet_config(max_connections=1, admission_queue=0)
    server, thread, port = _start_server(session, config)
    try:
        # Occupy the single slot with an open conversation.
        holder = socket.create_connection(("127.0.0.1", port), timeout=10)
        holder_file = holder.makefile("rw", encoding="utf-8")
        holder_file.write(CHECK_LINE + "\n")
        holder_file.flush()
        assert json.loads(holder_file.readline())["ok"]
        # The next connection exceeds the (zero-length) admission queue.
        with socket.create_connection(("127.0.0.1", port), timeout=10) as shed:
            shed_file = shed.makefile("rw", encoding="utf-8")
            response = json.loads(shed_file.readline())
        assert response["ok"] is False
        assert response["error"]["code"] == "overloaded"
        holder.close()
    finally:
        _stop_server(server, thread)


def test_idle_connections_are_closed(session):
    config = _quiet_config(idle_timeout=0.3)
    server, thread, port = _start_server(session, config)
    try:
        with socket.create_connection(("127.0.0.1", port), timeout=10) as conn:
            conn.settimeout(10)
            # Say nothing; the server should hang up after idle_timeout.
            assert conn.recv(1024) == b""
    finally:
        _stop_server(server, thread)


def test_draining_server_answers_unavailable(session):
    config = _quiet_config()
    state = ServerState(config)
    server = serve_socket(session, "127.0.0.1", 0, config=config, state=state)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    port = server.server_address[1]
    try:
        state.draining = True
        with socket.create_connection(("127.0.0.1", port), timeout=10) as conn:
            response = json.loads(conn.makefile("r", encoding="utf-8").readline())
        assert response["error"]["code"] == "unavailable"
    finally:
        _stop_server(server, thread)


# ----------------------------------------------------------------------
# configuration
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "name, value",
    [
        ("max_line_bytes", 0),
        ("max_line_bytes", -1),
        ("max_connections", 0),
        ("admission_queue", -1),
        ("drain_grace", -0.5),
        ("cache_capacity", -1),
        ("timeout", 0),
        ("timeout", -1.0),
        ("idle_timeout", 0),
    ],
)
def test_serve_config_rejects_out_of_range_limits(name, value):
    with pytest.raises(ValueError, match=name):
        ServeConfig(**{name: value})


def test_serve_config_accepts_boundary_limits():
    config = ServeConfig(
        max_line_bytes=1, max_connections=1, admission_queue=0, drain_grace=0,
        cache_capacity=0, timeout=None, idle_timeout=None,
    )
    assert config.max_line_bytes == 1 and config.idle_timeout is None


def test_cli_serve_rejects_out_of_range_limits():
    """A negative line limit used to make every read empty: the server
    logged serve_start, answered nothing and exited 0."""
    completed = subprocess.run(
        [sys.executable, "-m", "repro.cli", "serve", "--max-line-bytes", "-1"],
        input='{"op": "health"}\n',
        capture_output=True,
        text=True,
        env=_subprocess_env(),
        timeout=60,
    )
    assert completed.returncode == 2
    assert completed.stdout == ""
    assert "max_line_bytes must be at least 1" in completed.stderr


def test_cli_serve_exposes_limit_flags():
    from repro.cli import build_parser

    args = build_parser().parse_args(
        ["serve", "--timeout", "5", "--max-line-bytes", "1000",
         "--max-connections", "7", "--drain-grace", "2"]
    )
    from repro.api.serve import config_from_args

    config = config_from_args(args)
    assert config.timeout == 5.0
    assert config.max_line_bytes == 1000
    assert config.max_connections == 7
    assert config.drain_grace == 2.0


# ----------------------------------------------------------------------
# graceful drain (subprocess, real signals)
# ----------------------------------------------------------------------
def _subprocess_env(**extra):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(sys.path)
    env.update(extra)
    return env


def test_sigterm_mid_request_drains_and_exits_zero():
    """The CI smoke, as a test: SIGTERM while a request is in flight still
    delivers the response, logs structured start/drain/stop events, and
    exits 0."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve"],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=_subprocess_env(REPRO_FAULTS="serve.request=delay:1.5*1"),
    )
    proc.stdin.write(CHECK_LINE + "\n")
    proc.stdin.flush()
    # serve_start is logged once the drain handlers are installed; a signal
    # sent before that kills the process instead of draining it.  The lines
    # read here are kept for the event assertions below.
    startup = []
    for _ in range(200):
        line = proc.stderr.readline()
        startup.append(line)
        if line.startswith("{") and json.loads(line)["event"] == "serve_start":
            break
    time.sleep(0.5)  # the request is inside its injected 1.5s delay
    proc.send_signal(signal.SIGTERM)
    out, err = proc.communicate(timeout=60)
    err = "".join(startup) + err
    assert proc.returncode == 0
    responses = [json.loads(line) for line in out.splitlines()]
    assert responses and responses[0]["ok"] is True  # response delivered
    events = [json.loads(line)["event"] for line in err.splitlines()
              if line.startswith("{")]
    assert "serve_start" in events
    assert "drain_begin" in events
    assert events[-1] == "serve_stop"


def test_sigterm_on_idle_stdin_server_exits_zero():
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve"],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=_subprocess_env(),
    )
    # Wait for startup, then SIGTERM while blocked reading stdin.
    for _ in range(200):
        line = proc.stderr.readline()
        if line.startswith("{") and json.loads(line)["event"] == "serve_start":
            break
    time.sleep(0.2)
    proc.send_signal(signal.SIGTERM)
    proc.communicate(timeout=60)
    assert proc.returncode == 0


def test_sigterm_socket_server_drains_and_exits_zero():
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--port", "0"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=_subprocess_env(REPRO_FAULTS="serve.request=delay:1.5*1"),
    )
    port = None
    for _ in range(200):
        line = proc.stderr.readline()
        if line.startswith("{"):
            record = json.loads(line)
            if record["event"] == "serve_start":
                port = record["port"]
                break
    assert port is not None
    with socket.create_connection(("127.0.0.1", port), timeout=30) as conn:
        conn.sendall((CHECK_LINE + "\n").encode("utf-8"))
        time.sleep(0.6)  # mid-request (inside the injected delay)
        proc.send_signal(signal.SIGTERM)
        conn.settimeout(30)
        data = b""
        while b"\n" not in data:
            chunk = conn.recv(4096)
            if not chunk:
                break
            data += chunk
    response = json.loads(data.decode("utf-8"))
    assert response["ok"] is True  # in-flight request still answered
    proc.wait(timeout=60)
    proc.stdout.close()
    proc.stderr.close()
    assert proc.returncode == 0


# ----------------------------------------------------------------------
# verdict-cache faults
# ----------------------------------------------------------------------
def test_cache_get_fault_mid_request_is_internal_and_loop_survives(session):
    """A verdict-cache lookup dying mid-request is an `internal` answer,
    not a dead loop: the very next request (cache disarmed) succeeds."""
    from repro.cache import VerdictCache

    session.engine.verdict_cache = VerdictCache()
    faults.install("cache.get=raise*1")
    first, second = _serve_lines(session, [CHECK_LINE, CHECK_LINE])
    assert first["ok"] is False
    assert first["error"]["code"] == "internal"
    assert second["ok"] is True


def test_cache_persist_fault_never_corrupts_a_response(session, tmp_path):
    """A torn persistent-cache flush (crash mid-write) degrades the cache,
    never the answer: requests keep succeeding with correct verdicts."""
    from repro.cache import VerdictCache

    faults.install("cache.persist=truncate:40")
    session.engine.verdict_cache = VerdictCache.open(str(tmp_path))
    responses = _serve_lines(session, [CHECK_LINE, CHECK_LINE])
    assert all(response["ok"] for response in responses)
    assert responses[0]["result"] == responses[1]["result"]
    session.engine.verdict_cache.close()


def test_torn_persistent_cache_is_skipped_on_serve_reload(tmp_path):
    """`repro serve --cache-dir` over a torn verdicts.jsonl (a crashed
    predecessor) starts cleanly: the torn tail is skipped, the surviving
    entries load, and requests are served."""
    from repro.cache import VerdictCache

    warm = VerdictCache.open(str(tmp_path))
    warm.put(("m0", "t0"), True)
    warm.put(("m1", "t1"), False)
    warm.close()
    path = tmp_path / "verdicts.jsonl"
    path.write_bytes(path.read_bytes()[:-9])  # tear into the last entry

    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--cache-dir", str(tmp_path)],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=_subprocess_env(),
    )
    out, err = proc.communicate(CHECK_LINE + "\n", timeout=60)
    assert proc.returncode == 0
    response = json.loads(out.splitlines()[0])
    assert response["ok"] is True
    records = [json.loads(line) for line in err.splitlines() if line.startswith("{")]
    opened = [record for record in records if record["event"] == "cache_open"]
    assert opened and opened[0]["loaded"] == 1  # torn tail skipped, rest kept
    assert opened[0]["skipped"] == 1
