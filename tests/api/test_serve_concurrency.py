"""Concurrency stress tests for the socket serve loop.

Threads × ops over one socket server: no lost or duplicated responses,
per-request stats deltas that sum to the engine's total, verdicts
bit-identical to a cold single-threaded session, and (cache on vs off,
on both kernel legs) bit-identical results.
"""

import json
import random
import socket
import threading

import pytest

from repro.api.serve import ServeConfig, ServerState, serve_socket
from repro.api.session import Session
from repro.cache import VerdictCache
from repro.generation.named_tests import all_named_tests

from tests.conftest import KERNEL_LEGS

MODELS = ("SC", "TSO", "PSO", "RMO", "Alpha")
TESTS = ("A", "L1", "L2", "L3", "L5", "L7")


def _quiet_config(**kwargs):
    return ServeConfig(log_enabled=False, **kwargs)


class _RunningServer:
    def __init__(self, session, config):
        self.state = ServerState(config)
        self.server = serve_socket(session, "127.0.0.1", 0, config=config, state=self.state)
        self.port = self.server.server_address[1]
        self.thread = threading.Thread(target=self.server.serve_forever, daemon=True)
        self.thread.start()

    def stop(self):
        self.server.shutdown()
        self.server.server_close()
        self.thread.join(timeout=10)


def _converse(port, lines):
    """One connection: send every line, return the parsed responses."""
    with socket.create_connection(("127.0.0.1", port), timeout=30) as connection:
        handle = connection.makefile("rw", encoding="utf-8")
        responses = []
        for line in lines:
            handle.write(line + "\n")
            handle.flush()
            responses.append(json.loads(handle.readline()))
        return responses


def _check_line(test, model):
    # Requests carry no client tag; response identity is asserted through
    # the echoed (test_name, model_name) of each result instead.
    return json.dumps({"op": "check", "test": test, "model": model})


def _expected_verdicts(pairs, **session_kwargs):
    """The ground truth: a cold, single-threaded session."""
    from repro.api.requests import CheckRequest

    session = Session(**session_kwargs)
    return {
        (test, model): session.run(CheckRequest(test=test, model=model)).allowed
        for test, model in sorted(set(pairs))
    }


def test_concurrent_clients_no_lost_or_duplicated_responses():
    rng = random.Random(0xC0FFEE)
    session = Session()
    session.engine.verdict_cache = VerdictCache()
    running = _RunningServer(session, _quiet_config())
    n_threads, n_requests = 8, 40
    plans = [
        [(rng.choice(TESTS), rng.choice(MODELS)) for _ in range(n_requests)]
        for _ in range(n_threads)
    ]
    expected = _expected_verdicts([pair for plan in plans for pair in plan])
    results = [None] * n_threads
    errors = []

    def client(index):
        try:
            lines = [_check_line(test, model) for test, model in plans[index]]
            results[index] = _converse(running.port, lines)
        except BaseException as error:  # pragma: no cover - failure path
            errors.append(error)

    try:
        threads = [threading.Thread(target=client, args=(i,)) for i in range(n_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        running.stop()

    assert not errors
    for index, responses in enumerate(results):
        assert responses is not None and len(responses) == n_requests  # none lost
        for (test, model), response in zip(plans[index], responses):
            assert response["ok"], response
            # each response answers exactly the request that was sent, in
            # order — no duplication or cross-connection mixups
            assert response["result"]["test_name"] == test
            assert response["result"]["model_name"] == model
            assert response["result"]["allowed"] == expected[(test, model)]


def test_per_request_stats_deltas_sum_to_engine_total():
    session = Session()
    session.engine.verdict_cache = VerdictCache()
    running = _RunningServer(session, _quiet_config())
    rng = random.Random(7)
    plans = [
        [(rng.choice(TESTS), rng.choice(MODELS)) for _ in range(25)] for _ in range(6)
    ]
    all_stats = []
    stats_lock = threading.Lock()

    def client(plan):
        lines = [_check_line(test, model) for test, model in plan]
        responses = _converse(running.port, lines)
        with stats_lock:
            all_stats.extend(response["stats"] for response in responses)

    try:
        threads = [threading.Thread(target=client, args=(plan,)) for plan in plans]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        running.stop()

    assert len(all_stats) == sum(len(plan) for plan in plans)
    for counter in ("checks_performed", "verdict_cache_hits", "verdict_cache_misses",
                    "executions_evaluated", "solver_calls"):
        assert sum(stats[counter] for stats in all_stats) == getattr(
            session.engine.stats, counter
        ), counter
    assert sum(s["checks_performed"] for s in all_stats) == len(all_stats)


@pytest.mark.parametrize("kernel", KERNEL_LEGS)
def test_verdicts_bit_identical_cache_on_vs_off(kernel):
    rng = random.Random(42)
    pairs = [(rng.choice(TESTS), rng.choice(MODELS)) for _ in range(60)]
    lines = [_check_line(test, model) for test, model in pairs]

    outcomes = {}
    for label, cache in (("off", None), ("on", VerdictCache())):
        session = Session(kernel=kernel)
        session.engine.verdict_cache = cache
        running = _RunningServer(session, _quiet_config())
        try:
            responses = _converse(running.port, lines)
        finally:
            running.stop()
        outcomes[label] = [response["result"] for response in responses]
        assert all(response["ok"] for response in responses)

    assert outcomes["on"] == outcomes["off"]  # bit-identical result documents
    expected = _expected_verdicts(pairs, kernel=kernel)
    for (test, model), result in zip(pairs, outcomes["on"]):
        assert result["allowed"] == expected[(test, model)]


def test_cache_hits_register_in_metrics_and_engine_stats():
    """A miss, a verdict-cache hit, then a memo hit of the same line: all
    three count as checks in the metrics, both hits in the engine stats."""
    session = Session()
    session.engine.verdict_cache = VerdictCache()
    running = _RunningServer(session, _quiet_config())
    line = _check_line("L1", "TSO")
    try:
        first, second, third, metrics = _converse(
            running.port, [line, line, line, json.dumps({"op": "metrics"})]
        )
    finally:
        running.stop()
    assert first["result"] == second["result"] == third["result"]
    assert second["stats"]["verdict_cache_hits"] == 1
    assert third == second
    document = metrics["result"]
    assert document["cache"]["enabled"] is True
    assert document["cache"]["hits"] >= 2
    assert document["engine"]["verdict_cache_hits"] >= 2
    assert any(
        entry["op"] == "check" and entry["code"] == "ok" and entry["count"] == 3
        for entry in document["requests"]
    )


def test_connection_registries_are_private_views():
    base = Session()
    running = _RunningServer(base, _quiet_config())
    named = all_named_tests()
    try:
        # Connection A checks an inline model document; connection B must
        # still see the stock registries (and the base session must too).
        before = tuple(base.models.names())
        _converse(running.port, [json.dumps({"op": "check", "test": "A", "model": "TSO"})])
        assert tuple(base.models.names()) == before
    finally:
        running.stop()
    assert "A" in named  # sanity: the test name used above exists


def test_hypothesis_seeded_mixed_op_stress():
    from hypothesis import given, settings, strategies as st

    session = Session()
    session.engine.verdict_cache = VerdictCache()
    running = _RunningServer(session, _quiet_config())
    expected = _expected_verdicts([(t, m) for t in TESTS for m in MODELS])

    ops = st.lists(
        st.one_of(
            st.tuples(st.sampled_from(TESTS), st.sampled_from(MODELS)),
            st.just("stats"),
            st.just("health"),
        ),
        min_size=1,
        max_size=12,
    )

    @settings(max_examples=15, deadline=None)
    @given(plan=ops)
    def run(plan):
        lines = []
        for op in plan:
            if op == "stats":
                lines.append(json.dumps({"op": "stats"}))
            elif op == "health":
                lines.append(json.dumps({"op": "health"}))
            else:
                lines.append(_check_line(op[0], op[1]))
        responses = _converse(running.port, lines)
        assert len(responses) == len(plan)
        for op, response in zip(plan, responses):
            assert response["ok"], response
            if isinstance(op, tuple):
                assert response["result"]["allowed"] == expected[op]
            elif op == "health":
                assert response["result"]["status"] == "ok"
            else:
                assert "engine" in response["result"]

    try:
        run()
    finally:
        running.stop()
