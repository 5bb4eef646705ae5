"""Serve throughput under pipelined TCP load: what the verdict cache buys.

8 TCP clients each pipeline a batch of check requests over one connection
against the socket transport, in three legs:

* **repeat mix, cache off** — every cacheable named test x the catalog
  models the paper compares, replayed 8 times by each client; every
  request runs the engine;
* **repeat mix, cache on** — the same mix against a warm verdict cache,
  where the engine's verdict-cache lookup answers each first sighting
  and the per-connection response memo answers the repeats;
* **miss-heavy, cache on** — distinct inline tests (the canonical
  enumeration at bound ``small``), so every request misses the cache and
  runs the engine.

Clients count raw newlines inside the timed window and parse/verify the
responses afterwards, so the measurement is server throughput rather
than client-side JSON decoding.  ``test_cache_on_is_4x_cache_off`` pins
the headline claim (>=4x throughput on the repeat mix) and asserts both
repeat legs' responses are bit-identical to a cold single-threaded
session, so the speedup can never come at the cost of a wrong verdict.
"""

import itertools
import json
import socket
import threading
import time

import pytest

from repro.api.serialize import to_json
from repro.api.serve import ServeConfig, ServerState, serve_socket
from repro.api.session import Session
from repro.cache import VerdictCache
from repro.generation import enumeration
from repro.pipeline.run import BOUNDS

#: The repeat-query mix: every cacheable named test x the catalog models
#: the paper compares, replayed 8 times by each of the 8 clients.
TESTS = ("A", "L1", "L2", "L3", "L5", "L7")
MODELS = ("SC", "TSO", "PSO", "RMO", "Alpha")
PAIRS = tuple((test, model) for test in TESTS for model in MODELS)
LINES = tuple(
    json.dumps({"op": "check", "test": test, "model": model}) for test, model in PAIRS
)
N_CLIENTS = 8
REPEATS = 8
ROUNDS = 3
#: Distinct inline tests each client sends per miss-heavy round.
MISSES_PER_CLIENT = 24


class _LoadHarness:
    """A serve transport plus 8 persistent pipelining client connections.

    Setup (server start, connection establishment) happens in the
    constructor and teardown in :meth:`close`, so :meth:`run` times only
    the request/response traffic.
    """

    def __init__(self, session, config):
        self.state = ServerState(config)
        self.server = serve_socket(
            session, "127.0.0.1", 0, config=config, state=self.state
        )
        port = self.server.server_address[1]
        self.thread = threading.Thread(
            target=lambda: self.server.serve_forever(poll_interval=0.02), daemon=True
        )
        self.thread.start()
        self.connections = [
            socket.create_connection(("127.0.0.1", port), timeout=120)
            for _ in range(N_CLIENTS)
        ]

    def run(self, batches=None):
        """One load round: client ``i`` ships ``batches[i]`` (default: the
        repeat mix) and drains responses by newline count.  Returns
        (elapsed_seconds, parsed responses per client)."""
        if batches is None:
            batches = [LINES * REPEATS] * N_CLIENTS
        payloads = [("\n".join(lines) + "\n").encode("utf-8") for lines in batches]
        raw = [None] * N_CLIENTS

        def client(index):
            connection = self.connections[index]
            connection.sendall(payloads[index])
            chunks, newlines = [], 0
            while newlines < len(batches[index]):
                chunk = connection.recv(1 << 16)
                if not chunk:
                    break
                chunks.append(chunk)
                newlines += chunk.count(b"\n")
            raw[index] = b"".join(chunks)

        threads = [
            threading.Thread(target=client, args=(i,)) for i in range(N_CLIENTS)
        ]
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - started

        results = [
            [json.loads(line) for line in blob.decode("utf-8").splitlines()]
            for blob in raw
        ]
        assert [len(result) for result in results] == [len(lines) for lines in batches]
        assert all(response["ok"] for result in results for response in result)
        return elapsed, results

    def close(self):
        for connection in self.connections:
            connection.close()
        self.server.shutdown()
        self.server.server_close()
        self.thread.join(timeout=10)


def _cache_off():
    return Session(), ServeConfig(log_enabled=False, cache_capacity=0)


def _cache_on():
    session = Session()
    session.engine.verdict_cache = VerdictCache()
    return session, ServeConfig(log_enabled=False)


def _miss_batches(rounds):
    """``rounds`` lists of per-client batches of distinct inline-test checks."""
    per_round = N_CLIENTS * MISSES_PER_CLIENT
    items = itertools.islice(
        enumeration.enumerate_canonical_naive_items(BOUNDS["small"]), rounds * per_round
    )
    lines = [
        json.dumps({
            "op": "check",
            "test": to_json(enumeration.test_from_items(test_items, name)),
            "model": MODELS[index % len(MODELS)],
        })
        for index, (_key, name, test_items) in enumerate(items)
    ]
    assert len(lines) == rounds * per_round, "the small bound ran out of distinct tests"
    return [
        [
            lines[start + client * MISSES_PER_CLIENT:start + (client + 1) * MISSES_PER_CLIENT]
            for client in range(N_CLIENTS)
        ]
        for start in range(0, len(lines), per_round)
    ]


def _record(benchmark, elapsed, requests):
    benchmark.extra_info["requests"] = requests
    benchmark.extra_info["req_per_s"] = round(requests / elapsed)


@pytest.mark.benchmark(group="serve-load")
def test_serve_repeat_cache_off(benchmark):
    """The repeat mix with the verdict cache off: every request runs the engine."""
    harness = _LoadHarness(*_cache_off())
    try:
        elapsed = benchmark.pedantic(
            lambda: harness.run()[0], rounds=ROUNDS, iterations=1
        )
    finally:
        harness.close()
    _record(benchmark, elapsed, N_CLIENTS * len(LINES) * REPEATS)


@pytest.mark.benchmark(group="serve-load")
def test_serve_repeat_cache_on(benchmark):
    """The repeat mix on a warm cache: repeats are answered by the memo."""
    session, config = _cache_on()
    harness = _LoadHarness(session, config)
    try:
        harness.run()  # warming pass
        elapsed = benchmark.pedantic(
            lambda: harness.run()[0], rounds=ROUNDS, iterations=1
        )
    finally:
        harness.close()
    _record(benchmark, elapsed, N_CLIENTS * len(LINES) * REPEATS)
    assert session.engine.stats.verdict_cache_hits > 0  # the cache answered


@pytest.mark.benchmark(group="serve-load")
def test_serve_miss_heavy(benchmark):
    """Distinct inline tests, cache on: every request misses and runs the engine."""
    warm, *rounds = _miss_batches(ROUNDS + 1)
    responses = []
    harness = _LoadHarness(*_cache_on())
    try:
        harness.run(warm)  # compiles the models; its tests are not reused

        def one_round():
            elapsed, results = harness.run(rounds.pop())
            responses.extend(itertools.chain.from_iterable(results))
            return elapsed

        elapsed = benchmark.pedantic(one_round, rounds=ROUNDS, iterations=1)
    finally:
        harness.close()
    _record(benchmark, elapsed, N_CLIENTS * MISSES_PER_CLIENT)
    assert len(responses) == ROUNDS * N_CLIENTS * MISSES_PER_CLIENT
    assert all(
        response["stats"]["verdict_cache_misses"] == 1
        and response["stats"]["verdict_cache_hits"] == 0
        for response in responses
    )


def test_cache_on_is_4x_cache_off():
    """The headline acceptance claim, asserted: on the repeat mix, warm
    cache-on throughput is at least 4x cache-off throughput, and both
    servers' verdicts are bit-identical to a cold single-threaded session."""
    harness = _LoadHarness(*_cache_off())
    try:
        off_elapsed, off = harness.run()
    finally:
        harness.close()

    harness = _LoadHarness(*_cache_on())
    try:
        harness.run()  # warming pass
        on_elapsed, on = harness.run()
    finally:
        harness.close()

    from repro.api.requests import CheckRequest

    cold = Session()
    expected = {
        (test, model): cold.run(CheckRequest(test=test, model=model)).allowed
        for test, model in PAIRS
    }
    plan = list(PAIRS) * REPEATS
    for leg in (off, on):
        for client_responses in leg:
            for (test, model), response in zip(plan, client_responses):
                result = response["result"]
                assert result["test_name"] == test
                assert result["model_name"] == model
                assert result["allowed"] == expected[(test, model)]
    for off_client, on_client in zip(off, on):
        for off_response, on_response in zip(off_client, on_client):
            assert off_response["result"] == on_response["result"]

    speedup = off_elapsed / on_elapsed
    assert speedup >= 4.0, (
        f"warm cache-on serve is only {speedup:.2f}x cache-off "
        f"({off_elapsed:.3f}s vs {on_elapsed:.3f}s)"
    )
