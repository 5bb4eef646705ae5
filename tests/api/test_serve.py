"""Tests for the JSON-lines serve loop (stream and socket transports)."""

import importlib
import io
import json
import socket
import threading

import pytest

from repro.api.requests import (
    CheckRequest,
    CompareRequest,
    ExploreRequest,
    OutcomesRequest,
    request_from_json,
    request_to_json,
)
from repro.api.serialize import SCHEMA_VERSION, from_json
from repro.api.serve import handle_request_line, serve_socket, serve_stream
from repro.api.session import Session
from repro.cache import VerdictCache
from repro.native.backend import native_available

#: The module itself: ``repro.api.serve`` as an attribute is the function.
serve_module = importlib.import_module("repro.api.serve")


def _serve_lines(lines, session=None):
    output = io.StringIO()
    count = serve_stream(
        session if session is not None else Session(),
        io.StringIO("\n".join(lines) + "\n"),
        output,
    )
    return count, [json.loads(line) for line in output.getvalue().splitlines()]


def test_request_dataclasses_roundtrip_through_json():
    requests = [
        CheckRequest(test="A", model="TSO", witness=True),
        CompareRequest(first="SC", second="TSO", suite="no_deps"),
        ExploreRequest(space="deps"),
        ExploreRequest(models=("M4444", "M4044"), suite="no_deps", preferred=False),
        OutcomesRequest(test="L7", model="SC"),
    ]
    for request in requests:
        document = request_to_json(request)
        assert document["schema"] == "repro/request"
        assert document["schema_version"] == SCHEMA_VERSION
        assert request_from_json(document) == request
        # one line of JSON, as the serve loop transports it
        assert request_from_json(json.loads(json.dumps(document))) == request


def test_serve_answers_three_requests_with_valid_documents():
    count, responses = _serve_lines(
        [
            json.dumps({"op": "check", "test": "A", "model": "TSO"}),
            json.dumps({"op": "compare", "first": "TSO", "second": "x86", "suite": "no_deps"}),
            json.dumps({"op": "outcomes", "test": "L7", "model": "SC"}),
        ]
    )
    assert count == 3
    assert [response["ok"] for response in responses] == [True, True, True]
    assert [response["op"] for response in responses] == ["check", "compare", "outcomes"]
    check = from_json(responses[0]["result"])
    assert check.allowed and check.model_name == "TSO"
    compare = from_json(responses[1]["result"])
    assert compare.equivalent
    outcomes = from_json(responses[2]["result"])
    assert len(outcomes) == 3
    for response in responses:
        assert response["schema"] == "repro/response"
        assert response["schema_version"] == SCHEMA_VERSION
        assert "checks_performed" in response["stats"]


def test_serve_demonstrates_cross_request_cache_reuse():
    _, responses = _serve_lines(
        [
            json.dumps({"op": "compare", "first": "SC", "second": "TSO", "suite": "no_deps"}),
            json.dumps({"op": "explore", "space": "no_deps"}),
        ]
    )
    warmup, explore = responses
    assert warmup["stats"]["executions_evaluated"] > 0
    # The warm session answers the exploration without evaluating a single
    # new execution: every test context comes from the compare's cache.
    assert explore["stats"]["executions_evaluated"] == 0
    assert explore["stats"]["context_cache_hits"] > 0


def test_serve_stats_report_the_active_kernel_backend():
    """Every response's stats delta names the kernel and its search counters."""
    kernels = ("bigint", "native") if native_available() else ("bigint",)
    for kernel in kernels:
        _, responses = _serve_lines(
            [json.dumps({"op": "explore", "space": "no_deps"})],
            session=Session(kernel=kernel),
        )
        stats = responses[0]["stats"]
        assert stats["kernel_backend"] == kernel
        if kernel == "native":
            assert stats["native_searches"] > 0
            assert stats["fallback_searches"] == 0
        else:
            assert stats["native_searches"] == 0
            assert stats["fallback_searches"] > 0


def test_serve_reports_errors_and_keeps_going():
    count, responses = _serve_lines(
        [
            "this is not json",
            json.dumps({"op": "levitate"}),
            json.dumps({"op": "check", "test": "A", "model": "NoSuchModel"}),
            json.dumps({"op": "check", "test": "A"}),  # missing required field
            json.dumps({"op": "check", "test": "A", "model": "TSO"}),
        ]
    )
    assert count == 5
    assert [response["ok"] for response in responses] == [False, False, False, False, True]
    # Errors are machine-readable {code, message} objects.
    assert all(response["error"]["code"] == "invalid_request"
               for response in responses if not response["ok"])
    assert "NoSuchModel" in responses[2]["error"]["message"]


def test_serve_survives_malformed_embedded_documents():
    # A litmus_test document missing required fields raises KeyError deep in
    # deserialization; the loop must answer ok:false and keep going.
    bad_test = {"schema": "repro/litmus_test", "schema_version": SCHEMA_VERSION, "name": "x"}
    count, responses = _serve_lines(
        [
            json.dumps({"op": "check", "test": bad_test, "model": "TSO"}),
            json.dumps({"op": "check", "test": "A", "model": "TSO"}),
        ]
    )
    assert count == 2
    assert responses[0]["ok"] is False
    assert responses[1]["ok"] is True


def test_socket_serving_disables_path_test_specs(tmp_path):
    from repro.io.writer import write_litmus_file

    import repro

    path = tmp_path / "a.litmus"
    write_litmus_file(repro.TEST_A, path)
    session = Session()
    assert session.tests.allow_paths is True

    # serve(port=...) flips the flag before binding; simulate the effect.
    session.tests.allow_paths = False
    output = io.StringIO()
    serve_stream(
        session,
        io.StringIO(json.dumps({"op": "check", "test": str(path), "model": "TSO"}) + "\n"),
        output,
    )
    response = json.loads(output.getvalue())
    assert response["ok"] is False
    assert "unknown test" in response["error"]["message"]
    # registered names still work with paths disabled
    session.tests.allow_paths = False
    assert handle_request_line(session, json.dumps({"op": "check", "test": "A", "model": "TSO"}))["ok"]
    # observation test specs go through the same registry, so synthesize
    # requests honor the restriction too
    synthesize = {
        "op": "synthesize",
        "observations": [{"test": str(path), "allowed": True}],
        "space": "paper36",
    }
    response = handle_request_line(session, json.dumps(synthesize))
    assert response["ok"] is False
    assert "unknown test" in response["error"]["message"]


def test_serve_rejects_wrong_schema_version_per_line():
    document = request_to_json(CheckRequest(test="A", model="TSO"))
    document["schema_version"] = SCHEMA_VERSION + 1
    _, responses = _serve_lines([json.dumps(document)])
    assert responses[0]["ok"] is False
    assert "schema_version" in responses[0]["error"]["message"]


def test_serve_skips_blank_lines():
    count, responses = _serve_lines(["", json.dumps({"op": "check", "test": "A", "model": "TSO"}), "   "])
    assert count == 1 and len(responses) == 1


def test_handle_request_line_accepts_enveloped_requests():
    session = Session()
    line = json.dumps(request_to_json(CheckRequest(test="A", model="TSO")))
    response = handle_request_line(session, line)
    assert response["ok"] and from_json(response["result"]).allowed


def test_serve_socket_roundtrip():
    session = Session()
    server = serve_socket(session, "127.0.0.1", 0)
    port = server.server_address[1]
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        with socket.create_connection(("127.0.0.1", port), timeout=10) as connection:
            handle = connection.makefile("rw", encoding="utf-8")
            for op, expectation in [
                ({"op": "check", "test": "A", "model": "TSO"}, True),
                ({"op": "check", "test": "A", "model": "SC"}, False),
            ]:
                handle.write(json.dumps(op) + "\n")
                handle.flush()
                response = json.loads(handle.readline())
                assert response["ok"] is True
                assert from_json(response["result"]).allowed is expectation
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)


# ----------------------------------------------------------------------
# inline model definitions (models the server has never seen)
# ----------------------------------------------------------------------
def test_serve_checks_inline_model_definitions():
    from repro.api.serialize import to_json
    from repro.core.model import MemoryModel

    weird = MemoryModel(
        "ClientOnly",
        "(Write(x) & Write(y) & SameAddr(x, y)) | Fence(x) | Fence(y)",
        description="defined client-side only",
    )
    session = Session()
    session.models.allow_paths = False  # the network-facing restriction
    assert "ClientOnly" not in session.models
    count, responses = _serve_lines(
        [
            json.dumps({"op": "check", "test": "A", "model": to_json(weird)}),
            json.dumps(
                {
                    "op": "compare",
                    "first": to_json(weird),
                    "second": "PSO",
                    "suite": "no_deps",
                }
            ),
        ],
        session=session,
    )
    assert count == 2
    assert all(response["ok"] for response in responses)
    assert responses[0]["result"]["model_name"] == "ClientOnly"
    assert responses[1]["result"]["first"] == "ClientOnly"


def test_serve_inline_model_explore_roundtrips_end_to_end():
    """The acceptance scenario: an ExploreRequest over inline model
    documents answered by a server that has never seen them, with the
    resulting document round-tripping exactly."""
    from repro.api.serialize import to_json
    from repro.core.model import MemoryModel

    inline = [
        to_json(MemoryModel("CustomA", "(Write(x) & Write(y)) | Read(x)")),
        to_json(MemoryModel("CustomB", "Fence(x) | Fence(y)")),
        "SC",
    ]
    request = ExploreRequest(models=tuple(inline), suite="no_deps", preferred=False)
    count, responses = _serve_lines([json.dumps(request_to_json(request))])
    assert count == 1 and responses[0]["ok"]
    result_document = responses[0]["result"]
    result = from_json(result_document)
    assert [model.name for model in result.models] == ["CustomA", "CustomB", "SC"]
    assert result.to_json() == result_document
    # Resending the same definitions hits the digest-keyed caches: no new
    # compilations, po edges answered from cache.
    session = Session()
    _serve_lines([json.dumps(request_to_json(request))], session=session)
    compiled_before = session.stats.models_compiled
    _, second = _serve_lines([json.dumps(request_to_json(request))], session=session)
    assert second[0]["ok"]
    assert session.stats.models_compiled == compiled_before
    assert second[0]["stats"]["models_compiled"] == 0
    assert second[0]["stats"]["po_edge_cache_hits"] > 0


def test_socket_serving_disables_model_paths(tmp_path):
    from repro.io import write_model_file
    from repro.core.catalog import TSO

    path = tmp_path / "secret.model"
    write_model_file(TSO.renamed("Secret"), path)
    session = Session()
    session.models.allow_paths = False  # what serve --port applies
    count, responses = _serve_lines(
        [json.dumps({"op": "check", "test": "A", "model": str(path)})],
        session=session,
    )
    assert count == 1 and not responses[0]["ok"]
    assert "unknown model" in responses[0]["error"]["message"]


# ----------------------------------------------------------------------
# the per-connection response memo
# ----------------------------------------------------------------------
def _check_line(test, model="TSO"):
    return json.dumps({"op": "check", "test": test, "model": model})


def _cached_session():
    session = Session()
    session.engine.verdict_cache = VerdictCache()
    return session


def _converse(session, lines):
    """One stream conversation; returns the raw response lines."""
    output = io.StringIO()
    serve_stream(session, io.StringIO("\n".join(lines) + "\n"), output)
    return output.getvalue().splitlines()


@pytest.fixture
def memo_hits(monkeypatch):
    """The sessions of every memo hit served while the test runs."""
    hits = []
    count = serve_module._count_memo_hit

    def counting(session):
        hits.append(session)
        count(session)

    monkeypatch.setattr(serve_module, "_count_memo_hit", counting)
    return hits


def test_memo_survives_a_miss_in_between(memo_hits):
    session = _cached_session()
    _converse(session, [_check_line("A")])  # warm the verdict cache
    warm, miss, again = _converse(
        session, [_check_line("A"), _check_line("L2", "PSO"), _check_line("A")]
    )
    assert json.loads(miss)["stats"]["verdict_cache_misses"] == 1
    assert len(memo_hits) == 1
    assert again == warm


def test_first_seen_warm_check_is_memoized(memo_hits):
    session = _cached_session()
    _converse(session, [_check_line("A")])
    assert memo_hits == []
    first, second = _converse(session, [_check_line("A"), _check_line("A")])
    assert json.loads(first)["stats"]["verdict_cache_hits"] == 1
    assert len(memo_hits) == 1
    assert second == first


def test_repeated_miss_is_memoized_from_its_all_hit_answer(memo_hits):
    session = _cached_session()
    line = _check_line("L3", "RMO")
    miss, hit, memo = _converse(session, [line, line, line])
    assert json.loads(miss)["stats"]["verdict_cache_misses"] == 1
    assert json.loads(hit)["stats"]["verdict_cache_hits"] == 1
    assert len(memo_hits) == 1  # only the third line
    assert memo == hit
    # Without a verdict cache no answer is all-hit, so nothing is memoized.
    _converse(Session(), [line, line, line])
    assert len(memo_hits) == 1


def test_memo_response_is_byte_identical_to_a_fresh_rendering(memo_hits):
    session = _cached_session()
    line = _check_line("L5", "PSO")
    _converse(session, [line])
    _, memoized = _converse(session, [line, line])
    assert len(memo_hits) == 1
    (fresh,) = _converse(session, [line])
    assert memoized == fresh


def test_full_memo_is_cleared_and_keeps_memoizing(memo_hits, monkeypatch):
    monkeypatch.setattr(serve_module, "_MEMO_LIMIT", 2)
    session = _cached_session()
    lines = [_check_line(test) for test in ("A", "L1", "L2")]
    _converse(session, lines)
    responses = _converse(session, lines + [lines[2]])
    # A and L1 fill the memo; L2 clears it and is memoized on its own.
    assert len(memo_hits) == 1
    assert responses[3] == responses[2]
