"""Self-tests for the benchmark harness: arithmetic, tracing and the plan rules.

    python -m pytest -q perfbench/tests
"""

from __future__ import annotations

import itertools
import json
import os
import sys
import types

import pytest

PERFBENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if PERFBENCH not in sys.path:
    sys.path.insert(0, PERFBENCH)

import harness  # noqa: E402
import tracer as tracing  # noqa: E402


# ----------------------------------------------------------------------
# percentiles and sample counts
# ----------------------------------------------------------------------
def test_nearest_rank_percentiles():
    values = list(range(100, 0, -1))  # 1..100, unsorted
    assert harness.percentile(values, 0.50) == 50
    assert harness.percentile(values, 0.99) == 99
    assert harness.percentile(values, 1.0) == 100
    assert harness.percentile([7.5], 0.99) == 7.5
    with pytest.raises(ValueError):
        harness.percentile([], 0.5)
    with pytest.raises(ValueError):
        harness.percentile([1.0], 0.0)


def test_tail_counts_decide_whether_p99_is_supported():
    assert harness.rank(100, 0.99) == 99
    assert harness.tail_count(100, 0.99) == 1
    assert harness.tail_count(1000, 0.99) == 10
    assert harness.supported(1000, 0.99)
    assert not harness.supported(999, 0.99)  # rank 990: only 9 beyond
    assert harness.tail_count(0, 0.99) == 0
    summary = harness.latency_summary("hit", [float(v) for v in range(1, 1001)])
    assert summary["count"] == 1000
    assert summary["p50_ms"] == 500.0 and summary["p99_ms"] == 990.0
    assert summary["p99_tail"] == 10 and summary["p99_supported"]


def test_ratio_with_empty_base():
    assert harness.ratio(3, 4) == 0.75
    assert harness.ratio(5, 0) == 0.0


# ----------------------------------------------------------------------
# tracing: self time = duration - children
# ----------------------------------------------------------------------
def _ticking_clock(step: int = 10):
    counter = itertools.count(0, step)
    return lambda: next(counter)


def test_self_time_is_duration_minus_children():
    tracer = tracing.Tracer(clock=_ticking_clock())
    inner = tracer.wrap("inner", lambda: None)

    def outer_body():
        inner()
        inner()

    outer = tracer.wrap("outer", outer_body)
    outer()
    spans, dropped = tracer.spans()
    assert dropped == 0
    by_layer = {layer: (start, end, parent) for _, layer, start, end, parent, _ in spans}
    # Clock ticks: outer opens 0, inner 10-20, inner 30-40, outer closes 50.
    inner_spans = [s for s in spans if s[1] == "inner"]
    assert [(s[2], s[3]) for s in inner_spans] == [(10, 20), (30, 40)]
    assert by_layer["outer"][:2] == (0, 50)
    outer_id = next(s[0] for s in spans if s[1] == "outer")
    assert all(s[4] == outer_id for s in inner_spans)
    totals = tracer.totals()
    assert totals["outer"] == {"calls": 1, "self_s": 30e-9}
    assert totals["inner"] == {"calls": 2, "self_s": 20e-9}


def test_opaque_spans_absorb_nested_calls():
    tracer = tracing.Tracer(clock=_ticking_clock())
    inner = tracer.wrap("inner", lambda: None)
    log = tracer.wrap("log", inner, opaque=True)
    log()
    totals = tracer.totals()
    assert "inner" not in totals
    assert totals["log"]["calls"] == 1


def test_stream_wrapper_times_each_next_and_exhausts():
    tracer = tracing.Tracer(clock=_ticking_clock())
    stream = tracer.wrap_stream("enumerate", lambda n: iter(range(n)))
    assert list(stream(3)) == [0, 1, 2]
    # three items plus the final StopIteration
    assert tracer.totals()["enumerate"]["calls"] == 4


def test_phase_books_only_its_traced_calls_after_the_last_restart():
    tracer = tracing.Tracer(clock=_ticking_clock())
    work = tracer.wrap("work", lambda: None)
    tracer.phase_restart("phase")  # opens at 0
    work()  # 10-20
    tracer.phase_restart("phase")  # closes 30 unbooked, reopens at 40
    work()  # 50-60
    tracer._clock()  # untraced work inside the phase: 70
    work()  # 80-90
    tracer.phase_commit()  # closes at 100
    totals = tracer.totals()
    # Only the last phase's traced children count: 10 + 10 ns, not the
    # untraced gap or the phase's own bookkeeping.
    assert totals["phase"] == {"calls": 0, "self_s": 0.0, "inclusive_s": 20e-9}
    assert totals["work"]["calls"] == 3


def test_queue_wrapper_records_wait_and_carries_context():
    tracer = tracing.Tracer(clock=_ticking_clock())
    jobs = []

    def submit(dispatcher, fn):
        jobs.append(fn)
        return "queued"

    wrapped = tracer.wrap_queue("queue", submit)
    tracer._state().context = 42
    seen = []
    assert wrapped(object(), lambda: seen.append(tracer._state().context)) == "queued"
    tracer._state().context = None
    jobs[0]()
    assert seen == [42]
    totals = tracer.totals()
    assert totals["queue"]["calls"] == 1 and totals["queue"]["wait_s"] > 0


# ----------------------------------------------------------------------
# missing wrap targets
# ----------------------------------------------------------------------
def test_missing_targets_are_absent_not_fatal(monkeypatch):
    module = types.ModuleType("perfbench_fake_target")
    module.present = lambda: "ok"
    monkeypatch.setitem(sys.modules, module.__name__, module)
    tracer = tracing.install(
        tracing.Tracer(),
        [
            ("gone", "perfbench_no_such_module:anything", "call"),
            ("gone", f"{module.__name__}:Deleted.method", "call"),
            ("half", f"{module.__name__}:present", "call"),
            ("half", f"{module.__name__}:removed", "call"),
        ],
    )
    assert tracer.absent_layers() == {
        "gone": ["perfbench_no_such_module:anything", f"{module.__name__}:Deleted.method"]
    }
    assert tracer.absent["half"] == [f"{module.__name__}:removed"]
    assert module.present() == "ok"
    assert tracer.totals()["half"]["calls"] == 1


def test_imported_module_is_patched_privately(monkeypatch):
    user = types.ModuleType("perfbench_fake_user")
    user.json = json
    monkeypatch.setitem(sys.modules, user.__name__, user)
    tracer = tracing.install(tracing.Tracer(), [("parse", f"{user.__name__}:json.loads", "call")])
    assert user.json.loads("[1]") == [1]
    assert json.loads is not user.json.loads  # the real module is untouched
    assert tracer.totals()["parse"]["calls"] == 1


# ----------------------------------------------------------------------
# hit/miss classification
# ----------------------------------------------------------------------
def test_classify_by_stats_delta():
    hit = {"checks_performed": 1, "verdict_cache_hits": 1, "verdict_cache_misses": 0,
           "executions_evaluated": 0}
    miss = {"checks_performed": 1, "verdict_cache_hits": 0, "verdict_cache_misses": 1,
            "executions_evaluated": 1}
    # Answered from the engine's context cache without the verdict cache:
    # neither a planned hit nor a planned miss.
    other = {"checks_performed": 1, "verdict_cache_hits": 0, "verdict_cache_misses": 0,
             "context_cache_hits": 1}
    assert harness.classify(hit) == "hit"
    assert harness.classify(miss) == "miss"
    assert harness.classify(other) == "other"
    assert harness.classify({**hit, "executions_evaluated": 1}) == "other"


# ----------------------------------------------------------------------
# BENCHMARK.json agrees with what run.py prints
# ----------------------------------------------------------------------
def test_benchmark_file_matches_run_py():
    import run

    with open(os.path.join(os.path.dirname(PERFBENCH), "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.per_layer_metrics()
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(run.WORKLOADS)
    assert {layer for layer, _, _ in tracing.LAYERS if layer} == set(tracing.LAYER_NAMES)
