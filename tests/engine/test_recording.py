"""Request-scoped engine stats: :meth:`CheckEngine.recording`.

Every counter goes into the calling thread's innermost recording, so
callers sharing one engine across threads each see exactly their own
work; a closed recording adds its counts to the enclosing one, or to the
engine's cumulative stats, exactly once — whether it ends normally or by
an exception.
"""

import threading

import pytest

from repro.api.registry import ModelRegistry, TestRegistry
from repro.api.requests import ExploreRequest
from repro.api.session import Session
from repro.comparison.exploration import explore_models
from repro.core.parametric import parametric_model
from repro.engine import CheckEngine
from repro.generation.named_tests import L_TESTS, TEST_A
from repro.synth import SynthesisEngine
from repro.util import faults

TESTS = [TEST_A] + list(L_TESTS)
MODELS = [parametric_model(name) for name in ("M4444", "M4144", "M4044", "M1044", "M1010")]


def _in_threads(count, work):
    """Run ``work`` on ``count`` threads released together; their results."""
    barrier = threading.Barrier(count)
    results = [None] * count
    errors = []

    def run(index):
        barrier.wait()
        try:
            results[index] = work()
        except BaseException as error:  # noqa: BLE001 - re-raised below
            errors.append(error)

    threads = [threading.Thread(target=run, args=(index,)) for index in range(count)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(300)
    assert not errors, errors
    return results


def test_concurrent_explorations_on_one_engine_each_report_their_own_work():
    models = ModelRegistry().space("deps")
    suite = TestRegistry().suite("standard")
    solo = explore_models(models, suite, checker=CheckEngine())
    assert (solo.stats.checks_performed, solo.stats.executions_evaluated) == (14_220, 158)

    engine = CheckEngine()
    results = _in_threads(2, lambda: explore_models(models, suite, checker=engine))
    for result in results:
        assert result.checks_performed == result.stats.checks_performed == 14_220
        assert result.vectors == solo.vectors
    # The threads share the engine's contexts: each execution is evaluated
    # once, by whichever thread got there first.
    assert sum(result.stats.executions_evaluated for result in results) == 158
    assert engine.stats.checks_performed == 2 * 14_220
    assert engine.stats.executions_evaluated == 158


def test_concurrent_batches_on_session_views_each_report_their_own_work():
    session = Session()
    solo = Session().run_batch([ExploreRequest(space="deps")])
    assert solo.stats.checks_performed == 15_030

    batches = _in_threads(
        2, lambda: session.view().run_batch([ExploreRequest(space="deps")])
    )
    for batch in batches:
        assert batch.stats.checks_performed == 15_030
        assert batch[0].vectors == solo[0].vectors
    assert session.engine.stats.checks_performed == 2 * 15_030


def test_a_recording_closed_by_an_exception_still_reaches_the_totals():
    engine = CheckEngine()
    with pytest.raises(RuntimeError):
        with engine.recording() as outer:
            with engine.recording() as inner:
                engine.check(TEST_A, MODELS[0])
                raise RuntimeError("boom")
    assert inner.checks_performed == outer.checks_performed == 1
    assert engine.stats.checks_performed == 1
    assert engine.stats.executions_evaluated == 1


def test_an_exploration_cut_by_a_fault_books_the_columns_it_checked():
    engine = CheckEngine()
    saved = faults.snapshot()
    faults.install(f"engine.check_column[test={TESTS[2].name}]=raise")
    try:
        with pytest.raises(faults.InjectedFault):
            explore_models(MODELS, TESTS, checker=engine)
    finally:
        faults.restore(saved)
    # Two whole columns; the fault fires before the third one counts.
    assert engine.stats.checks_performed == 2 * len(MODELS)
    assert engine.stats.executions_evaluated == 2


def test_nested_recordings_reach_the_outer_sink_exactly_once():
    engine = CheckEngine()
    with engine.recording() as outer:
        engine.check(TEST_A, MODELS[0])
        with engine.recording() as inner:
            exploration = explore_models(MODELS, TESTS, checker=engine)
        engine.check(TEST_A, MODELS[1])
        engine.count({"verdict_cache_hits": 1})  # counts outside any engine call
    assert inner.as_dict() == exploration.stats.as_dict()
    assert inner.checks_performed == len(MODELS) * len(TESTS)
    assert outer.checks_performed == 2 + inner.checks_performed
    assert outer.executions_evaluated == len(TESTS)
    assert outer.verdict_cache_hits == 1
    assert engine.stats.as_dict() == outer.as_dict()


def test_synthesis_books_its_inner_exploration_exactly_once():
    """An ambiguous synthesis explores its survivors in a nested recording;
    the synthesis stats carry those checks once, as do the engine totals."""
    session = Session()
    surface = session.synthesis_engine("paper90")
    target = session.models.resolve("M4044")
    observations = [
        (test, session.engine.check(test, target)) for test in surface.comparison_tests[:3]
    ]
    engine = CheckEngine()
    synth = SynthesisEngine(
        surface.models,
        surface.comparison_tests,
        engine=engine,
        preferred_tests=surface.preferred_tests,
        space=surface.space,
    )
    with engine.recording() as outer:
        result = synth.synthesize(observations)
    survivors = [model for model in synth.models if model.name in result.consistent_models]
    assert len(survivors) > 1  # ambiguous: the survivors get explored
    explored = explore_models(
        survivors,
        surface.comparison_tests,
        checker=CheckEngine(),
        preferred_tests=surface.preferred_tests,
    ).checks_performed
    assert result.stats.synth_runs == 1
    assert result.stats.checks_performed == len(observations) * len(synth.models) + explored
    assert outer.as_dict() == result.stats.as_dict()
    assert engine.stats.as_dict() == outer.as_dict()
