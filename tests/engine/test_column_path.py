"""The engine's one verdict path: every check is a ``check_column``.

``verdict_matrix`` (test-major columns), model-major ``verdict_vector``
(one-model columns) and single ``check`` calls all reach the strategy
through the same per-context mask -> verdict memo, so they perform the
same searches and give the same verdicts.
"""

import pytest

from repro.api.registry import ModelRegistry, TestRegistry
from repro.cache import VerdictCache
from repro.checker.reference import EnumerationChecker
from repro.core.catalog import named_models
from repro.engine import CheckEngine
from repro.generation.named_tests import L_TESTS

from tests.conftest import KERNEL_LEGS

#: Distinct po-masks the 36 no-deps models force over the 88-test
#: no-deps template suite: one kernel search each.
NO_DEPS_SEARCHES = 718


@pytest.fixture(scope="module")
def no_deps():
    return ModelRegistry().space("no_deps"), TestRegistry().suite("no_deps")


@pytest.fixture(scope="module")
def oracle_matrix(no_deps):
    models, suite = no_deps
    checker = EnumerationChecker()
    return {
        model.name: tuple(checker.check(test, model).allowed for test in suite)
        for model in models
    }


def _searches(engine):
    return engine.stats.native_searches + engine.stats.fallback_searches


@pytest.mark.parametrize("kernel", KERNEL_LEGS)
def test_verdict_matrix_searches_each_distinct_mask_once(kernel, no_deps, oracle_matrix):
    models, suite = no_deps
    engine = CheckEngine(kernel=kernel)
    assert engine.verdict_matrix(models, suite) == oracle_matrix
    assert _searches(engine) == NO_DEPS_SEARCHES


@pytest.mark.parametrize("kernel", KERNEL_LEGS)
def test_model_major_vectors_share_searches_across_models(kernel, no_deps, oracle_matrix):
    """One model at a time, yet each distinct mask is still searched once:
    the memo lives on the retained test context, not in one call."""
    models, suite = no_deps
    engine = CheckEngine(kernel=kernel)
    vectors = {model.name: engine.verdict_vector(model, suite) for model in models}
    assert vectors == oracle_matrix
    assert _searches(engine) == NO_DEPS_SEARCHES
    assert engine.stats.checks_performed == len(models) * len(suite)


def test_cold_and_warm_checks_book_one_miss_then_one_hit():
    engine = CheckEngine(verdict_cache=VerdictCache())
    test, model = L_TESTS[0], named_models()["TSO"]

    before = engine.stats.snapshot()
    engine.check(test, model)
    cold = engine.stats.since(before)
    assert (cold.verdict_cache_hits, cold.verdict_cache_misses) == (0, 1)
    assert cold.executions_evaluated == 1

    before = engine.stats.snapshot()
    engine.check(test, model)
    warm = engine.stats.since(before)
    assert (warm.verdict_cache_hits, warm.verdict_cache_misses) == (1, 0)
    assert warm.executions_evaluated == 0
    assert warm.checks_performed == 1


def test_single_checks_do_not_grow_the_space_memo():
    """A check is a one-model column; memoizing its throwaway sequence by
    identity would pin one entry per call in a long-lived serve session."""
    engine = CheckEngine()
    model = named_models()["TSO"]
    for test in L_TESTS:
        engine.check(test, model)
    assert not engine._compiled_spaces


def test_sat_derived_column_matches_the_searched_one(no_deps):
    models, suite = no_deps
    plain = CheckEngine("sat")
    derived = CheckEngine("sat")
    for test in suite[:30]:
        assert derived.check_column(test, models, derive=True) == plain.check_column(
            test, models
        )
    assert derived.stats.derived_verdicts > 0
    assert derived.stats.solver_calls < plain.stats.solver_calls
