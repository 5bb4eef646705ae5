"""Bitset kernel vs product enumeration on the explicit backend.

PR 2 replaced the explicit checker's brute-force read-from × coherence
product (one fresh digraph acyclicity check per complete combination) with
the pruned backtracking search of :mod:`repro.checker.kernel`.  The old
semantics survives as the :class:`~repro.checker.reference.EnumerationChecker`
oracle; this benchmark runs both over the same verdict-matrix workload and
checks they agree bit-for-bit, so the speedup and the cross-validation are
measured together.
"""

import pytest

from repro.checker.reference import EnumerationChecker
from repro.engine import CheckEngine
from repro.generation.named_tests import L_TESTS, TEST_A

ALL_TESTS = [TEST_A] + list(L_TESTS)


def enumeration_matrix(models):
    checker = EnumerationChecker()
    return {
        model.name: tuple(checker.check(test, model).allowed for test in ALL_TESTS)
        for model in models
    }


@pytest.fixture(scope="module")
def expected_matrix(models_36):
    return enumeration_matrix(models_36)


@pytest.mark.benchmark(group="kernel-vs-enumeration")
def test_kernel_backtracking_matrix(benchmark, models_36, expected_matrix):
    matrix = benchmark.pedantic(
        lambda: CheckEngine("explicit").verdict_matrix(models_36, ALL_TESTS),
        rounds=3,
        iterations=1,
    )
    assert matrix == expected_matrix


@pytest.mark.benchmark(group="kernel-vs-enumeration")
def test_enumeration_oracle_matrix(benchmark, models_36, expected_matrix):
    matrix = benchmark.pedantic(
        lambda: enumeration_matrix(models_36),
        rounds=3,
        iterations=1,
    )
    assert matrix == expected_matrix


def test_kernel_prunes_reuse_contexts(models_36):
    engine = CheckEngine("explicit")
    engine.verdict_matrix(models_36, ALL_TESTS)
    assert engine.stats.executions_evaluated == len(ALL_TESTS)
    assert engine.stats.candidate_spaces_built == len(ALL_TESTS)
