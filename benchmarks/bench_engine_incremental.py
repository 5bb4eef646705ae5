"""Engine modes on the 36-model exploration workload.

The seed dispatched one independent admissibility check per (model, test)
pair — on the SAT backend that meant building and solving a fresh CNF with a
fresh solver for every one of the ~3,500 checks.  The engine evaluates each
test's execution once, shares the candidate spaces across all models and, on
the SAT backend, answers each distinct po-mask of a test with one
assumption solve of a persistent incremental solver.  This benchmark
compares the per-check legacy SAT
pipeline against both engine modes on the same workload and checks they all
produce the same verdict matrix.
"""

import pytest

from repro.checker.sat_checker import SatChecker
from repro.engine import CheckEngine
from repro.generation.named_tests import L_TESTS, TEST_A

ALL_TESTS = [TEST_A] + list(L_TESTS)


@pytest.fixture(scope="module")
def expected_matrix(models_36):
    return CheckEngine("explicit").verdict_matrix(models_36, ALL_TESTS)


@pytest.mark.benchmark(group="engine-modes")
def test_engine_explicit_matrix(benchmark, models_36, expected_matrix):
    matrix = benchmark.pedantic(
        lambda: CheckEngine("explicit").verdict_matrix(models_36, ALL_TESTS),
        rounds=3,
        iterations=1,
    )
    assert matrix == expected_matrix


@pytest.mark.benchmark(group="engine-modes")
def test_engine_incremental_sat_matrix(benchmark, models_36, expected_matrix):
    matrix = benchmark.pedantic(
        lambda: CheckEngine("sat").verdict_matrix(models_36, ALL_TESTS),
        rounds=3,
        iterations=1,
    )
    assert matrix == expected_matrix


@pytest.mark.benchmark(group="engine-modes")
def test_legacy_per_check_sat_matrix(benchmark, models_36, expected_matrix):
    """The seed's behaviour: fresh CNF + fresh solver per (model, test)."""
    executions = [test.execution() for test in ALL_TESTS]

    def run():
        checker = SatChecker()
        return {
            model.name: tuple(
                checker.check_execution(execution, model).allowed
                for execution in executions
            )
            for model in models_36
        }

    matrix = benchmark.pedantic(run, rounds=3, iterations=1)
    assert matrix == expected_matrix


def test_incremental_sat_reuses_contexts(models_36):
    engine = CheckEngine("sat")
    engine.verdict_matrix(models_36, ALL_TESTS)
    assert engine.stats.executions_evaluated == len(ALL_TESTS)
    # One solve per distinct po-mask of a test: what the kernel searches.
    explicit = CheckEngine("explicit")
    explicit.verdict_matrix(models_36, ALL_TESTS)
    searches = explicit.stats.native_searches + explicit.stats.fallback_searches
    assert engine.stats.solver_calls == searches < len(models_36) * len(ALL_TESTS)
