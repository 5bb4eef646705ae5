"""Experiment E7 (Section 4.1): SAT-based admissibility checking.

The paper's tool calls MiniSat per (test, model) query and completes a model
comparison "in a reasonable time (seconds)".  This benchmark compares our
SAT backend against the explicit enumeration backend on the nine
contrasting tests, and times a whole model-vs-model comparison through the
SAT backend.
"""

import pytest

from repro.checker.explicit import ExplicitChecker
from repro.checker.sat_checker import SatChecker
from repro.comparison.compare import ModelComparator
from repro.core.catalog import IBM370, SC, TSO
from repro.generation.named_tests import L_TESTS, TEST_A

ALL_TESTS = [TEST_A] + L_TESTS
MODELS = (SC, TSO, IBM370)


def _sweep(checker):
    return tuple(
        checker.check(test, model).allowed for test in ALL_TESTS for model in MODELS
    )


@pytest.fixture(scope="module")
def expected_verdicts():
    return _sweep(ExplicitChecker())


@pytest.mark.benchmark(group="sat-vs-explicit")
def test_backend_explicit_sweep(benchmark, expected_verdicts):
    verdicts = benchmark(lambda: _sweep(ExplicitChecker()))
    assert verdicts == expected_verdicts


@pytest.mark.benchmark(group="sat-vs-explicit")
def test_backend_sat_sweep(benchmark, expected_verdicts):
    verdicts = benchmark.pedantic(lambda: _sweep(SatChecker()), rounds=3, iterations=1)
    assert verdicts == expected_verdicts


@pytest.mark.benchmark(group="sat-vs-explicit")
def test_backend_sat_model_comparison_runs_in_seconds(benchmark, suite_without_dependencies):
    """One full TSO-vs-IBM370 comparison over the 88 feasible dependency-free tests."""
    tests = suite_without_dependencies.tests()

    def compare():
        comparator = ModelComparator(tests, "sat")
        return comparator.compare(TSO, IBM370)

    result = benchmark.pedantic(compare, rounds=1, iterations=1)
    assert not result.equivalent
