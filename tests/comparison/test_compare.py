"""Tests for pairwise model comparison."""

import pytest

from repro.comparison.compare import ModelComparator, Relation, compare_models, verdict_vector
from repro.core.catalog import ALPHA, IBM370, PSO, SC, TSO, X86
from repro.core.parametric import parametric_model
from repro.generation.named_tests import L_TESTS, TEST_A


@pytest.fixture(scope="module")
def comparator():
    return ModelComparator([TEST_A] + L_TESTS)


def test_verdict_vector_shape(comparator):
    vector = comparator.verdict_vector(TSO)
    assert len(vector) == 10
    assert isinstance(vector[0], bool)


def test_verdict_vector_is_cached(comparator):
    before = comparator.checks_performed
    comparator.verdict_vector(TSO)
    comparator.verdict_vector(TSO)
    after = comparator.checks_performed
    assert after == max(before, 10) if before == 0 else before


def test_sc_allows_nothing_in_the_contrast_suite(comparator):
    assert not any(comparator.verdict_vector(SC))


def test_allowed_tests_names(comparator):
    allowed = comparator.allowed_tests(TSO)
    assert set(allowed) == {"A", "L7", "L8"}


def test_sc_is_stronger_than_everything(comparator):
    for model in (TSO, IBM370, PSO, ALPHA):
        result = comparator.compare(SC, model)
        assert result.relation is Relation.STRONGER
        assert result.only_first == ()
        assert result.witnesses()


def test_tso_vs_x86_equivalent(comparator):
    result = comparator.compare(TSO, X86)
    assert result.equivalent
    assert result.describe().endswith("are equivalent")


def test_relation_inverse_and_symmetry(comparator):
    forward = comparator.compare(TSO, PSO)
    backward = comparator.compare(PSO, TSO)
    assert forward.relation is backward.relation.inverse()
    assert forward.only_first == backward.only_second


def test_tso_weaker_than_ibm370(comparator):
    """IBM370 forbids Test A and L8; TSO allows them, so TSO is weaker."""
    result = comparator.compare(TSO, IBM370)
    assert result.relation is Relation.WEAKER
    assert set(result.only_first) == {"A", "L8"}


def test_pso_is_weaker_than_ibm370(comparator):
    """PSO relaxes strictly more than IBM370 (write-write and same-address write-read)."""
    result = comparator.compare(PSO, IBM370)
    assert result.relation is Relation.WEAKER
    assert result.only_second == ()


def test_incomparable_models(comparator):
    """PSO (M1044) and a read-relaxing IBM370 variant (M4140) are incomparable:
    each allows a test the other forbids."""
    first = parametric_model("M1044")
    second = parametric_model("M4140")
    result = comparator.compare(first, second)
    assert result.relation is Relation.INCOMPARABLE
    assert result.only_first and result.only_second
    assert "incomparable" in result.describe()


def test_distinguishing_tests(comparator):
    names = comparator.distinguishing_tests(TSO, SC)
    assert names == ["A", "L7", "L8"]


def test_module_level_helpers():
    tests = [TEST_A] + L_TESTS
    assert verdict_vector(SC, tests) == tuple([False] * 10)
    result = compare_models(parametric_model("M4044"), TSO, tests)
    assert result.equivalent


def test_comparator_with_sat_backend():
    comparator = ModelComparator([TEST_A, L_TESTS[6]], engine="sat")
    result = comparator.compare(TSO, SC)
    assert result.relation is Relation.WEAKER


def test_comparator_accepts_engine_instances_and_backend_names():
    from repro.engine.engine import CheckEngine

    engine = CheckEngine(backend="explicit")
    shared = ModelComparator([TEST_A], engine)
    assert shared.engine is engine
    named = ModelComparator([TEST_A], "sat")
    assert named.engine.strategy.name == "sat"


def test_comparator_rejects_raw_checker_objects():
    from repro.checker.explicit import ExplicitChecker

    with pytest.raises(TypeError, match="backend name"):
        ModelComparator([TEST_A], ExplicitChecker())


def test_comparator_rejects_engine_and_checker_together():
    # engine= is the only backend keyword; the old checker= spelling is gone.
    with pytest.raises(TypeError):
        ModelComparator([TEST_A], "explicit", checker="sat")

