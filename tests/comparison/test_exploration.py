"""Tests for model-space exploration (the Figure 4 machinery).

The full 36-model dependency-free exploration runs in a couple of seconds
with the explicit checker, so it is exercised directly here; the 90-model
space is covered by the benchmark suite.
"""

import pytest

from repro.comparison.compare import Relation
from repro.comparison.exploration import explore_models
from repro.core.parametric import model_space, parametric_model
from repro.generation.named_tests import L_TESTS
from repro.generation.suite import no_dependency_suite


@pytest.fixture(scope="module")
def exploration():
    models = model_space(include_data_dependencies=False)
    suite = no_dependency_suite()
    return explore_models(models, suite.tests(), preferred_tests=L_TESTS)


def test_explores_36_models(exploration):
    assert len(exploration.models) == 36
    assert exploration.checks_performed > 0


def test_equivalent_pairs_differ_only_in_same_address_write_read(exploration):
    """Every equivalent pair differs only in the wr digit (0 vs 1), as in the paper."""
    pairs = exploration.equivalent_pairs()
    assert len(pairs) == 6
    for first, second in pairs:
        # Names are M{ww}{wr}{rw}{rr}: the ww, rw and rr digits agree and the
        # wr digit is 0 (always reorder) in one model and 1 (only different
        # addresses) in the other.
        assert first[1] == second[1]
        assert first[3:] == second[3:]
        assert {first[2], second[2]} == {"0", "1"}


def test_figure_4_grouped_nodes_are_equivalent(exploration):
    """The doubled-up boxes of Figure 4."""
    for first, second in [
        ("M1010", "M1110"),
        ("M4010", "M4110"),
        ("M1011", "M1111"),
        ("M4011", "M4111"),
    ]:
        assert exploration.relation(first, second) is Relation.EQUIVALENT


def test_sc_is_the_unique_strongest_model(exploration):
    assert exploration.strongest_models() == ["M4444"]


def test_rmo_like_model_is_the_unique_weakest(exploration):
    assert exploration.weakest_models() == ["M1010"]


def test_known_strength_relations(exploration):
    # TSO (M4044) is stronger than PSO (M1044), weaker than SC (M4444).
    assert exploration.relation("M4044", "M1044") is Relation.STRONGER
    assert exploration.relation("M4044", "M4444") is Relation.WEAKER
    # IBM370 (M4144) is stronger than TSO (M4044).
    assert exploration.relation("M4144", "M4044") is Relation.STRONGER
    # PSO relaxes strictly more than IBM370, so it is weaker.
    assert exploration.relation("M1044", "M4144") is Relation.WEAKER
    # PSO and an IBM370 variant with relaxed reads are incomparable.
    assert exploration.relation("M1044", "M4140") is Relation.INCOMPARABLE


def test_hasse_edges_point_weaker_to_stronger(exploration):
    for edge in exploration.hasse_edges:
        assert exploration.relation(edge.weaker, edge.stronger) is Relation.WEAKER
        assert edge.tests, "every Hasse edge must have a distinguishing test"


def test_hasse_edges_prefer_the_nine_tests(exploration):
    labelled = [edge for edge in exploration.hasse_edges if edge.preferred_tests]
    assert labelled, "the L tests should label most edges"
    for edge in labelled:
        assert set(edge.preferred_tests) <= {test.name for test in L_TESTS}
        assert edge.label


def test_class_lookup_and_representative(exploration):
    assert "M1110" in exploration.class_of("M1010")
    assert exploration.representative("M1110") == "M1010"
    with pytest.raises(KeyError):
        exploration.class_of("M9999")


def test_distinguishing_tests_between_tso_and_ibm370(exploration):
    names = exploration.distinguishing_tests("M4044", "M4144")
    assert names  # L8-shaped tests distinguish them
    assert "L8" in names


def test_exploration_of_a_small_subset_is_consistent_with_pairwise():
    models = [parametric_model(name) for name in ("M4444", "M4044", "M1044", "M4144")]
    suite = no_dependency_suite()
    result = explore_models(models, suite.tests(), preferred_tests=L_TESTS)
    assert result.relation("M4444", "M4044") is Relation.STRONGER
    assert len(result.equivalence_classes) == 4
    graph = result.stronger_graph()
    assert graph.has_edge("M4044", "M4444")
    assert graph.has_edge("M1044", "M4044")


def test_exploration_reports_engine_stats(exploration):
    """Each suite test's execution is evaluated exactly once per exploration."""
    stats = exploration.stats
    assert stats is not None
    assert stats.executions_evaluated == len(exploration.tests)
    assert stats.checks_performed == exploration.checks_performed
    assert stats.checks_performed == len(exploration.models) * len(exploration.tests)
    # One verdict column per test: each context is resolved once.
    assert stats.context_cache_hits == 0


def test_exploration_is_identical_on_both_engine_backends():
    models = [parametric_model(name) for name in ("M4444", "M4044", "M1044", "M4144", "M1010")]
    suite = no_dependency_suite().tests()
    explicit = explore_models(models, suite, checker="explicit", preferred_tests=L_TESTS)
    sat = explore_models(models, suite, checker="sat", preferred_tests=L_TESTS)
    assert explicit.vectors == sat.vectors
    assert explicit.equivalence_classes == sat.equivalence_classes
    assert explicit.hasse_edges == sat.hasse_edges
    # One solve per distinct po-mask of a test: the masks the kernel searched.
    searches = explicit.stats.native_searches + explicit.stats.fallback_searches
    assert sat.stats.solver_calls == searches

