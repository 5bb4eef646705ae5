"""Tests for the batched checking engine (:mod:`repro.engine`)."""

import pytest

from repro.checker.explicit import ExplicitChecker
from repro.checker.reference import EnumerationChecker, ReferenceChecker
from repro.checker.sat_checker import SatChecker
from repro.core.instructions import Load, Store
from repro.core.litmus import LitmusTest
from repro.core.parametric import model_space, parametric_model
from repro.core.program import Program, Thread
from repro.engine import (
    CheckEngine,
    ExplicitStrategy,
    IncrementalSatStrategy,
    make_strategy,
)
from repro.generation.named_tests import L_TESTS, TEST_A

TESTS = [TEST_A] + list(L_TESTS)
MODELS = [parametric_model(name) for name in ("M4444", "M4144", "M4044", "M1044", "M1010")]


@pytest.fixture(scope="module")
def legacy_matrix():
    checker = ExplicitChecker()
    return {
        model.name: tuple(checker.check(test, model).allowed for test in TESTS)
        for model in MODELS
    }


# ----------------------------------------------------------------------
# strategy resolution
# ----------------------------------------------------------------------
def test_make_strategy_resolves_names_and_checkers():
    assert isinstance(make_strategy("explicit"), ExplicitStrategy)
    assert isinstance(make_strategy("sat"), IncrementalSatStrategy)
    strategy = IncrementalSatStrategy()
    assert make_strategy(strategy) is strategy
    with pytest.raises(ValueError):
        make_strategy("bogus")
    with pytest.raises(ValueError):
        make_strategy("enumeration")  # the oracle is EnumerationChecker
    with pytest.raises(TypeError):
        make_strategy(42)
    # Standalone checkers are used directly, never wrapped in an engine.
    with pytest.raises(TypeError, match="backend name .* or an ExplicitStrategy"):
        CheckEngine(SatChecker())


def test_ensure_returns_existing_engine_unchanged():
    engine = CheckEngine("sat")
    assert CheckEngine.ensure(engine) is engine
    assert isinstance(CheckEngine.ensure(None).strategy, ExplicitStrategy)
    assert isinstance(CheckEngine.ensure("sat").strategy, IncrementalSatStrategy)


# ----------------------------------------------------------------------
# verdict matrices
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", ["explicit", "enumeration", "sat"])
def test_matrix_matches_legacy_checkers(backend, legacy_matrix):
    if backend == "enumeration":
        # The (rf, co) product oracle lives outside the engine.
        checker = EnumerationChecker()
        matrix = {
            model.name: tuple(checker.check(test, model).allowed for test in TESTS)
            for model in MODELS
        }
    else:
        matrix = CheckEngine(backend).verdict_matrix(MODELS, TESTS)
    assert matrix == legacy_matrix


def test_matrix_agrees_with_reference_checker_strategy(legacy_matrix):
    checker = ReferenceChecker(max_events=9)
    matrix = {
        model.name: tuple(checker.check(test, model).allowed for test in TESTS)
        for model in MODELS
    }
    assert matrix == legacy_matrix


# ----------------------------------------------------------------------
# caching and statistics
# ----------------------------------------------------------------------
def test_each_execution_is_evaluated_exactly_once():
    engine = CheckEngine("explicit")
    engine.verdict_matrix(MODELS, TESTS)
    assert engine.stats.executions_evaluated == len(TESTS)
    assert engine.stats.candidate_spaces_built == len(TESTS)
    assert engine.stats.checks_performed == len(MODELS) * len(TESTS)
    # One column per test: the context is resolved once per column.
    assert engine.stats.context_cache_hits == 0
    # A second sweep over the same suite reuses every context, and every
    # context's mask -> verdict memo: nothing is searched again.
    searches = engine.stats.native_searches + engine.stats.fallback_searches
    engine.verdict_matrix(MODELS, TESTS)
    assert engine.stats.executions_evaluated == len(TESTS)
    assert engine.stats.context_cache_hits == len(TESTS)
    assert engine.stats.native_searches + engine.stats.fallback_searches == searches


def test_po_edge_cache_hits_on_repeated_checks():
    engine = CheckEngine("explicit")
    engine.check(TEST_A, MODELS[0])
    assert engine.stats.po_edge_cache_hits == 0
    engine.check(TEST_A, MODELS[0])  # same (test, model): cached po edges
    assert engine.stats.po_edge_cache_hits == 1
    engine.check(TEST_A, MODELS[1])  # different model: a fresh edge set
    assert engine.stats.po_edge_cache_hits == 1


def test_stats_describe_mentions_cache_hit_counters():
    engine = CheckEngine("explicit")
    engine.check(TEST_A, MODELS[0])
    engine.check(TEST_A, MODELS[0])
    text = engine.stats.describe()
    assert "po-edge cache hits" in text


def test_sat_engine_counts_solver_calls():
    """One incremental solve per distinct po-mask of a test: exactly the
    masks the explicit kernel searches."""
    sat = CheckEngine("sat")
    sat.verdict_matrix(MODELS, TESTS)
    explicit = CheckEngine("explicit")
    explicit.verdict_matrix(MODELS, TESTS)
    searches = explicit.stats.native_searches + explicit.stats.fallback_searches
    assert sat.stats.solver_calls == searches
    assert 0 < sat.stats.solver_calls < len(MODELS) * len(TESTS)


def test_recording_counts_only_its_block():
    engine = CheckEngine("explicit")
    engine.check(TEST_A, MODELS[0])
    with engine.recording() as delta:
        engine.check(TEST_A, MODELS[1])
    assert delta.checks_performed == 1
    assert delta.executions_evaluated == 0
    assert delta.context_cache_hits == 1


def test_stats_describe_mentions_sat_counters_only_when_present():
    explicit = CheckEngine("explicit")
    explicit.check(TEST_A, MODELS[0])
    assert "SAT calls" not in explicit.stats.describe()
    sat = CheckEngine("sat")
    sat.check(TEST_A, MODELS[0])
    assert "SAT calls" in sat.stats.describe()


# ----------------------------------------------------------------------
# edge cases
# ----------------------------------------------------------------------
def infeasible_test() -> LitmusTest:
    """A load observing a value no store writes and no initial value provides."""
    program = Program(
        [
            Thread("T1", [Store("X", 1)]),
            Thread("T2", [Load("r1", "X")]),
        ]
    )
    return LitmusTest("infeasible", program, {(1, 0): 7})


@pytest.mark.parametrize("backend", ["explicit", "sat"])
def test_infeasible_outcome_is_forbidden_under_every_model(backend):
    engine = CheckEngine(backend)
    test = infeasible_test()
    for model in MODELS:
        assert engine.check(test, model) is False
    legacy = ExplicitChecker().check(test, MODELS[0])
    assert not legacy.allowed


def test_full_36_model_space_agrees_across_backends():
    models = model_space(include_data_dependencies=False)
    explicit = CheckEngine("explicit").verdict_matrix(models, TESTS)
    sat = CheckEngine("sat").verdict_matrix(models, TESTS)
    assert explicit == sat


# ----------------------------------------------------------------------
# compile layer integration: digest-keyed caches and compile/CSE counters
# ----------------------------------------------------------------------
def test_compile_counters_are_deterministic_per_engine():
    engine = CheckEngine("explicit")
    engine.verdict_matrix(MODELS, TESTS)
    assert engine.stats.models_compiled == len(MODELS)
    # Every later resolution of the same models hits the engine's cache.
    assert engine.stats.compile_cache_hits == len(MODELS) * (len(TESTS) - 1)
    assert engine.stats.ir_nodes_created > 0
    # A fresh engine over the same inputs reports identical counters no
    # matter what the process-global compile cache already holds.
    other = CheckEngine("explicit")
    other.verdict_matrix(MODELS, TESTS)
    assert other.stats.models_compiled == engine.stats.models_compiled
    assert other.stats.ir_nodes_created == engine.stats.ir_nodes_created
    assert other.stats.ir_cse_hits == engine.stats.ir_cse_hits


def test_cross_model_cse_is_counted():
    from repro.core.parametric import model_space

    engine = CheckEngine("explicit")
    engine.precompile(model_space(include_data_dependencies=True))
    assert engine.stats.models_compiled == 90
    # The 90 models share almost all subformula structure.
    assert engine.stats.ir_cse_hits > engine.stats.ir_nodes_created


def test_digest_keyed_caches_survive_model_reregistration():
    """A structurally equal model under a new object (re-registration, a
    serve client resending a definition) hits the warm po-edge caches."""
    from repro.core.model import MemoryModel

    first = MemoryModel("TSO-v1", "(Write(x) & Write(y)) | Read(x) | Fence(x) | Fence(y)")
    second = MemoryModel("TSO-v2", "(Write(x) & Write(y)) | Read(x) | Fence(x) | Fence(y)")
    engine = CheckEngine("explicit")
    assert engine.check(TEST_A, first) == engine.check(TEST_A, second)
    assert engine.stats.models_compiled == 1  # one semantic digest
    assert engine.stats.compile_cache_hits == 1
    assert engine.stats.po_edge_cache_hits == 1  # second check reused the edges


def test_stats_describe_mentions_compile_counters():
    engine = CheckEngine("explicit")
    engine.check(TEST_A, MODELS[0])
    assert "models compiled" in engine.stats.describe()
