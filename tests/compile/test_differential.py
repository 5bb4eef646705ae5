"""Hypothesis differential suite: compiled vs. interpreted model evaluation.

Random formulas — including ``Not`` and opaque callable atoms — are compiled
through the IR and cross-checked against the uncompiled interpreters
(``Formula.evaluate`` per pair, ``IndexedExecution._formula_mask`` over
bitmasks), and the three engine backends (explicit / enumeration / SAT) are
required to return identical verdicts for the compiled models on random
litmus tests.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.checker.kernel import IndexedExecution
from repro.checker.reference import EnumerationChecker
from repro.compile import compile_model
from repro.core.formula import (
    And,
    Atom,
    FalseFormula,
    Not,
    Or,
    TrueFormula,
)
from repro.core.model import MemoryModel
from repro.engine.engine import CheckEngine
from repro.generation.named_tests import L_TESTS, TEST_A

from tests.conftest import small_litmus_tests

# Predicate applications over the paper's vocabulary, with every argument
# shape the DSL allows (unary on x or y; binary over permutations/repeats).
_ATOMS = st.sampled_from(
    [Atom(name, ("x",)) for name in ("Read", "Write", "Fence", "MemAccess")]
    + [Atom(name, ("y",)) for name in ("Read", "Write", "Fence", "MemAccess")]
    + [
        Atom(name, args)
        for name in ("SameAddr", "DataDep", "CtrlDep", "Dep")
        for args in (("x", "y"), ("y", "x"), ("x", "x"), ("y", "y"))
    ]
)

_LEAVES = st.one_of(_ATOMS, st.just(TrueFormula()), st.just(FalseFormula()))


def formulas():
    """Random formula trees with negation, up to a few levels deep."""
    return st.recursive(
        _LEAVES,
        lambda children: st.one_of(
            st.builds(Not, children),
            st.builds(lambda ops: And(ops), st.lists(children, min_size=2, max_size=3)),
            st.builds(lambda ops: Or(ops), st.lists(children, min_size=2, max_size=3)),
        ),
        max_leaves=8,
    )


FIXED_TESTS = [TEST_A, L_TESTS[0], L_TESTS[5]]


@settings(max_examples=60, deadline=None)
@given(formula=formulas())
def test_compiled_masks_match_interpreted_masks(formula):
    model = MemoryModel("random", formula)
    compiled = compile_model(model)
    for test in FIXED_TESTS:
        indexed = IndexedExecution(test.execution())
        assert compiled.mask_program(indexed) == indexed._formula_mask(
            formula, model.registry
        )


@settings(max_examples=60, deadline=None)
@given(formula=formulas())
def test_compiled_evaluator_matches_formula_evaluate(formula):
    model = MemoryModel("random", formula)
    evaluator = compile_model(model).evaluator
    for test in FIXED_TESTS:
        execution = test.execution()
        for thread_events in execution.events_by_thread:
            for i, x in enumerate(thread_events):
                for y in thread_events[i + 1 :]:
                    assert evaluator(execution, x, y) == formula.evaluate(
                        execution, x, y, model.registry
                    )


@settings(max_examples=40, deadline=None)
@given(formula=formulas(), test=small_litmus_tests())
def test_backends_agree_on_random_compiled_models(formula, test):
    model = MemoryModel("random", formula)
    verdicts = {
        backend: CheckEngine(backend).check(test, model) for backend in ("explicit", "sat")
    }
    verdicts["enumeration"] = EnumerationChecker().check(test, model).allowed
    assert len(set(verdicts.values())) == 1, verdicts


@settings(max_examples=40, deadline=None)
@given(formula=formulas(), test=small_litmus_tests())
def test_callable_atoms_match_their_formula(formula, test):
    """A model defined by an opaque callable (compiled to a tabulated call
    node) must verdict exactly like the formula it wraps."""
    registry = MemoryModel("f", formula).registry

    def opaque(execution, x, y, _formula=formula, _registry=registry):
        return _formula.evaluate(execution, x, y, _registry)

    formula_model = MemoryModel("formula", formula)
    callable_model = MemoryModel("callable", opaque)
    assert compile_model(callable_model).kind == "callable"
    for backend in ("explicit", "sat"):
        assert CheckEngine(backend).check(test, callable_model) == CheckEngine(
            backend
        ).check(test, formula_model)
    oracle = EnumerationChecker()
    assert (
        oracle.check(test, callable_model).allowed
        == oracle.check(test, formula_model).allowed
    )
