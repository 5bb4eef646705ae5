"""Tests for the SAT-based checker and its CNF encoding."""

from repro.checker.encoder import encode
from repro.checker.explicit import ExplicitChecker
from repro.checker.sat_checker import SatChecker
from repro.core.catalog import ALPHA, IBM370, PSO, RMO_DATA_DEP_ONLY, SC, TSO
from repro.core.instructions import Load, Store
from repro.core.litmus import LitmusTest
from repro.core.program import Program, Thread
from repro.generation.named_tests import L_TESTS, TEST_A

MODELS = (SC, TSO, IBM370, PSO, RMO_DATA_DEP_ONLY, ALPHA)


def test_sat_checker_matches_explicit_on_named_tests():
    sat = SatChecker()
    explicit = ExplicitChecker()
    for test in [TEST_A] + L_TESTS:
        for model in MODELS:
            assert sat.check(test, model).allowed == explicit.check(test, model).allowed, (
                f"{test.name} under {model.name}"
            )


def test_encoding_structure():
    execution = TEST_A.execution()
    encoding = encode(execution, TSO)
    assert not encoding.trivially_unsat
    assert len(encoding.order_vars) == len(execution.events) * (len(execution.events) - 1) // 2
    # Test A has three loads, each with exactly one read-from candidate.
    assert len(encoding.read_from_vars) == 3
    # No location has two stores, so there are no coherence variables.
    assert len(encoding.coherence_vars) == 0
    assert len(encoding.cnf) > 0


def test_encoding_coherence_variables_for_multiple_stores():
    program = Program(
        [Thread("T1", [Store("X", 1), Store("X", 2)]), Thread("T2", [Load("r1", "X")])]
    )
    test = LitmusTest.from_register_outcome("co", program, {"r1": 2})
    encoding = encode(test.execution(), SC)
    assert len(encoding.coherence_vars) == 1


def test_encoding_trivially_unsat_for_unobtainable_values():
    program = Program([Thread("T1", [Load("r1", "X")])])
    test = LitmusTest.from_register_outcome("bogus", program, {"r1": 5})
    encoding = encode(test.execution(), SC)
    assert encoding.trivially_unsat
    assert not SatChecker().check(test, SC).allowed


def test_sat_witness_is_decoded_and_consistent():
    result = SatChecker().check(TEST_A, TSO)
    assert result.allowed
    witness = result.witness
    assert witness is not None
    execution = TEST_A.execution()
    read_from = witness.read_from_map()
    assert len(read_from) == len(execution.loads())
    for load, store in read_from.items():
        if store is not None:
            assert execution.value_of(load) == execution.value_of(store)


def test_order_literal_is_antisymmetric():
    execution = TEST_A.execution()
    encoding = encode(execution, TSO)
    first = execution.events[0].uid
    second = execution.events[1].uid
    assert encoding.order_literal(first, second) == -encoding.order_literal(second, first)
