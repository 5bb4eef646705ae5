"""JSON round-trip tests for the schema-versioned serialization layer.

The golden files under ``golden/`` pin the wire format: a document written
by an earlier version of the library must still deserialize to an object
that re-serializes bit-identically, and must still equal the freshly
computed result.  Regenerate them (consciously!) with the snippet in each
test when the schema version is bumped.
"""

import copy
import json
from pathlib import Path

import pytest

from repro import SC, TEST_A, TSO, compare_models, explore_models
from repro.api.serialize import (
    SCHEMA_VERSION,
    SchemaVersionError,
    SerializationError,
    engine_stats_from_json,
    from_json,
    model_from_json,
    model_to_json,
    to_json,
)
from repro.api.serialize import test_from_json as litmus_from_json
from repro.api.serialize import test_to_json as litmus_to_json
from repro.checker.explicit import ExplicitChecker
from repro.checker.outcomes import OutcomeSet
from repro.core.catalog import named_models
from repro.core.model import MemoryModel
from repro.core.parametric import model_space, parametric_model
from repro.engine.engine import EngineStats
from repro.generation.named_tests import L_TESTS

GOLDEN = Path(__file__).parent / "golden"

KNOWN_NAMES = ("M1010", "M1044", "M4044", "M4144", "M4444")


def _known_exploration():
    # Pinned to the bigint kernel so the embedded EngineStats (which carry
    # the kernel label and the native/fallback search counters) match the
    # golden file in every environment — with or without the C extension,
    # and under any REPRO_KERNEL setting.
    from repro.engine.engine import CheckEngine

    models = [parametric_model(name) for name in KNOWN_NAMES]
    return explore_models(
        models,
        list(L_TESTS),
        checker=CheckEngine(kernel="bigint"),
        preferred_tests=L_TESTS,
    )


# ----------------------------------------------------------------------
# golden files: the wire format is pinned
# ----------------------------------------------------------------------
def test_golden_exploration_result_roundtrips_bit_identically():
    document = json.loads((GOLDEN / "exploration_result.json").read_text())
    result = from_json(document)
    assert to_json(result) == document


def test_golden_exploration_result_matches_fresh_computation():
    document = json.loads((GOLDEN / "exploration_result.json").read_text())
    fresh = _known_exploration()
    assert from_json(document) == fresh
    assert to_json(fresh) == document


def test_golden_comparison_result_roundtrips_bit_identically():
    document = json.loads((GOLDEN / "comparison_result.json").read_text())
    result = from_json(document)
    assert to_json(result) == document
    assert from_json(document) == compare_models(SC, TSO, list(L_TESTS))


def _known_synthesis(case):
    # Pinned like _known_exploration: the bigint kernel and a fresh engine
    # per case make the embedded EngineStats deterministic everywhere.
    from repro.engine.engine import CheckEngine
    from repro.synth import SynthesisEngine

    models = [parametric_model(name) for name in KNOWN_NAMES]

    def fresh():
        return SynthesisEngine(
            models,
            list(L_TESTS),
            engine=CheckEngine(kernel="bigint"),
            preferred_tests=L_TESTS,
            space="deps",
        )

    probe = CheckEngine(kernel="bigint")
    target = parametric_model("M4044")
    row = [(test, probe.check(test, target)) for test in L_TESTS]
    if case == "unique":
        return fresh().synthesize(row)
    if case == "conflict":
        flipped = [(row[0][0], not row[0][1])] + row[1:]
        return fresh().synthesize(flipped)
    assert case == "ambiguous"
    return fresh().synthesize(row[:2])


SYNTHESIS_GOLDEN_CASES = ("unique", "conflict", "ambiguous")


@pytest.mark.parametrize("case", SYNTHESIS_GOLDEN_CASES)
def test_golden_synthesis_result_roundtrips_bit_identically(case):
    document = json.loads((GOLDEN / f"synthesis_{case}.json").read_text())
    result = from_json(document)
    assert to_json(result) == document


@pytest.mark.parametrize("case", SYNTHESIS_GOLDEN_CASES)
def test_golden_synthesis_result_matches_fresh_computation(case):
    document = json.loads((GOLDEN / f"synthesis_{case}.json").read_text())
    assert from_json(document) == _known_synthesis(case)


def test_golden_synthesis_cases_cover_the_three_outcomes():
    unique = from_json(json.loads((GOLDEN / "synthesis_unique.json").read_text()))
    assert unique.unique_model == "M4044"
    assert unique.weakest == unique.strongest == ("M4044",)

    conflict = from_json(json.loads((GOLDEN / "synthesis_conflict.json").read_text()))
    assert not conflict.consistent
    assert conflict.conflict_core  # minimal conflicting subset is recorded
    assert conflict.witnesses  # one witness per excluded model
    assert len(conflict.witnesses) == conflict.models_considered

    ambiguous = from_json(json.loads((GOLDEN / "synthesis_ambiguous.json").read_text()))
    assert len(ambiguous.consistent_models) > 1
    assert ambiguous.suggestions  # distinguishing tests are proposed
    assert ambiguous.stats.synth_runs == 1


def test_golden_exploration_stats_carry_the_kernel_backend():
    """The embedded EngineStats round-trip the kernel label and counters."""
    document = json.loads((GOLDEN / "exploration_result.json").read_text())
    stats = document["stats"]
    assert stats["kernel_backend"] == "bigint"  # pinned by _known_exploration
    assert stats["native_searches"] == 0
    assert stats["fallback_searches"] > 0
    rebuilt = from_json(document)
    assert rebuilt.stats.kernel_backend == "bigint"
    assert to_json(rebuilt)["stats"] == stats


def test_golden_exploration_includes_stats_and_hasse_edges():
    document = json.loads((GOLDEN / "exploration_result.json").read_text())
    assert document["stats"]["checks_performed"] > 0
    assert document["hasse_edges"], "Hasse edges must be part of the document"
    result = from_json(document)
    assert isinstance(result.stats, EngineStats)
    assert result.stats.checks_performed == document["stats"]["checks_performed"]
    assert [edge.weaker for edge in result.hasse_edges] == [
        edge["weaker"] for edge in document["hasse_edges"]
    ]


# ----------------------------------------------------------------------
# schema versioning
# ----------------------------------------------------------------------
def test_schema_version_mismatch_is_rejected():
    document = json.loads((GOLDEN / "exploration_result.json").read_text())
    for bad_version in (SCHEMA_VERSION + 1, SCHEMA_VERSION - 1, 0, "1", None):
        tampered = copy.deepcopy(document)
        tampered["schema_version"] = bad_version
        with pytest.raises(SchemaVersionError):
            from_json(tampered)


def test_missing_or_alien_schema_is_rejected():
    with pytest.raises(SerializationError):
        from_json({"schema_version": SCHEMA_VERSION})
    with pytest.raises(SerializationError):
        from_json({"schema": "other/thing", "schema_version": SCHEMA_VERSION})
    with pytest.raises(SerializationError):
        from_json({"schema": "repro/nonsense", "schema_version": SCHEMA_VERSION})
    with pytest.raises(SerializationError):
        from_json("not even a dict")


# ----------------------------------------------------------------------
# per-type round trips
# ----------------------------------------------------------------------
def test_check_result_with_witness_roundtrips():
    result = ExplicitChecker().check(TEST_A, TSO)
    assert result.allowed and result.witness is not None
    rebuilt = from_json(to_json(result))
    assert rebuilt == result
    assert rebuilt.witness.describe() == result.witness.describe()


def test_check_result_forbidden_roundtrips():
    result = ExplicitChecker().check(TEST_A, SC)
    assert not result.allowed
    assert from_json(to_json(result)) == result


def test_outcome_set_roundtrips():
    outcome_set = OutcomeSet("SB", "TSO", [{"r1": 0, "r2": 0}, {"r1": 1, "r2": 1}])
    assert OutcomeSet.from_json(outcome_set.to_json()) == outcome_set


def test_litmus_test_roundtrips_with_description_and_dependencies():
    for test in [TEST_A] + list(L_TESTS):
        document = litmus_to_json(test)
        rebuilt = litmus_from_json(document)
        assert rebuilt == test, test.name
        assert rebuilt.description == test.description
        assert litmus_to_json(rebuilt) == document


def test_every_catalog_and_parametric_model_roundtrips():
    for model in list(named_models().values()) + model_space(True):
        rebuilt = model_from_json(model_to_json(model))
        assert rebuilt == model, model.name
        assert rebuilt.predicates.names() == model.predicates.names()


def test_callable_model_cannot_serialize():
    model = MemoryModel("opaque", lambda execution, x, y: True)
    with pytest.raises(SerializationError):
        to_json(model)


def test_engine_stats_rejects_unknown_counters():
    with pytest.raises(SerializationError):
        engine_stats_from_json({"checks_performed": 1, "not_a_counter": 2})


def test_result_types_expose_to_json_convenience():
    exploration = _known_exploration()
    assert from_json(exploration.to_json()) == exploration
    comparison = compare_models(SC, TSO, list(L_TESTS))
    assert comparison.from_json(comparison.to_json()) == comparison
    check = ExplicitChecker().check(TEST_A, TSO)
    assert check.from_json(check.to_json()) == check
