"""The synthesis acceptance cases over the paper's 90-model space.

The three outcomes the CLI promises — a complete verdict vector pins the
unique model, an inconsistent vector yields a minimal conflict core, an
ambiguous prefix yields distinguishing-test suggestions — each checked
with the explicit and SAT engines agreeing bit-for-bit.
"""

import dataclasses

import pytest

from repro.api.registry import UnknownModelError, canonical_space
from repro.api.requests import SynthesizeRequest
from repro.api.session import Session
from repro.engine.engine import CheckEngine, EngineStats
from repro.synth import SynthesisEngine, SynthesisResult

TARGET = "M4044"


@pytest.fixture(scope="module")
def session():
    return Session()


@pytest.fixture(scope="module")
def synth(session):
    return session.synthesis_engine("paper90")


@pytest.fixture(scope="module")
def sat_synth(synth):
    """The same query surface on a SAT engine."""
    return SynthesisEngine(
        synth.models,
        synth.comparison_tests,
        engine=CheckEngine("sat"),
        preferred_tests=synth.preferred_tests,
        space=synth.space,
    )


@pytest.fixture(scope="module")
def target_row(session, synth):
    """The complete (test, verdict) vector of the target model."""
    target = session.models.resolve(TARGET)
    return [
        (test, session.engine.check(test, target))
        for test in synth.comparison_tests
    ]


def _comparable(result: SynthesisResult) -> SynthesisResult:
    """Strip the fields that legitimately differ between backends."""
    return dataclasses.replace(result, backend="", stats=None)


def _both(synth, sat_synth, observations, **kwargs):
    explicit = synth.synthesize(observations, **kwargs)
    sat = sat_synth.synthesize(observations, **kwargs)
    assert _comparable(explicit) == _comparable(sat)
    return explicit


# ----------------------------------------------------------------------
# the three acceptance outcomes
# ----------------------------------------------------------------------
def test_complete_vector_identifies_the_unique_model(synth, sat_synth, target_row):
    result = _both(synth, sat_synth, target_row)
    assert result.models_considered == 90
    assert result.unique_model == TARGET
    assert result.weakest == result.strongest == (TARGET,)
    assert len(result.witnesses) == 89  # every other model has a witness
    assert not result.conflict_core and not result.suggestions


def test_inconsistent_vector_yields_a_minimal_conflict_core(synth, sat_synth, target_row):
    flipped = [(target_row[0][0], not target_row[0][1])] + target_row[1:]
    result = _both(synth, sat_synth, flipped)
    assert not result.consistent
    assert len(result.witnesses) == 90
    assert result.conflict_core
    names = [test.name for test, _ in flipped]
    assert all(name in names for name in result.conflict_core)

    # Irreducibility: the core alone still excludes every model, and
    # dropping any single member readmits at least one.
    by_name = {test.name: (test, verdict) for test, verdict in flipped}
    core = [by_name[name] for name in result.conflict_core]
    assert not synth.synthesize(core, suggest_tests=0).consistent
    for skip in range(len(core)):
        reduced = core[:skip] + core[skip + 1 :]
        readmitted = synth.synthesize(reduced, suggest_tests=0)
        assert readmitted.consistent, f"core member {core[skip][0].name} is redundant"


def test_ambiguous_prefix_suggests_distinguishing_tests(synth, sat_synth, target_row):
    result = _both(synth, sat_synth, target_row[:3])
    assert len(result.consistent_models) > 1
    assert TARGET in result.consistent_models
    assert result.weakest and result.strongest
    assert result.suggestions, "survivors differ, so a test must split them"
    first = result.suggestions[0]
    assert first.separates_pairs > 0
    assert first.allowed_models > 0 and first.forbidden_models > 0
    assert first.allowed_models + first.forbidden_models == len(
        result.consistent_models
    )
    # Suggestions come from the comparison suite, never repeat, and are
    # capped by suggest_tests.
    names = [suggestion.test for suggestion in result.suggestions]
    assert len(set(names)) == len(names) <= 3
    capped = synth.synthesize(target_row[:3], suggest_tests=1)
    assert len(capped.suggestions) == 1
    assert capped.suggestions[0] == first


def test_no_observations_means_everything_is_consistent(synth, sat_synth):
    result = _both(synth, sat_synth, [], suggest_tests=2)
    assert len(result.consistent_models) == 90
    assert not result.witnesses and not result.conflict_core
    assert result.suggestions  # the whole space still splits on some test


# ----------------------------------------------------------------------
# session dispatch and space aliases
# ----------------------------------------------------------------------
def test_session_dispatch_accepts_space_aliases(session, target_row):
    request = SynthesizeRequest(
        observations=tuple(
            {"test": test.name, "allowed": verdict}
            for test, verdict in target_row
            if test.name.startswith("L")
        ),
        space="paper90",
        suggest_tests=2,
    )
    result = session.run(request)
    assert isinstance(result, SynthesisResult)
    assert result.space == "deps"
    assert TARGET in result.consistent_models


def test_space_aliases_resolve_and_unknowns_fail():
    assert canonical_space("paper90") == "deps"
    assert canonical_space("paper36") == "no_deps"
    assert canonical_space("deps") == "deps"
    with pytest.raises(UnknownModelError, match="paper90"):
        canonical_space("paper180")


def test_synthesis_engines_are_cached_per_space(session):
    assert session.synthesis_engine("paper90") is session.synthesis_engine("deps")
    assert session.synthesis_engine("paper36") is not session.synthesis_engine("deps")


# ----------------------------------------------------------------------
# backends and stats
# ----------------------------------------------------------------------
def test_backend_resolution():
    """Synthesis follows the engine's backend and records its name."""
    for backend in ("explicit", "sat"):
        synth = SynthesisEngine([], [], engine=CheckEngine(backend=backend))
        assert synth.synthesize([]).backend == backend
    request = SynthesizeRequest(space="paper36")
    assert not hasattr(request, "backend")
    sat_session = Session(backend="sat")
    assert sat_session.run(request).backend == "sat"


def test_sat_backend_groups_models_by_po_mask(synth, target_row):
    cold = SynthesisEngine(synth.models, synth.comparison_tests, engine=CheckEngine("sat"))
    result = cold.synthesize(target_row)  # unique: no dominance exploration
    stats = result.stats
    assert stats.synth_runs == 1
    assert stats.checks_performed == len(target_row) * 90
    # Mask grouping is the point: far fewer solver calls than checks.
    assert 0 < stats.solver_calls < len(target_row) * 90 // 4


def test_synth_counters_flow_through_merge_since_and_describe():
    base = EngineStats(synth_runs=2, solver_calls=7)
    merged = EngineStats()
    merged.merge(base.as_dict())
    assert merged.synth_runs == 2
    assert merged.solver_calls == 7
    delta = base.since(EngineStats(synth_runs=1))
    assert delta.synth_runs == 1
    assert delta.solver_calls == 7
    assert "2 synthesis runs" in base.describe()
    assert "7 SAT calls" in base.describe()
    assert base.as_dict()["synth_runs"] == 2
