"""Differential testing: synthesis on the explicit and SAT engines must agree.

Random observation subsets — true rows of the 90-model × template-suite
verdict matrix, with optional flips to produce inconsistent or ambiguous
inputs — must yield identical consistent sets, weakest/strongest models,
witnesses, conflict cores, and suggestions on both engine backends.  Only
the ``backend`` label and the engine counters may differ.
"""

import dataclasses

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api.registry import ModelRegistry, TestRegistry
from repro.engine.engine import CheckEngine
from repro.generation.named_tests import L_TESTS
from repro.synth import SynthesisEngine

_SETTINGS = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


@pytest.fixture(scope="module")
def harness():
    """One warm synthesizer per engine backend, the 90-model space, and its
    true verdict matrix."""
    models = ModelRegistry().space("deps")
    suite = TestRegistry().suite("standard")
    synths = {
        backend: SynthesisEngine(
            models,
            list(L_TESTS),  # a small dominance suite keeps examples fast
            engine=CheckEngine(backend),
            preferred_tests=L_TESTS,
            space="deps",
        )
        for backend in ("explicit", "sat")
    }
    engine = synths["explicit"].engine
    matrix = {
        test.name: engine.check_column(test, models, retain=True) for test in suite
    }
    return synths, suite, matrix, [model.name for model in models]


def _strip(result):
    return dataclasses.replace(result, backend="", stats=None)


@given(data=st.data())
@_SETTINGS
def test_enum_and_sat_agree_on_random_observation_subsets(harness, data):
    synths, suite, matrix, model_names = harness
    model = data.draw(st.sampled_from(model_names), label="observed model")
    indices = data.draw(
        st.lists(
            st.integers(min_value=0, max_value=len(suite) - 1),
            min_size=1,
            max_size=8,
            unique=True,
        ),
        label="test subset",
    )
    flips = data.draw(
        st.lists(st.booleans(), min_size=len(indices), max_size=len(indices)),
        label="flips",
    )
    row = [model_names.index(model)]
    observations = [
        (suite[i], matrix[suite[i].name][row[0]] ^ flip)
        for i, flip in zip(indices, flips)
    ]

    enum = synths["explicit"].synthesize(observations, suggest_tests=3)
    sat = synths["sat"].synthesize(observations, suggest_tests=3)

    assert enum.backend == "explicit" and sat.backend == "sat"
    assert _strip(enum) == _strip(sat)

    # Unflipped rows must keep the observed model consistent; the verdict
    # columns themselves must match the precomputed matrix.
    if not any(flips):
        assert model in enum.consistent_models
    for (test, want), index in zip(observations, indices):
        for name in enum.consistent_models:
            m = model_names.index(name)
            assert matrix[test.name][m] == want


@given(data=st.data())
@_SETTINGS
def test_witnesses_and_cores_are_sound_for_both_strategies(harness, data):
    synths, suite, matrix, model_names = harness
    indices = data.draw(
        st.lists(
            st.integers(min_value=0, max_value=len(suite) - 1),
            min_size=2,
            max_size=6,
            unique=True,
        ),
        label="test subset",
    )
    verdicts = data.draw(
        st.lists(st.booleans(), min_size=len(indices), max_size=len(indices)),
        label="verdicts",
    )
    observations = [(suite[i], want) for i, want in zip(indices, verdicts)]

    for synth in synths.values():
        result = synth.synthesize(observations, suggest_tests=0)
        # Every witness quotes a real contradiction against the true matrix.
        by_name = {test.name: want for test, want in observations}
        for witness in result.witnesses:
            m = model_names.index(witness.model)
            assert witness.observed == by_name[witness.test]
            assert witness.predicted == matrix[witness.test][m]
            assert witness.predicted != witness.observed
        # Witnesses and consistent models partition the space.
        assert len(result.witnesses) + len(result.consistent_models) == len(
            model_names
        )
        if not result.consistent:
            assert result.conflict_core
            core = set(result.conflict_core)
            assert core <= set(by_name)
