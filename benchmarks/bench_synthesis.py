"""Synthesis on both engine backends over growing observation counts.

Inverting the checker: given a row of observed verdicts from the 90-model
space, how fast does synthesis recover the consistent set?  Each
observation is one ``CheckEngine.check_column`` of the synthesizer's
engine: the explicit kernel or incremental SAT, one decision per
*distinct* po-pair mask, so models that force the same program-order
edges share a search or a solver call.  Both run on a session-warm engine
— the realistic serving shape, where explore/compare traffic has already
built the per-test contexts — and the benchmark asserts they return
identical results at every size.
"""

import dataclasses

import pytest

from repro.core.parametric import parametric_model
from repro.engine import CheckEngine
from repro.generation.named_tests import L_TESTS
from repro.synth import SynthesisEngine

TARGET = "M4044"
OBSERVATION_COUNTS = (4, 16, 64)


def _synth(models, backend):
    return SynthesisEngine(
        models,
        list(L_TESTS),
        engine=CheckEngine(backend),
        preferred_tests=L_TESTS,
        space="deps",
    )


@pytest.fixture(scope="module")
def synthesis(models_90, suite_with_dependencies):
    """A warm synthesizer per engine backend plus the target model's full
    verdict row."""
    synths = {backend: _synth(models_90, backend) for backend in ("explicit", "sat")}
    target = parametric_model(TARGET)
    suite = list(suite_with_dependencies.tests()) + list(L_TESTS)
    row = [(test, synths["explicit"].engine.check(test, target)) for test in suite]
    # Warm every per-test context the benchmark will touch, on both
    # engines, so the timings measure synthesis rather than first-visit
    # candidate-space construction.
    for synth in synths.values():
        for test, _ in row:
            synth.engine.check_column(test, synth.models, retain=True)
    return synths, row


def _strip(result):
    return dataclasses.replace(result, backend="", stats=None)


@pytest.mark.parametrize("count", OBSERVATION_COUNTS)
@pytest.mark.benchmark(group="synthesis")
def test_synthesize_enum(benchmark, synthesis, count):
    synths, row = synthesis
    result = benchmark.pedantic(
        lambda: synths["explicit"].synthesize(row[:count]),
        rounds=3,
        iterations=1,
    )
    assert TARGET in result.consistent_models


@pytest.mark.parametrize("count", OBSERVATION_COUNTS)
@pytest.mark.benchmark(group="synthesis")
def test_synthesize_sat(benchmark, synthesis, count):
    synths, row = synthesis
    result = benchmark.pedantic(
        lambda: synths["sat"].synthesize(row[:count]),
        rounds=3,
        iterations=1,
    )
    assert TARGET in result.consistent_models


def test_strategies_agree_at_every_size(synthesis):
    synths, row = synthesis
    for count in OBSERVATION_COUNTS:
        enum = synths["explicit"].synthesize(row[:count])
        sat = synths["sat"].synthesize(row[:count])
        assert _strip(enum) == _strip(sat), f"strategies diverge at {count}"


def test_sat_strategy_groups_models_by_mask(models_90, synthesis):
    _, row = synthesis
    cold = _synth(models_90, "sat")
    before = cold.engine.stats.snapshot()
    for test, _ in row[:16]:
        cold._column(test)
    stats = cold.engine.stats.since(before)
    assert stats.checks_performed == 16 * 90
    # Mask grouping must be doing real work on this space.
    assert 0 < stats.solver_calls < stats.checks_performed // 2
