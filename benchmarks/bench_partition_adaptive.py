"""Adaptive vs brute-force exhaustive verification throughput.

The partition-guided adaptive layer (``pipeline/adaptive.py``) prunes the
exhaustive pipeline with profile dedup, frontier skipping and monotone
verdict derivation; its whole value is wall-clock, so this module races the
two modes over the same bound on the same warm process:

* ``test_brute_pipeline_small`` — the exact brute-force oracle
  (``adaptive=False``), the pre-adaptive hot path;
* ``test_adaptive_pipeline_small`` — the adaptive run, recording the skip
  rate and derived-verdict count in ``extra_info``;
* ``test_profile_throughput`` — the prefilter alone: raw tests/second
  through ``AdaptiveSpace.profile`` (the per-raw-test overhead every skip
  must amortise);
* ``test_native_profile_range_small`` — the same bound through the C range
  profiler (``_profile_range(native=True)``, a cold profiler each round),
  asserted equal to the Python reference; skipped without the extension.

Every run asserts the differential fact that justifies the layer — the
adaptive partition equals the brute one — so an unsound speedup fails here
before it flatters the numbers.
"""

import pytest

from repro.core.parametric import model_space
from repro.native.backend import native_available
from repro.pipeline.adaptive import AdaptiveSpace
from repro.pipeline.run import BOUNDS, PipelineConfig, _profile_range, run_pipeline
from repro.generation.enumeration import count_naive_tests, enumerate_raw_naive_items

BOUND = "small"


@pytest.mark.benchmark(group="partition-adaptive")
def test_brute_pipeline_small(benchmark):
    """The exact oracle: every kernel-distinct test checked, no pruning."""
    report = benchmark.pedantic(
        lambda: run_pipeline(PipelineConfig(bound=BOUND, space="no_deps")),
        rounds=3,
        iterations=1,
    )
    assert report.unique_tests == 941
    assert not report.adaptive
    median = benchmark.stats.stats.median
    benchmark.extra_info["raw_tests_per_second"] = round(report.raw_tests / median)
    benchmark.extra_info["checked_tests"] = report.unique_tests


@pytest.mark.benchmark(group="partition-adaptive")
def test_adaptive_pipeline_small(benchmark):
    """The adaptive run over the same bound, skip rate in extra_info."""
    report = benchmark.pedantic(
        lambda: run_pipeline(
            PipelineConfig(bound=BOUND, space="no_deps", adaptive=True)
        ),
        rounds=3,
        iterations=1,
    )
    brute = run_pipeline(PipelineConfig(bound=BOUND, space="no_deps"))
    assert report.adaptive
    assert report.equivalence_classes == brute.equivalence_classes
    assert report.hasse_edges == brute.hasse_edges
    skipped = report.profile_skips + report.frontier_skips
    assert report.unique_tests + skipped == report.raw_tests
    median = benchmark.stats.stats.median
    benchmark.extra_info["raw_tests_per_second"] = round(report.raw_tests / median)
    benchmark.extra_info["checked_tests"] = report.unique_tests
    benchmark.extra_info["skip_rate"] = round(skipped / report.raw_tests, 4)
    benchmark.extra_info["profile_skips"] = report.profile_skips
    benchmark.extra_info["frontier_skips"] = report.frontier_skips
    benchmark.extra_info["derived_verdicts"] = report.stats.derived_verdicts


@pytest.mark.benchmark(group="partition-adaptive")
def test_profile_throughput(benchmark):
    """Raw tests/second through the prefilter alone (no kernel work)."""
    space = AdaptiveSpace.build(model_space(include_data_dependencies=False))
    raw = [items for _name, items in enumerate_raw_naive_items(BOUNDS[BOUND])]

    def profile_stream():
        return len({space.profile(items) for items in raw})

    profiles = benchmark.pedantic(profile_stream, rounds=3, iterations=1)
    assert 0 < profiles < len(raw)
    benchmark.extra_info["raw_tests"] = len(raw)
    benchmark.extra_info["profiles"] = profiles
    benchmark.extra_info["raw_tests_per_second"] = round(
        len(raw) / benchmark.stats.stats.median
    )


@pytest.mark.benchmark(group="partition-adaptive")
@pytest.mark.skipif(not native_available(), reason="C extension not built")
def test_native_profile_range_small(benchmark):
    """Raw tests/second through the C range profiler, cold each round."""
    models = model_space(include_data_dependencies=False)
    config = PipelineConfig(bound=BOUND, adaptive=True)
    total = count_naive_tests(config.enumeration_config())

    def cold_space():
        return (AdaptiveSpace.build(models),), {}

    def profile_range(space):
        return _profile_range(space, config, 0, total, set(), native=True)

    result = benchmark.pedantic(profile_range, setup=cold_space, rounds=5, iterations=1)
    reference = _profile_range(AdaptiveSpace.build(models), config, 0, total, set())
    assert result == reference
    benchmark.extra_info["raw_tests"] = total
    benchmark.extra_info["profiles"] = len(result[1])
    benchmark.extra_info["raw_tests_per_second"] = round(
        total / benchmark.stats.stats.median
    )
