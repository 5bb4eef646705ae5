"""Throughput of the exhaustive-enumeration verification pipeline.

The pipeline of :mod:`repro.pipeline` is the new hot path opened by this
repository's scale direction: stream the naive bounded enumeration through
the symmetry-reducing canonicalizer, then check every kernel-distinct
survivor against the whole model space on a warm engine.  Three benchmarks
track its stages:

* ``test_canonicalization_throughput`` — raw tests/second through the
  canonicalizer alone (abstract keys, no litmus-test construction for
  duplicates);
* ``test_pipeline_end_to_end_small`` — the full bounded pipeline
  (enumerate, canonicalize, shard, check, fold), recording unique
  tests/second and checks/second in ``extra_info``;
* ``test_column_checking_throughput`` — the per-shard verdict-column hot
  loop (``CheckEngine.check_column`` over the 36-model space) on
  materialised litmus tests, the object path;
* ``test_items_checking_throughput`` — the pipeline's real hot loop,
  ``_check_items`` over every ``medium`` unique test's abstract items: on
  the native kernel the items path, which builds each C search problem
  from the items without litmus-test objects.

Every run asserts correctness facts alongside the timing so a regression
in either shows up here.
"""

import pytest

from repro.engine import CheckEngine
from repro.generation.enumeration import (
    enumerate_canonical_naive_items,
    enumerate_canonical_naive_tests,
)
from repro.pipeline import CanonicalIndex, PipelineConfig, run_pipeline
from repro.pipeline.run import BOUNDS, _check_items

BOUND = "small"


@pytest.mark.benchmark(group="enumeration-pipeline")
def test_canonicalization_throughput(benchmark):
    """Raw naive tests/second through the symmetry-reducing canonicalizer."""

    def canonicalize_stream():
        index = CanonicalIndex()
        unique = sum(1 for _ in enumerate_canonical_naive_tests(BOUNDS["medium"], index=index))
        return index.offered, unique

    raw, unique = benchmark.pedantic(canonicalize_stream, rounds=3, iterations=1)
    assert unique < raw
    benchmark.extra_info["raw_tests"] = raw
    benchmark.extra_info["unique_tests"] = unique
    benchmark.extra_info["raw_tests_per_second"] = round(raw / benchmark.stats.stats.median)


@pytest.mark.benchmark(group="enumeration-pipeline")
def test_pipeline_end_to_end_small(benchmark):
    """The full bounded pipeline: enumerate, canonicalize, shard, check, fold."""
    report = benchmark.pedantic(
        lambda: run_pipeline(PipelineConfig(bound=BOUND, space="no_deps")),
        rounds=3,
        iterations=1,
    )
    # The small bound is too coarse to reproduce the full partition, but the
    # counts it does produce are fixed facts of the enumeration.
    assert report.unique_tests == 941
    assert report.checks_performed == report.unique_tests * 36
    median = benchmark.stats.stats.median
    benchmark.extra_info["unique_tests"] = report.unique_tests
    benchmark.extra_info["tests_per_second"] = round(report.unique_tests / median)
    benchmark.extra_info["checks_per_second"] = round(report.checks_performed / median)


@pytest.mark.benchmark(group="enumeration-pipeline")
def test_column_checking_throughput(benchmark, models_36):
    """The per-shard hot loop: one verdict column per unique test."""
    tests = [
        test
        for _key, test in enumerate_canonical_naive_tests(BOUNDS[BOUND], limit=400)
    ]

    def check_columns():
        engine = CheckEngine("explicit")
        return sum(
            sum(1 for allowed in engine.check_column(test, models_36) if allowed)
            for test in tests
        )

    allowed_total = benchmark.pedantic(check_columns, rounds=3, iterations=1)
    assert 0 < allowed_total < len(tests) * len(models_36)
    benchmark.extra_info["columns_per_second"] = round(
        len(tests) / benchmark.stats.stats.median
    )


@pytest.mark.benchmark(group="enumeration-pipeline")
def test_items_checking_throughput(benchmark, models_36):
    """The pipeline's hot loop: `_check_items` over `medium`'s unique items,
    with monotone derivation on as in adaptive runs."""
    triples = list(enumerate_canonical_naive_items(BOUNDS["medium"]))
    names = [name for _key, name, _items in triples]
    items_list = [items for _key, _name, items in triples]

    def check_items():
        engine = CheckEngine("explicit")
        engine.precompile(models_36)
        rows, stats = _check_items(engine, models_36, names, items_list, True)
        return rows, stats

    rows, stats = benchmark.pedantic(check_items, rounds=5, iterations=1)
    assert len(rows) == len(names) == 1253
    assert stats["executions_evaluated"] == len(names)
    assert 0 < sum(bin(row).count("1") for row in rows) < len(rows) * len(models_36)
    benchmark.extra_info["kernel"] = stats["kernel_backend"]
    benchmark.extra_info["tests_per_second"] = round(len(names) / benchmark.stats.stats.median)
