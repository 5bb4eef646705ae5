"""Tests for the naive bounded enumeration baseline."""

import pytest

from repro.checker.explicit import is_allowed
from repro.core.catalog import SC
from itertools import islice

from repro.generation.enumeration import (
    NaiveEnumerationConfig,
    count_naive_tests,
    enumerate_naive_tests,
    enumerate_raw_naive_items,
)
from repro.pipeline.run import BOUNDS


def small_config() -> NaiveEnumerationConfig:
    return NaiveEnumerationConfig(
        max_accesses_per_thread=2, max_locations=2, allow_fences=False
    )


def test_config_validation():
    with pytest.raises(ValueError):
        NaiveEnumerationConfig(min_accesses_per_thread=0)
    with pytest.raises(ValueError):
        NaiveEnumerationConfig(max_accesses_per_thread=1, min_accesses_per_thread=2)
    with pytest.raises(ValueError):
        NaiveEnumerationConfig(num_threads=0)


def test_count_matches_raw_enumeration_for_small_config():
    config = small_config()
    count = count_naive_tests(config)
    enumerated = sum(1 for _ in enumerate_naive_tests(config, raw=True))
    assert count == enumerated
    assert count > 0


def test_default_stream_is_symmetry_reduced():
    """The default stream collapses thread/location/value symmetry classes."""
    from repro.pipeline.canonical import canonical_key

    config = small_config()
    raw = list(enumerate_naive_tests(config, raw=True))
    unique = list(enumerate_naive_tests(config))
    assert len(unique) < len(raw)
    keys = [canonical_key(test) for test in unique]
    # one representative per class, and the classes cover the raw stream
    assert len(set(keys)) == len(keys)
    assert set(keys) == {canonical_key(test) for test in raw}


def test_limit_caps_the_enumeration():
    config = small_config()
    limited = list(enumerate_naive_tests(config, limit=10))
    assert len(limited) == 10
    raw_limited = list(enumerate_naive_tests(config, limit=10, raw=True))
    assert len(raw_limited) == 10


def test_generated_tests_are_well_formed_and_within_bounds():
    config = small_config()
    for test in enumerate_naive_tests(config, limit=50):
        test.program.validate()
        assert test.num_threads() == 2
        assert test.num_memory_accesses() <= 4
        test.execution()  # evaluates without error


def test_naive_space_is_much_larger_than_the_template_suite():
    """The paper's point: naive enumeration is orders of magnitude larger than 124."""
    config = NaiveEnumerationConfig(
        max_accesses_per_thread=2, max_locations=3, allow_fences=True
    )
    assert count_naive_tests(config) > 10 * 124


def test_single_thread_enumeration():
    config = NaiveEnumerationConfig(
        num_threads=1, max_accesses_per_thread=2, max_locations=1, allow_fences=False
    )
    tests = list(enumerate_naive_tests(config, raw=True))
    assert count_naive_tests(config) == len(tests)
    # Single-thread tests under SC: allowed iff they respect per-thread coherence.
    assert any(is_allowed(test, SC) for test in tests)
    assert any(not is_allowed(test, SC) for test in tests)


def test_canonical_location_naming_avoids_renaming_duplicates():
    config = NaiveEnumerationConfig(
        max_accesses_per_thread=1, max_locations=2, allow_fences=False
    )
    tests = list(enumerate_naive_tests(config, raw=True))
    # With one access per thread, the first access always uses location X.
    assert all(test.program.locations()[0] == "X" for test in tests)


@pytest.mark.parametrize(
    "config",
    [
        BOUNDS["small"],
        NaiveEnumerationConfig(
            num_threads=3, max_accesses_per_thread=1, max_locations=2, allow_fences=False
        ),
    ],
    ids=["small", "three-threads"],
)
def test_raw_stream_seeks_to_every_offset(config):
    """``start=k`` yields the full stream sliced at ``k``, for every ``k``
    from 0 to the end (checked on a short prefix, plus whole tails)."""
    full = list(enumerate_raw_naive_items(config))
    assert len(full) == count_naive_tests(config)
    for start in range(len(full) + 1):
        seeked = enumerate_raw_naive_items(config, start=start)
        assert list(islice(seeked, 3)) == full[start : start + 3]
    for start in (0, 1, len(full) // 3, len(full) - 1, len(full), len(full) + 5):
        assert list(enumerate_raw_naive_items(config, start=start)) == full[start:]
