"""The C range profiler against the Python reference profiler.

``_profile_range(..., native=True)`` reduces and keys every raw test in
``_kernelmod.Profiler``; ``native=False`` runs the reference
:meth:`AdaptiveSpace.profile`.  Both must return the same range result —
test count, first-seen ``(digest, groups, items)`` and audit items — and
both must give every raw test the same profile digest, on every raw test
of the small bounds, on seeded samples of the large ones, on the 90-model
space (masks wider than 64 bits) and on three-thread tests (the
permutation minimisation).
"""

import random
from itertools import islice

import pytest

from repro.core.parametric import model_space
from repro.generation.enumeration import (
    NaiveEnumerationConfig,
    count_naive_tests,
    enumerate_raw_naive_items,
    raw_naive_blocks,
)
from repro.native.backend import native_available
from repro.pipeline.adaptive import AdaptiveSpace, NativeProfiler, profile_digest, repr_digest
from repro.pipeline.run import BOUNDS, RANGE_SHARDS, PipelineConfig, _profile_range

pytestmark = pytest.mark.skipif(not native_available(), reason="C extension not built")

#: audited share of every compared range (so audit items are compared too)
AUDIT_RATE = 0.05

_SPACES = {}


def _space(name):
    if name not in _SPACES:
        _SPACES[name] = AdaptiveSpace.build(
            model_space(include_data_dependencies=name == "deps")
        )
    return _SPACES[name]


def _config(bound, space="no_deps"):
    return PipelineConfig(bound=bound, space=space, adaptive=True, audit_rate=AUDIT_RATE)


def _ranges(total, size):
    return [(start, min(start + size, total)) for start in range(0, total, size)]


def _reference_digests(space, config, start, stop):
    """The profile digest of every raw test ``start .. stop-1``, through
    :meth:`AdaptiveSpace.profile`."""
    stream = enumerate_raw_naive_items(config.enumeration_config(), start=start)
    return [profile_digest(space.profile(items)) for _name, items in islice(stream, stop - start)]


def _native_digests(space, config, start, stop):
    """The same digests through a C profiler of their own, block by block
    as :func:`_profile_range` walks the stream."""
    native = NativeProfiler(space)
    digests = []
    for templates, choices, skip in raw_naive_blocks(config.enumeration_config(), start):
        ids, fresh = native.profiler.profile_block(
            templates, choices, skip, stop - start - len(digests)
        )
        native.digests.extend(map(repr_digest, fresh))
        digests.extend(native.digests[pid] for pid in ids)
        if len(digests) == stop - start:
            break
    return digests


def _assert_same(space, config, ranges):
    """Both profilers over ``ranges`` in order, each with its own ``seen``
    carried from range to range, as a worker carries it; every raw test's
    digest agrees, and the range result lists exactly the first test of
    each digest new to ``seen``."""
    python_seen, native_seen = set(), set()
    for start, stop in ranges:
        digests = _reference_digests(space, config, start, stop)
        assert _native_digests(space, config, start, stop) == digests, (start, stop)
        expected = {}
        for offset, digest in enumerate(digests):
            if digest not in python_seen and digest not in expected:
                expected[digest] = offset
        reference = _profile_range(space, config, start, stop, python_seen)
        native = _profile_range(space, config, start, stop, native_seen, native=True)
        assert native[0] == stop - start
        assert {first[0]: offset for offset, first in native[1].items()} == expected
        assert native == reference, (start, stop)
        assert native_seen == python_seen


@pytest.mark.parametrize("bound", ["tiny", "small", "medium"])
def test_every_raw_test_of_the_small_bounds(bound):
    config = _config(bound)
    total = count_naive_tests(config.enumeration_config())
    _assert_same(_space("no_deps"), config, _ranges(total, config.shard_size * RANGE_SHARDS))


@pytest.mark.parametrize("bound", ["large", "paper"])
def test_a_seeded_sample_of_the_large_bounds(bound):
    config = _config(bound)
    total = count_naive_tests(config.enumeration_config())
    rng = random.Random(16)
    starts = sorted(rng.randrange(total - 2048) for _ in range(10))
    _assert_same(_space("no_deps"), config, [(start, start + 2048) for start in starts])


@pytest.mark.parametrize("bound", ["tiny", "small"])
def test_the_ninety_model_space(bound):
    config = _config(bound, space="deps")
    space = _space("deps")
    assert space.num_models == 90
    total = count_naive_tests(config.enumeration_config())
    _assert_same(space, config, _ranges(total, 256))


@pytest.mark.parametrize(
    "enumeration,ranges",
    [
        (NaiveEnumerationConfig(num_threads=3, max_accesses_per_thread=1, max_locations=2), None),
        (
            NaiveEnumerationConfig(
                num_threads=3, max_accesses_per_thread=2, max_locations=2, allow_fences=False
            ),
            [(0, 2000), (9001, 11001), (20000, 22000), (32312, 34312)],
        ),
        (
            NaiveEnumerationConfig(num_threads=3, max_accesses_per_thread=2, max_locations=2),
            [(55555, 57055), (150000, 151500), (229971, 231471)],
        ),
    ],
)
def test_three_thread_tests_minimise_over_permutations(monkeypatch, enumeration, ranges):
    monkeypatch.setitem(BOUNDS, "three_threads", enumeration)
    config = _config("three_threads")
    if ranges is None:
        ranges = [(0, count_naive_tests(enumeration))]
    _assert_same(_space("no_deps"), config, ranges)


def test_ranges_that_start_and_stop_mid_combination():
    config = _config("small")
    space = _space("no_deps")
    total = count_naive_tests(config.enumeration_config())
    whole = _native_digests(space, config, 0, total)
    # Cut inside combinations of three or more outcomes, spread over the bound.
    inside, position = [], 0
    for _templates, choices, _skip in raw_naive_blocks(config.enumeration_config()):
        size = 1
        for options in choices:
            size *= len(options)
        inside.extend(range(position + 1, position + size))
        position += size
    assert position == total
    cuts = inside[:: len(inside) // 6]
    assert len(cuts) >= 6
    for start in cuts:
        for stop in (start + 1, min(start + 17, total), total):
            _assert_same(space, config, [(start, stop)])
            assert _native_digests(space, config, start, stop) == whole[start:stop]


def test_profiles_render_and_rebuild_exactly():
    """``profile(id)`` is the reference Profile tuple, and the rendering
    handed out with a fresh id is its repr."""
    space = AdaptiveSpace.build(model_space(include_data_dependencies=False))
    profiler = space.native_profiler().profiler
    renderings = []
    for _name, items in enumerate_raw_naive_items(BOUNDS["small"]):
        ids, fresh = profiler.profile_block(items, [], 0, 1)
        renderings.extend(fresh)
        expected = space.profile(items)
        assert profiler.profile(ids[0]) == expected
        assert renderings[ids[0]] == repr(expected).encode()
    assert len(renderings) == len(set(renderings))
    assert profile_digest(profiler.profile(0)) == repr_digest(renderings[0])
    with pytest.raises(IndexError):
        profiler.profile(len(renderings))


def test_a_retry_that_resets_seen_gets_its_groups_again():
    """A worker resets ``seen`` when a retried range arrives out of order;
    the ids the C table already knows must then report groups again."""
    config = _config("small")
    space = AdaptiveSpace.build(model_space(include_data_dependencies=False))
    first = _profile_range(space, config, 0, 600, set(), native=True)
    again = _profile_range(space, config, 0, 600, set(), native=True)
    assert again == first
    assert first == _profile_range(space, config, 0, 600, set())


def test_malformed_blocks_raise():
    profiler = _space("no_deps").native_profiler().profiler
    with pytest.raises(ValueError):
        profiler.profile_block(((("R", 0),),), [], 0, 1)  # a read without choices
    with pytest.raises(ValueError):
        profiler.profile_block(((("X", 0, 0),),), [], 0, 1)
    with pytest.raises(ValueError):
        profiler.profile_block(((("W", 99, 1),),), [], 0, 1)
