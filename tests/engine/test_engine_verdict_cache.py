"""Engine + verdict cache: interposition counters, bit-identical verdicts
with the cache on vs off (on both kernel legs), and persistence."""

import pytest

from repro.api.requests import ExhaustiveRequest
from repro.api.session import Session
from repro.cache import VerdictCache
from repro.core.catalog import named_models
from repro.core.model import MemoryModel
from repro.engine.engine import CheckEngine
from repro.generation.named_tests import L_TESTS
from repro.native.backend import native_available

from tests.conftest import KERNEL_LEGS


def _models():
    catalog = named_models()
    return [catalog["SC"], catalog["TSO"], catalog["RMO"]]


@pytest.mark.parametrize("kernel", KERNEL_LEGS)
def test_verdicts_bit_identical_with_cache_on_and_off(kernel):
    plain = CheckEngine(kernel=kernel)
    cached = CheckEngine(kernel=kernel, verdict_cache=VerdictCache())
    for model in _models():
        for test in L_TESTS:
            expected = plain.check(test, model)
            assert cached.check(test, model) is expected
            # warm repeat: answered from the cache, still identical
            assert cached.check(test, model) is expected


@pytest.mark.parametrize("kernel", KERNEL_LEGS)
def test_check_column_bit_identical_with_cache_on_and_off(kernel):
    models = _models()
    plain = CheckEngine(kernel=kernel)
    cached = CheckEngine(kernel=kernel, verdict_cache=VerdictCache())
    for test in L_TESTS:
        expected = plain.check_column(test, models)
        assert cached.check_column(test, models) == expected
        assert cached.check_column(test, models) == expected  # all-hit path


def test_hit_and_miss_counters():
    cache = VerdictCache()
    engine = CheckEngine(verdict_cache=cache)
    model = named_models()["TSO"]
    test = L_TESTS[0]
    assert cache.key_for(test, model) is not None  # cacheable pair

    engine.check(test, model)
    assert engine.stats.verdict_cache_misses == 1
    assert engine.stats.verdict_cache_hits == 0

    engine.check(test, model)
    assert engine.stats.verdict_cache_hits == 1
    assert engine.stats.checks_performed == 2


def test_column_hit_counters_count_whole_columns():
    models = _models()
    engine = CheckEngine(verdict_cache=VerdictCache())
    test = L_TESTS[0]
    engine.check_column(test, models)
    assert engine.stats.verdict_cache_misses == len(models)
    engine.check_column(test, models)
    assert engine.stats.verdict_cache_hits == len(models)


def test_uncacheable_model_bypasses_the_cache():
    cache = VerdictCache()
    engine = CheckEngine(verdict_cache=cache)
    opaque = MemoryModel("opaque", lambda execution, x, y: True)
    engine.check(L_TESTS[0], opaque)
    engine.check(L_TESTS[0], opaque)
    assert engine.stats.verdict_cache_hits == 0
    assert engine.stats.verdict_cache_misses == 0
    assert len(cache) == 0


def test_persisted_counter_requires_a_store(tmp_path):
    memory_only = CheckEngine(verdict_cache=VerdictCache())
    memory_only.check(L_TESTS[0], named_models()["TSO"])
    assert memory_only.stats.verdict_cache_persisted == 0

    persistent = CheckEngine(verdict_cache=VerdictCache.open(str(tmp_path)))
    persistent.check(L_TESTS[0], named_models()["TSO"])
    assert persistent.stats.verdict_cache_persisted == 1
    persistent.verdict_cache.close()


def test_warm_verdicts_survive_a_simulated_restart(tmp_path):
    model = named_models()["TSO"]
    probe = VerdictCache()
    # Only the canonicalizable Load/Store/Fence fragment is cacheable;
    # the dependency-idiom L tests legitimately bypass the cache.
    cacheable = [test for test in L_TESTS if probe.test_digest(test) is not None]
    assert cacheable  # the fragment is non-trivial

    first = CheckEngine(verdict_cache=VerdictCache.open(str(tmp_path)))
    expected = [first.check(test, model) for test in cacheable]
    first.verdict_cache.close()

    # "Restart": fresh engine, fresh cache object, same directory.
    second = CheckEngine(verdict_cache=VerdictCache.open(str(tmp_path)))
    assert [second.check(test, model) for test in cacheable] == expected
    assert second.stats.verdict_cache_hits == len(cacheable)
    assert second.stats.executions_evaluated == 0  # nothing re-evaluated


def test_stats_as_dict_matches_dataclass_fields():
    import dataclasses

    engine = CheckEngine()
    assert engine.stats.as_dict() == dataclasses.asdict(engine.stats)


def test_opaque_legacy_checkers_skip_the_cache():
    from repro.checker.result import CheckResult

    class HomebrewChecker:
        # Its semantics are whatever it does, so its verdicts must never
        # enter (or come from) the shared cache: the engine refuses it.
        def check(self, test, model, test_name=None):
            return CheckResult(allowed=True, test_name="", model_name="")

    cache = VerdictCache()
    with pytest.raises(TypeError):
        CheckEngine(backend=HomebrewChecker(), verdict_cache=cache)
    assert len(cache) == 0


@pytest.mark.skipif(not native_available(), reason="C extension not built")
def test_items_path_books_and_writes_what_the_object_path_does(tmp_path):
    """An exhaustive run checks ItemsTest objects on the native kernel and
    LitmusTest objects on bigint; both key the cache by the same canonical
    digests, so they book the same misses and puts and write the same
    persistent lines, and a repeat run is all cache hits."""
    legs = {}
    for kernel in ("native", "bigint"):
        directory = tmp_path / kernel
        cache = VerdictCache.open(str(directory))
        session = Session(engine=CheckEngine(kernel=kernel, verdict_cache=cache))
        first = session.run(ExhaustiveRequest(bound="small", jobs=1)).stats
        repeat = session.run(ExhaustiveRequest(bound="small", jobs=1)).stats
        cache.close()
        with open(directory / "verdicts.jsonl") as handle:
            lines = handle.read()
        legs[kernel] = (first, repeat, cache.stats, lines)
    (native, native_repeat, native_cache, native_lines) = legs["native"]
    (bigint, bigint_repeat, bigint_cache, bigint_lines) = legs["bigint"]
    assert native_lines == bigint_lines
    assert native_cache == bigint_cache
    for field in ("verdict_cache_misses", "verdict_cache_persisted", "verdict_cache_hits"):
        assert getattr(native, field) == getattr(bigint, field), field
    assert native.verdict_cache_misses == native.verdict_cache_persisted > 0
    assert native.verdict_cache_hits + native.verdict_cache_misses == native.checks_performed
    for repeat in (native_repeat, bigint_repeat):
        assert repeat.verdict_cache_hits == repeat.checks_performed > 0
        assert repeat.verdict_cache_misses == repeat.verdict_cache_persisted == 0
        assert repeat.native_searches == repeat.fallback_searches == 0
