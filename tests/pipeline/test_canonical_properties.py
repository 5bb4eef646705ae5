"""Property-based soundness of the symmetry reduction.

The pipeline's whole premise is that checking one canonical representative
per symmetry class loses nothing: every model of the paper's class must
give the representative exactly the verdicts of the original test.  These
properties drive random tests (and random symmetry transformations of
them) through all three engine backends.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.checker.reference import EnumerationChecker
from repro.core.instructions import Fence, Load, Store
from repro.core.litmus import LitmusTest
from repro.core.parametric import parametric_model
from repro.core.program import Program, Thread
from repro.engine.engine import CheckEngine
from repro.pipeline.canonical import abstract_test, canonical_key, canonicalize

from tests.conftest import small_litmus_tests

_SETTINGS = settings(
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

#: A spread of the parametric space: SC, TSO, PSO, RMO-like and mixtures.
MODELS = [
    parametric_model(name) for name in ("M4444", "M4044", "M1044", "M1010", "M4140")
]

#: One persistent engine per backend; columns are evicted after each check,
#: so reuse across examples is safe and keeps the suite fast.
ENGINES = {backend: CheckEngine(backend) for backend in ("explicit", "sat")}
ORACLE = EnumerationChecker()


def _columns(test):
    """The test's verdict column on every backend and on the oracle."""
    columns = {
        backend: engine.check_column(test, MODELS) for backend, engine in ENGINES.items()
    }
    columns["enumeration"] = [ORACLE.check(test, model).allowed for model in MODELS]
    return columns


@_SETTINGS
@given(test=small_litmus_tests())
def test_representative_verdicts_match_original_on_every_backend(test):
    representative = canonicalize(test)
    representative.program.validate()
    assert _columns(test) == _columns(representative)


def _apply_symmetry(test, draw):
    """Rebuild the test under a random symmetry transformation."""
    items_per_thread = list(abstract_test(test))
    # Thread permutation.
    if draw(st.booleans()):
        items_per_thread.reverse()
    # Location renaming (a bijection on the names actually used).
    locations = sorted({item[1] for items in items_per_thread for item in items if item[0] != "F"})
    renamed = draw(st.permutations(locations)) if locations else []
    location_map = dict(zip(locations, renamed))
    # Per-location value renaming fixing 0 (bijection on 1..3).
    value_maps = {
        location: dict(zip((1, 2, 3), draw(st.permutations((1, 2, 3)))))
        for location in locations
    }

    threads = []
    read_values = {}
    for thread_index, items in enumerate(items_per_thread):
        instructions = []
        serial = 0
        for item in items:
            kind = item[0]
            if kind == "F":
                instructions.append(Fence(str(item[1])))
                continue
            location = location_map[item[1]]
            value = item[2] if item[2] == 0 else value_maps[item[1]][item[2]]
            if kind == "R":
                register = f"q{thread_index + 1}{serial}"
                serial += 1
                instructions.append(Load(register, location))
                read_values[(thread_index, len(instructions) - 1)] = value
            else:
                instructions.append(Store(location, value))
        threads.append(Thread(f"T{thread_index + 1}", instructions))
    return LitmusTest("transformed", Program(threads), read_values)


@_SETTINGS
@given(test=small_litmus_tests(), data=st.data())
def test_canonical_key_is_invariant_under_symmetry(test, data):
    transformed = _apply_symmetry(test, data.draw)
    assert canonical_key(transformed) == canonical_key(test)


@_SETTINGS
@given(test=small_litmus_tests(), data=st.data())
def test_transformed_tests_keep_their_verdicts(test, data):
    """The symmetry group really is verdict-preserving, member by member."""
    transformed = _apply_symmetry(test, data.draw)
    engine = ENGINES["explicit"]
    assert engine.check_column(test, MODELS) == engine.check_column(transformed, MODELS)


@_SETTINGS
@given(test=small_litmus_tests())
def test_canonicalize_idempotent(test):
    representative = canonicalize(test)
    assert canonical_key(representative) == canonical_key(test)
    again = canonicalize(representative)
    assert again.program == representative.program
    assert again.outcome == representative.outcome
