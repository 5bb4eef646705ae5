"""The items path against the object path.

On the native kernel the pipeline hands the engine each enumerated test as
an :class:`~repro.generation.enumeration.ItemsTest`, and the C search
problem is built from the abstract items (``Problem.from_items``) with no
``LitmusTest``, ``Execution`` or ``IndexedExecution``.  The object path —
``test_from_items`` → ``IndexedExecution`` → :func:`kernel_problem` — stays
the reference, with ``bigint`` as the semantic one.  Here:

* the items-built problem equals the object-path problem table for table
  (plan, coherence orders, read-from candidates, program order and the
  atom-mask buffers), on every ``medium`` unique test and on a hypothesis
  sample of item shapes: fences, three threads, storeless locations and
  infeasible outcomes;
* masks, verdict rows (derivation on and off), witnesses and engine
  counters agree with ``bigint`` on every ``medium`` unique test;
* the items path materialises nothing for the builtin-atom model space,
  and materialises on demand for dependency atoms.
"""

from array import array
from itertools import chain

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.checker.kernel import IndexedExecution, KernelSearch
from repro.compile import compile_model
from repro.core.parametric import model_space
from repro.engine import CheckEngine
from repro.engine import context as engine_context
from repro.generation import enumeration
from repro.generation.enumeration import ItemsTest, enumerate_canonical_naive_items
from repro.native.backend import native_available, resolve_kernel
from repro.native.problem import items_problem, kernel_problem
from repro.pipeline.run import BOUNDS, _check_items

pytestmark = pytest.mark.skipif(not native_available(), reason="C extension not built")

MODELS = model_space(include_data_dependencies=False)
DEPS_MODELS = model_space(include_data_dependencies=True)

_MEDIUM = None


def medium_tests():
    """Every ``medium`` unique test as ``(name, items)``."""
    global _MEDIUM
    if _MEDIUM is None:
        _MEDIUM = [
            (name, items)
            for _key, name, items in enumerate_canonical_naive_items(BOUNDS["medium"])
        ]
    return _MEDIUM


def object_problem(name, items):
    return kernel_problem(IndexedExecution(enumeration.test_from_items(items, name).execution()))


def assert_same_tables(name, items):
    from repro.native import _kernelmod

    built = _kernelmod.Problem.from_items(items).fields()
    reference = object_problem(name, items).native.fields()
    assert built == reference, name


@st.composite
def item_tests(draw):
    """Abstract items of 1-3 threads of 1-4 reads, writes and fences over
    four locations; read values may match no write (infeasible) and a
    location may have no write at all (storeless)."""
    threads = []
    for _ in range(draw(st.integers(1, 3))):
        row = []
        for _ in range(draw(st.integers(1, 4))):
            kind = draw(st.sampled_from("RWF"))
            if kind == "F":
                row.append(("F", "full", 0))
            else:
                row.append((kind, draw(st.integers(0, 3)), draw(st.integers(0, 3))))
        threads.append(tuple(row))
    return tuple(threads)


_SETTINGS = settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


# ----------------------------------------------------------------------
# the tables
# ----------------------------------------------------------------------
def test_items_problem_tables_equal_the_object_path_on_medium():
    tests = medium_tests()
    assert len(tests) == 1253
    for name, items in tests:
        assert_same_tables(name, items)


@_SETTINGS
@given(items=item_tests())
def test_items_problem_tables_equal_the_object_path_on_item_shapes(items):
    assert_same_tables("H", items)


def test_item_shapes_cover_fences_threads_storeless_and_infeasible():
    from repro.native import _kernelmod

    # T1: W X=1; F; R Y=0    T2: R X=1; R Z=2 (Z has no store: infeasible)
    # T3: W Y=1
    items = (
        (("W", 0, 1), ("F", "full", 0), ("R", 1, 0)),
        (("R", 0, 1), ("R", 2, 2)),
        (("W", 1, 1),),
    )
    fields = _kernelmod.Problem.from_items(items).fields()
    assert fields["n"] == 6 and fields["num_pairs"] == 3 + 1
    assert fields["infeasible"] == 1
    assert list(fields["flags"]) == [2 | 8, 4, 1 | 8, 1 | 8, 1 | 8, 2 | 8]
    assert array("i", fields["locid"]).tolist() == [0, -1, 1, 0, 2, 1]
    assert_same_tables("S", items)
    feasible = (items[0], (("R", 0, 1), ("R", 2, 0)), items[2])
    assert not _kernelmod.Problem.from_items(feasible).infeasible
    assert_same_tables("S", feasible)


def test_malformed_items_raise():
    from repro.native import _kernelmod

    with pytest.raises(ValueError):
        _kernelmod.Problem.from_items(((("X", 0, 1),),))
    with pytest.raises(TypeError):
        _kernelmod.Problem.from_items(((("W", "X", 1),),))
    with pytest.raises(TypeError):
        _kernelmod.Problem.from_items(([("W", 0, 1)],))
    blank = _kernelmod.Problem.__new__(_kernelmod.Problem)
    for call in (blank.fields, lambda: blank.allowed(b""), lambda: blank.atom_masks(b"")):
        with pytest.raises(RuntimeError):
            call()


# ----------------------------------------------------------------------
# masks, witnesses, verdict rows and counters against bigint
# ----------------------------------------------------------------------
def test_masks_and_witnesses_agree_with_bigint_on_medium():
    native, bigint = resolve_kernel("native"), resolve_kernel("bigint")
    compiled = [compile_model(model) for model in MODELS]
    for name, items in medium_tests():
        test = enumeration.test_from_items(items, name)
        reference = engine_context.TestContext(test, bigint)
        context = engine_context.TestContext(ItemsTest(name, items), native)
        if reference.candidate_space().infeasible:
            assert context.candidate_space().infeasible, name
            continue
        masks = context.po_masks_column(compiled, kernel=native)
        assert masks == reference.po_masks_column(compiled, kernel=bigint), name
        indexed = reference.indexed()
        problem = context.candidate_space()
        for mask in set(masks):
            edges = [pair for p, pair in enumerate(indexed.po_pairs) if (mask >> p) & 1]
            expected = KernelSearch(indexed, edges).run()
            found = problem.native.search(array("i", chain.from_iterable(edges)).tobytes())
            witness = None if found is None else problem.witness(*found)
            assert witness == expected, (name, mask)
            assert native.allowed(problem, mask) == (expected is not None)


@pytest.mark.parametrize("derive", [False, True])
def test_verdict_rows_and_counters_agree_with_bigint_on_medium(derive):
    names, items_list = zip(*medium_tests())
    rows = {}
    stats = {}
    for kernel in ("native", "bigint"):
        engine = CheckEngine("explicit", kernel=kernel)
        rows[kernel], stats[kernel] = _check_items(engine, MODELS, names, items_list, derive)
    assert rows["native"] == rows["bigint"]
    native, bigint = stats["native"], stats["bigint"]
    assert native["native_searches"] == bigint["fallback_searches"] > 0
    for counts in (native, bigint):
        for key in ("kernel_backend", "native_searches", "fallback_searches"):
            counts.pop(key)
    assert native == bigint
    assert native["executions_evaluated"] == len(names)
    assert (native["derived_verdicts"] > 0) == derive


def test_items_path_materialises_nothing_for_builtin_atoms():
    engine = CheckEngine("explicit", kernel="native")
    for name, items in medium_tests()[:200]:
        test = ItemsTest(name, items)
        engine.check_column(test, MODELS, derive=True)
        assert test._test is None, name


def test_dependency_atoms_materialise_on_demand():
    """The 90-model space's DataDep atoms take the Python fallback: the
    items context materialises its test then, and the masks still agree."""
    native, bigint = resolve_kernel("native"), resolve_kernel("bigint")
    compiled = [compile_model(model) for model in DEPS_MODELS]
    for name, items in medium_tests()[:150]:
        test = ItemsTest(name, items)
        context = engine_context.TestContext(test, native)
        reference = engine_context.TestContext(enumeration.test_from_items(items, name), bigint)
        if context.candidate_space().infeasible:
            continue
        assert test._test is None
        masks = context.po_masks_column(compiled, kernel=native)
        assert test._test is not None
        assert masks == reference.po_masks_column(compiled, kernel=bigint), name


def test_items_problem_materialises_its_indexed_execution_lazily():
    name, items = medium_tests()[7]
    calls = []

    def materialise():
        calls.append(1)
        return IndexedExecution(enumeration.test_from_items(items, name).execution())

    problem = items_problem(items, materialise)
    assert not calls
    assert problem.indexed is problem.indexed
    assert calls == [1]


def test_non_native_engines_materialise_items_tests():
    name, items = medium_tests()[11]
    for engine in (CheckEngine("explicit", kernel="bigint"), CheckEngine("sat")):
        test = ItemsTest(name, items)
        column = engine.check_column(test, MODELS)
        assert test._test is not None
        assert column == CheckEngine("explicit", kernel="bigint").check_column(
            enumeration.test_from_items(items, name), MODELS
        )
