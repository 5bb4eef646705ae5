"""Differential validation of the kernel backends.

The ``native`` C extension must be *bit-identical* to the ``bigint``
reference: same po-pair masks, same verdicts, and the same
:data:`~repro.checker.kernel.KernelWitness` (or both ``None``) for every
execution and model.  The hypothesis suite here drives both backends over
random litmus tests and random parametric models and asserts exact
equality.  Those tests stay below 64 events, so a message-passing test of
n = 63, 64 and 65 events pins the C kernel against the bigint kernel
across the 64-bit word boundaries, where packing bugs live: the event
rows and the 961-1,024-bit po-pair masks there span several words.

The suite is runnable without the C extension — the native backend joins
the differential automatically when importable, and the native-only tests
skip otherwise.
"""

import pytest
from hypothesis import HealthCheck, given, settings

from repro.checker.kernel import IndexedExecution, KernelSearch
from repro.compile import compile_model
from repro.core.catalog import RMO, SC, TSO
from repro.core.instructions import Load, Store
from repro.core.litmus import LitmusTest
from repro.core.program import Program, Thread
from repro.native.backend import native_available, resolve_kernel
from repro.native.problem import WORD_BITS, kernel_problem, word_count

from tests.conftest import parametric_models, small_litmus_tests

#: Every backend available in this environment, bigint first (the reference).
BACKENDS = [resolve_kernel("bigint")]
if native_available():
    BACKENDS.append(resolve_kernel("native"))

needs_native = pytest.mark.skipif(not native_available(), reason="C extension not built")

_SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


# ----------------------------------------------------------------------
# full-backend differential: masks, witnesses, verdicts
# ----------------------------------------------------------------------
@_SETTINGS
@given(test=small_litmus_tests(), model=parametric_models())
def test_all_backends_compute_identical_masks(test, model):
    memory_model = model.to_memory_model()
    execution = test.execution()
    compiled = compile_model(memory_model)
    reference = None
    for backend in BACKENDS:
        # A fresh IndexedExecution per backend: no shared mask caches, so
        # each backend's evaluator actually runs.
        indexed = IndexedExecution(execution)
        (mask,) = backend.po_pair_masks(indexed, [compiled])
        if reference is None:
            reference = mask
        else:
            assert mask == reference, backend.name


@_SETTINGS
@given(test=small_litmus_tests(), model=parametric_models())
def test_all_backends_return_identical_witnesses(test, model):
    memory_model = model.to_memory_model()
    execution = test.execution()
    indexed = IndexedExecution(execution)
    if indexed.infeasible:
        return
    po_edges = indexed.po_edge_pairs(memory_model)
    reference = KernelSearch(indexed, po_edges).run()
    for backend in BACKENDS:
        witness = backend.search(IndexedExecution(execution), po_edges)
        assert witness == reference, backend.name


@_SETTINGS
@given(test=small_litmus_tests(), model=parametric_models())
def test_all_backends_agree_on_verdicts(test, model):
    memory_model = model.to_memory_model()
    execution = test.execution()
    indexed = IndexedExecution(execution)
    if indexed.infeasible:
        verdicts = {
            backend.name: backend.search(IndexedExecution(execution), []) is None
            for backend in BACKENDS
        }
        # Infeasible executions never have a witness on any backend.
        assert all(verdicts.values()), verdicts
        return
    mask = indexed.po_pair_mask(memory_model)
    reference = KernelSearch(indexed, indexed.po_edge_pairs(memory_model)).run() is not None
    for backend in BACKENDS:
        assert backend.allowed(IndexedExecution(execution), mask) == reference, backend.name


# ----------------------------------------------------------------------
# word boundaries: n = 63, 64, 65 events through the C kernel
# ----------------------------------------------------------------------
def test_word_count_covers_boundaries():
    assert word_count(0) == 1  # never a zero-length buffer
    assert word_count(1) == 1
    assert word_count(WORD_BITS) == 1
    assert word_count(WORD_BITS + 1) == 2
    assert word_count(2 * WORD_BITS) == 2
    assert word_count(2 * WORD_BITS + 1) == 3


def wide_message_passing(n):
    """Message passing over ``n`` events: T1 stores ``x0..x{k-1}`` (plus
    ``y`` when ``n`` is odd), T2 loads them in reverse and sees the last
    store (``x{k-1} = 1``) but none of the earlier ones (``x0 = 0``)."""
    k = n // 2
    writer = [Store(f"x{i}", 1) for i in range(k)] + ([Store("y", 1)] if n % 2 else [])
    reader = [Load(f"r{i}", f"x{i}") for i in reversed(range(k))]
    outcome = {(1, j): int(j == 0) for j in range(k)}
    return LitmusTest(f"MP{n}", Program([Thread("T1", writer), Thread("T2", reader)]), outcome)


@needs_native
@pytest.mark.parametrize("n", [63, 64, 65])
def test_native_matches_bigint_across_word_boundaries(n):
    bigint, native = resolve_kernel("bigint"), resolve_kernel("native")
    execution = wide_message_passing(n).execution()
    problem = kernel_problem(IndexedExecution(execution)).native
    assert problem.n == n
    assert problem.nw == word_count(n)
    assert problem.pw > 1  # the po-pair masks span several words

    models = (SC, TSO, RMO)
    compiled = [compile_model(model) for model in models]
    masks = bigint.po_pair_masks(IndexedExecution(execution), compiled)
    assert native.po_pair_masks(IndexedExecution(execution), compiled) == masks
    for entry, mask in zip(compiled, masks):
        assert native.po_pair_masks(IndexedExecution(execution), [entry]) == [mask]

    verdicts = {}
    for model in models:
        po_edges = IndexedExecution(execution).po_edge_pairs(model)
        witness = bigint.search(IndexedExecution(execution), po_edges)
        assert native.search(IndexedExecution(execution), po_edges) == witness, model.name
        verdicts[model.name] = witness is not None
    # Seeing x{k-1} = 1 but x0 = 0 needs W->W or R->R reordering: SC and
    # TSO keep both orders, RMO relaxes them.
    assert verdicts == {"SC": False, "TSO": False, "RMO": True}


@needs_native
def test_native_search_matches_kernel_search_on_named_tests():
    from repro.core.parametric import model_space
    from repro.generation.named_tests import L_TESTS, TEST_A

    native = resolve_kernel("native")
    models = model_space(include_data_dependencies=False)[:12]
    for test in [TEST_A] + list(L_TESTS):
        execution = test.execution()
        indexed = IndexedExecution(execution)
        if indexed.infeasible:
            continue
        for model in models:
            po_edges = indexed.po_edge_pairs(model)
            expected = KernelSearch(indexed, po_edges).run()
            assert native.search(IndexedExecution(execution), po_edges) == expected


@needs_native
def test_native_backend_reports_native():
    import os

    backend = resolve_kernel("native")
    assert backend.name == "native"
    assert backend.is_native
    auto = resolve_kernel("auto")
    if "REPRO_KERNEL" in os.environ:
        # auto honours the env override (e.g. the CI bigint leg)
        assert auto.name == os.environ["REPRO_KERNEL"]
    else:
        assert auto.name == "native"  # auto prefers the extension when built


# ----------------------------------------------------------------------
# batched C atom masks vs the Python per-node path
# ----------------------------------------------------------------------
@needs_native
@_SETTINGS
@given(test=small_litmus_tests(), model=parametric_models())
def test_batched_atom_masks_match_python_path(test, model):
    """`atom_buffer` (one C call for builtin atoms) must be bit-identical to
    the per-node Python masks, cold and warm."""
    from repro.native.flatprog import flat_program_multi, positive_atom_mask

    compiled = compile_model(model.to_memory_model())
    program = flat_program_multi([compiled.root])
    execution = test.execution()

    indexed = IndexedExecution(execution)
    row = 8 * word_count(len(indexed.po_pairs))
    reference = b"".join(
        positive_atom_mask(indexed, node).to_bytes(row, "little") for node in program.atoms
    )

    problem = kernel_problem(IndexedExecution(execution))
    assert problem.atom_buffer(program) == reference  # cold batch
    assert problem.atom_buffer(program) == reference  # fallback atoms memoized
