"""Unit tests for the bitset relation kernel (:mod:`repro.checker.kernel`)."""

import random

import pytest

from repro.checker.kernel import (
    INITIAL,
    IndexedExecution,
    KernelSearch,
    ReachabilityKernel,
)
from repro.checker.relations import (
    program_order_edges,
    read_from_candidates,
)
from repro.core.catalog import PSO, SC, TSO
from repro.core.instructions import Fence, Load, Store
from repro.core.litmus import LitmusTest
from repro.core.model import MemoryModel
from repro.core.program import Program, Thread
from repro.generation.named_tests import L_TESTS, TEST_A


def make_test(name, threads, outcome):
    return LitmusTest.from_register_outcome(name, Program(threads), outcome)


SB = make_test(
    "SB",
    [
        Thread("T1", [Store("X", 1), Load("r1", "Y")]),
        Thread("T2", [Store("Y", 1), Load("r2", "X")]),
    ],
    {"r1": 0, "r2": 0},
)


# ----------------------------------------------------------------------
# IndexedExecution
# ----------------------------------------------------------------------
def test_indexed_execution_numbers_events_and_relations():
    execution = SB.execution()
    ix = IndexedExecution(execution)
    assert ix.n == 4
    assert [ix.events[i] for i in range(4)] == execution.events
    # T1.0 (index 0) is program-order-before T1.1 (index 1), and nothing else.
    assert ix.po_before[1] == 1 << 0
    assert ix.po_before[0] == 0
    assert ix.same_thread[0] == 1 << 1
    # Stores/loads partition, per-location stores.
    assert ix.loads == (1, 3)
    assert ix.stores == (0, 2)
    assert ix.stores_at == {"X": (0,), "Y": (2,)}
    # Same-location masks relate the X store with the X load.
    assert ix.same_location[0] == 1 << 3
    assert ix.same_location[3] == 1 << 0


def test_indexed_rf_candidates_match_event_level_candidates():
    for test in [TEST_A, SB] + list(L_TESTS):
        execution = test.execution()
        ix = IndexedExecution(execution)
        for position, load_index in enumerate(ix.loads):
            expected = [
                INITIAL if source is None else ix.index_of[source]
                for source in read_from_candidates(execution, ix.events[load_index])
            ]
            assert list(ix.rf_candidates[position]) == expected


def test_indexed_infeasible_flag():
    bogus = make_test(
        "bogus",
        [Thread("T1", [Load("r1", "X")]), Thread("T2", [Store("X", 1)])],
        {"r1": 9},
    )
    assert IndexedExecution(bogus.execution()).infeasible
    assert not IndexedExecution(SB.execution()).infeasible


@pytest.mark.parametrize("model", [SC, TSO, PSO])
def test_vectorised_po_edges_match_event_level_edges(model):
    for test in [TEST_A, SB] + list(L_TESTS):
        execution = test.execution()
        ix = IndexedExecution(execution)
        expected = [
            (ix.index_of[x], ix.index_of[y])
            for x, y, _kind in program_order_edges(execution, model)
        ]
        assert ix.po_edge_pairs(model) == expected


def test_vectorised_po_edges_handle_negation_and_callables():
    execution = TEST_A.execution()
    ix = IndexedExecution(execution)
    negated = MemoryModel("not-fence", "!Fence(x) & !Fence(y)")
    expected = [
        (ix.index_of[x], ix.index_of[y])
        for x, y, _kind in program_order_edges(execution, negated)
    ]
    assert ix.po_edge_pairs(negated) == expected

    from_callable = MemoryModel("callable", lambda ex, x, y: x.is_write and y.is_read)
    expected = [
        (ix.index_of[x], ix.index_of[y])
        for x, y, _kind in program_order_edges(execution, from_callable)
    ]
    assert ix.po_edge_pairs(from_callable) == expected


def test_compiled_mask_programs_match_the_reference_interpreter():
    """The compile layer's bitmask lowering (hash-consed ModelIR) must agree
    bit-for-bit with ``_formula_mask``, the direct interpreter kept as the
    semantic reference."""
    from repro.compile import compile_model
    from repro.core.parametric import model_space

    models = model_space(include_data_dependencies=True)
    for test in [TEST_A, SB] + list(L_TESTS):
        ix = IndexedExecution(test.execution())
        for model in models:
            compiled = compile_model(model)
            assert compiled.kind == "formula", model.name
            assert compiled.mask_program(ix) == ix._formula_mask(
                model.formula, model.registry
            ), (test.name, model.name)


def test_uncacheable_nodes_still_evaluate_correctly(monkeypatch):
    """Past the hash-consing cap, IR nodes build unshared but stay correct."""
    import repro.compile as compile_package
    import repro.compile.ir as ir_module
    from repro.compile import compile_model

    monkeypatch.setattr(ir_module, "INTERN_LIMIT", 0)
    # Drop the warm intern table: with the limit at 0 nothing re-interns, so
    # this genuinely compiles through the uncached path (fresh node ids).
    compile_package.clear_caches()
    ix = IndexedExecution(TEST_A.execution())
    model = MemoryModel("capped", "(Write(x) & Write(y)) | Fence(x) | Fence(y)")
    compiled = compile_model(model)
    assert ir_module.interned_node_count() == 0
    assert compiled.mask_program(ix) == ix._formula_mask(model.formula, model.registry)


def test_atom_masks_are_cached_per_predicate():
    ix = IndexedExecution(TEST_A.execution())
    ix.po_edge_pairs(TSO)
    cached = dict(ix._atom_masks)
    ix.po_edge_pairs(TSO)
    assert ix._atom_masks == cached  # second evaluation reuses every mask


# ----------------------------------------------------------------------
# ReachabilityKernel
# ----------------------------------------------------------------------
def test_kernel_detects_cycles_and_self_loops():
    kernel = ReachabilityKernel(3)
    assert kernel.add_edge(0, 1)
    assert kernel.add_edge(1, 2)
    assert kernel.has_path(0, 2)
    assert not kernel.add_edge(2, 0)  # would close the cycle
    assert not kernel.add_edge(1, 1)  # self-loop
    # Refused insertions change nothing.
    assert kernel.has_path(0, 2) and not kernel.has_path(2, 0)


def test_kernel_undo_restores_reachability_exactly():
    kernel = ReachabilityKernel(4)
    assert kernel.add_edge(0, 1)
    snapshot = list(kernel.reach)
    mark = kernel.mark()
    assert kernel.add_edge(1, 2)
    assert kernel.add_edge(2, 3)
    assert kernel.has_path(0, 3)
    kernel.undo_to(mark)
    assert kernel.reach == snapshot
    # The undone edges can be reinserted and the graph completed differently.
    assert kernel.add_edge(3, 0)
    assert kernel.has_path(3, 1)


def test_kernel_matches_brute_force_on_random_edge_sequences():
    rng = random.Random(1234)
    for _round in range(50):
        n = rng.randint(2, 8)
        kernel = ReachabilityKernel(n)
        edges = set()
        for _step in range(rng.randint(1, 20)):
            u, v = rng.randrange(n), rng.randrange(n)
            inserted = kernel.add_edge(u, v)
            # Brute-force closure over the accepted edges.
            would_cycle = u == v or _reaches(edges, v, u)
            assert inserted == (not would_cycle)
            if inserted:
                edges.add((u, v))
        for a in range(n):
            for b in range(n):
                if a != b:
                    assert kernel.has_path(a, b) == _reaches(edges, a, b)


def _reaches(edges, source, target):
    frontier = [source]
    seen = set()
    while frontier:
        node = frontier.pop()
        for u, v in edges:
            if u == node and v not in seen:
                seen.add(v)
                frontier.append(v)
    return target in seen


def test_kernel_undo_interleaved_with_marks():
    kernel = ReachabilityKernel(5)
    marks = [kernel.mark()]
    snapshots = [list(kernel.reach)]
    for u, v in [(0, 1), (1, 2), (3, 4), (2, 3)]:
        assert kernel.add_edge(u, v)
        marks.append(kernel.mark())
        snapshots.append(list(kernel.reach))
    for mark, snapshot in zip(reversed(marks), reversed(snapshots)):
        kernel.undo_to(mark)
        assert kernel.reach == snapshot


# ----------------------------------------------------------------------
# KernelSearch
# ----------------------------------------------------------------------
def test_search_agrees_with_known_verdicts():
    ix = IndexedExecution(TEST_A.execution())
    assert KernelSearch(ix, ix.po_edge_pairs(TSO)).run() is not None
    assert KernelSearch(ix, ix.po_edge_pairs(SC)).run() is None

    sb = IndexedExecution(SB.execution())
    assert KernelSearch(sb, sb.po_edge_pairs(TSO)).run() is not None
    assert KernelSearch(sb, sb.po_edge_pairs(SC)).run() is None


def test_search_returns_a_valid_assignment():
    ix = IndexedExecution(TEST_A.execution())
    assignment = KernelSearch(ix, ix.po_edge_pairs(TSO)).run()
    assert assignment is not None
    rf_choice, coherence = assignment
    assert len(rf_choice) == len(ix.loads)
    for position, source in enumerate(rf_choice):
        assert source in ix.rf_candidates[position]
    assert set(coherence) == set(ix.locations)
    for location, order in coherence.items():
        assert sorted(order) == sorted(ix.stores_at[location])


def test_search_rejects_infeasible_executions():
    bogus = make_test(
        "bogus",
        [Thread("T1", [Load("r1", "X")]), Thread("T2", [Store("X", 1)])],
        {"r1": 9},
    )
    ix = IndexedExecution(bogus.execution())
    assert KernelSearch(ix, ix.po_edge_pairs(SC)).run() is None


def test_search_handles_fences_and_storeless_locations():
    test = make_test(
        "fence+pure-load",
        [
            Thread("T1", [Store("X", 1), Fence(), Load("r1", "Y")]),
            Thread("T2", [Load("r2", "X")]),
        ],
        {"r1": 0, "r2": 1},
    )
    ix = IndexedExecution(test.execution())
    # Y has no stores: the search plan must still cover the X decisions only.
    assert all(kind != "co" or item != "Y" for kind, item in KernelSearch(ix, []).plan)
    assert KernelSearch(ix, ix.po_edge_pairs(SC)).run() is not None
