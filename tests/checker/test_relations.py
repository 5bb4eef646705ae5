"""Tests for read-from candidates, coherence orders and forced edges."""


from repro.checker.kernel import IndexedExecution
from repro.checker.relations import (
    enumerate_coherence_orders_reference,
    enumerate_read_from_maps,
    forced_edges,
    happens_before_graph,
    program_order_edges,
    read_from_candidates,
)
from repro.core.catalog import SC, TSO
from repro.core.instructions import Load, Store
from repro.core.litmus import LitmusTest
from repro.core.program import Program, Thread
from repro.generation.named_tests import TEST_A


def sb_test(r1: int, r2: int) -> LitmusTest:
    program = Program(
        [
            Thread("T1", [Store("X", 1), Load("r1", "Y")]),
            Thread("T2", [Store("Y", 1), Load("r2", "X")]),
        ]
    )
    return LitmusTest.from_register_outcome("SB", program, {"r1": r1, "r2": r2})


def test_read_from_candidates_include_initial_and_matching_stores():
    execution = sb_test(0, 1).execution()
    load_y = execution.event(0, 1)
    load_x = execution.event(1, 1)
    assert read_from_candidates(execution, load_y) == [None]
    candidates = read_from_candidates(execution, load_x)
    assert len(candidates) == 1 and candidates[0].uid == "T1.0"


def test_read_from_candidates_exclude_later_stores_in_same_thread():
    program = Program([Thread("T1", [Load("r1", "X"), Store("X", 1)])])
    test = LitmusTest.from_register_outcome("RW", program, {"r1": 1})
    execution = test.execution()
    load = execution.event(0, 0)
    assert read_from_candidates(execution, load) == []  # cannot read the future write


def test_unobtainable_value_has_no_candidates():
    execution = sb_test(7, 0).execution()
    load_y = execution.event(0, 1)
    assert read_from_candidates(execution, load_y) == []
    assert list(enumerate_read_from_maps(execution)) == []


def test_enumerate_read_from_maps_counts():
    # Both reads see value 1; each read has exactly one candidate store.
    execution = sb_test(1, 1).execution()
    maps = list(enumerate_read_from_maps(execution))
    assert len(maps) == 1


def test_coherence_orders_respect_program_order():
    program = Program([Thread("T1", [Store("X", 1), Store("X", 2)]), Thread("T2", [Store("X", 3)])])
    execution = LitmusTest("coh", program, {}).execution()
    orders = list(enumerate_coherence_orders_reference(execution))
    # 3 stores to X, same-thread pair fixed in program order: 3 interleavings
    assert len(orders) == 3
    for order in orders:
        stores = order["X"]
        first_indices = [s.index for s in stores if s.thread_index == 0]
        assert first_indices == sorted(first_indices)


def test_direct_coherence_generation_matches_reference_sequence():
    """The kernel's index-level interleaving generator reproduces the
    permute-then-filter oracle's per-location orders exactly, in order."""
    programs = [
        Program([Thread("T1", [Store("X", 1), Store("X", 2)]), Thread("T2", [Store("X", 3)])]),
        Program(
            [
                Thread("T1", [Store("X", 1), Store("Y", 1), Store("X", 2)]),
                Thread("T2", [Store("X", 3), Store("Y", 2)]),
                Thread("T3", [Store("Y", 3)]),
            ]
        ),
        Program([Thread("T1", [Load("r1", "X")]), Thread("T2", [Store("X", 1)])]),
    ]
    for index, program in enumerate(programs):
        reads = {
            (t, i): 1
            for t, thread in enumerate(program.threads)
            for i, instruction in enumerate(thread.instructions)
            if isinstance(instruction, Load)
        }
        execution = LitmusTest(f"coh{index}", program, reads).execution()
        indexed = IndexedExecution(execution)
        index_of = {event: i for i, event in enumerate(indexed.events)}
        # The oracle yields whole combinations; project each location's
        # distinct orders, in first-appearance order.
        reference = {location: [] for location in indexed.locations}
        for combination in enumerate_coherence_orders_reference(execution):
            for location, stores in combination.items():
                order = tuple(index_of[store] for store in stores)
                if order not in reference[location]:
                    reference[location].append(order)
        direct = {
            location: list(orders)
            for location, orders in indexed.coherence_orders_at.items()
        }
        assert direct == reference


def test_kernel_store_orders_count_interleavings():
    program = Program(
        [Thread("T1", [Store("X", 1), Store("X", 2)]), Thread("T2", [Store("X", 3), Store("X", 4)])]
    )
    execution = LitmusTest("interleave", program, {}).execution()
    indexed = IndexedExecution(execution)
    orders = indexed.coherence_orders_at["X"]
    assert len(orders) == 6  # C(4, 2) interleavings of two chains of two
    assert indexed._store_orders(()) == ((),)
    events = indexed.events
    for order in orders:
        for i, earlier in enumerate(order):
            assert not any(
                events[later].program_order_before(events[earlier]) for later in order[i + 1 :]
            )


def test_program_order_edges_depend_on_model():
    execution = TEST_A.execution()
    sc_edges = program_order_edges(execution, SC)
    tso_edges = program_order_edges(execution, TSO)
    assert len(sc_edges) > len(tso_edges)
    # TSO has no edge from T2's store to its first load (store forwarding)
    t2_store = execution.event(1, 0)
    t2_load = execution.event(1, 1)
    assert not any(a == t2_store and b == t2_load for a, b, _ in tso_edges)
    assert any(a == t2_store and b == t2_load for a, b, _ in sc_edges)


def test_forced_edges_reject_anti_program_order_from_read():
    # T1 writes X then reads X but observes the initial value: impossible.
    program = Program([Thread("T1", [Store("X", 1), Load("r1", "X")])])
    test = LitmusTest.from_register_outcome("fwd", program, {"r1": 0})
    execution = test.execution()
    read_from = {execution.event(0, 1): None}
    coherence = {"X": (execution.event(0, 0),)}
    assert forced_edges(execution, SC, read_from, coherence) is None
    assert forced_edges(execution, TSO, read_from, coherence) is None


def test_forced_edges_for_test_a_under_tso_are_acyclic():
    execution = TEST_A.execution()
    loads = execution.loads()
    read_from = {
        loads[0]: None,  # T1 reads Y = 0 (initial)
        loads[1]: execution.event(1, 0),  # T2 forwards its own store to Y
        loads[2]: None,  # T2 reads X = 0 (initial)
    }
    coherence = {location: tuple(execution.stores_to(location)) for location in execution.locations()}
    edges = forced_edges(execution, TSO, read_from, coherence)
    assert edges is not None
    assert happens_before_graph(execution, edges).is_acyclic()
    # Under SC the same choice forces a cycle.
    sc_edges = forced_edges(execution, SC, read_from, coherence)
    assert sc_edges is not None
    assert not happens_before_graph(execution, sc_edges).is_acyclic()


def test_local_read_from_creates_no_edge():
    execution = TEST_A.execution()
    loads = execution.loads()
    read_from = {loads[0]: None, loads[1]: execution.event(1, 0), loads[2]: None}
    coherence = {location: tuple(execution.stores_to(location)) for location in execution.locations()}
    edges = forced_edges(execution, TSO, read_from, coherence)
    rf_edges = [(a.uid, b.uid) for a, b, kind in edges if kind == "rf"]
    assert ("T2.0", "T2.1") not in rf_edges
