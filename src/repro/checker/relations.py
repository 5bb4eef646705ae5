"""Construction of the happens-before relation (Section 2.2).

Given a concrete execution, a memory model and a choice of

* read-from map ``rf`` (which store, or the initial value, every load reads), and
* coherence order ``co`` (a per-location total order of the stores),

the axioms of Section 2.2 *force* a set of happens-before edges:

* **program order**: ``x => y`` for same-thread pairs ordered by the model's
  must-not-reorder function ``F``;
* **write-read**: ``w => r`` when ``r`` reads from ``w`` and the two events
  are in *different* threads (a thread may see its own writes early, so a
  local read-from never creates an edge — this is what lets TSO forward from
  the store buffer in Figure 1);
* **write-write**: same-location stores are ordered by ``co``;
* **read-write** (a.k.a. from-read): a load ``r`` happens before every
  same-location store that is not coherence-before the store ``r`` reads
  from; a load of the initial value precedes every store to its location.

The *ignore local* axiom forbids happens-before edges that point against
program order inside a thread.  Following the paper's own use of the axioms
in Figure 1, only directly forced edges are subject to this check: a forced
anti-program-order edge makes the candidate (rf, co) pair invalid, while a
merely transitive backwards path does not.

The execution is allowed by the model iff there exists an (rf, co) choice
whose forced-edge digraph is acyclic.
"""

from __future__ import annotations

from itertools import permutations, product
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.core.events import Event
from repro.core.execution import Execution
from repro.core.model import MemoryModel
from repro.util.digraph import Digraph

#: A read-from map: load event -> store event or None (initial value).
ReadFromMap = Dict[Event, Optional[Event]]
#: A coherence order: location -> stores in order.
CoherenceOrder = Dict[str, Tuple[Event, ...]]
#: A forced happens-before edge.
HbEdge = Tuple[Event, Event, str]


class SemanticsError(ValueError):
    """Raised when an execution violates basic structural requirements."""


# ----------------------------------------------------------------------
# read-from candidates
# ----------------------------------------------------------------------
def read_from_candidates(execution: Execution, load: Event) -> List[Optional[Event]]:
    """Return the possible read-from sources for ``load``.

    A load may read from any store to the same location that wrote the
    observed value and is not program-order-later in the same thread, or from
    the initial value when the observed value matches it.  An empty list
    means the observed value is unobtainable and the whole execution is
    infeasible (forbidden under every model).
    """
    location = execution.location_of(load)
    value = execution.value_of(load)
    candidates: List[Optional[Event]] = []
    if value == execution.initial_value(location):
        candidates.append(None)
    for store in execution.stores_to(location):
        if execution.value_of(store) != value:
            continue
        if load.program_order_before(store) or load == store:
            continue  # cannot read from a program-order-later write
        candidates.append(store)
    return candidates


def enumerate_read_from_maps(execution: Execution) -> Iterator[ReadFromMap]:
    """Yield every read-from map consistent with the observed load values."""
    loads = execution.loads()
    candidate_lists = [read_from_candidates(execution, load) for load in loads]
    if any(not candidates for candidates in candidate_lists):
        return
    for choice in product(*candidate_lists):
        yield dict(zip(loads, choice))


# ----------------------------------------------------------------------
# coherence orders
# ----------------------------------------------------------------------
def enumerate_coherence_orders_reference(execution: Execution) -> Iterator[CoherenceOrder]:
    """Yield every per-location total store order consistent with program order.

    The original permute-then-filter enumeration, kept as the oracle path:
    the kernel generates the same per-location orders directly over event
    indices (:attr:`~repro.checker.kernel.IndexedExecution.
    coherence_orders_at`), and the test suite asserts the equivalence.
    """
    locations = execution.locations()
    per_location: List[List[Tuple[Event, ...]]] = []
    for location in locations:
        stores = execution.stores_to(location)
        orders = [
            ordering
            for ordering in permutations(stores)
            if _respects_program_order(ordering)
        ]
        per_location.append(orders)
    for combination in product(*per_location):
        yield dict(zip(locations, combination))


def _respects_program_order(ordering: Sequence[Event]) -> bool:
    for index, earlier in enumerate(ordering):
        for later in ordering[index + 1 :]:
            if later.program_order_before(earlier):
                return False
    return True


# ----------------------------------------------------------------------
# forced happens-before edges
# ----------------------------------------------------------------------
def program_order_edges(execution: Execution, model: MemoryModel) -> List[HbEdge]:
    """Return the program-order edges forced by the model's F.

    The model is evaluated through the plain-evaluator lowering of the
    compile layer (:mod:`repro.compile`): compiled once per process,
    dispatched per pair — formula interpretation overhead is paid at
    compile time, not here.
    """
    from repro.compile import compile_model, forced_po_pairs

    compiled = compile_model(model)
    return [
        (earlier, later, "po")
        for earlier, later in forced_po_pairs(execution, compiled)
    ]


def forced_edges(
    execution: Execution,
    model: MemoryModel,
    read_from: ReadFromMap,
    coherence: CoherenceOrder,
    program_order: Optional[List[HbEdge]] = None,
) -> Optional[List[HbEdge]]:
    """Return the forced happens-before edges, or None if the choice is invalid.

    ``None`` signals that some axiom would force an edge pointing against
    program order within a thread ("ignore local"), so no valid
    happens-before relation exists for this (rf, co) combination.

    ``program_order`` accepts the model's precomputed
    :func:`program_order_edges`, so a sweep over many (rf, co) choices
    evaluates the model once.
    """
    edges: List[HbEdge] = list(
        program_order_edges(execution, model) if program_order is None else program_order
    )

    coherence_position = {
        store: position
        for stores in coherence.values()
        for position, store in enumerate(stores)
    }

    # write-write (coherence) edges
    for location, stores in coherence.items():
        for i, earlier in enumerate(stores):
            for later in stores[i + 1 :]:
                if later.program_order_before(earlier):
                    return None  # coherence against program order
                edges.append((earlier, later, "co"))

    # write-read (external read-from) edges
    for load, store in read_from.items():
        if store is None or store.same_thread(load):
            continue
        edges.append((store, load, "rf"))

    # read-write (from-read) edges
    for load, source in read_from.items():
        location = execution.location_of(load)
        for other in coherence.get(location, ()):
            if other == source:
                continue
            if source is not None and coherence_position[other] < coherence_position[source]:
                continue  # other is coherence-before the source: no edge forced
            if other.program_order_before(load):
                return None  # would force an anti-program-order edge
            edges.append((load, other, "fr"))

    return edges


def happens_before_graph(execution: Execution, edges: Iterable[HbEdge]) -> Digraph:
    """Build the forced-edge digraph over every event of the execution."""
    graph = Digraph(execution.events)
    for source, target, _kind in edges:
        graph.add_edge(source, target)
    return graph


def is_consistent(execution: Execution, edges: Iterable[HbEdge]) -> bool:
    """Return True iff the forced-edge digraph is acyclic."""
    return happens_before_graph(execution, edges).is_acyclic()
