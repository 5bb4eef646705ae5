"""Bitset relation kernel for the explicit checker.

The explicit backend used to materialise the full Cartesian product of
read-from maps and coherence orders and run a fresh :class:`Digraph`
acyclicity check over :class:`Event` objects for every combination.  This
module replaces that machinery with an *indexed* view of an execution and a
backtracking search with constraint propagation:

* :class:`IndexedExecution` numbers the events ``0..n-1`` and precomputes,
  once per test, every model-independent relation the search needs as Python
  ints used as bitmasks: program order, same-thread and same-location masks,
  per-load read-from candidates and per-location program-order-respecting
  store orders.  It also evaluates must-not-reorder functions vectorised:
  models are compiled through :mod:`repro.compile` to a hash-consed ModelIR
  whose bitmask lowering turns each predicate atom into one bitmask over the
  same-thread event pairs, so deriving a model's program-order edges is a
  single DAG traversal of bitwise operations (memoized per distinct subtree
  per execution, shared across every model of a space) instead of one
  evaluator call per pair.
* :class:`ReachabilityKernel` is an incremental cycle detector: it maintains
  per-node reachability bitsets under edge insertion (``O(n)`` int
  operations per edge) and undoes insertions in ``O(edges)`` on backtrack.
* :class:`KernelSearch` assigns per-location coherence orders and per-load
  read-from sources one decision at a time, emitting the forced ``co`` /
  ``rf`` / ``fr`` edges as they become determined and pruning the entire
  subtree the moment the partial forced-edge graph acquires a cycle or an
  anti-program-order edge.

The semantics is exactly that of :mod:`repro.checker.relations`; the
enumerating oracle in :mod:`repro.checker.reference` cross-validates it.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.events import Event
from repro.core.execution import Execution
from repro.core.formula import (
    And,
    Atom,
    FalseFormula,
    Formula,
    FormulaError,
    Not,
    Or,
    TrueFormula,
)
from repro.core.model import MemoryModel
from repro.core.predicates import (
    ANY_DEP,
    CTRL_DEP,
    DATA_DEP,
    FENCE,
    MEMORY_ACCESS,
    Predicate,
    READ,
    SAME_ADDR,
    WRITE,
    shared_registry,
)
#: Read-from source index standing for "reads the initial value".
INITIAL = -1

#: An edge between event indices.
IndexEdge = Tuple[int, int]

#: A complete assignment found by the search: (read-from source per load, in
#: ``IndexedExecution.loads`` order, and the chosen store order per location).
KernelWitness = Tuple[Tuple[int, ...], Dict[str, Tuple[int, ...]]]


class _UnsupportedFormula(Exception):
    """A formula node the vectorised evaluator does not know (user subclass)."""


#: Built-in unary predicates answered from event traits (no evaluator call).
_UNARY_TRAITS: Dict[Predicate, str] = {
    READ: "is_read",
    WRITE: "is_write",
    FENCE: "is_fence",
    MEMORY_ACCESS: "is_memory_access",
}


class IndexedExecution:
    """An execution indexed for the bitset kernel.

    Everything here is model-independent and is computed exactly once per
    test; :class:`~repro.engine.context.TestContext` caches instances across
    the models of an exploration.  The search itself consumes ``po_before``,
    ``thread_of``, ``location_of``, ``stores_at``, ``rf_candidates`` and
    ``coherence_orders_at``; the ``same_thread`` / ``same_location`` masks
    round out the relation view for predicate-style consumers and tests.
    """

    def __init__(self, execution: Execution) -> None:
        self.execution = execution
        self.events: List[Event] = list(execution.events)
        self.n = len(self.events)
        # Event -> index table, built lazily (hashing events recurses through
        # their instruction dataclasses; internal construction only needs
        # positions, since ``events`` is thread-major).
        self._index_of: Optional[Dict[Event, int]] = None
        self.thread_of: List[int] = [event.thread_index for event in self.events]

        #: bit ``j`` of ``po_before[i]``: event j is program-order-before event i
        self.po_before: List[int] = [0] * self.n
        #: bit ``j`` of ``same_thread[i]``: events i and j share a thread
        self.same_thread: List[int] = [0] * self.n
        # program-order position within the event's thread (monotone in
        # ``Event.index``, so it orders same-thread events identically)
        self._pos_in_thread: List[int] = [0] * self.n
        # events_by_thread lists each thread's events in program order and
        # ``events`` flattens it thread-major, so each thread's indices are
        # the consecutive range and one linear pass replaces the all-pairs
        # scan (and any per-event dict lookups).
        offset = 0
        for thread_events in execution.events_by_thread:
            indices = range(offset, offset + len(thread_events))
            offset += len(thread_events)
            thread_mask = 0
            for i in indices:
                thread_mask |= 1 << i
            before = 0
            for position, i in enumerate(indices):
                bit = 1 << i
                self.same_thread[i] = thread_mask & ~bit
                self.po_before[i] = before
                self._pos_in_thread[i] = position
                before |= bit

        # One pass fills the load/store indices, the locations in first-use
        # order, the per-location store indices and the location table —
        # the same shapes execution.locations()/stores_to() would produce,
        # without their per-call event-dict traversals.
        loads: List[int] = []
        stores: List[int] = []
        locations: List[str] = []
        stores_by_location: Dict[str, List[int]] = {}
        location_of: List[Optional[str]] = []
        exec_location_of = execution.location_of
        for i, event in enumerate(self.events):
            if event.is_memory_access:
                location = exec_location_of(event)
                location_of.append(location)
                if location not in stores_by_location:
                    locations.append(location)
                    stores_by_location[location] = []
                if event.is_read:
                    loads.append(i)
                else:
                    stores.append(i)
                    stores_by_location[location].append(i)
            else:
                location_of.append(None)
        #: load event indices, in event order
        self.loads: Tuple[int, ...] = tuple(loads)
        #: store event indices, in event order
        self.stores: Tuple[int, ...] = tuple(stores)
        #: locations in first-use order, and per-location store indices
        self.locations: Tuple[str, ...] = tuple(locations)
        self.stores_at: Dict[str, Tuple[int, ...]] = {
            location: tuple(indices) for location, indices in stores_by_location.items()
        }
        self.location_of: List[Optional[str]] = location_of
        #: bit ``j`` of ``same_location[i]``: j accesses the same location as i
        self.same_location: List[int] = [0] * self.n
        members_of: Dict[str, List[int]] = {}
        for i, location in enumerate(self.location_of):
            if location is not None:
                members_of.setdefault(location, []).append(i)
        for members in members_of.values():
            mask = 0
            for i in members:
                mask |= 1 << i
            for i in members:
                self.same_location[i] = mask & ~(1 << i)

        #: per-load read-from candidates as indices (``INITIAL`` = initial value)
        # Index-level twin of relations.read_from_candidates (differentially
        # tested against it): INITIAL first when the observed value matches
        # the initial one, then matching-value stores in stores_to order,
        # skipping program-order-later same-thread stores.
        values: List[Optional[int]] = [
            execution.value_of(event) if event.is_memory_access else None
            for event in self.events
        ]
        thread_of = self.thread_of
        pos_in_thread = self._pos_in_thread
        rf: List[Tuple[int, ...]] = []
        for load in self.loads:
            location = self.location_of[load]
            value = values[load]
            thread = thread_of[load]
            position = pos_in_thread[load]
            candidates: List[int] = []
            if value == execution.initial_value(location):
                candidates.append(INITIAL)
            for store in self.stores_at[location]:
                if values[store] == value and not (
                    thread_of[store] == thread and pos_in_thread[store] > position
                ):
                    candidates.append(store)
            rf.append(tuple(candidates))
        self.rf_candidates: Tuple[Tuple[int, ...], ...] = tuple(rf)
        #: True iff some load's observed value is unobtainable
        self.infeasible = any(not candidates for candidates in self.rf_candidates)

        # Built lazily: infeasible executions (common among enumerated
        # candidate outcomes) never pay for materialising the store orders.
        self._coherence_orders_at: Optional[Dict[str, Tuple[Tuple[int, ...], ...]]] = None

        # Same-thread program-order pairs in the order program_order_edges()
        # visits them: per thread, (earlier, later) with earlier first.
        pairs: List[IndexEdge] = []
        offset = 0
        for thread_events in execution.events_by_thread:
            end = offset + len(thread_events)
            for u in range(offset, end):
                for v in range(u + 1, end):
                    pairs.append((u, v))
            offset = end
        self.po_pairs: Tuple[IndexEdge, ...] = tuple(pairs)
        self.all_pairs_mask = (1 << len(pairs)) - 1

        self._atom_masks: Dict[Tuple[Predicate, Tuple[str, ...]], int] = {}
        # Per-execution masks of hash-consed ModelIR nodes, keyed by
        # node id (see repro.compile.lower_masks); subtrees shared across
        # a model space evaluate once per execution.
        self._node_masks: Dict[int, int] = {}

    @property
    def index_of(self) -> Dict[Event, int]:
        """Event -> index table (``events`` order), built on first use."""
        if self._index_of is None:
            self._index_of = {event: i for i, event in enumerate(self.events)}
        return self._index_of

    @property
    def coherence_orders_at(self) -> Dict[str, Tuple[Tuple[int, ...], ...]]:
        """Per-location program-order-respecting store orders (index tuples).

        The word-array kernels consume these through
        :func:`repro.native.problem.kernel_problem`, which caches the
        flattened form on this instance — so differential runs pay the
        enumeration once however many backends check the execution.
        """
        if self._coherence_orders_at is None:
            self._coherence_orders_at = {
                location: self._store_orders(self.stores_at[location])
                for location in self.locations
            }
        return self._coherence_orders_at

    def _store_orders(self, stores: Tuple[int, ...]) -> Tuple[Tuple[int, ...], ...]:
        """Every total order of ``stores`` that respects program order.

        Same-thread stores stay in program order (the opposite orientation
        would force an anti-program-order edge), so the valid orders are
        the interleavings of the per-thread store chains.  They are
        generated directly over event indices — no permute-then-filter —
        in the lexicographic order (by position in ``stores``) that
        filtering ``itertools.permutations`` produces; the test suite holds
        them equal to :func:`relations.enumerate_coherence_orders_reference`.
        """
        if not stores:
            return ((),)
        chains: Dict[int, List[int]] = {}
        for store in stores:
            chains.setdefault(self.thread_of[store], []).append(store)
        pos_in_thread = self._pos_in_thread
        for chain in chains.values():
            chain.sort(key=pos_in_thread.__getitem__)
        position = {store: index for index, store in enumerate(stores)}

        results: List[Tuple[int, ...]] = []
        prefix: List[int] = []
        heads = {thread: 0 for thread in chains}

        def extend() -> None:
            if len(prefix) == len(stores):
                results.append(tuple(prefix))
                return
            ready = sorted(
                (position[chain[heads[thread]]], thread)
                for thread, chain in chains.items()
                if heads[thread] < len(chain)
            )
            for _, thread in ready:
                store = chains[thread][heads[thread]]
                prefix.append(store)
                heads[thread] += 1
                extend()
                prefix.pop()
                heads[thread] -= 1

        extend()
        return tuple(results)

    # ------------------------------------------------------------------
    # vectorised program-order edges
    # ------------------------------------------------------------------
    def po_edge_pairs(self, model: MemoryModel) -> List[IndexEdge]:
        """Return the model's forced program-order edges as index pairs.

        The model is compiled once per process through :mod:`repro.compile`
        (formula models become hash-consed IR DAGs; callables and user
        formula subclasses become opaque ``call`` atoms) and its bitmask
        lowering is evaluated over this execution, memoized per IR node in
        ``_node_masks`` — so even a whole model space costs each distinct
        subformula once per execution.
        """
        mask = self.po_pair_mask(model)
        return [pair for p, pair in enumerate(self.po_pairs) if (mask >> p) & 1]

    def po_pair_mask(self, model: MemoryModel) -> int:
        """The model's forced-pair truth vector over ``po_pairs`` as a bitmask."""
        from repro.compile import compile_model

        return compile_model(model).mask_program(self)

    def _formula_mask(
        self, formula: Formula, registry: Optional[Dict[str, Predicate]] = None
    ) -> int:
        """Interpret a formula over the po-pair bitmasks (reference path).

        ``po_edge_pairs`` answers through the compiled ModelIR lowering of
        :mod:`repro.compile.lower_masks`; this direct interpreter is kept
        as the semantic reference the compiler is cross-validated against
        (``tests/checker/test_kernel.py`` and the hypothesis differential
        suite) — a new :class:`Formula` node type must be taught to both.

        ``registry`` defaults to the process-wide built-in registry
        (:func:`repro.core.predicates.shared_registry`) instead of a fresh
        per-call dict; pass a model's registry for custom vocabularies.
        """
        if registry is None:
            registry = shared_registry()
        if isinstance(formula, TrueFormula):
            return self.all_pairs_mask
        if isinstance(formula, FalseFormula):
            return 0
        if isinstance(formula, Atom):
            predicate = registry.get(formula.predicate)
            if predicate is None:
                raise FormulaError(f"unknown predicate {formula.predicate!r}")
            return self._atom_mask(predicate, formula.args)
        if isinstance(formula, Not):
            return self.all_pairs_mask & ~self._formula_mask(formula.operand, registry)
        if isinstance(formula, And):
            mask = self.all_pairs_mask
            for operand in formula.operands:
                mask &= self._formula_mask(operand, registry)
                if not mask:
                    break
            return mask
        if isinstance(formula, Or):
            mask = 0
            for operand in formula.operands:
                mask |= self._formula_mask(operand, registry)
                if mask == self.all_pairs_mask:
                    break
            return mask
        raise _UnsupportedFormula(type(formula).__name__)

    def _atom_mask(self, predicate: Predicate, args: Tuple[str, ...]) -> int:
        """The atom's truth vector over ``po_pairs``, cached per (predicate, args).

        Built-in predicates bypass the generic evaluator: unary traits read
        event attributes directly, ``SameAddr`` compares the precomputed
        ``location_of`` table, and the dependency predicates call the
        execution's bound methods without building argument tuples.  Custom
        predicates take the generic per-pair path.
        """
        key = (predicate, args)
        cached = self._atom_masks.get(key)
        if cached is not None:
            return cached
        events = self.events
        po_pairs = self.po_pairs
        mask = 0
        trait = _UNARY_TRAITS.get(predicate)
        if trait is not None and len(args) == 1:
            want_x = args[0] == "x"
            flags = [getattr(event, trait) for event in events]
            for p, (u, v) in enumerate(po_pairs):
                if flags[u if want_x else v]:
                    mask |= 1 << p
        elif predicate is SAME_ADDR and len(args) == 2:
            # same_address(x, y) == both memory accesses at one location.
            location_of = self.location_of
            first_x, second_x = args[0] == "x", args[1] == "x"
            for p, (u, v) in enumerate(po_pairs):
                a = location_of[u if first_x else v]
                if a is not None and a == location_of[u if second_x else v]:
                    mask |= 1 << p
        elif predicate in (DATA_DEP, CTRL_DEP, ANY_DEP) and len(args) == 2:
            data = self.execution.data_dependent
            ctrl = self.execution.control_dependent
            first_x, second_x = args[0] == "x", args[1] == "x"
            for p, (u, v) in enumerate(po_pairs):
                a = events[u if first_x else v]
                b = events[u if second_x else v]
                if predicate is DATA_DEP:
                    value = data(a, b)
                elif predicate is CTRL_DEP:
                    value = ctrl(a, b)
                else:
                    value = data(a, b) or ctrl(a, b)
                if value:
                    mask |= 1 << p
        else:
            execution = self.execution
            for p, (u, v) in enumerate(po_pairs):
                pair_events = tuple(
                    events[u] if arg == "x" else events[v] for arg in args
                )
                if predicate.arity == 1:
                    if len(pair_events) != 1:
                        raise FormulaError(f"predicate {predicate.name} is unary")
                    value = predicate.evaluate(execution, pair_events[0])
                else:
                    if len(pair_events) != 2:
                        raise FormulaError(f"predicate {predicate.name} is binary")
                    value = predicate.evaluate(execution, pair_events[0], pair_events[1])
                if value:
                    mask |= 1 << p
        self._atom_masks[key] = mask
        return mask


class ReachabilityKernel:
    """Incremental cycle detection over ``n`` nodes with O(edges) undo.

    ``reach[i]`` is the bitmask of nodes reachable from node ``i`` along the
    edges inserted so far.  Inserting ``u -> v`` updates the reachability of
    every node that reaches ``u`` (at most ``n`` int operations) and records
    the overwritten bitsets on a trail; :meth:`undo_to` restores them.
    """

    def __init__(self, n: int) -> None:
        self.n = n
        self.reach: List[int] = [0] * n
        self._trail: List[Tuple[int, int]] = []

    def add_edge(self, u: int, v: int) -> bool:
        """Insert ``u -> v``; return False (and change nothing) on a cycle."""
        reach = self.reach
        if u == v or (reach[v] >> u) & 1:
            return False
        gain = reach[v] | (1 << v)
        trail = self._trail
        for w in range(self.n):
            old = reach[w]
            if w != u and not (old >> u) & 1:
                continue
            new = old | gain
            if new != old:
                trail.append((w, old))
                reach[w] = new
        return True

    def add_edges(self, edges: Sequence[IndexEdge]) -> bool:
        """Insert several edges; False on the first cycle (partial inserts stay
        on the trail, so callers undo to their own mark)."""
        for u, v in edges:
            if not self.add_edge(u, v):
                return False
        return True

    def mark(self) -> int:
        """Return an undo mark for the current trail position."""
        return len(self._trail)

    def undo_to(self, mark: int) -> None:
        """Restore every reachability bitset recorded after ``mark``."""
        trail = self._trail
        reach = self.reach
        while len(trail) > mark:
            w, old = trail.pop()
            reach[w] = old

    def has_path(self, u: int, v: int) -> bool:
        """Return True iff a path ``u -> ... -> v`` exists."""
        return bool((self.reach[u] >> v) & 1)


class KernelSearch:
    """Backtracking search for an acyclic forced-edge relation.

    Decisions are interleaved per location: first the location's coherence
    order (chain ``co`` edges), then the read-from source of every load of
    that location (``rf`` edge when external, plus the ``fr`` edges the pair
    of choices forces).  Each decision's edges go through the reachability
    kernel; a cycle or an anti-program-order ``fr`` edge prunes the subtree.
    """

    def __init__(self, indexed: IndexedExecution, po_edges: Sequence[IndexEdge]) -> None:
        self.ix = indexed
        self.po_edges = po_edges
        self.kernel = ReachabilityKernel(indexed.n)
        # Decision plan: ("co", location) and ("rf", position-in-loads).
        self.plan: List[Tuple[str, object]] = []
        loads_of: Dict[str, List[int]] = {}
        for position, load in enumerate(indexed.loads):
            location = indexed.location_of[load]
            loads_of.setdefault(location, []).append(position)
        for location in indexed.locations:
            if not indexed.stores_at[location]:
                continue  # nothing to order, and loads here force no edges
            self.plan.append(("co", location))
            for position in loads_of.get(location, ()):
                self.plan.append(("rf", position))
        # Search state.
        self.rf_choice: List[int] = [INITIAL] * len(indexed.loads)
        self.co_choice: Dict[str, Tuple[int, ...]] = {}
        self.co_position: Dict[int, int] = {}

    # ------------------------------------------------------------------
    def run(self) -> Optional[KernelWitness]:
        """Return a witnessing assignment, or None when none is acyclic."""
        if self.ix.infeasible:
            return None
        if not self.kernel.add_edges(self.po_edges):
            return None  # unreachable: program order alone is acyclic
        if not self._search(0):
            return None
        coherence = {
            location: self.co_choice.get(location, ()) for location in self.ix.locations
        }
        return tuple(self.rf_choice), coherence

    # ------------------------------------------------------------------
    def _search(self, depth: int) -> bool:
        if depth == len(self.plan):
            return True
        kind, item = self.plan[depth]
        if kind == "co":
            return self._search_coherence(depth, item)
        return self._search_read_from(depth, item)

    def _search_coherence(self, depth: int, location: str) -> bool:
        kernel = self.kernel
        for order in self.ix.coherence_orders_at[location]:
            mark = kernel.mark()
            # Chain edges are reachability-equivalent to the full co order.
            ok = all(
                kernel.add_edge(order[i], order[i + 1]) for i in range(len(order) - 1)
            )
            if ok:
                self.co_choice[location] = order
                for position, store in enumerate(order):
                    self.co_position[store] = position
                if self._search(depth + 1):
                    return True
                del self.co_choice[location]
            kernel.undo_to(mark)
        return False

    def _search_read_from(self, depth: int, position: int) -> bool:
        ix = self.ix
        kernel = self.kernel
        load = ix.loads[position]
        order = self.co_choice[ix.location_of[load]]
        po_before_load = ix.po_before[load]
        for source in ix.rf_candidates[position]:
            mark = kernel.mark()
            ok = True
            if source != INITIAL and ix.thread_of[source] != ix.thread_of[load]:
                ok = kernel.add_edge(source, load)  # external rf edge
            if ok:
                # from-read edges: the load precedes every store that is not
                # coherence-before its source.
                later = order if source == INITIAL else order[self.co_position[source] + 1 :]
                for other in later:
                    if other == source:
                        continue
                    if (po_before_load >> other) & 1:
                        ok = False  # would force an anti-program-order edge
                        break
                    if not kernel.add_edge(load, other):
                        ok = False
                        break
            if ok:
                self.rf_choice[position] = source
                if self._search(depth + 1):
                    return True
            kernel.undo_to(mark)
        return False
