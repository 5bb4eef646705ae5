"""Flattened, model-independent search problems for the C kernel.

A :class:`KernelProblem` is everything :class:`~repro.checker.kernel.
KernelSearch` derives from an :class:`~repro.checker.kernel.IndexedExecution`
— the decision plan, the per-location coherence orders, the per-load
read-from candidates, program order — flattened into tuples, typed arrays
and word buffers that the C extension consumes directly.

Building it is the word-array form of the caching the bigint path gets from
``IndexedExecution.coherence_orders_at``: the problem is computed once per
execution (memoized on the ``IndexedExecution`` itself) and shared by every
model checked against that execution.

The plan replicates ``KernelSearch``'s construction *exactly* — locations
in ``ix.locations`` order skipping storeless ones, each location's loads in
``ix.loads`` position order right after its coherence decision, coherence
orders in ``coherence_orders_at`` enumeration order, read-from candidates
in ``rf_candidates`` order — because witness identity across backends (a
tested guarantee) depends on identical decision iteration.
"""

from __future__ import annotations

from array import array
from itertools import chain
from typing import Dict, List, Optional, Tuple

from repro.checker.kernel import IndexedExecution
from repro.core.predicates import FENCE, MEMORY_ACCESS, READ, SAME_ADDR, WRITE

#: Bits per word of every word-array bitset in this package.  Bitsets are
#: little-endian word arrays: bit ``i`` lives in word ``i >> 6`` at position
#: ``i & 63``, byte-identical to ``int.to_bytes(..., "little")`` padded to
#: the word count, which is how the Python-int masks cross into C.
WORD_BITS = 64
_WORD_MASK = (1 << WORD_BITS) - 1

#: plan-step kinds in the flattened plan arrays
PLAN_CO = 0
PLAN_RF = 1

#: flag-bit position per builtin unary trait, matching the C ``atom_masks``
#: spec encoding (code 0, a = bit, b = pair side).
_TRAIT_BITS = {id(READ): 0, id(WRITE): 1, id(FENCE): 2, id(MEMORY_ACCESS): 3}


def word_count(nbits: int) -> int:
    """Words needed for ``nbits`` bits (at least one, so buffers exist)."""
    return max(1, (nbits + WORD_BITS - 1) >> 6)


def int_to_words(value: int, nwords: int) -> array:
    """Spread a Python-int bitmask over ``nwords`` little-endian words."""
    words = array("Q", bytes(8 * nwords))
    for k in range(nwords):
        words[k] = (value >> (k << 6)) & _WORD_MASK
    return words


#: per-atom-list C-call plans keyed by the node-id tuple (capped, see below)
_ATOM_PLANS: Dict[Tuple[int, ...], Tuple[bytes, Tuple[int, ...], Tuple[int, ...]]] = {}
_ATOM_PLAN_CAP = 1024


def _atom_plan(nodes):
    """The batched-C plan for an atom list: (specs bytes, spec node ids,
    fallback positions).

    Atom lists come from cached :class:`~repro.native.flatprog.FlatProgram`
    objects, so the same list recurs for every execution of a run; the plan
    (which atoms flatten to C specs, in what order, and which need the
    Python path) depends only on the hash-consed node ids and is computed
    once per distinct list.
    """
    key = tuple(node.node_id for node in nodes)
    plan = _ATOM_PLANS.get(key)
    if plan is None:
        specs = array("i")
        spec_ids: List[int] = []
        fallback: List[int] = []
        for position, node in enumerate(nodes):
            spec = _builtin_atom_spec(node)
            if spec is None:
                fallback.append(position)
            else:
                specs.extend(spec)
                spec_ids.append(node.node_id)
        if len(_ATOM_PLANS) >= _ATOM_PLAN_CAP:
            _ATOM_PLANS.clear()
        plan = _ATOM_PLANS[key] = (specs.tobytes(), tuple(spec_ids), tuple(fallback))
    return plan


def _builtin_atom_spec(node):
    """The C ``atom_masks`` spec triple for a builtin atom, or None.

    Only trait atoms (Read/Write/Fence/MemAccess) and SameAddr flatten to a
    spec; dependency predicates, custom predicates and opaque calls return
    None and take the Python path.  Predicates are matched by identity so a
    user predicate that merely shares a name never reaches the C encoding.
    """
    if node.kind == "call":
        return None
    args = node.args
    bit = _TRAIT_BITS.get(id(node.predicate))
    if bit is not None and len(args) == 1:
        return (0, bit, 0 if args[0] == "x" else 1)
    if node.predicate is SAME_ADDR and len(args) == 2:
        return (1, 0 if args[0] == "x" else 1, 0 if args[1] == "x" else 1)
    return None


class KernelProblem:
    """One execution's search problem, flattened for the C kernel."""

    __slots__ = (
        "indexed",
        "n",
        "nw",
        "num_pairs",
        "pw",
        "plan_kinds",
        "plan_args",
        "slot_locations",
        "slot_of_location",
        "co_orders",
        "load_slot",
        "po_words",
        "_native",
        "_atom_words",
        "_builtin_buffers",
    )

    def __init__(self, indexed: IndexedExecution) -> None:
        self.indexed = indexed
        self.n = indexed.n
        self.nw = word_count(indexed.n)
        self.num_pairs = len(indexed.po_pairs)
        self.pw = word_count(self.num_pairs)

        # The decision plan, flattened: kinds as PLAN_CO/PLAN_RF, arguments
        # as a coherence-slot index or a load position.  Slots number the
        # locations that have stores, in plan (= ``ix.locations``) order.
        loads_of: Dict[Optional[str], List[int]] = {}
        for position, load in enumerate(indexed.loads):
            loads_of.setdefault(indexed.location_of[load], []).append(position)
        kinds: List[int] = []
        args: List[int] = []
        slot_locations: List[str] = []
        coherence = indexed.coherence_orders_at if not indexed.infeasible else {}
        co_orders: List[Tuple[Tuple[int, ...], ...]] = []
        for location in indexed.locations:
            if not indexed.stores_at[location]:
                continue
            slot = len(slot_locations)
            slot_locations.append(location)
            co_orders.append(coherence.get(location, ()))
            kinds.append(PLAN_CO)
            args.append(slot)
            for position in loads_of.get(location, ()):
                kinds.append(PLAN_RF)
                args.append(position)
        self.plan_kinds = array("b", kinds)
        self.plan_args = array("i", args)
        self.slot_locations: Tuple[str, ...] = tuple(slot_locations)
        self.slot_of_location: Dict[str, int] = {
            location: slot for slot, location in enumerate(slot_locations)
        }
        #: per slot: the location's po-respecting store orders (index tuples)
        self.co_orders: Tuple[Tuple[Tuple[int, ...], ...], ...] = tuple(co_orders)
        #: per load position: the coherence slot of its location (-1 if storeless)
        self.load_slot = array(
            "i",
            (
                self.slot_of_location.get(indexed.location_of[load], -1)
                for load in indexed.loads
            ),
        )

        #: program order as one flat word buffer: row i = po_before[i]
        if self.nw == 1:
            # litmus-sized executions: every row is one word already
            po_words = array("Q", indexed.po_before)
        else:
            po_words = array("Q")
            for mask in indexed.po_before:
                po_words.extend(int_to_words(mask, self.nw))
        self.po_words = po_words

        self._native = None
        # word-form (little-endian bytes) atom truth vectors, keyed by IR
        # node id, for the C mask-program evaluator
        self._atom_words: Dict[int, bytes] = {}
        # (pairs, flags, locid) byte buffers for the batched C atom-mask
        # call, built on first use
        self._builtin_buffers: Optional[Tuple[bytes, bytes, bytes]] = None

    # ------------------------------------------------------------------
    def native(self):
        """Return (building once) the C-extension mirror of this problem."""
        if self._native is None:
            from repro.native import _kernelmod  # ImportError surfaces to caller

            indexed = self.indexed
            co_count = array("i")
            co_len = array("i")
            co_off = array("q")
            co_flat = array("i")
            for orders in self.co_orders:
                co_count.append(len(orders))
                co_len.append(len(orders[0]) if orders else 0)
                co_off.append(len(co_flat))
                for order in orders:
                    co_flat.extend(order)
            rf_off = array("i", [0])
            rf_flat = array("i")
            for candidates in indexed.rf_candidates:
                rf_flat.extend(candidates)
                rf_off.append(len(rf_flat))
            self._native = _kernelmod.Problem(
                self.n,
                self.num_pairs,
                len(indexed.loads),
                len(self.plan_kinds),
                len(self.slot_locations),
                self.plan_kinds.tobytes(),
                self.plan_args.tobytes(),
                co_count.tobytes(),
                co_len.tobytes(),
                co_off.tobytes(),
                co_flat.tobytes(),
                array("i", indexed.loads).tobytes(),
                self.load_slot.tobytes(),
                rf_off.tobytes(),
                rf_flat.tobytes(),
                array("i", indexed.thread_of).tobytes(),
                self.po_words.tobytes(),
            )
        return self._native

    def atom_words(self, node) -> bytes:
        """An IR atom's positive truth vector over the po pairs, as words.

        Cached per node id for the problem's lifetime.  This Python path
        derives the mask from the ``IndexedExecution`` caches the bigint
        lowering uses; :meth:`atom_words_list` may instead fill the same
        per-node cache from the batched C computation, which is verified
        bit-identical against this path by the differential suite.
        """
        cached = self._atom_words.get(node.node_id)
        if cached is None:
            from repro.native.flatprog import positive_atom_mask

            mask = positive_atom_mask(self.indexed, node)
            cached = mask.to_bytes(8 * self.pw, "little")
            self._atom_words[node.node_id] = cached
        return cached

    def atom_words_list(self, nodes) -> List[bytes]:
        """Positive truth vectors for a batch of IR atoms.

        Builtin trait/SameAddr atoms missing from the per-node cache are
        computed in a single C call (:func:`_kernelmod.atom_masks`) over
        shared event-flag/location buffers; dependency, custom-predicate
        and call atoms fall back to :meth:`atom_words` individually.
        """
        cache = self._atom_words
        specs_bytes, spec_ids, fallback = _atom_plan(nodes)
        if cache:
            # Warm problem: drop already-cached atoms from the C request.
            specs = array("i")
            pending: List[int] = []
            offset = 0
            for node_id in spec_ids:
                if node_id not in cache:
                    specs.frombytes(specs_bytes[offset : offset + 12])
                    pending.append(node_id)
                offset += 12
            specs_bytes, spec_ids = specs.tobytes(), tuple(pending)
        for position in fallback:
            node = nodes[position]
            if node.node_id not in cache:
                self.atom_words(node)
        if spec_ids:
            from repro.native import _kernelmod

            buffers = self._builtin_buffers
            if buffers is None:
                indexed = self.indexed
                flags = bytes(
                    (1 if event.is_read else 0)
                    | (2 if event.is_write else 0)
                    | (4 if event.is_fence else 0)
                    | (8 if event.is_memory_access else 0)
                    for event in indexed.events
                )
                loc_index = {
                    location: index for index, location in enumerate(indexed.locations)
                }
                locid = array(
                    "i",
                    (
                        -1 if location is None else loc_index[location]
                        for location in indexed.location_of
                    ),
                ).tobytes()
                pairs = array("i", chain.from_iterable(indexed.po_pairs)).tobytes()
                buffers = self._builtin_buffers = (pairs, flags, locid)
            out = _kernelmod.atom_masks(
                self.n, self.num_pairs, self.pw, *buffers, specs_bytes
            )
            row = self.pw * 8
            for index, node_id in enumerate(spec_ids):
                cache[node_id] = out[index * row : (index + 1) * row]
        return [cache[node.node_id] for node in nodes]

    def edges_to_bytes(self, po_edges) -> bytes:
        """Flatten an edge list into the int32 pair buffer the C search takes."""
        return array("i", chain.from_iterable(po_edges)).tobytes()

    def witness(self, rf_choice, co_slot_choice):
        """Rebuild a :data:`~repro.checker.kernel.KernelWitness` from the
        flattened search result (rf sources + chosen order index per slot)."""
        indexed = self.indexed
        coherence: Dict[str, Tuple[int, ...]] = {
            location: () for location in indexed.locations
        }
        for slot, location in enumerate(self.slot_locations):
            coherence[location] = self.co_orders[slot][co_slot_choice[slot]]
        return tuple(rf_choice), coherence


def kernel_problem(indexed: IndexedExecution) -> KernelProblem:
    """Return the execution's flattened problem, built once and memoized."""
    problem = getattr(indexed, "_kernel_problem", None)
    if problem is None:
        problem = KernelProblem(indexed)
        indexed._kernel_problem = problem
    return problem
