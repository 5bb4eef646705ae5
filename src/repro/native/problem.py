"""Flattened, model-independent search problems for the C kernel.

A :class:`KernelProblem` wraps the C extension's ``Problem``: everything
:class:`~repro.checker.kernel.KernelSearch` derives from an execution — the
decision plan, the per-location coherence orders, the per-load read-from
candidates, program order — plus the event flags, locations and po pairs
the batched atom masks read, as contiguous word buffers.  It is built two
ways, with identical buffers (``tests/native/test_items_problem.py``):

* :func:`kernel_problem` flattens an
  :class:`~repro.checker.kernel.IndexedExecution` (the object path, memoized
  on the execution and shared by every model checked against it);
* :func:`items_problem` builds it in C straight from an enumerated test's
  abstract items (``Problem.from_items``), with no ``LitmusTest``,
  ``Execution`` or ``IndexedExecution`` — the streaming pipeline's checked
  path on the native kernel.
"""

from __future__ import annotations

from array import array
from itertools import chain
from typing import Callable, Dict, List, Optional, Tuple

from repro.checker.kernel import IndexedExecution
from repro.native.flatprog import FlatProgram, positive_atom_mask

#: Bits per word of every word-array bitset in this package.  Bitsets are
#: little-endian word arrays: bit ``i`` lives in word ``i >> 6`` at position
#: ``i & 63``, byte-identical to ``int.to_bytes(..., "little")`` padded to
#: the word count, which is how the Python-int masks cross into C.
WORD_BITS = 64
_WORD_MASK = (1 << WORD_BITS) - 1

#: plan-step kinds in the flattened plan arrays
PLAN_CO = 0
PLAN_RF = 1


def word_count(nbits: int) -> int:
    """Words needed for ``nbits`` bits (at least one, so buffers exist)."""
    return max(1, (nbits + WORD_BITS - 1) >> 6)


def int_to_words(value: int, nwords: int) -> array:
    """Spread a Python-int bitmask over ``nwords`` little-endian words."""
    words = array("Q", bytes(8 * nwords))
    for k in range(nwords):
        words[k] = (value >> (k << 6)) & _WORD_MASK
    return words


class KernelProblem:
    """One test's search problem for the C kernel.

    ``native`` is the C-extension problem (:class:`_kernelmod.Problem`),
    built from an :class:`~repro.checker.kernel.IndexedExecution` by
    :func:`kernel_problem`, or straight from enumeration items by
    :func:`items_problem`.  ``indexed`` is the execution the Python
    fallbacks need (custom-predicate atoms, witnesses); an items-built
    problem receives a zero-argument callable instead and materialises the
    execution only if one of those asks.
    """

    __slots__ = ("native", "pw", "infeasible", "_indexed")

    def __init__(self, native, indexed) -> None:
        self.native = native
        #: words per po-pair mask
        self.pw = native.pw
        #: some load's observed value is unobtainable (nothing is allowed)
        self.infeasible = native.infeasible
        self._indexed = indexed

    @property
    def indexed(self) -> IndexedExecution:
        """The indexed execution, materialised on first use."""
        if not isinstance(self._indexed, IndexedExecution):
            self._indexed = self._indexed()
        return self._indexed

    # ------------------------------------------------------------------
    def atom_buffer(self, program: FlatProgram) -> bytes:
        """Every atom's positive truth vector over the po pairs, as one
        buffer of ``pw`` words per atom in the program's atom order.

        Builtin trait/SameAddr atoms come from a single C call
        (``Problem.atom_masks``) over the problem's event-flag, location and
        pair buffers; the program's fallback atoms (dependency, custom
        predicate, call) are tabulated from the indexed execution by
        :func:`~repro.native.flatprog.positive_atom_mask`, memoized there
        like the bigint lowering memoizes them.
        """
        words = self.native.atom_masks(program.atom_specs)
        if program.fallback:
            row = self.pw * 8
            buffer = bytearray(words)
            for position in program.fallback:
                mask = positive_atom_mask(self.indexed, program.atoms[position])
                buffer[position * row : (position + 1) * row] = mask.to_bytes(row, "little")
            words = bytes(buffer)
        return words

    def witness(self, rf_choice, co_slot_choice):
        """Rebuild a :data:`~repro.checker.kernel.KernelWitness` from the
        flattened search result (rf sources + chosen order index per slot)."""
        indexed = self.indexed
        coherence: Dict[str, Tuple[int, ...]] = {
            location: () for location in indexed.locations
        }
        orders = indexed.coherence_orders_at
        slots = [location for location in indexed.locations if indexed.stores_at[location]]
        for slot, location in enumerate(slots):
            coherence[location] = orders[location][co_slot_choice[slot]]
        return tuple(rf_choice), coherence


def _native_problem(indexed: IndexedExecution):
    """Flatten an indexed execution into the C kernel's problem.

    The plan replicates ``KernelSearch``'s construction *exactly* —
    locations in ``ix.locations`` order skipping storeless ones, each
    location's loads in ``ix.loads`` position order right after its
    coherence decision, coherence orders in ``coherence_orders_at``
    enumeration order, read-from candidates in ``rf_candidates`` order —
    because witness identity across backends depends on identical decision
    iteration.
    """
    from repro.native import _kernelmod  # ImportError surfaces to caller

    loads_of: Dict[Optional[str], List[int]] = {}
    for position, load in enumerate(indexed.loads):
        loads_of.setdefault(indexed.location_of[load], []).append(position)
    # The decision plan: kinds as PLAN_CO/PLAN_RF, arguments as a
    # coherence-slot index or a load position.  Slots number the locations
    # that have stores, in plan (= ``ix.locations``) order.
    kinds = array("b")
    args = array("i")
    slot_of: Dict[str, int] = {}
    coherence = indexed.coherence_orders_at if not indexed.infeasible else {}
    co_count = array("i")
    co_len = array("i")
    co_off = array("q")
    co_flat = array("i")
    for location in indexed.locations:
        if not indexed.stores_at[location]:
            continue
        slot = slot_of[location] = len(slot_of)
        orders = coherence.get(location, ())
        co_count.append(len(orders))
        co_len.append(len(orders[0]) if orders else 0)
        co_off.append(len(co_flat))
        for order in orders:
            co_flat.extend(order)
        kinds.append(PLAN_CO)
        args.append(slot)
        for position in loads_of.get(location, ()):
            kinds.append(PLAN_RF)
            args.append(position)
    load_slot = array(
        "i", (slot_of.get(indexed.location_of[load], -1) for load in indexed.loads)
    )
    rf_off = array("i", [0])
    rf_flat = array("i")
    for candidates in indexed.rf_candidates:
        rf_flat.extend(candidates)
        rf_off.append(len(rf_flat))
    # program order as one flat word buffer: row i = po_before[i]
    nw = word_count(indexed.n)
    if nw == 1:
        po_words = array("Q", indexed.po_before)  # every row is one word
    else:
        po_words = array("Q")
        for mask in indexed.po_before:
            po_words.extend(int_to_words(mask, nw))
    flags = bytes(
        (1 if event.is_read else 0)
        | (2 if event.is_write else 0)
        | (4 if event.is_fence else 0)
        | (8 if event.is_memory_access else 0)
        for event in indexed.events
    )
    loc_index = {location: index for index, location in enumerate(indexed.locations)}
    locid = array(
        "i", (-1 if location is None else loc_index[location] for location in indexed.location_of)
    )
    return _kernelmod.Problem(
        indexed.n,
        len(indexed.po_pairs),
        len(indexed.loads),
        len(kinds),
        len(slot_of),
        kinds.tobytes(),
        args.tobytes(),
        co_count.tobytes(),
        co_len.tobytes(),
        co_off.tobytes(),
        co_flat.tobytes(),
        array("i", indexed.loads).tobytes(),
        load_slot.tobytes(),
        rf_off.tobytes(),
        rf_flat.tobytes(),
        array("i", indexed.thread_of).tobytes(),
        po_words.tobytes(),
        array("i", chain.from_iterable(indexed.po_pairs)).tobytes(),
        flags,
        locid.tobytes(),
    )


def kernel_problem(indexed: IndexedExecution) -> KernelProblem:
    """Return the execution's flattened problem, built once and memoized."""
    problem = getattr(indexed, "_kernel_problem", None)
    if problem is None:
        problem = KernelProblem(_native_problem(indexed), indexed)
        indexed._kernel_problem = problem
    return problem


def items_problem(items, materialise: Callable[[], IndexedExecution]) -> KernelProblem:
    """The problem of an enumerated test, built in C from its abstract
    items (``Problem.from_items``) with no :class:`IndexedExecution`:
    ``materialise`` builds that only if a fallback asks for it."""
    from repro.native import _kernelmod

    return KernelProblem(_kernelmod.Problem.from_items(items), materialise)
