"""Flattened mask programs: ModelIR DAGs as linear register code.

The bigint lowering (:mod:`repro.compile.lower_masks`) evaluates a model's
IR as a tree of Python closures over int bitmasks.  The native layer needs
the same program in a form a C loop can execute: a linear instruction
stream where instruction ``i`` writes register ``i``, children come before
parents, and atoms are indices into a table of precomputed truth-vector
buffers.

Instruction encoding (int32 stream)::

    OP_TRUE/OP_FALSE:  [op, 0]
    OP_ATOM/OP_NATOM:  [op, atom_index]
    OP_AND/OP_OR:      [op, k, reg_1, ..., reg_k]

``natom`` complements *within the pair universe*: the evaluator masks the
result with the all-pairs tail mask, exactly like ``all_pairs_mask & ~m``
in the bigint path.  Builtin trait and SameAddr atoms carry a C spec
(:attr:`FlatProgram.atom_specs`) so one ``Problem.atom_masks`` call
computes their truth vectors; dependency, custom-predicate and ``call``
atoms are tabulated in Python (memoized per execution in ``_atom_masks`` /
``_node_masks`` like the bigint path) and handed to the evaluator as data,
so even callable-defined models run through the native evaluator.

A model *column* flattens to one combined program
(:func:`flat_program_multi`): the roots share a single register file keyed
by node id, so a subformula shared by N models — the common case in the
hash-consed parametric space — is one instruction, not N, and the per-root
output registers let a single evaluator pass answer every model at once.
Programs are cached per root-id tuple in a size-capped table, mirroring
the closure cache the bigint lowering keeps on the node itself.
"""

from __future__ import annotations

from array import array
from itertools import chain
from operator import attrgetter
from typing import Dict, List, Optional, Sequence, Tuple

from repro.compile.ir import IRNode
from repro.core.predicates import FENCE, MEMORY_ACCESS, READ, SAME_ADDR, WRITE

OP_TRUE = 0
OP_FALSE = 1
OP_ATOM = 2
OP_NATOM = 3
OP_AND = 4
OP_OR = 5


#: flag-bit position per builtin unary trait, matching the C ``atom_masks``
#: spec encoding (code 0, a = bit, b = pair side).
_TRAIT_BITS = {id(READ): 0, id(WRITE): 1, id(FENCE): 2, id(MEMORY_ACCESS): 3}

#: the ``atom_masks`` spec of an atom with no builtin encoding (a zero row
#: the Python fallback fills in)
_FALLBACK_SPEC = (2, 0, 0)


def _builtin_atom_spec(node: IRNode) -> Optional[Tuple[int, int, int]]:
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


class FlatProgram:
    """IR roots flattened to linear register code plus their atom table."""

    __slots__ = (
        "codes", "codes_bytes", "num_instructions", "atoms", "atom_specs", "fallback",
        "outputs", "outputs_bytes",
    )

    def __init__(
        self,
        codes: array,
        num_instructions: int,
        atoms: Tuple[IRNode, ...],
        outputs: array,
    ):
        #: int32 instruction stream (see module docstring for the encoding)
        self.codes = codes
        self.codes_bytes = codes.tobytes()
        self.num_instructions = num_instructions
        #: IR atom/natom/call nodes, positions = atom_index operands
        self.atoms = atoms
        specs = [_builtin_atom_spec(node) for node in atoms]
        #: every atom's C ``atom_masks`` spec triple, as int32 bytes
        self.atom_specs = array(
            "i", chain.from_iterable(spec or _FALLBACK_SPEC for spec in specs)
        ).tobytes()
        #: positions of the atoms the C specs cannot express (dependency,
        #: custom-predicate and call atoms), tabulated in Python
        self.fallback = tuple(position for position, spec in enumerate(specs) if spec is None)
        #: int32 register index per root, in root order (shared roots may
        #: repeat a register; a root that is a subformula of an earlier one
        #: references an interior register)
        self.outputs = outputs
        self.outputs_bytes = outputs.tobytes()


#: (root node_id, ...) -> combined FlatProgram for a whole column; capped
#: like the other compile-layer caches so serve sessions fed ever-new model
#: documents stay bounded.
_MULTI_CACHE: Dict[Tuple[int, ...], FlatProgram] = {}
_FLAT_CACHE_LIMIT = 8192
_NODE_ID = attrgetter("node_id")


def flat_program_multi(roots: Sequence[IRNode]) -> FlatProgram:
    """Return (caching per root-id tuple) one combined program for ``roots``.

    Registers are shared across roots through the hash-consed node ids, so
    the combined program is the *union* of the roots' DAGs — evaluating it
    costs one pass over the distinct subformulas of the whole column.
    """
    key = tuple(map(_NODE_ID, roots))
    program = _MULTI_CACHE.get(key)
    if program is None:
        program = _flatten(roots)
        if len(_MULTI_CACHE) >= _FLAT_CACHE_LIMIT:
            _MULTI_CACHE.clear()
        _MULTI_CACHE[key] = program
    return program


def _flatten(roots: Sequence[IRNode]) -> FlatProgram:
    codes = array("i")
    atoms: List[IRNode] = []
    atom_index: Dict[int, int] = {}
    register_of: Dict[int, int] = {}
    next_register = 0

    def emit(node: IRNode) -> int:
        nonlocal next_register
        register = register_of.get(node.node_id)
        if register is not None:
            return register
        kind = node.kind
        if kind in ("and", "or"):
            operands = [emit(child) for child in node.children]
            codes.append(OP_AND if kind == "and" else OP_OR)
            codes.append(len(operands))
            codes.extend(operands)
        elif kind == "true":
            codes.append(OP_TRUE)
            codes.append(0)
        elif kind == "false":
            codes.append(OP_FALSE)
            codes.append(0)
        else:  # atom / natom / call: an atom-table reference
            index = atom_index.get(node.node_id)
            if index is None:
                index = len(atoms)
                atoms.append(node)
                atom_index[node.node_id] = index
            codes.append(OP_NATOM if kind == "natom" else OP_ATOM)
            codes.append(index)
        register = next_register
        next_register += 1
        register_of[node.node_id] = register
        return register

    outputs = array("i", (emit(root) for root in roots))
    return FlatProgram(codes, next_register, tuple(atoms), outputs)


def positive_atom_mask(indexed, node: IRNode) -> int:
    """An atom node's *positive* truth vector over the target's po pairs.

    For ``atom``/``natom`` nodes this is the predicate application's mask
    (the natom complement happens in the program, not here); for ``call``
    nodes the opaque callable is tabulated, memoized per execution under
    the node id exactly like the bigint lowering memoizes it.
    """
    if node.kind == "call":
        masks = indexed._node_masks
        mask = masks.get(node.node_id)
        if mask is None:
            from repro.compile.lower_masks import _tabulate

            mask = _tabulate(indexed, node.func)
            masks[node.node_id] = mask
        return mask
    return indexed._atom_mask(node.predicate, node.args)

