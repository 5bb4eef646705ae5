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
in the bigint path.  ``call`` nodes become atoms too — their truth vector
is tabulated in Python (memoized per execution in ``_node_masks`` like the
bigint path) and handed to the evaluator as data, so even callable-defined
models run through the native evaluator.

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
from typing import Dict, List, Sequence, Tuple

from repro.compile.ir import IRNode

OP_TRUE = 0
OP_FALSE = 1
OP_ATOM = 2
OP_NATOM = 3
OP_AND = 4
OP_OR = 5


class FlatProgram:
    """IR roots flattened to linear register code plus their atom table."""

    __slots__ = ("codes", "codes_bytes", "num_instructions", "atoms", "outputs", "outputs_bytes")

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


def flat_program_multi(roots: Sequence[IRNode]) -> FlatProgram:
    """Return (caching per root-id tuple) one combined program for ``roots``.

    Registers are shared across roots through the hash-consed node ids, so
    the combined program is the *union* of the roots' DAGs — evaluating it
    costs one pass over the distinct subformulas of the whole column.
    """
    key = tuple(root.node_id for root in roots)
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

