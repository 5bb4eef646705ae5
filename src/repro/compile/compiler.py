"""Compiling memory models to the ModelIR.

:func:`compile_model` is the single entry point every consumer goes
through: it normalizes a model's must-not-reorder function (formula,
callable, or user formula subclass) into the hash-consed IR of
:mod:`repro.compile.ir`, wraps it in a :class:`CompiledModel` carrying the
compile-pass products — the content digest (the *semantic* cache key), the
extracted predicate vocabulary, and the eagerly built lowerings — and caches
the result per model object in a size-capped table, so streams of throwaway
models stay bounded.

Because IR nodes are interned process-wide, compiling the 90 models of the
parametric space builds each shared subformula exactly once; compiling a
structurally equal model a second time (re-registration, a serve client
resending a model document) is a pure intern-table walk that yields the same
root node and digest.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Optional, Tuple

from repro.compile import ir
from repro.compile.ir import IRNode, call_node, from_formula
from repro.compile.lower_eval import PairEvaluator, lower_eval
from repro.compile.lower_masks import MaskProgram, lower_masks
from repro.core.model import MemoryModel


class CompiledModel:
    """A memory model compiled to the ModelIR, plus its lowerings.

    Attributes:
        model: the source :class:`~repro.core.model.MemoryModel`.
        name: the model's name (display only — never a cache key).
        root: the IR root node.
        digest: the root's content digest.  Structurally equal formulas over
            built-in predicates share it across model objects and across
            processes; this is the key the engine layer caches under.
        kind: ``"formula"`` or ``"callable"``.
        vocabulary: the predicate names the IR applies, extracted from the
            DAG for formula models, taken from the model's declared
            predicate set for opaque callables.
    """

    __slots__ = (
        "model",
        "name",
        "root",
        "digest",
        "kind",
        "vocabulary",
        "mask_program",
        "evaluator",
        "_node_ids",
        "__weakref__",
    )

    def __init__(self, model: MemoryModel, root: IRNode, kind: str) -> None:
        self.model = model
        self.name = model.name
        self.root = root
        self.digest = root.digest
        self.kind = kind
        if kind == "formula" and root.kind != "call":
            self.vocabulary: Tuple[str, ...] = root.vocabulary()
        else:
            self.vocabulary = tuple(model.predicates.names())
        # The lowerings are built eagerly: compilation happens once per
        # process per model, while the lowered programs run on the hot
        # path of every check — a plain slot read there beats a property.
        #: the bitmask lowering (explicit kernel and SAT assumptions)
        self.mask_program: MaskProgram = lower_masks(root)
        #: the plain per-pair lowering (enumeration/reference path)
        self.evaluator: PairEvaluator = lower_eval(root)
        self._node_ids: Optional[FrozenSet[int]] = None

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def node_ids(self) -> FrozenSet[int]:
        """The ids of every distinct IR node in the DAG (CSE accounting)."""
        if self._node_ids is None:
            self._node_ids = frozenset(node.node_id for node in self.root.walk())
        return self._node_ids

    @property
    def num_nodes(self) -> int:
        """The DAG size — distinct nodes after hash-consing."""
        return len(self.node_ids)

    def __repr__(self) -> str:
        return (
            f"CompiledModel({self.name!r}, kind={self.kind!r}, "
            f"nodes={self.num_nodes}, digest={self.digest[:12]}...)"
        )


#: Per-model compile cache, keyed by ``id(model)``.  Entries hold the model
#: strongly (a ``CompiledModel`` references its model anyway, so weakref
#: eviction could never fire); instead the cache is size-capped and cleared
#: on overflow, so streams of throwaway models — a serve session fed inline
#: model documents — stay bounded.  Recompiling after a clear is cheap: the
#: IR intern table (itself capped) makes it a pure table walk.
_COMPILED: Dict[int, Tuple[MemoryModel, CompiledModel]] = {}
_COMPILED_LIMIT = 4096


def compile_model(model: MemoryModel) -> CompiledModel:
    """Compile ``model`` (memoized per model object).

    Engine-level compile/CSE statistics are counted by the
    :class:`~repro.engine.engine.CheckEngine` that resolves the model
    through this, so its counters stay deterministic per engine while
    this cache stays process-global.
    """
    key = id(model)
    entry = _COMPILED.get(key)
    if entry is not None and entry[0] is model:
        return entry[1]
    formula = model.formula
    if formula is not None:
        root = from_formula(formula, model.registry)
        kind = "formula"
    else:
        root = call_node(model.must_not_reorder)
        kind = "callable"
    compiled = CompiledModel(model, root, kind)
    if len(_COMPILED) >= _COMPILED_LIMIT:
        _COMPILED.clear()
    _COMPILED[key] = (model, compiled)
    return compiled


def precompile_models(models: Iterable[MemoryModel]) -> int:
    """Compile every model eagerly (worker warm-up); returns the count."""
    count = 0
    for model in models:
        compile_model(model)
        count += 1
    return count


def clear_caches() -> None:
    """Reset the compile cache and the IR intern table (tests/benchmarks)."""
    _COMPILED.clear()
    ir.clear_caches()
