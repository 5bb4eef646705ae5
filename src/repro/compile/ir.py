"""The ModelIR: a hash-consed, NNF-normalized DAG over predicate atoms.

Every must-not-reorder function — a :class:`~repro.core.formula.Formula`, a
raw Python callable, or a user :class:`Formula` subclass — normalizes into
one small node language:

* ``true`` / ``false`` — the constants;
* ``atom`` / ``natom`` — a (possibly negated) predicate application bound to
  a concrete :class:`~repro.core.predicates.Predicate` object.  Negation
  only ever appears here: :func:`from_formula` pushes ``Not`` through
  ``And``/``Or`` by De Morgan's laws (negation normal form), so every
  composite node is positive;
* ``and`` / ``or`` — n-ary connectives over *canonically ordered, deduplicated*
  children (commutativity and idempotence are normalized away);
* ``call`` — an opaque atom wrapping a Python callable ``(execution, x, y)
  -> bool``; callable-defined models and unknown :class:`Formula` subclasses
  compile to one of these, which lets the bitmask lowering tabulate even
  arbitrary Python functions over the same-thread pairs of an execution.

Nodes are **interned process-wide**: structurally equal subformulas are the
*same object* no matter which model they came from, so the 90 models of the
parametric space share one subformula table (cross-model common-subexpression
elimination), and per-execution evaluation caches keyed by ``node_id`` pay
for each distinct subtree once per execution, however many models use it.

Every node carries a **content digest** (sha256 over the canonical
structure) that is stable across processes and across model re-registration:
two structurally equal formulas over the built-in predicates produce equal
digests even when the surrounding :class:`~repro.core.model.MemoryModel`
objects are distinct.  The digest is the semantic cache key the engine layer
uses (:mod:`repro.engine.context`).  Predicates outside the built-in
registry, and ``call`` nodes, get per-object tokens instead — unique but not
portable, which is exactly right: their semantics cannot be recovered from
structure.

Construction simplifies on the fly: flattening, neutral/absorbing constants,
duplicate children, complementary literal pairs (``P & !P -> False``,
``P | !P -> True``) and single-child collapse all happen in
:func:`and_node` / :func:`or_node`.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core.execution import Execution
from repro.core.events import Event
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
from repro.core.predicates import Predicate, default_registry

#: An opaque must-not-reorder callable, the payload of a ``call`` node.
OpaqueCallable = Callable[[Execution, Event, Event], bool]


class IRNode:
    """One hash-consed node of the ModelIR DAG.

    Instances are created only through the module's constructor functions
    (which intern them); identity comparison is therefore structural
    equality for interned nodes.  ``node_id`` is unique per process and
    ``digest`` is the portable content key.  The two ``_lowered_*`` slots
    memoize the per-node closures of the lowering modules.
    """

    __slots__ = (
        "kind",
        "predicate",
        "args",
        "func",
        "children",
        "node_id",
        "digest",
        "_lowered_mask",
        "_lowered_eval",
    )

    def __init__(
        self,
        kind: str,
        node_id: int,
        digest: str,
        predicate: Optional[Predicate] = None,
        args: Tuple[str, ...] = (),
        func: Optional[OpaqueCallable] = None,
        children: Tuple["IRNode", ...] = (),
    ) -> None:
        self.kind = kind
        self.node_id = node_id
        self.digest = digest
        self.predicate = predicate
        self.args = args
        self.func = func
        self.children = children
        self._lowered_mask = None
        self._lowered_eval = None

    # ------------------------------------------------------------------
    def walk(self) -> Iterator["IRNode"]:
        """Yield every distinct node of the DAG rooted here, children first."""
        seen = set()

        def visit(node: "IRNode") -> Iterator["IRNode"]:
            if node.node_id in seen:
                return
            seen.add(node.node_id)
            for child in node.children:
                yield from visit(child)
            yield node

        yield from visit(self)

    def vocabulary(self) -> Tuple[str, ...]:
        """The sorted predicate names the DAG applies (``call`` nodes are opaque)."""
        return tuple(
            sorted(
                {
                    node.predicate.name
                    for node in self.walk()
                    if node.predicate is not None
                }
            )
        )

    def is_positive(self) -> bool:
        """True iff no negated atom (and no opaque node) occurs in the DAG."""
        return all(node.kind not in ("natom", "call") for node in self.walk())

    def __repr__(self) -> str:
        return f"IRNode({describe(self)})"


def describe(node: IRNode) -> str:
    """A compact human-readable rendering of an IR DAG (for tests/logs)."""
    if node.kind == "true":
        return "True"
    if node.kind == "false":
        return "False"
    if node.kind == "atom":
        return f"{node.predicate.name}({', '.join(node.args)})"
    if node.kind == "natom":
        return f"!{node.predicate.name}({', '.join(node.args)})"
    if node.kind == "call":
        return "<call>"
    joiner = " & " if node.kind == "and" else " | "
    return "(" + joiner.join(describe(child) for child in node.children) + ")"


@dataclass
class CompileStats:
    """Process-wide intern-table counters (benchmarks and tests read these)."""

    nodes_created: int = 0
    intern_hits: int = 0


#: The process-wide intern table: structural key -> node.
_INTERN: Dict[object, IRNode] = {}

#: Past this many interned nodes, construction stops interning (fresh ids,
#: no sharing) so an adversarial stream of ever-new formulas — a long-lived
#: ``serve`` session fed arbitrary model documents — cannot grow the table
#: without bound.  Uninterned nodes still evaluate correctly, just unshared.
INTERN_LIMIT = 1 << 16

#: Monotonic node-id source (interned and uninterned nodes alike).
_NEXT_ID = 0

#: Per-object fingerprint tokens for predicates outside the built-in
#: registry and for opaque callables.  Token numbers come from
#: ``_NEXT_TOKEN`` — monotonic and, like ``_NEXT_ID``, never reset — so two
#: distinct objects can never share a fingerprint (and hence a digest), even
#: across a :func:`clear_caches` or a table overflow.  That uniqueness is
#: also what makes the tables safe to size-cap: clearing one merely mints a
#: fresh token for a re-seen object (a cache miss, never a collision), so
#: streams of throwaway callables stay bounded.  Id-reuse is harmless: an
#: interned ``call``/``atom`` node holds its callable/predicate alive, so a
#: recycled ``id()`` can only appear once the old intern entry is gone too.
_PREDICATE_TOKENS: Dict[int, Tuple[Predicate, str]] = {}
_CALLABLE_TOKENS: Dict[int, Tuple[object, str]] = {}
_TOKEN_TABLE_LIMIT = 4096
_NEXT_TOKEN = 0

#: Built-in predicate singletons fingerprint by bare name, which is what
#: makes digests portable across processes and model re-registration.
_BUILTIN_PREDICATE_IDS: Dict[int, str] = {
    id(predicate): name for name, predicate in default_registry().items()
}

stats = CompileStats()


def clear_caches() -> None:
    """Reset the intern table and token tables (tests and cold benchmarks).

    Nodes created before the reset stay valid — they simply stop being
    shared with nodes created after it.  ``_NEXT_ID`` is deliberately NOT
    reset: node ids must stay unique process-wide, or a pre-clear compiled
    model could alias a post-clear one in per-execution node-mask caches.
    """
    _INTERN.clear()
    _PREDICATE_TOKENS.clear()
    _CALLABLE_TOKENS.clear()
    stats.nodes_created = 0
    stats.intern_hits = 0


def interned_node_count() -> int:
    return len(_INTERN)


# ----------------------------------------------------------------------
# fingerprints and digests
# ----------------------------------------------------------------------
def _predicate_fingerprint(predicate: Predicate) -> str:
    """A stable token for a predicate: its name for the built-in singletons,
    a per-object name#token for everything else (same-named user predicates
    with different semantics must not alias in digests)."""
    builtin = _BUILTIN_PREDICATE_IDS.get(id(predicate))
    if builtin is not None:
        return builtin
    global _NEXT_TOKEN
    key = id(predicate)
    entry = _PREDICATE_TOKENS.get(key)
    if entry is None or entry[0] is not predicate:
        entry = (predicate, f"{predicate.name}#{_NEXT_TOKEN}")
        _NEXT_TOKEN += 1
        if len(_PREDICATE_TOKENS) >= _TOKEN_TABLE_LIMIT:
            _PREDICATE_TOKENS.clear()
        _PREDICATE_TOKENS[key] = entry
    return entry[1]


def _callable_token(func: object) -> str:
    """A per-object token for an opaque callable (not portable, by design)."""
    global _NEXT_TOKEN
    key = id(func)
    entry = _CALLABLE_TOKENS.get(key)
    if entry is None or entry[0] is not func:
        entry = (func, f"call#{_NEXT_TOKEN}")
        _NEXT_TOKEN += 1
        if len(_CALLABLE_TOKENS) >= _TOKEN_TABLE_LIMIT:
            _CALLABLE_TOKENS.clear()
        _CALLABLE_TOKENS[key] = entry
    return entry[1]


def _digest(payload: str) -> str:
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# interned constructors
# ----------------------------------------------------------------------
def _make(key: object, payload: str, **fields) -> IRNode:
    """Intern a node by structural key, constructing it on first sight."""
    global _NEXT_ID
    if key is not None:
        cached = _INTERN.get(key)
        if cached is not None:
            stats.intern_hits += 1
            return cached
    node = IRNode(node_id=_NEXT_ID, digest=_digest(payload), **fields)
    _NEXT_ID += 1
    stats.nodes_created += 1
    if key is not None and len(_INTERN) < INTERN_LIMIT:
        _INTERN[key] = node
    return node


def true_node() -> IRNode:
    return _make(("true",), "T", kind="true")


def false_node() -> IRNode:
    return _make(("false",), "F", kind="false")


def atom_node(predicate: Predicate, args: Sequence[str], negated: bool = False) -> IRNode:
    args = tuple(args)
    if predicate.arity != len(args):
        raise FormulaError(
            f"predicate {predicate.name} takes {predicate.arity} argument(s), got {len(args)}"
        )
    kind = "natom" if negated else "atom"
    fingerprint = _predicate_fingerprint(predicate)
    payload = f"{'N' if negated else 'A'}({fingerprint};{','.join(args)})"
    return _make(
        (kind, id(predicate), args),
        payload,
        kind=kind,
        predicate=predicate,
        args=args,
    )


def call_node(func: OpaqueCallable) -> IRNode:
    return _make(
        ("call", id(func)),
        f"C({_callable_token(func)})",
        kind="call",
        func=func,
    )


def _connective(kind: str, children: Sequence[IRNode]) -> IRNode:
    """Build an ``and``/``or`` node with on-the-fly simplification."""
    absorbing, neutral = ("false", "true") if kind == "and" else ("true", "false")
    flat: List[IRNode] = []
    seen_ids = set()
    literals = set()  # (negated?, predicate id, args) for complement detection
    for child in _flatten(kind, children):
        if child.kind == absorbing:
            return false_node() if kind == "and" else true_node()
        if child.kind == neutral or child.node_id in seen_ids:
            continue
        if child.kind in ("atom", "natom"):
            signature = (child.kind == "natom", id(child.predicate), child.args)
            complement = (not signature[0],) + signature[1:]
            if complement in literals:
                # P & !P is False; P | !P is True.
                return false_node() if kind == "and" else true_node()
            literals.add(signature)
        seen_ids.add(child.node_id)
        flat.append(child)
    if not flat:
        return true_node() if kind == "and" else false_node()
    if len(flat) == 1:
        return flat[0]
    # Canonical child order: sort by digest (commutativity), ids as a
    # deterministic tiebreak for uninterned digest collisions.
    flat.sort(key=lambda node: (node.digest, node.node_id))
    symbol = "&" if kind == "and" else "|"
    payload = f"{symbol}({','.join(node.digest for node in flat)})"
    key = (kind,) + tuple(node.node_id for node in flat)
    return _make(key, payload, kind=kind, children=tuple(flat))


def _flatten(kind: str, children: Sequence[IRNode]) -> Iterator[IRNode]:
    for child in children:
        if child.kind == kind:
            yield from child.children
        else:
            yield child


def and_node(children: Sequence[IRNode]) -> IRNode:
    return _connective("and", children)


def or_node(children: Sequence[IRNode]) -> IRNode:
    return _connective("or", children)


# ----------------------------------------------------------------------
# formula -> IR (NNF conversion)
# ----------------------------------------------------------------------
def from_formula(formula: Formula, registry: Dict[str, Predicate]) -> IRNode:
    """Normalize a formula into the IR, resolving predicates from ``registry``.

    Negation is pushed down to the atoms (NNF); unknown predicate names
    raise :class:`~repro.core.formula.FormulaError` exactly like the
    call-by-call interpreter; unknown :class:`Formula` subclasses become
    opaque ``call`` nodes evaluating the subclass's own ``evaluate``.
    """

    def build(node: Formula, negated: bool) -> IRNode:
        if isinstance(node, TrueFormula):
            return false_node() if negated else true_node()
        if isinstance(node, FalseFormula):
            return true_node() if negated else false_node()
        if isinstance(node, Atom):
            predicate = registry.get(node.predicate)
            if predicate is None:
                raise FormulaError(f"unknown predicate {node.predicate!r}")
            return atom_node(predicate, node.args, negated=negated)
        if isinstance(node, Not):
            return build(node.operand, not negated)
        if isinstance(node, And):
            children = [build(operand, negated) for operand in node.operands]
            return or_node(children) if negated else and_node(children)
        if isinstance(node, Or):
            children = [build(operand, negated) for operand in node.operands]
            return and_node(children) if negated else or_node(children)
        # A user Formula subclass: opaque, evaluated through its own method.
        return _opaque_formula_node(node, registry, negated)

    return build(formula, False)


def _opaque_formula_node(
    formula: Formula, registry: Dict[str, Predicate], negated: bool
) -> IRNode:
    if negated:
        def evaluate(execution: Execution, x: Event, y: Event) -> bool:
            return not formula.evaluate(execution, x, y, registry)
    else:
        def evaluate(execution: Execution, x: Event, y: Event) -> bool:
            return bool(formula.evaluate(execution, x, y, registry))

    return call_node(evaluate)
