"""Checking strategies: how the engine decides one (test, model) verdict.

Each strategy answers "does ``model`` allow ``test``'s candidate execution?"
for a :class:`~repro.engine.context.TestContext`, exploiting the context's
model-independent caches:

* :class:`ExplicitStrategy` — the pruned backtracking search of
  :mod:`repro.checker.kernel` over the context's cached
  :class:`~repro.checker.kernel.IndexedExecution`, with the per-model
  program-order edges answered from the context's bitset formula evaluator
  and cached across repeated checks;
* :class:`EnumerationStrategy` — the pre-kernel explicit semantics (full
  read-from × coherence product, one digraph acyclicity check per complete
  combination), kept as the in-engine oracle path; it reuses the context's
  cached candidate spaces, program-order edges and coherence-position maps;
* :class:`IncrementalSatStrategy` — the SAT semantics of
  :class:`~repro.checker.sat_checker.SatChecker`, but answering every model
  with one persistent incremental solver over the shared CNF skeleton via
  ``solve(assumptions=...)``, so learned clauses carry over between models.

The standalone checkers of :mod:`repro.checker` (``ExplicitChecker``,
``SatChecker``, the brute-force ``ReferenceChecker``...) answer one
``check(test, model)`` at a time and are used directly, never wrapped in
an engine.
"""

from __future__ import annotations

from itertools import product
from typing import TYPE_CHECKING, Dict, List, Protocol

from repro.checker.relations import forced_edges, happens_before_graph
from repro.engine.context import ModelLike, TestContext, as_compiled

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints only
    from repro.engine.engine import EngineStats


class CheckStrategy(Protocol):
    """The strategy interface the engine dispatches to.

    The engine resolves each model through its compile cache and hands
    strategies the :class:`~repro.compile.CompiledModel`; strategies called
    directly also accept a raw :class:`~repro.core.model.MemoryModel`
    (compiled on the fly).
    """

    name: str

    def check(self, context: TestContext, model: ModelLike, stats: "EngineStats") -> bool:
        """Return whether the model allows the context's execution."""
        ...


class ExplicitStrategy:
    """Pruned backtracking over the context's bitset-indexed execution.

    The search and the mask-program evaluation run on a pluggable
    :class:`~repro.native.backend.KernelBackend` — the C extension or the
    original bigint kernel — resolved once at construction (see
    :func:`repro.native.backend.resolve_kernel` for the
    ``auto``/``REPRO_KERNEL`` selection order).  Both backends are
    bit-identical; only speed and the native/fallback counters differ.
    """

    name = "explicit"

    def __init__(self, kernel: object = None) -> None:
        from repro.native.backend import resolve_kernel

        self.kernel = resolve_kernel(kernel)

    def check(self, context: TestContext, model: ModelLike, stats: "EngineStats") -> bool:
        first_visit = not context.candidate_space_built
        indexed = context.indexed()
        if first_visit:
            stats.candidate_spaces_built += 1
        if indexed.infeasible:
            return False  # some load's observed value is unobtainable
        pairs = context.po_edge_pairs(model, stats, kernel=self.kernel)
        return context.kernel_verdict(pairs, kernel=self.kernel, stats=stats)

    def check_column(
        self,
        context: TestContext,
        compiled_models,
        stats: "EngineStats",
        derive: bool = False,
    ) -> List[bool]:
        """A whole model column in one pass — the streaming hot path.

        The column's masks are batch-evaluated through the kernel's
        combined program (one evaluation for the space, registers shared
        across models), then deduplicated by mask value before the pair
        lists are even built: distinct models frequently force identical
        edges on a small test, and the mask determines the pairs, so one
        kernel search (further memoized by edge tuple in the context)
        answers every model that shares it.  Verdicts and search counters
        are identical to per-model :meth:`check` calls.

        ``derive=True`` additionally exploits that verdicts are monotone
        in the forced-po mask: more forced edges means fewer candidate
        executions, so ``allowed`` at a superset mask implies ``allowed``
        at every subset, and ``forbidden`` at a subset implies
        ``forbidden`` at every superset.  Visiting the distinct masks in
        descending popcount order lets many verdicts be read off already-
        searched masks; those shortcuts count as ``derived_verdicts``
        instead of kernel searches, which is why the flag defaults off —
        the brute pipeline's counters stay byte-identical.
        """
        first_visit = not context.candidate_space_built
        indexed = context.indexed()
        if first_visit:
            stats.candidate_spaces_built += 1
        if indexed.infeasible:
            return [False] * len(compiled_models)
        masks = context.po_masks_column(compiled_models, stats, kernel=self.kernel)
        po_pairs = indexed.po_pairs
        kernel = self.kernel
        is_native = kernel.is_native
        # The mask determines the pair list, so the per-column mask memo
        # subsumes the context's tuple-keyed verdict memo (the context is
        # seen exactly once on this path) without the tuple hashing.
        verdict_of_mask: Dict[int, bool] = {}
        if derive:
            ordered = sorted(
                set(masks), key=lambda mask: (-bin(mask).count("1"), mask)
            )
            for mask in ordered:
                verdict = None
                for known_mask, known in verdict_of_mask.items():
                    if known and (mask & known_mask) == mask:
                        verdict = True  # subset of an allowed mask
                        break
                    if not known and (mask & known_mask) == known_mask:
                        verdict = False  # superset of a forbidden mask
                        break
                if verdict is not None:
                    stats.derived_verdicts += 1
                else:
                    pairs = [
                        pair for p, pair in enumerate(po_pairs) if (mask >> p) & 1
                    ]
                    verdict = kernel.allowed(indexed, pairs)
                    if is_native:
                        stats.native_searches += 1
                    else:
                        stats.fallback_searches += 1
                verdict_of_mask[mask] = verdict
            return [verdict_of_mask[mask] for mask in masks]
        verdicts = []
        for mask in masks:
            verdict = verdict_of_mask.get(mask)
            if verdict is None:
                pairs = [pair for p, pair in enumerate(po_pairs) if (mask >> p) & 1]
                verdict = kernel.allowed(indexed, pairs)
                if is_native:
                    stats.native_searches += 1
                else:
                    stats.fallback_searches += 1
                verdict_of_mask[mask] = verdict
            verdicts.append(verdict)
        return verdicts


class EnumerationStrategy:
    """Exhaustive (rf, co) product enumeration over the context's caches.

    The pre-kernel explicit semantics, kept selectable (backend name
    ``"enumeration"``) as the oracle the kernel strategy is cross-validated
    against.  Unlike the standalone
    :class:`~repro.checker.reference.EnumerationChecker` it reuses the
    context's cached program-order edges and coherence-position maps, so
    repeated ``forced_edges`` calls stop recomputing them.
    """

    name = "enumeration"

    def check(self, context: TestContext, model: ModelLike, stats: "EngineStats") -> bool:
        execution = context.execution
        assert execution is not None
        compiled = as_compiled(model)
        first_visit = not context.candidate_space_built
        loads, candidate_lists = context.read_from_space()
        if first_visit:
            stats.candidate_spaces_built += 1
        if any(not candidates for candidates in candidate_lists):
            return False  # some load's observed value is unobtainable

        po_edges = context.program_order_edges(compiled, stats)
        coherence_orders = context.coherence_orders()
        coherence_positions = context.coherence_positions(stats)
        for choice in product(*candidate_lists):
            read_from = dict(zip(loads, choice))
            for coherence, positions in zip(coherence_orders, coherence_positions):
                edges = forced_edges(
                    execution, compiled.model, read_from, coherence, po_edges, positions
                )
                if edges is None:
                    continue
                if happens_before_graph(execution, edges).is_acyclic():
                    return True
        return False


class IncrementalSatStrategy:
    """One persistent assumption-based SAT solver per test.

    The per-model assumptions are derived from the same IR-memoized po-pair
    bitmask the explicit kernel consumes (:meth:`TestContext.po_mask`), so
    across the models of a space each distinct subformula's truth vector is
    computed once per test no matter which backends ask.
    """

    name = "sat"

    def check(self, context: TestContext, model: ModelLike, stats: "EngineStats") -> bool:
        execution = context.execution
        assert execution is not None
        compiled = as_compiled(model)
        first_visit = not context.candidate_space_built
        skeleton = context.skeleton()
        if first_visit:
            stats.candidate_spaces_built += 1
        if skeleton.trivially_unsat:
            return False

        solver = context.solver()
        stats.clauses_reused += solver.num_learned_clauses()
        stats.solver_calls += 1
        assumptions = skeleton.po_assumptions_from_mask(
            context.po_mask(compiled, stats)
        )
        return solver.solve(assumptions).satisfiable


def make_strategy(backend: object, kernel: object = None) -> CheckStrategy:
    """Resolve a backend specification into a strategy.

    ``backend`` is a strategy name (``"explicit"``, ``"enumeration"`` or
    ``"sat"``) or an instance of one of those three strategies; anything
    else — a standalone checker object included — raises ``TypeError``.
    ``kernel`` selects the explicit strategy's kernel backend (see
    :mod:`repro.native.backend`); strategy instances keep the kernel they
    were built with, and non-kernel strategies ignore it.
    """
    if isinstance(backend, str):
        if backend == "explicit":
            return ExplicitStrategy(kernel=kernel)
        if backend == "enumeration":
            return EnumerationStrategy()
        if backend == "sat":
            return IncrementalSatStrategy()
        raise ValueError(
            f"unknown engine backend {backend!r} "
            "(expected 'explicit', 'enumeration' or 'sat')"
        )
    if isinstance(backend, (ExplicitStrategy, EnumerationStrategy, IncrementalSatStrategy)):
        return backend
    raise TypeError(
        f"cannot build a checking strategy from {backend!r}: expected a backend "
        "name ('explicit', 'enumeration' or 'sat') or an ExplicitStrategy, "
        "EnumerationStrategy or IncrementalSatStrategy instance"
    )
