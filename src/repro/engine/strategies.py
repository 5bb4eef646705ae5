"""Checking strategies: how the engine decides one distinct po-mask.

The engine reduces every verdict to one question per test and distinct
po-pair mask (the program-order pairs a model forces, as a bitmask over
:attr:`~repro.checker.kernel.IndexedExecution.po_pairs`): is some
execution consistent with exactly those forced edges?  Mask evaluation,
dedup, monotone derivation and the per-context memo live in
:meth:`~repro.engine.engine.CheckEngine.check_column`; a strategy only
builds its candidate space once per test and answers one mask at a time:

* :class:`ExplicitStrategy` — the pruned backtracking search of
  :mod:`repro.checker.kernel` (or its C twin) over the context's cached
  candidate space (:meth:`~repro.engine.context.TestContext.
  candidate_space`);
* :class:`IncrementalSatStrategy` — the SAT semantics of
  :class:`~repro.checker.sat_checker.SatChecker`, answering each mask with
  one ``solve(assumptions=...)`` of the test's persistent incremental
  solver over the shared CNF skeleton, so learned clauses carry over
  between masks and models.

The standalone checkers of :mod:`repro.checker` (``ExplicitChecker``,
``SatChecker``, the ``EnumerationChecker`` oracle...) answer one
``check(test, model)`` at a time and are used directly, never wrapped in
an engine.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Protocol

from repro.engine.context import TestContext

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints only
    from repro.engine.engine import EngineStats
    from repro.native.backend import KernelBackend


class CheckStrategy(Protocol):
    """The strategy interface the engine dispatches to."""

    name: str

    @property
    def kernel(self) -> Optional["KernelBackend"]:
        """The po-mask evaluator (None: the bigint closure lowering)."""
        ...

    def prepare(self, context: TestContext) -> bool:
        """Build the context's candidate space; False when no execution can
        exist under any model (every verdict is then ``forbidden``)."""
        ...

    def decide(self, context: TestContext, mask: int, stats: "EngineStats") -> bool:
        """Return whether some execution honours the forced po-mask."""
        ...


class ExplicitStrategy:
    """Pruned backtracking over the context's candidate space.

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

    def prepare(self, context: TestContext) -> bool:
        # infeasible: some load's observed value is unobtainable
        return not context.candidate_space().infeasible

    def decide(self, context: TestContext, mask: int, stats: "EngineStats") -> bool:
        kernel = self.kernel
        if kernel.is_native:
            stats.native_searches += 1
        else:
            stats.fallback_searches += 1
        return kernel.allowed(context.candidate_space(), mask)


class IncrementalSatStrategy:
    """One persistent assumption-based SAT solver per test.

    The assumptions are derived from the same IR-memoized po-pair mask the
    explicit kernel consumes, so each distinct subformula's truth vector is
    computed once per test whichever backend asks.
    """

    name = "sat"
    kernel: Optional["KernelBackend"] = None

    def prepare(self, context: TestContext) -> bool:
        return not context.skeleton().trivially_unsat

    def decide(self, context: TestContext, mask: int, stats: "EngineStats") -> bool:
        solver = context.solver()
        stats.clauses_reused += solver.num_learned_clauses()
        stats.solver_calls += 1
        assumptions = context.skeleton().po_assumptions_from_mask(mask)
        return solver.solve(assumptions).satisfiable


def make_strategy(backend: object, kernel: object = None) -> CheckStrategy:
    """Resolve a backend specification into a strategy.

    ``backend`` is a strategy name (``"explicit"`` or ``"sat"``) or an
    instance of one of those two strategies; anything else — a standalone
    checker object included — raises ``TypeError``.  ``kernel`` selects the
    explicit strategy's kernel backend (see :mod:`repro.native.backend`);
    strategy instances keep the kernel they were built with, and the SAT
    strategy ignores it.
    """
    if isinstance(backend, str):
        if backend == "explicit":
            return ExplicitStrategy(kernel=kernel)
        if backend == "sat":
            return IncrementalSatStrategy()
        raise ValueError(
            f"unknown engine backend {backend!r} (expected 'explicit' or 'sat')"
        )
    if isinstance(backend, (ExplicitStrategy, IncrementalSatStrategy)):
        return backend
    raise TypeError(
        f"cannot build a checking strategy from {backend!r}: expected a backend "
        "name ('explicit' or 'sat') or an ExplicitStrategy or "
        "IncrementalSatStrategy instance"
    )
