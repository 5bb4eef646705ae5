"""Per-test cached state shared by every model of an exploration.

A :class:`TestContext` owns everything about one litmus test that does *not*
depend on the memory model being checked:

* the evaluated :class:`~repro.core.execution.Execution` (or the evaluation
  error when the candidate outcome is malformed) — evaluated exactly once,
  however many models are checked against the test;
* the :class:`~repro.checker.kernel.IndexedExecution` the kernel-based
  explicit backend searches over (events as ints, relations as bitmasks);
* the model-independent CNF skeleton and the persistent incremental
  :class:`~repro.sat.solver.SatSolver` the SAT backend instantiates per
  po-mask through assumption literals, reusing learned clauses.

Two model-dependent caches make repeated checks cheap.  The po-pair truth
vector (bitmask) a model forces on this test is keyed by the model's **IR
digest** (:mod:`repro.compile`) — semantic identity, not object identity —
so warm caches survive model re-registration, and an inline model document
resent to a ``serve`` session hits the same entries as the original.  The
verdict depends on the test and that mask alone, so :attr:`TestContext.
verdicts` memoizes mask -> verdict: models forcing identical edges share
one search, in one column or across the model-major loop of
:meth:`~repro.engine.engine.CheckEngine.verdict_vector`.

Everything is built lazily so a context only pays for the strategy that
actually uses it.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.checker.encoder import Encoding, encode_skeleton
from repro.checker.kernel import IndexedExecution
from repro.core.execution import Execution, ExecutionError
from repro.core.expr import ExprError
from repro.core.litmus import LitmusTest
from repro.sat.solver import SatSolver


class TestContext:
    """Cached model-independent state for one litmus test."""

    def __init__(self, test: LitmusTest) -> None:
        self.test = test
        self.execution: Optional[Execution] = None
        self.error: str = ""
        try:
            self.execution = test.execution()
        except (ExecutionError, ExprError) as error:
            self.error = f"execution cannot be evaluated: {error}"

        self._indexed: Optional[IndexedExecution] = None
        # po-pair masks keyed by the model's IR digest (semantic identity):
        # structurally equal models — re-registered, resent over serve, or
        # simply distinct objects — share one entry.
        self._po_masks: Dict[str, int] = {}
        #: po-mask -> verdict under the engine's strategy (written only by
        #: :meth:`~repro.engine.engine.CheckEngine.check_column`)
        self.verdicts: Dict[int, bool] = {}

        # SAT-strategy caches.
        self._skeleton: Optional[Encoding] = None
        self._solver: Optional[SatSolver] = None

    # ------------------------------------------------------------------
    # kernel-strategy caches
    # ------------------------------------------------------------------
    @property
    def candidate_space_built(self) -> bool:
        """True once some strategy has built its candidate space."""
        return self._indexed is not None or self._skeleton is not None

    def indexed(self) -> IndexedExecution:
        """Return the bitset-indexed execution, building it once."""
        assert self.execution is not None
        if self._indexed is None:
            self._indexed = IndexedExecution(self.execution)
        return self._indexed

    def po_masks_column(self, compiled_models, stats=None, kernel=None) -> List[int]:
        """Return the column's po-pair masks, batch-evaluating misses.

        Masks are cached by IR digest; a hit increments
        ``stats.po_edge_cache_hits``.  The streaming pipeline answers each
        test for the full model space exactly once, so the common case is
        every digest missing; the misses go through the kernel's
        :meth:`~repro.native.backend.KernelBackend.po_pair_masks` — one
        combined-program evaluation for the column instead of one call per
        model.  ``kernel=None`` evaluates through the bigint closure
        lowering; all evaluators compute identical masks.
        """
        masks = self._po_masks
        missing = []
        for compiled in compiled_models:
            if compiled.digest not in masks:
                missing.append(compiled)
            elif stats is not None:
                stats.po_edge_cache_hits += 1
        if missing:
            indexed = self.indexed()
            if kernel is None:
                for compiled in missing:
                    masks[compiled.digest] = compiled.mask_program(indexed)
            else:
                for compiled, mask in zip(missing, kernel.po_pair_masks(indexed, missing)):
                    masks[compiled.digest] = mask
        return [masks[compiled.digest] for compiled in compiled_models]

    # ------------------------------------------------------------------
    # SAT-strategy caches
    # ------------------------------------------------------------------
    def skeleton(self) -> Encoding:
        """Return the model-independent CNF skeleton, encoding once."""
        assert self.execution is not None
        if self._skeleton is None:
            self._skeleton = encode_skeleton(self.execution)
        return self._skeleton

    def solver(self) -> SatSolver:
        """Return the persistent incremental solver over the skeleton."""
        if self._solver is None:
            self._solver = SatSolver(self.skeleton().cnf)
        return self._solver
